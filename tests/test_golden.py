"""Golden outputs: the bytes ``write_results`` writes, smoothed and raw, on
three sequences, and the optimizer histories of the benchmark's tuner and of
criterion 08.

A change that keeps every output bit passes this file unedited. A change
that declares new outputs rewrites ``golden.json`` with

    PYTHONPATH=src python tests/test_golden.py

and lists the new hashes in CHANGES.md. Each case pins the sha256 of its
whole text and an 8-digit digest of each of its lines, so that a mismatch
names its first differing line. The sequences come from ``perfbench/gen.py``
and the tuner from ``perfbench/workloads.py``, both imported, not copied.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from areatrack import formats
from areatrack.pipeline import PipelineConfig, run_pipeline
from areatrack.synth import write_scene

from test_acceptance import CRITERION_11_SCENE, criterion_08_searches

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402
import workloads  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")
DIGEST_LEN = 8
TUNE_SEEDS = (1, 5, 13)
SEQUENCES = {"criterion-11": lambda out: write_scene(CRITERION_11_SCENE, out),
             "layout_1080p(0)": lambda out: gen.write_sequence(gen.layout_1080p(0), out),
             "layout_crowded(0)": lambda out: gen.write_sequence(gen.layout_crowded(0), out)}
CASES = ([f"{name} {kind}" for name in SEQUENCES for kind in ("smoothed", "raw")]
         + [f"tune seed {seed}" for seed in TUNE_SEEDS] + ["criterion 08"])


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _results(manifest_path: Path) -> dict[str, tuple[str, list[str]]]:
    """The smoothed and the raw ``write_results`` text of a sequence, and its lines."""
    manifest = formats.SequenceManifest.load(manifest_path)
    out = {}
    for name, smoothing in (("smoothed", True), ("raw", False)):
        text = formats.write_results(run_pipeline(manifest, PipelineConfig(smoothing=smoothing))[0])
        out[name] = text, text.splitlines()
    return out


def _histories(histories: list) -> tuple[str, list[str]]:
    """``repr`` of a list of optimizer histories, and each history's ``repr`` as a line."""
    return repr(histories), [repr(h) for h in histories]


def outputs(work: Path) -> dict[str, tuple[str, list[str]]]:
    """Every case's text, whose sha256 is pinned, and the lines whose digests are."""
    cases = {}
    for name, write in SEQUENCES.items():
        for kind, case in _results(write(work / name)).items():
            cases[f"{name} {kind}"] = case
    for seed in TUNE_SEEDS:
        tune = workloads.Tune(seed)
        tune.prepare(work / f"tune-{seed}")
        cases[f"tune seed {seed}"] = _histories([r.history for r in tune.run_pass(0)])
    cases["criterion 08"] = _histories([res.history for _, res in criterion_08_searches()])
    return cases


def golden_entry(text: str, lines: list[str]) -> dict[str, str]:
    return {"sha256": _sha256(text), "lines": "".join(_sha256(line)[:DIGEST_LEN] for line in lines)}


def first_difference(lines: list[str], digests: str) -> str:
    """Where ``lines`` first part from the lines that ``digests`` pins."""
    want = [digests[i:i + DIGEST_LEN] for i in range(0, len(digests), DIGEST_LEN)]
    for n, (line, digest) in enumerate(zip(lines, want), start=1):
        if _sha256(line)[:DIGEST_LEN] != digest:
            shown = line if len(line) <= 300 else line[:300] + "..."
            return f"line {n} differs first, now {shown!r}"
    if len(lines) != len(want):
        return f"the first {min(len(lines), len(want))} lines agree, now {len(lines)} lines against {len(want)}"
    return "every line agrees, so only the text between them differs"


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", CASES)
def test_output_unchanged(computed, case):
    want = json.loads(GOLDEN.read_text())[case]
    text, lines = computed[case]
    if _sha256(text) != want["sha256"]:
        pytest.fail(f"{case}: sha256 {_sha256(text)} is not the pinned {want['sha256']}; "
                    f"{first_difference(lines, want['lines'])}")


def test_every_case_pinned(computed):
    assert list(computed) == list(json.loads(GOLDEN.read_text())) == CASES


def test_first_difference_names_the_line():
    lines = ["a", "b", "c"]
    digests = golden_entry("", lines)["lines"]
    assert first_difference(["a", "x", "c"], digests) == "line 2 differs first, now 'x'"
    assert first_difference(["a", "b"], digests) == "the first 2 lines agree, now 2 lines against 3"
    assert first_difference(lines, digests).startswith("every line agrees")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        doc = {name: golden_entry(*case) for name, case in outputs(Path(work)).items()}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    for name, entry in doc.items():
        print(f"{name}: {entry['sha256']}")
