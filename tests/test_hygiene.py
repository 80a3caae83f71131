"""Source hygiene checks that need no linter, only the standard library."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import areatrack

PACKAGE = Path(areatrack.__file__).parent


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside string annotations such as ``-> "Path"``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never references, in source order."""
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for ann in [node.returns, *(a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg))]:
                if ann is not None:
                    used |= _annotation_names(ann)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return [f"line {line}: {name}" for line, name in sorted(imported) if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_record_header_spelled_only_in_formats():
    """Other modules write record files through ``formats.write_records``."""
    hits = sorted(p.name for p in PACKAGE.glob("*.py") if "format_version" in p.read_text())
    assert hits == ["formats.py"]


def test_affine_fit_and_singular_rule_written_once():
    """Least squares runs only in ``MotionTransform.fit``, and every
    singularity check reads ``geometry.SINGULAR_DET``."""
    lstsq = sorted(p.name for p in PACKAGE.glob("*.py") if "np.linalg.lstsq" in p.read_text())
    assert lstsq == ["geometry.py"]
    det = sorted(p.name for p in PACKAGE.glob("*.py") if re.search(r"\b1e-9\b", p.read_text()))
    assert det == ["geometry.py"]


def test_pinhole_model_written_once():
    """Only ``CameraIntrinsics`` reads the focal lengths and the principal
    point; every other module converts through ``ray`` and ``pixel``."""
    names = {"f_u", "f_v", "p_u", "p_v"}
    hits = sorted({p.name for p in PACKAGE.glob("*.py") for node in ast.walk(ast.parse(p.read_text()))
                   if isinstance(node, ast.Attribute) and node.attr in names})
    assert hits == ["geometry.py"]


def test_centre_distance_rule_written_once():
    """Only ``mbtp.box_setup`` reads a box's centre-pixel depth and takes
    the median fallback; every other module asks it for the distance."""
    names = {"depth_at", "median", "nanmedian"}
    hits = sorted({p.name for p in PACKAGE.glob("*.py") for node in ast.walk(ast.parse(p.read_text()))
                   if isinstance(node, ast.Attribute) and node.attr in names
                   or isinstance(node, ast.Name) and node.id in names})
    assert hits == ["mbtp.py"]


def test_record_value_errors_wrapped_once():
    """Detections and results are read through one key=value record loop,
    which alone turns a value's error into its line's ``MalformedLine``."""
    assert (PACKAGE / "formats.py").read_text().count("raise MalformedLine(line_no, str(e))") == 1


def _functions_calling(source: str, attr: str) -> list[str]:
    """Names of the functions that call a method named ``attr`` of anything
    but the ``formats`` module; ``<module>`` for a call outside any function."""
    hits = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == attr and ast.unparse(node.func.value) != "formats"):
            hits.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return hits


def test_text_files_read_only_through_formats_read_text():
    """Every text input is decoded in one place, which names an undecodable file."""
    hits = {p.name: _functions_calling(p.read_text(), "read_text") for p in PACKAGE.glob("*.py")}
    assert {name: fns for name, fns in hits.items() if fns} == {"formats.py": ["read_text"]}


def test_yaml_parsed_only_in_formats():
    """Manifests and scene specs are parsed by ``formats.read_yaml``, so
    both use one loader and word a syntax error alike."""
    hits = sorted(p.name for p in PACKAGE.glob("*.py") if re.search(r"^import yaml$", p.read_text(), re.M))
    assert hits == ["formats.py"]
    assert sum(p.read_text().count("yaml.load(") for p in PACKAGE.glob("*.py")) == 1


def test_road_slope_written_once():
    """The renderer and both oracles read a tilted road's slope from ``Surface.slope``."""
    assert (PACKAGE / "synth.py").read_text().count("math.tan(") == 1


def key_checks(source: str, keys: set[str]) -> list[str]:
    """The functions of ``source`` that word an ``unknown … key`` error, then
    each top-level name it binds to a tuple, list or set literal of two or
    more of ``keys``."""
    hits = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.JoinedStr) or isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.values if isinstance(node, ast.JoinedStr) else [node]
            text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in parts)
            if re.match(r"unknown .*\bkey\b", text):
                hits.append(owner)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    tree = ast.parse(source)
    visit(tree, "<module>")
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, (ast.Tuple, ast.List, ast.Set)):
            named = {e.value for e in node.value.elts if isinstance(e, ast.Constant)} & keys
            hits += [t.id for t in node.targets if isinstance(t, ast.Name) and len(named) >= 2]
    return hits


def test_yaml_mappings_checked_only_by_build():
    """Every YAML mapping, the manifest and its frame entries too, is checked
    by ``formats.build`` against its dataclass's fields, not by a second
    validator with its own key list."""
    from areatrack.formats import FrameEntry, SequenceManifest

    keys = {f.name for cls in (SequenceManifest, FrameEntry) for f in dataclasses.fields(cls)}
    hits = {p.name: key_checks(p.read_text(), keys) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in hits.items() if found} == {"formats.py": ["build"]}


def test_key_check_scan_finds_messages_and_key_tuples():
    source = (
        "_KEYS = ('fps', 'frames')\n_RESULT = ('frame', 'x')\n"
        "def check(d, what):\n    raise TypeError(f'unknown {what} key {d!r}')\n"
        "def other():\n    return 'unknown manifest key'\n"
        "def fine():\n    return f'unknown value {1}', ('fps', 'frames')\n"
    )
    assert key_checks(source, {"fps", "frames", "frame"}) == ["check", "other", "_KEYS"]


def record_key_spellings(source: str, keys: set[str], phrase: str) -> list[str]:
    """What ``source`` spells beyond one declaration of its record keys and one
    error wording: each literal or call that lists two or more of ``keys`` as
    strings, each string or f-string whose text holds ``<key>=``, the function
    of each string holding ``phrase`` (docstrings aside), and each key that no
    string spells."""
    tree = ast.parse(source)
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)}
    hits, spelled = [], set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Call)):
            listed = [e.value for e in (node.args if isinstance(node, ast.Call) else node.elts)
                      if isinstance(e, ast.Constant) and e.value in keys]
            if len(listed) >= 2:
                hits.append(f"line {node.lineno}: lists {', '.join(listed)}")
        if isinstance(node, ast.JoinedStr) or isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docs:
                parts = node.values if isinstance(node, ast.JoinedStr) else [node]
                text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in parts)
                spelled.add(text)
                hits.extend(f"line {node.lineno}: {k}=" for k in sorted(keys) if re.search(rf"\b{k}=", text))
                if phrase in text:
                    hits.append(owner)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return hits + [f"{k} never spelled" for k in sorted(keys - spelled)]


NUMBER_RULE = "must be a finite"


def test_record_keys_and_number_rule_spelled_once():
    """Each detection and result key is spelled once in ``formats.py``, in the
    one (key, type, write format) table that reads, checks and writes its
    record kind, and only ``formats.number`` words the number rule."""
    from areatrack.formats import FrameResultRecord
    from areatrack.geometry import BBox

    keys = {f.name for cls in (FrameResultRecord, BBox) for f in dataclasses.fields(cls)} - {"bbox"}
    assert record_key_spellings((PACKAGE / "formats.py").read_text(), keys, NUMBER_RULE) == ["number"]
    others = {p.name: record_key_spellings(p.read_text(), set(), NUMBER_RULE)
              for p in sorted(PACKAGE.glob("*.py")) if p.name != "formats.py"}
    assert {name: found for name, found in others.items() if found} == {}


def test_key_spelling_scan_finds_lists_fstrings_and_wording():
    source = (
        '"""v must be a finite number."""\n'
        "_KEYS = ('frame', 'x')\n"
        "get = itemgetter('frame', 'h')\n"
        "def write(d):\n    return f'frame={d.frame} w={d.w:.6f} {d.y}'\n"
        "def check(v):\n    '''v must be a finite number'''\n    raise ValueError(f'{v} must be a finite number')\n"
        "ROWS = (('frame', int), ('y', float))\n"
    )
    assert record_key_spellings(source, {"frame", "x", "y", "w", "h", "nis"}, NUMBER_RULE) == [
        "line 2: lists frame, x", "line 3: lists frame, h", "line 5: frame=", "line 5: w=", "check",
        "nis never spelled", "w never spelled"]


def comparison_owners(source: str, name: str) -> list[str]:
    """The enclosing function of each comparison in ``source`` that has the
    name ``name``, bare or as an attribute, on either side."""
    hits = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Compare) and any(
                isinstance(n, ast.Name) and n.id == name or isinstance(n, ast.Attribute) and n.attr == name
                for n in [node.left, *node.comparators]):
            hits.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return hits


def test_births_decided_only_in_associate():
    """``associate`` alone compares confidences with ``HIGH_CONF_THRESHOLD``:
    the stage-1 pool and the births are one rule, which ``Tracker.step`` reads."""
    owners = comparison_owners((PACKAGE / "tracking.py").read_text(), "HIGH_CONF_THRESHOLD")
    assert owners and set(owners) == {"associate"}, owners


def test_comparison_scan_finds_bare_and_attribute_names():
    source = (
        "T = 0.5\n"
        "def a(c):\n    return c >= T, max(c, T)\n"
        "class K:\n    def step(self, c):\n        return [j for j in c if m.T <= j], T\n"
        "def b(c):\n    return 0 < c < T\n"
        "def d(c):\n    return c >= U\n"
    )
    assert comparison_owners(source, "T") == ["a", "step", "b"]


def test_cli_catches_in_one_place():
    """Data errors reach the user through the command group alone."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    handlers = [n for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler)]
    assert len(handlers) == 1


def _calls_of(name: str) -> list[tuple[str, str, int]]:
    """(module file, enclosing function, line) of every package call of a
    function or method named ``name``."""
    hits = []

    def visit(node, path, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            hits.append((path.name, owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for p in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(p.read_text()), p, "<module>")
    return hits


def test_detections_measured_before_tracking_in_one_place():
    """The pipeline measures a frame's detections once and tracks only the
    measured ones, so a skipped box never takes a track id. The one other
    ``estimate_areas`` call is ``mbtp.estimate_area``, its one-box case."""
    (measure,) = [hit for hit in _calls_of("estimate_areas") if hit[:2] != ("mbtp.py", "estimate_area")]
    (track,) = _calls_of("step")
    assert measure[:2] == track[:2] == ("pipeline.py", "_process_frame")
    assert measure[2] < track[2]


def test_detector_flags_unused_and_keeps_used():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence\n"
        "from pathlib import Path\n"
        "def f(x: Optional[int]) -> 'Path':\n"
        "    return np.zeros(3)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: Sequence"]


PERFBENCH_LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def missing_traced_names(source: str) -> list[str]:
    """Entries of ``TIMED`` and ``COUNTED`` whose ``(owner, attr)`` the
    package does not define, so that the tracer's rebinding would fail.

    Owners are module names imported with ``from areatrack import ...``,
    optionally followed by a class; the attribute must be in the owner's
    own ``__dict__``, which is where the tracer looks it up.
    """
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name: f"areatrack.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "areatrack"
        for alias in node.names
    }
    missing = []
    for node in tree.body:
        if not (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id in ("TIMED", "COUNTED") for t in node.targets)):
            continue
        for entry in node.value.elts:
            owner, attr = ast.unparse(entry.elts[1]), entry.elts[2].value
            root, *path = owner.split(".")
            obj = importlib.import_module(modules[root]) if root in modules else None
            for part in path:
                obj = getattr(obj, part, None)
            if obj is None or attr not in vars(obj):
                missing.append(f"{owner}.{attr}")
    return missing


def test_perfbench_traced_names_exist():
    source = PERFBENCH_LAYERS.read_text()
    assert "TIMED" in source and "COUNTED" in source
    assert missing_traced_names(source) == []


def test_traced_name_check_flags_missing_names():
    source = (
        "from areatrack import formats, mbtp\n"
        "TIMED = [\n"
        "    ('a', mbtp, 'estimate_area', None),\n"
        "    ('b', mbtp, 'no_such_function', None),\n"
        "    ('c', formats.SequenceManifest, 'load', None),\n"
        "    ('d', formats.SequenceManifest, 'no_such_method', None),\n"
        "    ('e', formats.NoSuchClass, 'load', None),\n"
        "    ('f', unimported, 'load', None),\n"
        "]\n"
        "COUNTED = [('g', mbtp, 'gone')]\n"
    )
    assert missing_traced_names(source) == [
        "mbtp.no_such_function",
        "formats.SequenceManifest.no_such_method",
        "formats.NoSuchClass.load",
        "unimported.load",
        "mbtp.gone",
    ]


def unset_fields(source: str, classes: dict) -> list[str]:
    """``Class.field`` for each dataclass field that no call of that class
    in ``source`` passes by keyword."""
    passed = {name: set() for name in classes}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in passed:
            passed[node.func.id] |= {kw.arg for kw in node.keywords}
    return [f"{name}.{f.name}" for name, cls in classes.items()
            for f in dataclasses.fields(cls) if f.name not in passed[name]]


README = Path(__file__).resolve().parent.parent / "README.md"


def module_constants(source: str) -> list[str]:
    """The public UPPER_CASE names a module assigns at its top level."""
    names = []
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        names += [t.id for t in targets if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)]
    return names


def configuration_table(readme: str) -> dict[str, str]:
    """Constant name -> module of each row of the README's "Configuration" table."""
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|.*\| `(\w+)` \|[^|]*\|$", section, flags=re.M)
    return dict(rows)


def test_every_module_constant_in_configuration_table():
    table = configuration_table(README.read_text())
    constants = {name: p.stem for p in sorted(PACKAGE.glob("*.py")) for name in module_constants(p.read_text())}
    assert constants
    assert {name: module for name, module in constants.items() if table.get(name) != module} == {}


def test_constant_scan_reads_top_level_public_names():
    source = "A_B = 1\nC: int = 2\n_D = 3\nlower = 4\nE, F = 5, 6\ndef f():\n    G = 7\n"
    assert module_constants(source) == ["A_B", "C"]


def test_every_config_field_is_a_cli_option():
    """A config field the command line never sets has one value in use,
    so it belongs in a module constant."""
    from areatrack.bayesopt import SearchSpec
    from areatrack.cdkf import CdkfConfig
    from areatrack.pipeline import PipelineConfig

    classes = {"PipelineConfig": PipelineConfig, "CdkfConfig": CdkfConfig, "SearchSpec": SearchSpec}
    assert unset_fields((PACKAGE / "cli.py").read_text(), classes) == []


def test_unset_field_check_flags_missing_keywords():
    @dataclasses.dataclass
    class Spec:
        a: int = 0
        b: int = 0

    source = "Spec(a=1)\nOther(b=2)\nx.Spec(b=3)\n"
    assert unset_fields(source, {"Spec": Spec}) == ["Spec.b"]


def log_calls(source: str, level: str) -> list[int]:
    """Lines of the ``log.<level>(...)`` calls in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == level and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "log"]


def test_pipeline_has_one_skip_warning():
    """The estimator decides which boxes cannot be measured and says why
    with a typed error; the frame step logs every skip in one format."""
    assert len(log_calls((PACKAGE / "pipeline.py").read_text(), "warning")) == 1


def test_log_call_scan_counts_only_log_calls():
    source = "log.warning('a')\nif x:\n    log.warning('b %s', y)\nother.warning('c')\nlog.info('d')\n"
    assert log_calls(source, "warning") == [1, 3]
