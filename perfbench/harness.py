"""Set-up, timed passes, tracing and the report of one benchmark run."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy
import scipy

import checks
import layers
import spans
import workloads

SETUP_REPEATS = 3
MIN_PASSES = 3
REF_NOMINAL_S = 0.0096  # reference_s() on the idle 2-core sandbox the baseline was taken on
_REF_SQUARE = numpy.eye(4) * 3.0 + 0.1
_REF_RHS = numpy.ones(4)
_REF_EYE8 = numpy.eye(8)
_REF_BIG = numpy.ones(1_000_000)
E2E_UNITS = {
    "setup_s": "s",
    "frames_per_s": "1/s",
    "area_rel_err": "ratio",
    "tracks_per_object": "ratio",
    "peak_rss_mb": "MB",
}


def reference_s() -> float:
    """Wall time of a fixed kernel: the kinds of work the package does.

    Other tenants of a shared machine slow it by tens of percent for
    minutes at a time. Timing this kernel next to every pass measures how
    fast the machine runs right then, and reported times are scaled to
    REF_NOMINAL_S, the kernel's time on an idle machine. Each workload's
    slowdown tracks a different kind of work, so the kernel mixes small
    LAPACK calls, small matrix products, an interpreter loop and large
    copies; no one of them tracked all four workloads.
    """
    t0 = time.perf_counter()
    for _ in range(750):
        numpy.linalg.solve(_REF_SQUARE, _REF_RHS)
    for _ in range(1000):
        _REF_EYE8 @ _REF_EYE8 @ _REF_EYE8.T + _REF_EYE8
    x = 0
    for i in range(30_000):
        x += (i * i) % 7
    for _ in range(2):
        _REF_BIG.copy()
    return time.perf_counter() - t0


def _timed_passes(wl, seconds: float, failures: list, tracer=None):
    """Passes until ``seconds`` of wall time and at least MIN_PASSES have run.

    Returns (plain, traced): lists of (wall seconds, speed scale) per pass.
    With a tracer, traced and untraced passes alternate, so both see the
    same machine and their difference is the tracing overhead.
    """
    plain: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    start = time.perf_counter()
    ref = reference_s()
    i = 0
    while len(plain) < MIN_PASSES or time.perf_counter() - start < seconds:
        on = tracer is not None and i % 2 == 1
        if on:
            tracer.install(layers.TIMED, layers.COUNTED)
        t0 = time.perf_counter()
        try:
            with tracer.root("pass") if on else contextlib.nullcontext():
                out = wl.run_pass(i)
        except Exception as e:  # a failed operation is counted, and the run goes on
            out = e
        dt = time.perf_counter() - t0
        if on:
            tracer.uninstall()
        after = reference_s()
        (traced if on else plain).append((dt, REF_NOMINAL_S / (0.5 * (ref + after))))
        ref = after
        if isinstance(out, Exception):
            failures.append(f"pass {i}: {type(out).__name__}: {out}")
            if len(failures) > 3 * MIN_PASSES:
                break
        else:
            try:
                wl.check_pass(i, out)
            except checks.CheckFailed as e:
                failures.append(f"pass {i}: {e}")
        i += 1
    return plain, traced


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    wl = workloads.make(name, seed)
    setup = []
    ref = reference_s()
    for r in range(SETUP_REPEATS):
        d = work / f"setup{r}"
        t0 = time.perf_counter()
        wl.prepare(d)
        wl.warm_up()
        dt = time.perf_counter() - t0
        after = reference_s()
        setup.append(dt * REF_NOMINAL_S / (0.5 * (ref + after)))
        ref = after
        if r < SETUP_REPEATS - 1:
            shutil.rmtree(d)

    failures: list[str] = []
    tracer = spans.Tracer() if trace else None
    plain, traced = _timed_passes(wl, seconds, failures, tracer)
    try:
        quality = wl.finish()
    except Exception as e:  # a defect in the program under test may raise anything
        failures.append(f"final checks: {type(e).__name__}: {e}")
        quality = None
    return {
        "workload": wl,
        "setup": setup,
        "plain": plain,
        "traced": traced,
        "tracer": tracer,
        "quality": quality,
        "failures": failures,
        "attempted": len(plain) + len(traced) + 1,  # passes plus the end-of-run checks
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def pass_percentile(times: list[float]) -> tuple[float, float, int] | None:
    """(median, highest percentile with >= 10 samples beyond it, that percentile)."""
    n = len(times)
    if n < 20:
        return None
    q = int(math.floor(100.0 * (1.0 - 10.0 / n)))
    return statistics.median(times), float(numpy.percentile(times, q)), q


def report(root: Path, name: str, seed: int, trace: bool, r: dict) -> tuple[dict, list[str]]:
    wl = r["workload"]
    wall = [dt for dt, _ in r["plain"]]
    scaled = [dt * scale for dt, scale in r["plain"]]
    pass_s = statistics.median(scaled)
    lines = [
        f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__}",
        f"# workload={name} seed={seed} frames_per_pass={wl.frames} "
        f"passes={len(wall)} traced_passes={len(r['traced'])}",
        f"pass_s median={pass_s:.6f} s at reference speed (n={len(wall)})",
        f"pass_s wall median={statistics.median(wall):.6f} s, machine speed "
        f"{statistics.median(sc for _, sc in r['plain']):.3f}x reference",
    ]
    tail = pass_percentile(scaled)
    if tail:
        lines.append(f"pass_s p{tail[2]}={tail[1]:.6f} s at reference speed (n={len(wall)})")
    failed = len(r["failures"])
    lines += [f"FAILED {msg}" for msg in r["failures"]]
    lines.append(f"failed_frac={failed / r['attempted']:.6f} ({failed}/{r['attempted']})")

    metrics: dict[str, float] = {}
    if not trace:
        metrics["setup_s"] = statistics.median(r["setup"])
        metrics["frames_per_s"] = wl.frames / pass_s
        if r["quality"]:
            metrics["area_rel_err"] = r["quality"]["area_rel_err"]
            metrics["tracks_per_object"] = r["quality"]["tracks_per_object"]
        metrics["peak_rss_mb"] = r["peak_rss_mb"]
        units = E2E_UNITS
        # the workload's own names for its headline numbers
        extra = {"seq-1080p": {}, "seq-crowded": {},
                 "tune": {"tune_s": (pass_s / len(workloads.TUNE_SEEDS), "s")},
                 "render": {"render_frames_per_s": (wl.frames / pass_s, "1/s")}}[name]
        if r["quality"]:
            extra.update(r["quality"]["info"])
        lines += [f"{k}={v:.6f} {u}" for k, (v, u) in extra.items()]
    else:
        # spans hold wall time, so the overhead is taken from wall time too
        untraced_ms = 1e3 * statistics.fmean(wall)
        traced_ms = 1e3 * statistics.fmean(dt for dt, _ in r["traced"])
        metrics = layers.per_layer(r["tracer"], untraced_ms, traced_ms)
        units = layers.metric_units()
        out = root / ".perfbench" / f"spans-{name}-seed{seed}.csv.gz"
        r["tracer"].write(out)
        lines.append(f"# spans: {len(r['tracer'].spans)} written to {out.relative_to(root)}")
        lines.append(
            f"# layer self {metrics['trace.layer_self_ms']:.3f} ms + unattributed "
            f"{metrics['trace.unattributed_ms']:.3f} ms per traced pass; untraced pass "
            f"{untraced_ms:.3f} ms; tracing overhead {metrics['trace.overhead_ms']:.3f} ms")
    lines += [f"{k}={v:.6f} {units[k]}" for k, v in metrics.items()]
    result = {
        "correct": failed == 0,
        "attempted": r["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def main(root: Path, argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    work = root / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        r = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
        result, lines = report(root, args.workload, args.seed, bool(args.trace), r)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1
