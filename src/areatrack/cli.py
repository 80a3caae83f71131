"""Command-line surface.

Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import click

from . import formats
from .cdkf import CdkfConfig, NoiseMode
from .errors import AreatrackError
from .metrics import MIN_TRACK_LEN, evaluate_detections_per_frame
from .pipeline import PipelineConfig, report_from_records, run_pipeline, smooth_records


class _Commands(click.Group):
    """Ends a command on a package error or a failed file operation: one ``error:`` line, exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (AreatrackError, OSError) as e:
            _fail(str(e))


@click.group(cls=_Commands)
def main():
    """Tracked, depth-based pothole area estimation toolkit."""


_INPUT = click.Path(exists=True, dir_okay=False)  # a missing path or a directory is a usage error


def _finite(ctx, param, value: float) -> float:
    """Click callback: the range types let NaN and infinity through."""
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


def _fail(msg: str) -> "NoReturn":  # noqa: F821 - typing only
    click.echo(f"error: {msg}", err=True)
    sys.exit(1)


@main.command()
@click.option("--manifest", "manifest_path", required=True, type=_INPUT)
@click.option("--no-smoothing", is_flag=True, default=False)
@click.option("--lam", type=click.FloatRange(min=0), default=1.0, callback=_finite,
              help="confidence weight of the noise model")
@click.option("--theta", type=click.FloatRange(min=0), default=1.0, callback=_finite,
              help="distance weight of the noise model")
@click.option("--mode", type=click.Choice([m.value for m in NoiseMode]), default="combined")
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--out", "out_path", type=click.Path(), default=None)
def estimate(manifest_path, no_smoothing, lam, theta, mode, seed, out_path):
    """Run the full pipeline on a sequence; emit per-frame result records."""
    manifest = formats.SequenceManifest.load(manifest_path)
    config = PipelineConfig(
        cdkf=CdkfConfig(lam=lam, theta=theta, mode=NoiseMode(mode)),
        smoothing=not no_smoothing,
        seed=seed,
    )
    records, _ = run_pipeline(manifest, config)
    text = formats.write_results(records)
    if out_path:
        Path(out_path).write_text(text)
    else:
        click.echo(text, nl=False)


@main.command("eval-area")
@click.option("--results", "results_path", required=True, type=_INPUT)
@click.option("--min-track-len", type=click.IntRange(min=2), default=MIN_TRACK_LEN)
@click.option("--raw", is_flag=True, default=False, help="score records as --no-smoothing writes them")
def eval_area(results_path, min_track_len, raw):
    """Area-consistency report (per-track MAE/CV/AFD/NIS averages)."""
    records = formats.parse_file(results_path, formats.parse_results)
    if raw:
        records = records.smoothed(records.columns.area_raw_m2, [0.0] * len(records))
    report = report_from_records(records, min_track_len=min_track_len)
    if not math.isfinite(report.objective):
        _fail(f"{results_path}: the area statistics overflow: objective_j={report.objective}")
    click.echo(f"# per-track averages over {report.track_count} tracks "
               f"(min length {report.min_track_len}, potholes only)")
    click.echo(f"mae={report.mae:.6f} cv={report.cv:.6f} afd={report.afd:.6f} "
               f"nis_mean={report.nis_mean:.6f} objective_j={report.objective:.6f}")
    for t in report.per_track:
        nis = f"{t.nis_mean:.6f}" if t.nis_mean is not None else "n/a"
        click.echo(f"track={t.track_id} n={t.n} mean_area={t.mean_area:.6f} "
                   f"mae={t.mae:.6f} cv={t.cv:.6f} afd={t.afd:.6f} nis={nis}")


@main.command("eval-det")
@click.option("--dets", "dets_path", required=True, type=_INPUT)
@click.option("--gt", "gt_path", required=True, type=_INPUT)
@click.option("--iou", "iou_thresh", type=click.FloatRange(min=0, max=1, min_open=True),
              default=0.7, callback=_finite)
def eval_det(dets_path, gt_path, iou_thresh):
    """Detection metrics (P/R/F1, AP50, AP50-95) for potholes."""
    dets = formats.parse_file(dets_path, formats.parse_detections)
    gts = formats.parse_file(gt_path, formats.parse_detections)
    dets = {f: [d for d in ds if d.class_id == 0] for f, ds in dets.items()}
    gt_boxes = {f: [g.bbox for g in gs if g.class_id == 0] for f, gs in gts.items()}
    rep = evaluate_detections_per_frame(dets, gt_boxes, iou_thresh)
    click.echo(f"tp={rep.tp} fp={rep.fp} fn={rep.fn} iou_thresh={rep.iou_thresh:g}")
    click.echo(f"precision={rep.precision:.4f} recall={rep.recall:.4f} f1={rep.f1:.4f}")
    click.echo(f"ap50={rep.ap50:.4f} ap50_95={rep.ap50_95:.4f}")


@main.command("optimize")
@click.option("--manifest", "manifest_path", required=True, type=_INPUT)
@click.option("--mode", type=click.Choice([m.value for m in NoiseMode]), default="combined")
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--n-init", type=click.IntRange(min=1), default=5)
@click.option("--n-iter", type=click.IntRange(min=0), default=30)
@click.option("--min-track-len", type=click.IntRange(min=2), default=MIN_TRACK_LEN)
def optimize_cmd(manifest_path, mode, seed, n_init, n_iter, min_track_len):
    """Tune the noise weights (lambda, theta) by minimizing objective J."""
    from .bayesopt import SearchSpec, optimize  # here, as scipy.stats would slow every command's start

    manifest = formats.SequenceManifest.load(manifest_path)
    records, _ = run_pipeline(manifest, PipelineConfig(smoothing=False, seed=seed))
    if report_from_records(records, min_track_len=min_track_len).track_count == 0:
        _fail(f"no pothole track reaches --min-track-len {min_track_len}; nothing to optimize")

    def objective(point) -> float:
        lam, theta = point
        cfg = CdkfConfig(lam=max(lam, 1e-6), theta=max(theta, 1e-6), mode=NoiseMode(mode))
        smoothed = smooth_records(records, cfg)
        rep = report_from_records(smoothed, min_track_len=min_track_len)
        return rep.objective

    result = optimize(objective, SearchSpec(n_init=n_init, n_iter=n_iter, seed=seed))
    lam, theta = result.best_point
    click.echo(f"lambda={lam:.6f} theta={theta:.6f} best_j={result.best_value:.6f}")
    for (p, v) in result.history:
        click.echo(f"eval lambda={p[0]:.6f} theta={p[1]:.6f} j={v:.6f}")


@main.command("synth")
@click.option("--spec", "spec_path", required=True, type=_INPUT)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=click.IntRange(min=0), default=None, help="override the spec's seed")
def synth_cmd(spec_path, out_dir, seed):
    """Render a synthetic scene into pipeline-consumable files."""
    from . import synth  # here, as only this command renders

    click.echo(str(synth.write_scene(synth.load_scene_spec(spec_path, seed), out_dir)))


if __name__ == "__main__":
    main()
