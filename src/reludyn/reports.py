"""Emission of a RunLog: CSV tables, meta.json and optional SVG plots,
their bytes a function of the log alone."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .config import _cell_key
from .units import RunLog, _grouped, _numeric_keys


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, rows: list[dict]) -> None:
    keys = list(dict.fromkeys(k for row in rows for k in row))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_fmt_cell(row.get(k)) for k in keys])


def _jsonable(v):
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        v = float(v)
        return v if math.isfinite(v) else repr(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    return v


def emit_reports(log: RunLog, out_dir, plots: bool = False) -> list[Path]:
    """Write summary.csv, per-table CSVs, meta.json, optional SVG plots.

    Emission is pure: the same log yields the same bytes, and summary
    rows carry the config hash so they can be traced back to meta.json.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    summary = [dict(config=log.config_hash, **row) for row in log.rows]
    path = out / "summary.csv"
    if summary:
        _write_csv(path, summary)
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerow(["config"])
    written.append(path)
    if log.aggregates:
        path = out / "aggregate.csv"
        _write_csv(path, log.aggregates)
        written.append(path)
    for name in sorted(log.tables):
        path = out / f"{name}.csv"
        _write_csv(path, log.tables[name])
        written.append(path)
    meta = {
        "kind": log.kind,
        "config_hash": log.config_hash,
        "config": log.config,
        "ledgers": log.ledgers,
        "assumptions": log.assumptions,
        "failed": log.failed,
        "row_count": len(log.rows),
        "wall_clock_s": round(log.wall_clock, 3),
        "environment": log.environment,
        "peak_rss_mb": log.peak_rss_mb,
    }
    if log.timings:
        meta["timings_s"] = {k: round(v, 3) for k, v in log.timings.items()}
    path = out / "meta.json"
    path.write_text(
        json.dumps(_jsonable(meta), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    written.append(path)
    if plots:
        for fname, svg in _plots(log):
            path = out / fname
            path.write_text(svg, encoding="utf-8")
            written.append(path)
    return written


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

_TAG_KEYS = {
    "seed", "epoch", "iteration", "trial", "t", "point", "bin",
    "arch", "bn_mode", "factor", "samples", "arm", "overparam",
    "p_w", "p_v", "guaranteed", "diverged", "ok", "bias", "kept",
    "n_kept", "config", "student", "teacher",
}


def svg_line_plot(series: dict[str, tuple[list, list]], title: str,
                  xlabel: str, ylabel: str) -> str:
    """Minimal self-contained line chart; coordinates rounded to 0.01."""
    width, height = 720, 440
    ml, mr, mt, mb = 64, 156, 36, 46
    pts_x = [x for xs, _ in series.values() for x in xs
             if isinstance(x, (int, float)) and math.isfinite(x)]
    pts_y = [y for _, ys in series.values() for y in ys
             if isinstance(y, (int, float)) and math.isfinite(y)]
    x0, x1 = (min(pts_x), max(pts_x)) if pts_x else (0.0, 1.0)
    y0, y1 = (min(pts_y), max(pts_y)) if pts_y else (0.0, 1.0)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    sx = lambda x: ml + (x - x0) / (x1 - x0) * (width - ml - mr)
    sy = lambda y: height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)
    f = lambda v: f"{v:.2f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="22" font-family="sans-serif" font-size="14">'
        f'{title}</text>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
        f'y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        f'stroke="black"/>',
        f'<text x="{(ml + width - mr) // 2}" y="{height - 10}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle">'
        f'{xlabel}</text>',
        f'<text x="14" y="{(mt + height - mb) // 2}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {(mt + height - mb) // 2})">'
        f'{ylabel}</text>',
    ]
    for i in range(5):
        xv = x0 + i * (x1 - x0) / 4
        yv = y0 + i * (y1 - y0) / 4
        parts.append(
            f'<line x1="{f(sx(xv))}" y1="{height - mb}" x2="{f(sx(xv))}" '
            f'y2="{height - mb + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{f(sx(xv))}" y="{height - mb + 16}" '
            f'font-family="sans-serif" font-size="10" text-anchor="middle">'
            f'{xv:.4g}</text>'
        )
        parts.append(
            f'<line x1="{ml - 4}" y1="{f(sy(yv))}" x2="{ml}" '
            f'y2="{f(sy(yv))}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{f(sy(yv))}" font-family="sans-serif" '
            f'font-size="10" text-anchor="end">{yv:.4g}</text>'
        )
    for idx, (name, (xs, ys)) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(
            f"{f(sx(x))},{f(sy(y))}"
            for x, y in zip(xs, ys)
            if isinstance(y, (int, float)) and math.isfinite(y)
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = mt + 14 * (idx + 1)
        parts.append(
            f'<line x1="{width - mr + 8}" y1="{ly - 4}" '
            f'x2="{width - mr + 28}" y2="{ly - 4}" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - mr + 32}" y="{ly}" '
            f'font-family="sans-serif" font-size="10">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _series_key(row: dict, keys: list[str]) -> str:
    return ",".join(f"{k}={row[k]}" for k in keys if k in row)


def _plots(log: RunLog) -> list[tuple[str, str]]:
    plots: list[tuple[str, str]] = []
    if log.kind == "overparam_grid":
        for key, grp in _grouped(
            log.aggregates, ("overparam", "p_w", "p_v"),
        ):
            o, p_w, p_v = key
            xs = [r["iteration"] for r in grp]
            series = {}
            for metric in ("u_min_mean", "u_max_mean", "r_max_mean",
                           "r_mean_mean"):
                if any(metric in r for r in grp):
                    series[metric] = (xs, [r.get(metric) for r in grp])
            name = f"cell_{_cell_key(int(o), p_w, p_v)}.svg"
            plots.append((name, svg_line_plot(
                series, f"overparam {o}, p_w {p_w:g}, p_v {p_v:g}",
                "iteration", "fan-out row norm",
            )))
        return plots
    if not log.rows:
        return plots
    x_key = next(
        (k for k in ("epoch", "iteration", "trial") if k in log.rows[0]),
        None,
    )
    if x_key is None:
        return plots
    tag_keys = [
        k for k in log.rows[0]
        if k in _TAG_KEYS and k != x_key and k != "diverged"
    ]
    metrics = _numeric_keys(log.rows, _TAG_KEYS | {x_key})
    for metric in metrics:
        series: dict[str, tuple[list, list]] = {}
        for row in log.rows:
            if metric not in row:
                continue
            label = _series_key(row, tag_keys) or "all"
            xs, ys = series.setdefault(label, ([], []))
            xs.append(row[x_key])
            ys.append(row[metric])
        if len(series) > 16:
            series = dict(list(series.items())[:16])
        plots.append((f"{metric}.svg", svg_line_plot(
            series, f"{log.kind}: {metric}", x_key, metric,
        )))
    return plots
