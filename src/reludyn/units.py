"""Work units: the RunLog each one returns, the process pool that runs
them, and the merge and aggregation of their logs.

A kind's units are independent (cfg, unit) payloads, so a pool with N
workers produces exactly the serial result.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig


@dataclass
class RunLog:
    """Everything one experiment produced, ready for emission.

    Rows hold only str/int/float/bool/None so the CSV bytes are a pure
    function of the values; wall_clock and the per-phase timings (seconds
    by phase name) are reported in meta only and never enter a CSV.
    Each pooled work unit returns one with its rows, tables, ledgers,
    assumptions and timings, and its runner merges them with _merged and
    adds the aggregates; run_experiment sets kind, config, config_hash,
    wall_clock, the environment it ran in and the peak resident memory.
    failed is read from the rows: any ok == 0 fails.
    """

    rows: list[dict]
    aggregates: list[dict] = field(default_factory=list)
    tables: dict[str, list[dict]] = field(default_factory=dict)
    ledgers: dict = field(default_factory=dict)
    assumptions: list[dict] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    kind: str = ""
    config: dict = field(default_factory=dict)
    config_hash: str = ""
    wall_clock: float = 0.0
    environment: dict = field(default_factory=dict)
    peak_rss_mb: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return any(row.get("ok") == 0 for row in self.rows)


def _merged(logs: list[RunLog]) -> RunLog:
    """The work units' logs as one run's: rows, same-named tables and
    assumptions concatenated in unit order, ledgers joined, timings
    summed by phase."""
    out = RunLog(rows=[])
    for log in logs:
        out.rows.extend(log.rows)
        for name, rows in log.tables.items():
            out.tables.setdefault(name, []).extend(rows)
        out.ledgers.update(log.ledgers)
        out.assumptions.extend(log.assumptions)
        for phase, seconds in log.timings.items():
            out.timings[phase] = out.timings.get(phase, 0.0) + seconds
    return out


def _numeric_keys(rows: list[dict], skip: set[str]) -> list[str]:
    """Keys outside skip in order of their first int or float (not bool)."""
    return list(dict.fromkeys(
        k for row in rows for k, v in row.items() if k not in skip
        and isinstance(v, (int, float)) and not isinstance(v, bool)
    ))


def _grouped(rows: list[dict], by: tuple[str, ...]):
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = tuple(row.get(k) for k in by)
        groups.setdefault(key, []).append(row)
    return sorted(groups.items(), key=lambda kv: kv[0])


def _aggregate(rows: list[dict], by: tuple[str, ...], stats: str) -> list[dict]:
    if not rows:
        return []
    metrics = _numeric_keys(rows, set(by) | {"seed"})
    out = []
    for key, grp in _grouped(rows, by):
        agg = dict(zip(by, key))
        agg["n_seeds"] = len({r.get("seed") for r in grp})
        for k in metrics:
            vals = [r[k] for r in grp if r.get(k) is not None]
            if not vals:
                continue
            if stats == "minmax":
                agg[f"{k}_min"] = float(min(vals))
                agg[f"{k}_max"] = float(max(vals))
            else:
                # a NaN mean is an empty cell, and so is the spread of values
                # not all finite, where np.std would take inf - inf
                mean = float(np.mean(vals))
                agg[f"{k}_mean"] = None if math.isnan(mean) else mean
                agg[f"{k}_std"] = (float(np.std(vals))
                                   if all(map(math.isfinite, vals)) else None)
        out.append(agg)
    return out


def _parallel_map(fn, payloads: list, workers: int) -> list:
    """fn over payloads, in order, on at most one process per payload and
    per CPU: the pool starts all its processes at once."""
    workers = min(workers, len(payloads), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads))


def _pooled(cfg: ExperimentConfig, unit_fn, units: list) -> RunLog:
    """unit_fn's logs over (cfg, unit) per unit, merged in unit order."""
    return _merged(_parallel_map(unit_fn, [(cfg, u) for u in units],
                                 cfg.workers))


def _derive_seed(*parts: int) -> int:
    """Deterministic child seed from a tuple of role/unit tags."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])
