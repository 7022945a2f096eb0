"""The reduced two-layer grid: trajectories over (overparam) x (init
proximity) cells, each cell with its measured constant ledger."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict

import numpy as np

from .config import ExperimentConfig, _cell_key
from .dynamics import (
    column_angles,
    geodesic_slopes,
    mixed_two_layer_init,
    monitor_hypotheses,
    quadratic_falloff_probe,
    reduced_teacher,
    self_moments,
    spare_row_gap,
    step_two_layer,
    two_layer_constants,
    two_layer_moments,
)
from .errors import DegenerateBatchError, NumericError
from .teachers import GausStream, next_batch
from .units import RunLog, _aggregate, _derive_seed, _merged, _parallel_map

# A grid unit whose recorded fan-out row norm exceeds this has diverged:
# the teacher's fan-out rows have norm at most sqrt(outputs).
DIVERGENCE_NORM = 1e6


def _measure_cell_ledger(state, grid: dict, cell_index: int, cell: str,
                         c0_hat: float) -> tuple:
    """Convergence-constant inputs measured on the cell's own geometry.

    Separation scales are worst off-diagonal/diagonal moment ratios of
    the alignment targets (0 for a single filter); slopes are probed
    along the geodesics the u-set would traverse.  The initial angle is
    clamped into the open quarter circle; a start beyond it simply
    yields an infeasible ledger.  A target that never fires on the probe
    batch leaves no ratio to take and raises DegenerateBatchError.
    """
    d = state.w.shape[0]
    m, n = state.u_count, state.n_filters
    x = next_batch(
        GausStream(dim=d, std=1.0, seed=_derive_seed(5, cell_index)),
        grid["probe_n"],
    )
    d_t, l_t = self_moments(x, state.targets, grid["tau"])
    d_diag, l_diag = np.diag(d_t), np.diag(l_t)
    silent = np.flatnonzero((d_diag == 0.0) | (l_diag == 0.0))
    if silent.size:
        raise DegenerateBatchError(
            f"cell {cell}: alignment target {int(silent[0])} never fires "
            f"on the {x.shape[0]}-row probe batch (tau={grid['tau']:g})"
        )
    off = ~np.eye(n, dtype=bool)
    eps_d = float((d_t / d_diag[:, None])[off].max(initial=0.0))
    eps_l = float((l_t / l_diag[:, None])[off].max(initial=0.0))
    theta_raw = float(column_angles(state.w[:, :m], state.w_star).max())
    theta_0 = min(max(theta_raw, 1e-4), math.pi / 2 - 1e-9)
    k_d, k_l = geodesic_slopes(
        state.w[:, :m], state.w_star,
        GausStream(dim=d, std=1.0, seed=_derive_seed(6, cell_index)),
        grid["probe_n"], tau=grid["tau"],
    )
    row_norms = np.linalg.norm(state.v, axis=1)
    b_v = float(max(np.linalg.norm(state.v_star, axis=1).max(),
                    row_norms.max()))
    b_dv = float(np.linalg.norm(state.v[:m] - state.v_star, axis=1).max())
    inputs = dict(
        k_d=k_d, k_l=k_l, theta_0=theta_0, eps_d=eps_d, eps_l=eps_l,
        b_v=b_v, b_dv=b_dv, m=m, n=n, c0_hat=c0_hat, eta=grid["eta"],
        d_diag_min=float(d_diag.min()), l_diag_min=float(l_diag.min()),
    )
    return two_layer_constants(**inputs), dict(inputs, theta_raw=theta_raw)


def _grid_unit(payload: tuple) -> RunLog:
    """One (cell, seed) trajectory, its rows not yet tagged with the cell.

    The cell's first seed also reports the cell: it measures the cell's
    ledger on the initial pair it runs and returns the ledger block, the
    assumption entry, the per-filter detail table and, when that ledger
    is feasible in guaranteed mode, the tagged monitor rows.  A failed
    step, or a recorded fan-out row norm above DIVERGENCE_NORM or
    non-finite, marks the unit diverged and stops it.
    """
    cfg, unit = payload
    g = cfg.grid
    seed, cell_index, tags = unit["seed"], unit["cell_index"], unit["tags"]
    w_star, v_star = unit["teacher"]
    state = mixed_two_layer_init(
        np.random.default_rng(_derive_seed(1, cell_index, seed)),
        w_star, v_star, tags["overparam"] * g["teacher_width"],
        tags["p_w"], tags["p_v"], g["eta"], tau=g["tau"],
    )
    t0 = time.perf_counter()
    detailed, monitor_x = seed == cfg.seeds[0], None
    if detailed:
        key = _cell_key(**tags)
        ledger, inputs = _measure_cell_ledger(
            state, g, cell_index, key, unit["c0_hat"],
        )
        guaranteed = cfg.mode == "guaranteed" and ledger.feasible
        if guaranteed:
            monitor_x = next_batch(
                GausStream(dim=g["dim"], std=1.0,
                           seed=_derive_seed(3, cell_index, seed)),
                g["n_mc"],
            )
    t1 = time.perf_counter()
    stream = GausStream(dim=g["dim"], std=1.0,
                        seed=_derive_seed(2, cell_index, seed))
    m = state.u_count
    rows, monitors, detail = [], [], []

    def record(it: int, diverged: int) -> bool:
        """Append the state's row; True when the unit has diverged."""
        thetas = state.thetas
        norms = np.linalg.norm(state.v, axis=1)
        diverged = int(diverged or not norms.max() <= DIVERGENCE_NORM)
        u, r = norms[:m], norms[m:]
        row = dict(seed=seed, iteration=it, diverged=diverged)
        row["u_min"] = float(u.min())
        row["u_max"] = float(u.max())
        row["u_mean"] = float(u.mean())
        row["r_max"] = float(r.max()) if r.size else 0.0
        row["r_mean"] = float(r.mean()) if r.size else 0.0
        row["gap"] = float(spare_row_gap(state))
        row["sin_max"] = float(np.sin(thetas[:m]).max())
        rows.append(row)
        if detailed and not diverged:
            entry = {"t": it}
            entry.update((f"sin_{j}", float(v))
                         for j, v in enumerate(np.sin(thetas)))
            entry.update((f"v_{j}", float(v)) for j, v in enumerate(norms))
            detail.append(entry)
        return bool(diverged)

    # as in _run_training: overflow on the way to a diverged step is an
    # expected, recorded outcome
    with np.errstate(over="ignore", invalid="ignore"):
        record(0, 0)
        for it in range(1, g["iterations"] + 1):
            x = next_batch(stream, g["n_mc"])
            try:
                state = step_two_layer(state, two_layer_moments(state, x))
            except NumericError:
                # the last good state's row says so, recorded if need be
                if rows[-1]["iteration"] == it - 1:
                    rows[-1]["diverged"] = 1
                else:
                    record(it - 1, 1)
                break
            if ((it % g["record_every"] == 0 or it == g["iterations"])
                    and record(it, 0)):
                break
            if monitor_x is not None and it % g["monitor_every"] == 0:
                entry = asdict(monitor_hypotheses(state, ledger, it + 1,
                                                  monitor_x))
                monitors.append(dict(tags, guaranteed=1, seed=seed, **entry))
                if detail[-1]["t"] == it:
                    detail[-1].update(
                        {k: v for k, v in entry.items()
                         if k.startswith("slack_")},
                        gamma=ledger.gamma, rate_w=ledger.rate_w,
                    )
    log = RunLog(rows=rows, timings={"ledgers": t1 - t0,
                                     "units": time.perf_counter() - t1})
    if detailed:
        cell_mode = "guaranteed" if guaranteed else "free-run"
        log.tables[f"detail_{key}"] = detail
        if monitors:
            log.tables["monitors"] = monitors
        log.ledgers[key] = {
            "inputs": inputs, "ledger": asdict(ledger), "cell_mode": cell_mode,
        }
        log.assumptions.append({
            "cell": key,
            "cell_mode": cell_mode,
            "feasible": ledger.feasible,
            "binding": ledger.binding,
            "checked": len(monitors),
            "violations": sum(
                not (mrow["w_separation_ok"] and mrow["wu_contraction_ok"]
                     and mrow["v_contraction_ok"] and mrow["wr_bound_ok"])
                for mrow in monitors
            ),
        })
    return log


def run_overparam_grid(cfg: ExperimentConfig) -> RunLog:
    """Reduced two-layer trajectories over (overparam) x (init proximity).

    One worker pool runs every (cell, seed) unit.  Each cell's first-seed
    unit measures the cell's constant ledger on the initial pair it runs
    and reports the cell's ledger block, detail table and assumption
    entry; in guaranteed mode a feasible ledger has that unit monitor the
    hypotheses, and an infeasible one downgrades the cell to free-run
    (trajectories still run, the marking lands in the ledger block and
    the row tags).  The runner merges the units' logs and tags each row
    with its cell, taking guaranteed from the cell's first-seed unit.
    Per-iteration mean and std across seeds mirror the row-norm panels.
    The teacher is drawn once, for the c0 probe, and every unit runs on
    it.  The c0 probe is timed as a phase; the ledgers and the trajectories
    are timed in each unit and summed over units.
    """
    g = cfg.grid
    t0 = time.perf_counter()
    w_star, v_star = reduced_teacher(
        np.random.default_rng(g["teacher_seed"]), g["dim"],
        g["teacher_width"], g["outputs"],
    )
    c0_probe = quadratic_falloff_probe(
        w_star[:, 0], (0.05, 0.1, 0.2, 0.4),
        GausStream(dim=g["dim"], std=1.0, seed=_derive_seed(4)),
        g["probe_n"], n_directions=4, seed=0, tau=g["tau"],
    )
    c0_s = time.perf_counter() - t0
    units = [
        {"cell_index": ci, "seed": seed, "c0_hat": c0_probe.c0_hat,
         "teacher": (w_star, v_star),
         "tags": {"overparam": o, "p_w": p_w, "p_v": p_v}}
        for ci, (o, (p_w, p_v)) in enumerate(
            itertools.product(g["overparams"], g["cells"])
        )
        for seed in cfg.seeds
    ]
    logs = _parallel_map(_grid_unit, [(cfg, u) for u in units], cfg.workers)
    for unit, unit_log in zip(units, logs):
        # a cell's first-seed unit comes before the cell's other units
        if unit["seed"] == cfg.seeds[0]:
            cell_mode = unit_log.assumptions[0]["cell_mode"]
        tags = dict(unit["tags"], guaranteed=int(cell_mode == "guaranteed"))
        unit_log.rows = [dict(tags, **r) for r in unit_log.rows]
    log = _merged(logs)
    log.aggregates = _aggregate(
        log.rows, ("overparam", "p_w", "p_v", "iteration"), "meanstd",
    )
    log.timings["c0_probe"] = c0_s
    return log
