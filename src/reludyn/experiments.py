"""Dispatch of a validated config to its kind's runner.

Every experiment is described by a JSON config checked against the
packaged schema (reludyn.config), runs to a RunLog of plain scalar rows
(reludyn.units), and is emitted as CSV/JSON, optionally SVG
(reludyn.reports).  The three check kinds run here; the training runners
live in reludyn.training and the grid's in reludyn.grid.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import time

import numpy as np

from .beta import compute_beta, psi_d, verify_identity
from .config import ExperimentConfig
from .dynamics import quadratic_falloff_probe
from .grid import run_overparam_grid
from .net import Network, NetworkSpec, backward, build_network, forward
from .teachers import GausStream
from .training import run_lottery, run_training
from .units import RunLog, _derive_seed, _pooled

# not used here: bench/child.py traces these two as reludyn.experiments.*
from .config import make_config  # noqa: F401
from .reports import emit_reports  # noqa: F401

# BLAS reads its thread count from these once, when numpy loads it; the
# count changes the summation order of matrix products, hence last bits
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def _random_net(rng: np.random.Generator, widths: list[int],
                bias: bool) -> Network:
    spec = NetworkSpec(layer_widths=tuple(widths), bn_mode="none", bias=bias)
    weights = [
        rng.normal(0.0, 1.0 / math.sqrt(widths[li]),
                   size=(widths[li], widths[li + 1]))
        for li in range(len(widths) - 1)
    ]
    biases = [
        rng.uniform(-0.5, 0.5, size=widths[li + 1]) if bias else None
        for li in range(len(widths) - 1)
    ]
    return build_network(spec, weights, biases)


def _verify_unit(payload: tuple) -> RunLog:
    """Exactness check of the gradient decomposition on the seed's random
    pairs, n_trials of them drawn from default_rng(seed).

    Residuals are reported relative to the largest node gradient; a
    trial over tolerance has ok 0, which fails the run.
    """
    cfg, seed = payload
    rng = np.random.default_rng(seed)
    tol = cfg.verify["tol"]
    rows = []
    for trial in range(cfg.verify["n_trials"]):
        depth = int(rng.integers(2, 5))
        d_in = int(rng.integers(3, 13))
        d_out = int(rng.integers(3, 9))
        s_widths = [d_in] + [int(rng.integers(4, 25)) for _ in range(depth - 1)] + [d_out]
        t_widths = [d_in] + [int(rng.integers(4, 25)) for _ in range(depth - 1)] + [d_out]
        bias = bool(rng.integers(0, 2))
        student = _random_net(rng, s_widths, bias)
        teacher = _random_net(rng, t_widths, bias)
        x = rng.normal(0.0, 1.0, size=(int(rng.integers(4, 25)), d_in))
        tr_s, tr_t = forward(student, x), forward(teacher, x)
        grads = backward(student, tr_s, tr_t.outputs)
        betas = compute_beta(student, teacher, tr_s, tr_t)
        resid = verify_identity(betas, tr_s, tr_t, grads)
        gmax = max(float(np.abs(g).max()) for g in grads.node)
        rel = resid / gmax if gmax > 0 else 0.0
        rows.append({
            "seed": seed, "trial": trial,
            "student": "-".join(str(w) for w in s_widths),
            "teacher": "-".join(str(w) for w in t_widths),
            "bias": int(bias), "residual": float(rel),
            "ok": int(rel < tol),
        })
    return RunLog(rows=rows)


def _psi_unit(payload: tuple) -> RunLog:
    """Joint-firing moment vs the closed form (pi - angle) / 2 pi.

    The seed also checks trial -1, the self-overlap at angle 0 (closed
    form 1/2), on a stream of its own.
    """
    cfg, seed = payload
    n = cfg.psi["n"]
    w1 = np.array([1.0, 0.0])
    rows = []
    trials = [(i, angle, _derive_seed(50, seed, i))
              for i, angle in enumerate(cfg.psi["angles"])]
    trials.append((-1, 0.0, _derive_seed(51, seed)))
    for trial, angle, stream_seed in trials:
        stream = GausStream(dim=2, std=1.0, seed=stream_seed)
        w2 = np.array([math.cos(angle), math.sin(angle)])
        val, err = psi_d(w1, w2, stream, n)
        ref = (math.pi - angle) / (2.0 * math.pi)
        rows.append({
            "seed": seed, "trial": trial, "angle": angle,
            "psi_d": float(val), "stderr": float(err),
            "closed_form": ref,
            "ok": int(abs(val - ref) <= 4.0 * err + 1e-12),
        })
    return RunLog(rows=rows)


def _falloff_unit(payload: tuple) -> RunLog:
    """Perturbation-response exponent of the diagonal activation moment."""
    cfg, seed = payload
    f = cfg.falloff
    rng = np.random.default_rng(seed)
    w_star = rng.normal(size=f["dim"])
    w_star /= np.linalg.norm(w_star)
    stream = GausStream(dim=f["dim"], std=1.0, seed=_derive_seed(70, seed))
    probe = quadratic_falloff_probe(
        w_star, tuple(f["scales"]), stream, f["n"],
        n_directions=f["n_directions"], seed=_derive_seed(71, seed),
    )
    points = [
        {"seed": seed, "point": idx, "dist": float(probe.dists[idx]),
         "diff": float(probe.diffs[idx]), "stderr": float(probe.stderrs[idx]),
         "kept": int(probe.kept[idx])}
        for idx in range(len(probe.dists))
    ]
    return RunLog(rows=[{
        "seed": seed, "exponent": float(probe.exponent),
        "c0_hat": float(probe.c0_hat), "n_kept": int(probe.kept.sum()),
    }], tables={"points": points})


_RUNNERS = {
    "verify_identity": lambda cfg: _pooled(cfg, _verify_unit, cfg.seeds),
    "train": run_training,
    "overparam_grid": run_overparam_grid,
    "ablate_size": run_training,
    "ablate_overparam": run_training,
    "ablate_finite": run_training,
    "lottery": run_lottery,
    "bn_audit": run_training,
    "psi_check": lambda cfg: _pooled(cfg, _psi_unit, cfg.seeds),
    "falloff_probe": lambda cfg: _pooled(cfg, _falloff_unit, cfg.seeds),
}


def _environment() -> dict:
    """Interpreter and numpy versions, the BLAS thread variables as this
    process sees them (None when unset) and the CPU count."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def _peak_rss_mb() -> dict:
    """Peak resident memory so far, in MB, of this process ("main") and
    of its largest waited-for child ("workers", None when there was none).

    Both are process-lifetime peaks: they include whatever ran before the
    experiment in the same process.
    """
    def mb(who):
        return round(resource.getrusage(who).ru_maxrss / 1024, 1)  # KB
    return {"main": mb(resource.RUSAGE_SELF),
            "workers": mb(resource.RUSAGE_CHILDREN) or None}


def run_experiment(cfg: ExperimentConfig) -> RunLog:
    """Dispatch a validated config to its runner and stamp the log with
    the config's identity, the runner's wall-clock time, the environment
    and the peak resident memory."""
    t0 = time.perf_counter()
    log = _RUNNERS[cfg.kind](cfg)
    log.wall_clock = time.perf_counter() - t0
    log.kind, log.config, log.config_hash = cfg.kind, cfg.raw, cfg.config_hash
    log.environment = _environment()
    log.peak_rss_mb = _peak_rss_mb()
    return log
