"""End-to-end acceptance suite: thirteen checks, one per headline guarantee.

Each test exercises one contract at its stated tolerance and budget and
prints a single `[ k/13] PASS ...` line carrying the measured numbers
(visible under `pytest -s`, or on failure).  The heavyweight training
runs behind checks 8 and 9 are shared through a module fixture.
"""

import json
import math
import time

import numpy as np
import pytest

from oracles import (
    fd_gradients,
    max_rel_err,
    psi_d_2d_oracle,
    random_network,
    sample_kink_free_case,
    single_layer_ledger_oracle,
    two_layer_ledger_oracle,
)
from reludyn.beta import compute_beta, psi_d, verify_identity
from reludyn.cli import main as cli_main
from reludyn.config import make_config
from reludyn.dynamics import (
    SingleLayerState,
    gate_moments,
    gate_slope_on_geodesics,
    run_single,
    single_layer_constants,
    two_layer_constants,
)
from reludyn.experiments import run_experiment
from reludyn.net import (
    BNSite,
    backward,
    bn_backward,
    build_network,
    filter_norms,
    forward,
    sgd_step,
)
from reludyn.reports import emit_reports
from reludyn.teachers import GausStream, next_batch

# test_beta.py froze these from an independent 2D Monte-Carlo run
# (4e6 samples, seed 99); re-asserted here at the acceptance tolerance
PSI_D_ORACLE = {
    np.pi / 6: (0.417103, 0.000247),
    np.pi / 2: (0.250473, 0.000217),
}


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{num:2d}/13] {'PASS' if ok else 'FAIL'} {name} ({detail})"
    print(line)
    assert ok, line


def simplex_filters(dim: int, m: int) -> np.ndarray:
    w = np.zeros((dim, m))
    w[:m] = np.eye(m) - 1.0 / m
    return w / np.linalg.norm(w, axis=0)


def rotate_columns(w: np.ndarray, angle: float, rng) -> np.ndarray:
    out = np.empty_like(w)
    for j in range(w.shape[1]):
        u = rng.normal(size=w.shape[0])
        u -= w[:, j] * (w[:, j] @ u)
        u /= np.linalg.norm(u)
        out[:, j] = math.cos(angle) * w[:, j] + math.sin(angle) * u
    return out


def perturbed_clone(teacher, rng, delta):
    ws = [w + rng.normal(0, delta * np.abs(w).mean(), w.shape) for w in teacher.weights]
    copy = lambda vs: [None if v is None else v.copy() for v in vs]
    return build_network(teacher.spec, ws, copy(teacher.biases),
                         copy(teacher.bn_c0), copy(teacher.bn_c1))


# --------------------------------------------------------------------------
# 1. channel identity is exact on random architectures
# --------------------------------------------------------------------------

def test_01_channel_identity_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        depth = int(rng.integers(2, 5))
        d_in = int(rng.integers(1, 41))
        d_out = int(rng.integers(1, 41))
        s_w = [d_in] + [int(rng.integers(1, 41)) for _ in range(depth - 1)] + [d_out]
        t_w = [d_in] + [int(rng.integers(1, 41)) for _ in range(depth - 1)] + [d_out]
        bias = bool(rng.integers(0, 2))
        student = random_network(rng, tuple(s_w), bias=bias)
        teacher = random_network(rng, tuple(t_w), bias=bias)
        x = rng.normal(0.0, 1.0, size=(int(rng.integers(1, 65)), d_in))
        tr_s, tr_t = forward(student, x), forward(teacher, x)
        grads = backward(student, tr_s, tr_t.outputs)
        betas = compute_beta(student, teacher, tr_s, tr_t)
        resid = verify_identity(betas, tr_s, tr_t, grads)
        gmax = max(float(np.abs(g).max()) for g in grads.node)
        worst = max(worst, resid / gmax if gmax > 0 else 0.0)
    dt = time.perf_counter() - t0
    _report(1, "channel identity exact on 50 random triples",
            worst < 1e-10 and dt < 30.0,
            f"worst rel residual {worst:.2e} < 1e-10, {dt:.1f} s")


# --------------------------------------------------------------------------
# 2. analytic backprop against central finite differences
# --------------------------------------------------------------------------

def test_02_backprop_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    cases = (
        [("none", (5, 8, 6, 4)), ("none", (4, 7, 5)), ("none", (6, 5, 5, 3)),
         ("none", (3, 9, 2))]
        + [("linear_relu_bn", (5, 8, 6, 4)), ("linear_relu_bn", (4, 7, 5)),
           ("linear_relu_bn", (3, 6, 6, 2))]
        + [("linear_bn_relu", (5, 8, 6, 4)), ("linear_bn_relu", (4, 7, 5)),
           ("linear_bn_relu", (3, 6, 6, 2))]
    )
    worst = 0.0
    for bn_mode, widths in cases:
        net, x = sample_kink_free_case(rng, widths, batch=12, bn_mode=bn_mode)
        target = rng.normal(0.0, 1.0, size=(12, widths[-1]))
        grads = backward(net, forward(net, x), target)
        analytic = {
            "w": list(grads.weights), "b": list(grads.biases),
            "c0": list(grads.bn_c0), "c1": list(grads.bn_c1),
        }
        worst = max(worst, max_rel_err(analytic, fd_gradients(net, x, target)))
    dt = time.perf_counter() - t0
    _report(2, "backprop matches finite differences on 10 nets",
            worst < 1e-5 and dt < 60.0,
            f"worst rel err {worst:.2e} < 1e-5, {dt:.1f} s")


# --------------------------------------------------------------------------
# 3. pre-BN filter norms conserved over 1000 SGD steps; no-BN control drifts
# --------------------------------------------------------------------------

def _norm_drift(bn_mode: str, delta: float, steps: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    teacher = random_network(rng, (6, 10, 8, 4), bn_mode=bn_mode)
    net = perturbed_clone(teacher, rng, delta)
    initial = [n.copy() for n in filter_norms(net)]
    for _ in range(steps):
        x = rng.normal(size=(64, 6))
        target = forward(teacher, x).outputs
        net = sgd_step(net, backward(net, forward(net, x), target), 0.01)
    final = filter_norms(net)
    return max(
        float((np.abs(final[li] - initial[li]) / initial[li]).max())
        for li in range(net.n_layers - 1)
    )


def test_03_bn_filter_norm_conservation():
    t0 = time.perf_counter()
    drift_a = _norm_drift("linear_relu_bn", 0.002, 1000, 303)
    drift_b = _norm_drift("linear_bn_relu", 0.002, 1000, 304)
    drift_control = _norm_drift("none", 0.01, 1000, 305)
    dt = time.perf_counter() - t0
    _report(3, "pre-BN filter norms conserved over 1000 steps",
            drift_a < 1e-6 and drift_b < 1e-6 and drift_control > 1e-3
            and dt < 60.0,
            f"drift {drift_a:.1e}/{drift_b:.1e} < 1e-6, "
            f"no-BN control {drift_control:.1e} > 1e-3, {dt:.1f} s")


# --------------------------------------------------------------------------
# 4. BN backward output is batch-centered and f-orthogonal
# --------------------------------------------------------------------------

def test_04_bn_projection_orthogonality():
    t0 = time.perf_counter()
    worst_mean, worst_corr = 0.0, 0.0
    for seed in range(100):
        rng = np.random.default_rng(4000 + seed)
        batch = int(rng.integers(2, 41))
        width = int(rng.integers(1, 13))
        f = rng.normal(rng.normal(), rng.uniform(0.5, 3.0), size=(batch, width))
        mu = f.mean(axis=0)
        sigma = np.sqrt(f.var(axis=0) + 1e-8)
        site = BNSite(f_in=f, mu=mu, sigma=sigma, f_tilde=(f - mu) / sigma,
                      c0=rng.uniform(0.5, 2.0, width))
        g_out = rng.normal(size=f.shape) * 10 ** rng.uniform(-3, 3)
        g_in, _, _ = bn_backward(g_out, site)
        scale = float(np.linalg.norm(g_out))
        worst_mean = max(worst_mean, float(np.abs(g_in.sum(axis=0)).max()) / scale)
        worst_corr = max(
            worst_corr,
            float(np.abs((g_in * f).sum(axis=0)).max())
            / (scale * float(np.linalg.norm(f))),
        )
    dt = time.perf_counter() - t0
    _report(4, "BN backward is centered and f-orthogonal on 100 sites",
            worst_mean < 1e-10 and worst_corr < 1e-10 and dt < 5.0,
            f"rel mean {worst_mean:.1e}, rel corr {worst_corr:.1e} < 1e-10, "
            f"{dt:.1f} s")


# --------------------------------------------------------------------------
# 5. joint-firing estimator against the 2D brute-force oracle
# --------------------------------------------------------------------------

def test_05_gate_overlap_matches_2d_oracle():
    t0 = time.perf_counter()
    n = 1_000_000
    details, ok = [], True
    for theta, (frozen, frozen_se) in PSI_D_ORACLE.items():
        w = np.array([1.0, 0.0])
        w_p = np.array([math.cos(theta), math.sin(theta)])
        val, se = psi_d(w, w_p, GausStream(dim=2, std=1.0, seed=55), n)
        live, live_se = psi_d_2d_oracle(theta, n, seed=56)
        ok &= abs(val - frozen) < 3 * math.sqrt(se**2 + frozen_se**2)
        ok &= abs(val - live) < 3 * math.sqrt(se**2 + live_se**2)
        details.append(f"theta={theta:.3f}: {val:.6f} vs {frozen:.6f}")
    w = np.array([0.4, -1.2, 0.3])
    val, se = psi_d(w, w, GausStream(dim=3, std=1.0, seed=57), n)
    ok &= abs(val - 0.5) < 3 * se
    details.append(f"self: {val:.6f} vs 0.5")
    dt = time.perf_counter() - t0
    _report(5, "gate overlap matches 2D Monte-Carlo oracle",
            ok and dt < 30.0, "; ".join(details) + f", {dt:.1f} s")


# --------------------------------------------------------------------------
# 6. ten-node guaranteed contraction with a measured constant ledger
# --------------------------------------------------------------------------

def test_06_single_layer_guaranteed_contraction():
    t0 = time.perf_counter()
    tau, theta_0, eta = 2.0, 0.2, 1.0
    rng = np.random.default_rng(41)
    w_star = simplex_filters(10, 10)
    w0 = rotate_columns(w_star, theta_0, rng)
    stream = GausStream(dim=10, std=1.0, seed=17)

    x = next_batch(stream, 1_000_000)
    d_tt, _, _, _ = gate_moments(x, w_star, w_star, tau)
    _, d_init, _, _ = gate_moments(x, w0, w_star, tau)
    off = ~np.eye(10, dtype=bool)
    eps_hat = float(d_tt[off].max() / np.diag(d_tt).min())
    d_min_hat = float(np.diag(d_init).min())
    k_hat = gate_slope_on_geodesics(w0, w_star, stream, 400_000, tau=tau)

    led = single_layer_constants(theta_0, 10, eps_hat, k_hat, d_min_hat, eta)
    state = SingleLayerState(w=w0, w_star=w_star, eta=eta, tau=tau)
    state, rec = run_single(state, stream, n_steps=500, n_mc=16384,
                            mode="guaranteed", ledger=led)
    allowed = led.rate + 3.0 * rec.factor_noise
    frac_ok = float(np.mean(rec.factors <= allowed))
    final_sin = float(np.max(rec.sin_theta[-1]))
    dt = time.perf_counter() - t0
    _report(6, "guaranteed per-step contraction of filter angles",
            led.feasible and led.gamma > 0.0 and frac_ok >= 0.95
            and final_sin < 0.02 and dt < 300.0,
            f"gamma {led.gamma:.4f} > 0, {100 * frac_ok:.1f}% of 500 steps "
            f"within rate, final max sin {final_sin:.1e} < 0.02, {dt:.1f} s")


# --------------------------------------------------------------------------
# 7. over-parameterized grid: spare rows die only when W starts aligned
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_07_overparam_grid_row_separation():
    t0 = time.perf_counter()
    cfg = make_config({
        "kind": "overparam_grid", "seeds": list(range(32)),
        "grid": {
            "dim": 10, "teacher_width": 20, "outputs": 30,
            "overparams": [2, 5, 10],
            "cells": [[10.0, 10.0], [10.0, 0.0], [0.0, 10.0], [0.0, 0.0]],
            "iterations": 300, "n_mc": 1024, "eta": 0.05,
            "record_every": 150, "monitor_every": 300, "probe_n": 20000,
        },
    })
    log = run_experiment(cfg)

    def cell(p_w, p_v, it):
        return [r for r in log.rows
                if r["overparam"] == 5 and r["p_w"] == p_w
                and r["p_v"] == p_v and r["iteration"] == it]

    high_final = cell(10.0, 10.0, 300)
    n_sep = sum(r["gap"] < 0.2 for r in high_final)
    ratios = []
    for p_w, p_v in ((0.0, 10.0), (0.0, 0.0)):
        first = {r["seed"]: r["gap"] for r in cell(p_w, p_v, 0)}
        last = {r["seed"]: r["gap"] for r in cell(p_w, p_v, 300)}
        ratios.append(float(np.mean([first[s] / last[s] for s in first])))
    n_div = sum(r["diverged"] for r in log.rows)
    dt = time.perf_counter() - t0
    _report(7, "spare-row separation needs aligned W at 5x width",
            len(high_final) == 32 and n_sep >= 29
            and all(r < 2.0 for r in ratios) and n_div == 0 and dt < 900.0,
            f"high cell gap<0.2 in {n_sep}/32 seeds, low-p_w shrink ratios "
            f"{ratios[0]:.2f}/{ratios[1]:.2f} < 2, {dt:.0f} s")


# --------------------------------------------------------------------------
# 8 + 9. correlation growth on infinite data, stall on a finite pool
# --------------------------------------------------------------------------

GROWTH_BASE = {
    "kind": "train", "seeds": [0, 1, 2, 3, 4], "epochs": 40,
    "batches_per_epoch": 100, "batch_size": 128, "eta": 0.01,
    "teacher": {"layer_widths": [20, 10, 15, 20, 25], "seed": 0},
    "student": {"overparam_factor": 10, "bn_mode": "linear_bn_relu"},
}


@pytest.fixture(scope="module")
def growth_runs():
    t0 = time.perf_counter()
    inf_cfg = make_config({**GROWTH_BASE, "stream": {"std": 10.0}})
    fin_cfg = make_config({
        **GROWTH_BASE,
        "stream": {"std": 10.0, "mode": "finite", "n_samples": 512},
    })
    return {
        "infinite": run_experiment(inf_cfg),
        "finite": run_experiment(fin_cfg),
        "wall": time.perf_counter() - t0,
    }


def _per_seed(log, seed, key):
    return [r[key] for r in log.rows if r["seed"] == seed]


@pytest.mark.slow
def test_08_correlation_growth_infinite_data(growth_runs):
    t0 = time.perf_counter()
    log = growth_runs["infinite"]
    finals, ok = [], True
    for seed in range(5):
        for layer in range(3):
            series = _per_seed(log, seed, f"rho_bar_l{layer}")
            ok &= series[-1] > series[0]
            if layer == 0:
                finals.append(series[-1])
                ok &= series[-1] >= 0.9
        ok &= _per_seed(log, seed, "diverged")[-1] == 0
    dt = growth_runs["wall"] + time.perf_counter() - t0
    _report(8, "layer-0 correlation reaches 0.9 on infinite data",
            ok and dt < 1200.0,
            f"final rho_bar_l0 in [{min(finals):.3f}, {max(finals):.3f}] "
            f">= 0.9 on 5 seeds, all layers grew, {dt:.0f} s incl shared runs")


@pytest.mark.slow
def test_09_finite_data_stall(growth_runs):
    t0 = time.perf_counter()
    gaps = []
    for seed in range(5):
        inf_final = _per_seed(growth_runs["infinite"], seed, "rho_bar_l0")[-1]
        fin_final = _per_seed(growth_runs["finite"], seed, "rho_bar_l0")[-1]
        gaps.append(inf_final - fin_final)
    dt = growth_runs["wall"] + time.perf_counter() - t0
    _report(9, "finite 512-sample pool stalls layer-0 correlation",
            all(g >= 0.05 for g in gaps) and dt < 1200.0,
            f"per-seed gap in [{min(gaps):.3f}, {max(gaps):.3f}] >= 0.05, "
            f"{dt:.0f} s incl shared runs")


# --------------------------------------------------------------------------
# 10. loss-vs-distance curvature: fitted fall-off exponent near 2
# --------------------------------------------------------------------------

def test_10_quadratic_falloff_exponent():
    t0 = time.perf_counter()
    cfg = make_config({
        "kind": "falloff_probe", "seeds": [0],
        "falloff": {"dim": 20, "n": 1_000_000},
    })
    log = run_experiment(cfg)
    exponent = log.rows[0]["exponent"]
    dt = time.perf_counter() - t0
    _report(10, "perturbation cost falls off quadratically",
            1.7 <= exponent <= 2.3 and dt < 120.0,
            f"log-log exponent {exponent:.3f} in [1.7, 2.3] at d=20 n=1e6, "
            f"{dt:.1f} s")


# --------------------------------------------------------------------------
# 11. lottery arms: resetting winners to their init beats re-randomizing
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_11_lottery_reset_beats_reinit():
    t0 = time.perf_counter()
    cfg = make_config({
        "kind": "lottery", "seeds": [0, 1, 2, 3, 4], "epochs": 40,
        "batches_per_epoch": 100, "batch_size": 128, "eta": 0.001,
        "teacher": {"layer_widths": [10, 8, 5], "seed": 0},
        "student": {"overparam_factor": 10, "bn_mode": "none"},
        "stream": {"std": 10.0},
        "lottery": {"retrain_epochs": 40},
    })
    log = run_experiment(cfg)
    final = {(r["seed"], r["arm"]): r["final_loss"] for r in log.tables["arms"]}
    beats = sum(final[(s, "winners_reset")] < final[(s, "winners_reinit")]
                for s in range(5))
    near_base = sum(final[(s, "winners_reset")] <= 1.5 * final[(s, "baseline")]
                    for s in range(5))
    dt = time.perf_counter() - t0
    _report(11, "winner reset beats winner reinit after pruning",
            beats >= 4 and near_base >= 4 and dt < 1800.0,
            f"reset<reinit on {beats}/5 seeds, reset<=1.5x baseline on "
            f"{near_base}/5, {dt:.0f} s")


# --------------------------------------------------------------------------
# 12. constant-ledger arithmetic against independent implementations
# --------------------------------------------------------------------------

def test_12_ledger_dual_implementation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1212)
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(0.02, 1.35)
        m = int(rng.integers(1, 26))
        args = (theta, m, 10.0 ** rng.uniform(-5.0, -1.0),
                rng.uniform(0.0, 1.8), rng.uniform(0.01, 0.6),
                10.0 ** rng.uniform(-2.0, 0.0))
        mine = single_layer_constants(*args)
        ref = single_layer_ledger_oracle(*args)
        for key in ("m_d", "d_bar", "gamma", "rate"):
            a, b = getattr(mine, key), ref[key]
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12), key
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1.0))
        assert mine.feasible == ref["feasible"]

        m2 = int(rng.integers(1, 25))
        kw = dict(
            k_d=rng.uniform(0.0, 1.5), k_l=rng.uniform(0.0, 1.5),
            theta_0=rng.uniform(0.02, 1.35),
            eps_d=10.0 ** rng.uniform(-5.0, -1.3),
            eps_l=10.0 ** rng.uniform(-5.0, -1.3),
            b_v=rng.uniform(0.3, 3.0), m=m2,
            n=m2 + int(rng.integers(0, 61)),
            c0_hat=rng.uniform(0.0, 2.0),
            eta=10.0 ** rng.uniform(-2.0, 0.0),
            d_diag_min=rng.uniform(0.01, 0.6),
            l_diag_min=rng.uniform(0.01, 0.6),
        )
        kw["b_dv"] = rng.uniform(0.0, 0.5) * kw["b_v"]
        mine2 = two_layer_constants(**kw)
        okw = dict(kw)
        okw["d_min"] = okw.pop("d_diag_min")
        okw["l_min"] = okw.pop("l_diag_min")
        ref2 = two_layer_ledger_oracle(**okw)
        for key in ("c_dr", "c_lr", "d_bar", "l_bar", "lambda_bar", "kappa",
                    "gamma_w", "gamma_v", "gamma", "rate_w", "rate_v"):
            a, b = getattr(mine2, key), ref2[key]
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12), key
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1.0))
        assert mine2.feasible == ref2["feasible"]
        assert mine2.binding == ref2["binding"]

    # degenerate closed forms, exactly
    led1 = single_layer_constants(0.3, 5, 0.0, 0.0, 0.4, 0.1)
    exact = (led1.m_d == pytest.approx(1.0 / math.cos(0.15), abs=1e-15)
             and led1.gamma == pytest.approx(math.cos(0.3), abs=1e-15))
    led2 = two_layer_constants(0.0, 0.0, 0.3, 0.0, 0.0, 2.0, 0.0,
                               4, 12, 0.0, 0.1, 0.3, 0.3)
    exact = (exact and led2.kappa == 0.0 and led2.c_dr == 0.0
             and led2.gamma == pytest.approx(min(2.0 * math.cos(0.3), 1.0),
                                             abs=1e-12))
    dt = time.perf_counter() - t0
    _report(12, "dual ledger implementations agree",
            exact and dt < 1.0,
            f"100 tuples both ledgers, worst rel gap {worst:.1e} <= 1e-12, "
            f"degenerate closed forms exact, {dt:.2f} s")


# --------------------------------------------------------------------------
# 13. reruns are byte-identical
# --------------------------------------------------------------------------

def test_13_byte_identical_reruns(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "kind": "train", "seeds": [0, 1], "epochs": 1,
        "batches_per_epoch": 3, "batch_size": 16, "eta": 0.005,
        "teacher": {"layer_widths": [4, 3, 2], "seed": 3},
        "student": {"overparam_factor": 2, "bn_mode": "none"},
        "stream": {"std": 1.0},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        outs.append((out / "summary.csv").read_bytes())
    cli_same = outs[0] == outs[1]

    grid_cfg = make_config({
        "kind": "overparam_grid", "seeds": [0],
        "grid": {"dim": 4, "teacher_width": 3, "outputs": 2,
                 "overparams": [2], "cells": [[10.0, 10.0]],
                 "iterations": 10, "n_mc": 128, "eta": 0.05,
                 "record_every": 5, "monitor_every": 5, "probe_n": 1024},
    })
    grid_outs = []
    for name in ("c", "d"):
        out = tmp_path / name
        emit_reports(run_experiment(grid_cfg), out)
        grid_outs.append((out / "summary.csv").read_bytes())
    grid_same = grid_outs[0] == grid_outs[1]
    dt = time.perf_counter() - t0
    _report(13, "rerun with same config and seeds is byte-identical",
            cli_same and grid_same,
            f"train via CLI and grid via runner, {dt:.1f} s")
