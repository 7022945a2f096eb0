"""Reduced gradient dynamics: steps, constant ledgers, monitors, probes."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    act_feature,
    arccos_kernels,
    falloff_probe_reference,
    gate_feature,
    moment_with_err,
    single_layer_ledger_oracle,
    slope_on_geodesics_reference,
    two_layer_ledger_oracle,
)
from reludyn import teachers
from reludyn.dynamics import (
    ConstantLedger,
    SingleLayerState,
    TwoLayerState,
    EXACT_COUNT_ROWS,
    GRAM_BLOCK_ROWS,
    _count_dtype,
    _gate,
    _gram_mean,
    _relu,
    act_moments,
    act_slope_on_geodesics,
    column_angles,
    gate_moments,
    gate_slope_on_geodesics,
    geodesic_slopes,
    mixed_two_layer_init,
    monitor_hypotheses,
    quadratic_falloff_probe,
    reduced_teacher,
    run_single,
    self_moments,
    single_layer_constants,
    spare_row_gap,
    step_single,
    step_two_layer,
    two_layer_constants,
    two_layer_moments,
)
from reludyn.errors import (
    ConfigurationError,
    DegenerateBatchError,
    NumericError,
    PreconditionError,
)
from reludyn.teachers import MAX_MIXING, PROBE_BLOCK_ROWS, GausStream, next_batch


def simplex_filters(dim: int, m: int) -> np.ndarray:
    """m unit columns in R^dim with pairwise cosine -1/(m-1)."""
    assert dim >= m
    w = np.zeros((dim, m))
    w[:m] = np.eye(m) - 1.0 / m
    return w / np.linalg.norm(w, axis=0)


def rotate_columns(w: np.ndarray, angle: float, rng) -> np.ndarray:
    """Each column rotated by exactly `angle` along a random tangent."""
    out = np.empty_like(w)
    for j in range(w.shape[1]):
        u = rng.normal(size=w.shape[0])
        u -= w[:, j] * (w[:, j] @ u)
        u /= np.linalg.norm(u)
        out[:, j] = math.cos(angle) * w[:, j] + math.sin(angle) * u
    return out


def random_unit_columns(dim: int, n: int, rng) -> np.ndarray:
    w = rng.normal(size=(dim, n))
    return w / np.linalg.norm(w, axis=0)


# ------------------------------------------------------------------ moments


@pytest.mark.parametrize("tau", [0.0, 0.3])
def test_self_moments_equal_public_estimators_bitwise(tau):
    rng = np.random.default_rng(17)
    w = random_unit_columns(10, 12, rng)
    x = next_batch(GausStream(dim=10, std=1.0, seed=4), 3000)
    d, l = self_moments(x, w, tau)
    assert np.array_equal(d, gate_moments(x, w, w, tau)[0])
    assert np.array_equal(l, act_moments(x, w, w, tau)[0])


@pytest.mark.parametrize("tau", [0.0, 0.3, 1.0, 3.0])
def test_relu_mask_from_its_output_matches_the_input_mask(tau):
    """_relu masks max(z, 0) > tau, in place with out=; the values and
    sign bits are those of max(z, 0) masked by z > tau."""
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, tau, -tau,
               np.nextafter(tau, np.inf), np.nextafter(tau, -np.inf)]
    z = np.concatenate([special, np.random.default_rng(5).normal(0, 2, 400)])
    want = np.maximum(z, 0.0)
    if tau > 0.0:
        want *= z > tau
    in_place = z.copy()
    for got in (_relu(z, tau), _relu(in_place, tau, out=in_place)):
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got is in_place


@pytest.mark.parametrize("rows", [GRAM_BLOCK_ROWS - 1, GRAM_BLOCK_ROWS,
                                  GRAM_BLOCK_ROWS + 1, 20_000])
@pytest.mark.parametrize("tau", [0.0, 0.3])
def test_self_moments_bit_equal_across_gram_blocks(tau, rows):
    rng = np.random.default_rng(rows)
    w = random_unit_columns(10, 12, rng)
    x = rng.normal(size=(rows, 10))
    d, l = self_moments(x, w, tau)
    g, f = _gate(x @ w, tau), _relu(x @ w, tau)
    assert np.array_equal(d, _gram_mean(g, g, rows))
    assert np.array_equal(l, f.T @ f / rows)


@pytest.mark.parametrize("tau", [0.0, 0.3])
def test_self_moments_holds_one_feature_matrix(tau):
    rows, width = 20_000, 200
    rng = np.random.default_rng(29)
    x = rng.normal(size=(rows, 10))
    w = random_unit_columns(10, width, rng)
    tracemalloc.start()
    try:
        self_moments(x, w, tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    feature_bytes = rows * width * 8
    assert peak < 1.25 * feature_bytes, peak / feature_bytes


def test_self_moments_match_arccos_closed_forms():
    n = 20_000
    w = random_unit_columns(10, 20, np.random.default_rng(23))
    x = next_batch(GausStream(dim=10, std=1.0, seed=8), n)
    d, l = self_moments(x, w)
    d_cf, l_cf = arccos_kernels(w, w)
    d_err = gate_moments(x, w, w)[2]
    l_err = act_moments(x, w, w)[2]
    for est, cf, err in ((d, d_cf, d_err), (l, l_cf, l_err)):
        z = np.abs(est - cf) / (err + 1.0 / n)
        assert z.max() <= 6.0, z.max()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       dim=st.integers(1, 6), width=st.integers(1, 5),
       tau=st.sampled_from([0.0, 0.1, 1.0, 3.0]))
def test_gate_stderr_equals_two_matmul_formula(seed, n, dim, width, tau):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dim))
    x[rng.random(size=x.shape) < 0.1] = 0.0  # ties at the gate threshold
    w = rng.normal(size=(dim, width))
    w_star = rng.normal(size=(dim, width + 1))
    g, g_star = _gate(x @ w, tau), _gate(x @ w_star, tau)
    _, _, d_err, ds_err = gate_moments(x, w, w_star, tau)
    assert np.array_equal(d_err, moment_with_err(g, g)[1])
    assert np.array_equal(ds_err, moment_with_err(g, g_star)[1])


RELU_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.3, 1.0,
                 math.nextafter(0.3, 1.0), math.nextafter(0.3, 0.0)]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200),
       log_scale=st.floats(-300.0, 300.0),
       tau=st.sampled_from([0.0, -0.0, 0.3, 1.0]))
def test_relu_bit_equal_to_masked_select(seed, n, log_scale, tau):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 3)) * 10.0**log_scale
    specials = rng.choice(RELU_SPECIALS, size=z.shape)
    z = np.where(rng.random(size=z.shape) < 0.3, specials, z)
    ref = np.where(z > tau, z, 0.0)
    assert np.array_equal(_relu(z, tau).view(np.int64), ref.view(np.int64))


def test_relu_rejects_negative_or_nan_threshold_and_keeps_nan_inputs():
    z = np.array([-1.0, 0.5, 2.0])
    for tau in (-0.3, -5e-324, math.nan):
        with pytest.raises(PreconditionError):
            _relu(z, tau)
    for tau in (0.0, 0.3):
        assert np.isnan(_relu(np.array([math.nan]), tau)).all()
    # the slope probes read the same check, zero-angle columns or not
    w = np.eye(3)[:, :2]
    for ends in (w, np.eye(3)[:, 1:]):
        for slope in (geodesic_slopes, gate_slope_on_geodesics,
                      act_slope_on_geodesics):
            for tau in (-0.5, math.nan):
                with pytest.raises(PreconditionError):
                    slope(w, ends, GausStream(dim=3, std=1.0, seed=0), 100,
                          tau=tau)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30_000),
       width=st.integers(1, 12), tau=st.sampled_from([0.0, 0.3, 1.0]))
def test_gate_means_bit_equal_to_float64_counts(seed, n, width, tau):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 5))
    w = random_unit_columns(5, width, rng)
    w_star = random_unit_columns(5, width + 1, rng)
    g = (x @ w > tau).astype(np.float64)
    g_star = (x @ w_star > tau).astype(np.float64)
    d, ds, d_err, ds_err = gate_moments(x, w, w_star, tau)
    assert d.dtype == ds.dtype == np.float64
    assert np.array_equal(d, g.T @ g / n)
    assert np.array_equal(ds, g.T @ g_star / n)
    assert np.array_equal(d_err, moment_with_err(g, g)[1])
    assert np.array_equal(ds_err, moment_with_err(g, g_star)[1])
    assert np.array_equal(self_moments(x, w, tau)[0], g.T @ g / n)


def test_gate_count_dtype_switches_at_exact_float32_limit():
    assert EXACT_COUNT_ROWS == 2**24
    assert _count_dtype(1) is np.float32
    assert _count_dtype(2**24 - 1) is np.float32
    assert _count_dtype(2**24) is np.float64
    # every count up to the last float32 row count is an exact integer
    assert float(np.float32(2**24 - 1)) == 2**24 - 1
    assert float(np.float32(2**24 + 1)) != 2**24 + 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5000),
       width=st.integers(1, 12), tau=st.sampled_from([0.0, 0.3, 1.0]))
def test_act_moments_match_two_matmul_formula(seed, n, width, tau):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 5))
    w = random_unit_columns(5, width, rng)
    w_star = random_unit_columns(5, width + 1, rng)
    f = np.where(x @ w > tau, x @ w, 0.0)
    f_star = np.where(x @ w_star > tau, x @ w_star, 0.0)
    l, ls, l_err, ls_err = act_moments(x, w, w_star, tau)
    for est, err, (m_ref, err_ref) in ((l, l_err, moment_with_err(f, f)),
                                       (ls, ls_err, moment_with_err(f, f_star))):
        assert np.array_equal(est, m_ref)
        assert np.allclose(err, err_ref, rtol=1e-12, atol=0.0)


# ----------------------------------------------------- single-layer ledger


def test_single_ledger_degenerate_closed_forms():
    led = single_layer_constants(0.3, 5, 0.0, 0.0, 0.4, 0.1)
    assert led.m_d == pytest.approx(1.0 / math.cos(0.15), abs=1e-15)
    assert led.gamma == pytest.approx(math.cos(0.3), abs=1e-15)
    assert led.d_bar == pytest.approx(0.4, abs=1e-15)
    assert led.feasible


def test_single_ledger_m1_ignores_crosstalk():
    for eps in (0.0, 0.3, 5.0):
        led = single_layer_constants(0.4, 1, eps, 1.0, 0.2, 0.1)
        assert led.gamma == pytest.approx(math.cos(0.4), abs=1e-15)
        assert led.feasible


def test_single_ledger_dual_implementation_agreement():
    rng = np.random.default_rng(20240814)
    feas = 0
    for _ in range(100):
        theta = rng.uniform(0.02, 1.35)
        m = int(rng.integers(1, 26))
        eps = 10.0 ** rng.uniform(-5.0, -1.0)
        k = rng.uniform(0.0, 1.8)
        dmin = rng.uniform(0.01, 0.6)
        eta = 10.0 ** rng.uniform(-2.0, 0.0)
        mine = single_layer_constants(theta, m, eps, k, dmin, eta)
        ref = single_layer_ledger_oracle(theta, m, eps, k, dmin, eta)
        for key in ("m_d", "d_bar", "gamma", "rate"):
            a, b = getattr(mine, key), ref[key]
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12), key
        assert mine.feasible == ref["feasible"]
        feas += mine.feasible
    assert 0 < feas  # the sweep must exercise the feasible branch


def test_single_ledger_worked_example_matches_oracle():
    mine = single_layer_constants(0.2, 10, 0.01, 1.0, 0.4, 0.5)
    ref = single_layer_ledger_oracle(0.2, 10, 0.01, 1.0, 0.4, 0.5)
    assert mine.gamma == pytest.approx(ref["gamma"], rel=1e-12)
    # hand anchor: cos(0.2) - 9 * 0.01 * 2 * (1 + 2 sin 0.1)^2 / cos(0.1)
    assert mine.gamma == pytest.approx(0.71971, abs=5e-5)
    assert mine.feasible


def test_single_ledger_infeasible_flag_not_exception():
    led = single_layer_constants(0.5, 40, 0.5, 1.0, 0.4, 0.1)
    assert not led.feasible
    assert led.gamma < 0.0


def test_single_ledger_preconditions():
    with pytest.raises(PreconditionError):
        single_layer_constants(0.0, 5, 0.01, 1.0, 0.4, 0.1)
    with pytest.raises(PreconditionError):
        single_layer_constants(math.pi / 2, 5, 0.01, 1.0, 0.4, 0.1)
    with pytest.raises(PreconditionError):
        single_layer_constants(0.3, 0, 0.01, 1.0, 0.4, 0.1)
    with pytest.raises(PreconditionError):
        single_layer_constants(0.3, 5, -0.01, 1.0, 0.4, 0.1)
    with pytest.raises(PreconditionError):
        single_layer_constants(0.3, 5, 0.01, 1.0, 0.4, 0.0)


# -------------------------------------------------------- two-layer ledger

WORKED = dict(k_d=1.0, k_l=1.0, theta_0=0.1, eps_d=1e-3, eps_l=1e-3,
              b_v=1.0, b_dv=0.1, m=20, n=100, c0_hat=1.0, eta=0.1,
              d_diag_min=0.5, l_diag_min=0.5)

LEDGER_FLOATS = (
    "c_du", "c_dr", "c_lu", "c_lr",
    "m_duu", "m_dur", "m_dru", "m_drr",
    "m_luu", "m_lur", "m_lru", "m_lrr",
    "b_du", "b_dr", "b_lu", "b_lr",
    "d_bar", "l_bar", "lambda_bar", "kappa",
    "gamma_w", "gamma_v", "gamma", "rate_w", "rate_v",
)


def _oracle_args(kw):
    return dict(
        k_d=kw["k_d"], k_l=kw["k_l"], theta_0=kw["theta_0"],
        eps_d=kw["eps_d"], eps_l=kw["eps_l"], b_v=kw["b_v"], b_dv=kw["b_dv"],
        m=kw["m"], n=kw["n"], c0_hat=kw["c0_hat"], eta=kw["eta"],
        d_min=kw["d_diag_min"], l_min=kw["l_diag_min"],
    )


def test_two_ledger_degenerate_closed_form():
    led = two_layer_constants(0.0, 0.0, 0.3, 0.0, 0.0, 2.0, 0.0,
                              4, 12, 0.0, 0.1, 0.3, 0.3)
    assert led.feasible and led.converged
    assert led.gamma == pytest.approx(min(2.0 * math.cos(0.3), 1.0), abs=1e-12)
    assert led.kappa == 0.0
    assert led.c_dr == 0.0 and led.c_lr == 0.0
    assert led.d_bar == pytest.approx(0.3, abs=1e-15)
    assert led.lambda_bar == pytest.approx(0.3, abs=1e-15)


def test_two_ledger_feasibility_lost_as_width_grows():
    # cross-talk sums grow linearly in n at fixed eps, so feasibility
    # must flip once and stay lost
    feasible = []
    for n in (4, 40, 400, 4000, 40000):
        led = two_layer_constants(0.0, 0.0, 0.2, 1e-3, 1e-3, 1.0, 0.05,
                                  4, n, 0.1, 0.1, 0.4, 0.4)
        feasible.append(led.feasible)
    assert feasible[0]
    assert not feasible[-1]
    assert sorted(feasible, reverse=True) == feasible
    led = two_layer_constants(0.0, 0.0, 0.2, 1e-3, 1e-3, 1.0, 0.05,
                              4, 40000, 0.1, 0.1, 0.4, 0.4)
    assert led.binding in ("w-cond", "v-cond")


def test_two_ledger_dual_implementation_agreement():
    rng = np.random.default_rng(814)
    outcomes = set()
    for _ in range(100):
        m = int(rng.integers(1, 25))
        kw = dict(
            k_d=rng.uniform(0.0, 1.5), k_l=rng.uniform(0.0, 1.5),
            theta_0=rng.uniform(0.02, 1.35),
            eps_d=10.0 ** rng.uniform(-5.0, -1.3),
            eps_l=10.0 ** rng.uniform(-5.0, -1.3),
            b_v=rng.uniform(0.3, 3.0), b_dv=0.0, m=m,
            n=m + int(rng.integers(0, 61)),
            c0_hat=rng.uniform(0.0, 2.0),
            eta=10.0 ** rng.uniform(-2.0, 0.0),
            d_diag_min=rng.uniform(0.01, 0.6),
            l_diag_min=rng.uniform(0.01, 0.6),
        )
        kw["b_dv"] = rng.uniform(0.0, 0.5) * kw["b_v"]
        mine = two_layer_constants(**kw)
        ref = two_layer_ledger_oracle(**_oracle_args(kw))
        for key in LEDGER_FLOATS:
            a, b = getattr(mine, key), ref[key]
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12), key
        assert mine.feasible == ref["feasible"]
        assert mine.binding == ref["binding"]
        assert mine.iterations == ref["iterations"]
        assert mine.converged == ref["converged"]
        outcomes.add(mine.feasible)
    assert outcomes == {True, False}


def test_two_ledger_worked_example_matches_oracle():
    mine = two_layer_constants(**WORKED)
    ref = two_layer_ledger_oracle(**_oracle_args(WORKED))
    for key in LEDGER_FLOATS:
        assert math.isclose(getattr(mine, key), ref[key],
                            rel_tol=1e-12, abs_tol=1e-12), key
    assert mine.feasible == ref["feasible"]
    assert mine.binding == ref["binding"]
    # closed-form anchors
    assert mine.kappa == pytest.approx(2.0 * math.sin(0.05) * 1.1, abs=1e-14)
    assert mine.c_du == pytest.approx(2.0 * math.sin(0.05), abs=1e-14)


def test_two_ledger_nonnegative_fields_when_feasible():
    led = two_layer_constants(0.2, 0.2, 0.15, 1e-4, 1e-4, 1.0, 0.05,
                              5, 25, 0.5, 0.1, 0.4, 0.4)
    assert led.feasible
    for key in LEDGER_FLOATS:
        if key.startswith(("gamma", "rate")):
            continue
        assert getattr(led, key) >= 0.0, key
    assert led.lambda_bar == min(led.d_bar, led.l_bar)


def test_two_ledger_preconditions():
    bad = dict(WORKED)
    bad["n"] = 10  # n < m
    with pytest.raises(PreconditionError):
        two_layer_constants(**bad)
    bad = dict(WORKED)
    bad["theta_0"] = 2.0
    with pytest.raises(PreconditionError):
        two_layer_constants(**bad)
    bad = dict(WORKED)
    bad["eta"] = 0.0
    with pytest.raises(PreconditionError):
        two_layer_constants(**bad)
    for key in ("eps_d", "eps_l", "c0_hat", "k_d", "d_diag_min"):
        for value in (math.nan, math.inf):
            bad = dict(WORKED)
            bad[key] = value
            with pytest.raises(PreconditionError, match="finite"):
                two_layer_constants(**bad)


# ------------------------------------------------------- single-layer flow


def test_single_state_validation():
    w = random_unit_columns(5, 3, np.random.default_rng(0))
    with pytest.raises(PreconditionError):
        SingleLayerState(w=2.0 * w, w_star=w, eta=0.1)
    with pytest.raises(ConfigurationError):
        SingleLayerState(w=w, w_star=w[:, :2], eta=0.1)
    with pytest.raises(ConfigurationError):
        SingleLayerState(w=w, w_star=w, eta=0.0)
    nan_w = np.eye(3)[:, :2]
    nan_w[0, 0] = math.nan
    with pytest.raises(PreconditionError):
        SingleLayerState(w=nan_w, w_star=np.eye(3)[:, :2], eta=0.1)
    with pytest.raises(PreconditionError):
        SingleLayerState(w=np.eye(3)[:, :2], w_star=nan_w, eta=0.1)
    state = SingleLayerState(w=w, w_star=w, eta=0.1)
    assert np.allclose(state.thetas, 0.0, atol=1e-7)


def test_step_single_shape_guard_and_nan_guard():
    rng = np.random.default_rng(1)
    w = random_unit_columns(5, 3, rng)
    state = SingleLayerState(w=w, w_star=random_unit_columns(5, 3, rng), eta=0.1)
    with pytest.raises(PreconditionError):
        step_single(state, np.eye(4), np.eye(4))
    bad = np.full((3, 3), np.nan)
    with pytest.raises(NumericError):
        step_single(state, bad, np.eye(3))


def test_fixed_point_matched_orthogonal_teacher():
    # w_j = w*_j with a shared batch: student and teacher gates are the
    # same array, so the two drive terms cancel exactly
    rng = np.random.default_rng(7)
    w_star = np.eye(12)[:, :8]
    state = SingleLayerState(w=w_star.copy(), w_star=w_star, eta=0.5)
    x = rng.normal(size=(4096, 12))
    d, ds, _, _ = gate_moments(x, state.w, state.w_star)
    assert np.array_equal(d, ds)
    after = step_single(state, ds, d)
    assert np.max(np.abs(after.w - state.w)) == 0.0
    assert after.t == 1


def test_single_node_contraction_to_noise_floor():
    rng = np.random.default_rng(23)
    w_star = np.zeros((6, 1))
    w_star[0, 0] = 1.0
    w0 = rotate_columns(w_star, 0.9, rng)
    state = SingleLayerState(w=w0, w_star=w_star, eta=0.3)
    stream = GausStream(dim=6, std=1.0, seed=5)
    state, rec = run_single(state, stream, n_steps=150, n_mc=8192)
    sins = rec.sin_theta[:, 0]
    # monotone decrease while clearly above the Monte-Carlo noise floor
    for t in range(len(sins) - 1):
        if sins[t] > 0.12:
            assert sins[t + 1] < sins[t]
    assert sins[-1] < 0.02
    assert np.all(np.abs(np.linalg.norm(state.w, axis=0) - 1.0) < 1e-9)


def test_ten_node_guaranteed_contraction_bound():
    # near-orthogonal teacher, every student filter exactly 0.2 away;
    # thresholded gates keep the pairwise overlap (and so the measured
    # eps) small enough for a positive margin
    tau, theta_0, eta = 2.0, 0.2, 1.0
    rng = np.random.default_rng(41)
    w_star = simplex_filters(10, 10)
    w0 = rotate_columns(w_star, theta_0, rng)
    stream = GausStream(dim=10, std=1.0, seed=17)

    x = next_batch(stream, 500_000)
    d_tt, _, _, _ = gate_moments(x, w_star, w_star, tau)
    _, d_init, _, _ = gate_moments(x, w0, w_star, tau)
    off = ~np.eye(10, dtype=bool)
    eps_hat = float(d_tt[off].max() / np.diag(d_tt).min())
    d_min_hat = float(np.diag(d_init).min())
    k_hat = gate_slope_on_geodesics(w0, w_star, stream, 200_000, tau=tau)

    led = single_layer_constants(theta_0, 10, eps_hat, k_hat, d_min_hat, eta)
    assert led.feasible, (eps_hat, k_hat, led.gamma)

    state = SingleLayerState(w=w0, w_star=w_star, eta=eta, tau=tau)
    state, rec = run_single(state, stream, n_steps=200, n_mc=16384,
                            mode="guaranteed", ledger=led)
    allowed = led.rate + 3.0 * rec.factor_noise
    frac_ok = float(np.mean(rec.factors <= allowed))
    assert frac_ok >= 0.95, frac_ok
    assert float(np.max(rec.sin_theta[-1])) < 0.03


def test_run_single_guaranteed_requires_feasible_ledger():
    rng = np.random.default_rng(3)
    w = random_unit_columns(4, 2, rng)
    state = SingleLayerState(w=w, w_star=random_unit_columns(4, 2, rng), eta=0.1)
    stream = GausStream(dim=4, std=1.0, seed=0)
    bad = single_layer_constants(0.5, 40, 0.5, 1.0, 0.4, 0.1)
    assert not bad.feasible
    with pytest.raises(ConfigurationError):
        run_single(state, stream, 1, 64, mode="guaranteed", ledger=bad)
    with pytest.raises(ConfigurationError):
        run_single(state, stream, 1, 64, mode="guaranteed")
    with pytest.raises(ConfigurationError):
        run_single(state, stream, 1, 64, mode="warp")


# --------------------------------------------------------- two-layer flow


def _two_layer_state(rng, d=8, m=4, n=7, c=3, eta=0.05, exact=True):
    w_star = random_unit_columns(d, m, rng)
    v_star = rng.normal(size=(m, c)) / math.sqrt(m)
    if exact:
        w_r = random_unit_columns(d, n - m, rng)
        w = np.concatenate([w_star.copy(), w_r], axis=1)
        v = np.concatenate([v_star.copy(), np.zeros((n - m, c))], axis=0)
    else:
        w = random_unit_columns(d, n, rng)
        v = rng.normal(size=(n, c)) / math.sqrt(n)
    return TwoLayerState(w=w, v=v, w_star=w_star, v_star=v_star,
                         eta=eta, w0=w.copy())


def test_two_state_validation():
    rng = np.random.default_rng(11)
    st = _two_layer_state(rng)
    with pytest.raises(ConfigurationError):
        TwoLayerState(w=st.w[:, :3], v=st.v[:3], w_star=st.w_star,
                      v_star=st.v_star, eta=0.1, w0=st.w[:, :3])
    with pytest.raises(PreconditionError):
        TwoLayerState(w=2.0 * st.w, v=st.v, w_star=st.w_star,
                      v_star=st.v_star, eta=0.1, w0=st.w)
    with pytest.raises(ConfigurationError):
        TwoLayerState(w=st.w, v=st.v[:, :2], w_star=st.w_star,
                      v_star=st.v_star, eta=0.1, w0=st.w)
    assert st.u_count == 4 and st.n_filters == 7
    assert np.array_equal(st.targets[:, :4], st.w_star)


def test_two_layer_exact_fixed_point():
    # W_u = W*, V_u = V*, V_r = 0 on a shared batch: star moments equal
    # the matching student blocks, so both drives vanish
    rng = np.random.default_rng(29)
    st = _two_layer_state(rng, exact=True)
    x = rng.normal(size=(4096, 8))
    moments = two_layer_moments(st, x)
    after = step_two_layer(st, moments)
    assert np.max(np.abs(after.w - st.w)) < 1e-12
    assert np.max(np.abs(after.v - st.v)) < 1e-10


def test_two_layer_reduces_to_single_with_unit_top():
    # one output channel, all top rows pinned at 1: the v-weighted gate
    # moments equal the raw ones, so the filter update matches step_single
    rng = np.random.default_rng(31)
    d, m = 8, 5
    w_star = random_unit_columns(d, m, rng)
    w0 = rotate_columns(w_star, 0.3, rng)
    ones = np.ones((m, 1))
    st2 = TwoLayerState(w=w0.copy(), v=ones.copy(), w_star=w_star,
                        v_star=ones.copy(), eta=0.1, w0=w0.copy())
    st1 = SingleLayerState(w=w0.copy(), w_star=w_star, eta=0.1)
    x = rng.normal(size=(2048, d))
    moments = two_layer_moments(st2, x)
    after2 = step_two_layer(st2, moments)
    after1 = step_single(st1, moments["d_star"], moments["d"])
    assert np.array_equal(after2.w, after1.w)


@pytest.mark.parametrize("p_w, p_v, name", [
    (-1.0, 0.0, "p_w"), (1e308, 0.0, "p_w"), (0.0, 1e308, "p_v"),
])
def test_mixed_init_names_a_factor_out_of_range(p_w, p_v, name):
    w_star, v_star = reduced_teacher(np.random.default_rng(0), 3, 2, 1)
    with pytest.raises(ConfigurationError, match=f"mixing factor {name} "):
        mixed_two_layer_init(np.random.default_rng(1), w_star, v_star, 4,
                             p_w, p_v, eta=0.05)


def test_mixed_init_at_the_largest_factor_leans_onto_the_teacher():
    w_star, v_star = reduced_teacher(np.random.default_rng(0), 3, 2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = mixed_two_layer_init(np.random.default_rng(1), w_star, v_star,
                                     4, MAX_MIXING, MAX_MIXING, eta=0.05)
    np.testing.assert_allclose(state.w[:, :2], w_star, rtol=0, atol=1e-15)
    np.testing.assert_allclose(state.v[:2], v_star, rtol=0, atol=1e-15)


def _gap_trajectory(p_w, p_v, steps, seed=2024):
    rng = np.random.default_rng(seed)
    w_star, v_star = reduced_teacher(rng, 10, 20, 30)
    state = mixed_two_layer_init(rng, w_star, v_star, 100, p_w, p_v, eta=0.05)
    stream = GausStream(dim=10, std=1.0, seed=77)
    out = [spare_row_gap(state)]
    for _ in range(steps):
        x = next_batch(stream, 1024)
        state = step_two_layer(state, two_layer_moments(state, x))
        out.append(spare_row_gap(state))
    return out


def test_norm_separation_ratio_falls():
    # 10-d input, 20 teacher filters, 30 outputs, 5x over-parameterized,
    # strong teacher mixing in both layers: spare top rows keep decaying
    # relative to the matched ones
    ratios = _gap_trajectory(10.0, 10.0, 300)
    assert all(r < 0.2 for r in ratios), max(ratios)
    assert ratios[-1] < ratios[0]
    for t in range(len(ratios) - 50):
        if ratios[t] >= 0.2:
            assert ratios[t + 50] < ratios[t], t


def test_norm_separation_windowed_decrease_from_above():
    # teacher-aligned filters but uninformed top rows: the gap starts
    # above 0.2 and every 50-step window improves it
    ratios = _gap_trajectory(10.0, 0.0, 300)
    assert ratios[0] > 0.8
    for t in range(len(ratios) - 50):
        if ratios[t] >= 0.2:
            assert ratios[t + 50] < ratios[t], t
    assert ratios[-1] < 0.75 * ratios[0]


def test_norm_separation_no_improvement_without_filter_alignment():
    # random filters: nothing distinguishes matched from spare rows, so
    # the gap never improves regardless of the top-layer head start
    ratios = _gap_trajectory(0.0, 10.0, 150)
    assert ratios[-1] > ratios[0]


# ---------------------------------------------------------------- monitors


def test_monitor_compliant_init_holds():
    rng = np.random.default_rng(55)
    d, m, n, c = 8, 3, 5, 2
    w_star = random_unit_columns(d, m, rng)
    w_u = rotate_columns(w_star, 0.15, rng)
    w_r = random_unit_columns(d, n - m, rng)
    w = np.concatenate([w_u, w_r], axis=1)
    v_star = rng.normal(size=(m, c))
    dv = rng.normal(size=(m, c))
    dv *= 0.29 / np.linalg.norm(dv, axis=1, keepdims=True)
    v_r = rng.normal(size=(n - m, c))
    v_r *= 0.10 / np.linalg.norm(v_r, axis=1, keepdims=True)
    v = np.concatenate([v_star + dv, v_r], axis=0)
    state = TwoLayerState(w=w, v=v, w_star=w_star, v_star=v_star,
                          eta=0.05, w0=w.copy())

    x = next_batch(GausStream(dim=d, std=1.0, seed=9), 65536)
    # honest ledger inputs: measured overlap ratios padded by 1.5x
    g = (x @ w > 0).astype(float)
    g_t = (x @ state.targets > 0).astype(float)
    f = np.maximum(x @ w, 0.0)
    f_t = np.maximum(x @ state.targets, 0.0)
    d_full = g.T @ g_t / x.shape[0]
    l_full = f.T @ f_t / x.shape[0]
    off = ~np.eye(n, dtype=bool)
    eps_d = 1.5 * float((d_full[off] / np.diag(d_full)[:, None].repeat(n, 1)[off]).max())
    eps_l = 1.5 * float((l_full[off] / np.diag(l_full)[:, None].repeat(n, 1)[off]).max())
    b_v = float(np.linalg.norm(v_star, axis=1).max()) + 0.5
    led = two_layer_constants(0.0, 0.0, 0.2, eps_d, eps_l, b_v, 0.3,
                              m, n, 0.0, state.eta,
                              float(np.diag(d_full).min()),
                              float(np.diag(l_full).min()))
    entry = monitor_hypotheses(state, led, 1, x)
    assert entry.w_separation_ok, entry.slack_w_separation
    assert entry.wu_contraction_ok, entry.slack_wu
    assert entry.v_contraction_ok, entry.slack_v
    assert entry.wr_bound_ok, entry.slack_wr


def test_monitor_reports_violation_without_raising():
    # unaligned filters against a tight angle budget: the contraction
    # hypothesis must read as violated, with a negative slack, at t = 1
    rng = np.random.default_rng(61)
    d, m, n, c = 10, 4, 6, 3
    w_star = random_unit_columns(d, m, rng)
    w = random_unit_columns(d, n, rng)  # p_W = 0 style init
    v_star = rng.normal(size=(m, c))
    v = rng.normal(size=(n, c))
    state = TwoLayerState(w=w, v=v, w_star=w_star, v_star=v_star,
                          eta=0.05, w0=w.copy())
    led = two_layer_constants(0.0, 0.0, 0.2, 0.0, 0.0, 1.0, 0.1,
                              m, n, 0.0, 0.05, 0.4, 0.4)
    x = next_batch(GausStream(dim=d, std=1.0, seed=2), 4096)
    entry = monitor_hypotheses(state, led, 1, x)
    assert not entry.wu_contraction_ok
    assert entry.slack_wu < 0.0
    with pytest.raises(PreconditionError):
        monitor_hypotheses(state, led, 0, x)


def test_monitor_single_filter_has_infinite_separation_slack():
    rng = np.random.default_rng(5)
    w_star = random_unit_columns(6, 1, rng)
    w = rotate_columns(w_star, 0.1, rng)
    v_star = rng.normal(size=(1, 2))
    state = TwoLayerState(w=w, v=v_star + 0.01, w_star=w_star, v_star=v_star,
                          eta=0.05, w0=w.copy())
    led = two_layer_constants(0.0, 0.0, 0.2, 0.0, 0.0, 2.0, 0.1,
                              1, 1, 0.0, 0.05, 0.4, 0.4)
    x = next_batch(GausStream(dim=6, std=1.0, seed=2), 1024)
    entry = monitor_hypotheses(state, led, 1, x)
    assert entry.slack_w_separation == math.inf
    assert entry.w_separation_ok


# ------------------------------------------------------------ falloff probe


def test_falloff_zero_perturbation_is_exact_zero():
    stream = GausStream(dim=12, std=1.0, seed=3)
    w_star = np.zeros(12)
    w_star[0] = 1.0
    probe = quadratic_falloff_probe(w_star, (0.0, 0.05, 0.1, 0.2), stream,
                                    50_000, n_directions=2, seed=1)
    zero_points = probe.dists == 0.0
    assert zero_points.sum() == 2
    assert np.all(probe.diffs[zero_points] == 0.0)
    assert not np.any(probe.kept[zero_points])


def test_falloff_zero_perturbation_is_exact_zero_over_blocks(monkeypatch):
    # the same 50,000 rows in 12 blocks of 4096 and a ragged one
    monkeypatch.setattr(teachers, "PROBE_BLOCK_ROWS", 4096)
    test_falloff_zero_perturbation_is_exact_zero()


def _falloff_case(dim, n, scales, seed):
    """A unit teacher filter, its stream and the probe's arguments."""
    w_star = np.random.default_rng(seed).normal(size=dim)
    w_star /= np.linalg.norm(w_star)
    return (w_star, scales, GausStream(dim=dim, std=1.0, seed=seed + 1), n)


GRID_SCALES = (0.05, 0.1, 0.2, 0.4)
FIT_SCALES = (0.02, 0.05, 0.1, 0.2)


@pytest.mark.parametrize("dim, n, tau, scales", [
    # the grid's c0 probe at its default probe_n, plain and thresholded
    (10, 20_000, 0.0, GRID_SCALES),
    (10, 20_000, 0.3, GRID_SCALES),
    (20, PROBE_BLOCK_ROWS, 0.0, FIT_SCALES),
    (12, 50_000, 0.0, (0.0,) + FIT_SCALES),
])
def test_falloff_within_one_block_is_the_one_batch_probe(dim, n, tau, scales):
    seed = dim + n
    got = quadratic_falloff_probe(*_falloff_case(dim, n, scales, seed),
                                  n_directions=4, seed=5, tau=tau)
    ref = falloff_probe_reference(*_falloff_case(dim, n, scales, seed),
                                  n_directions=4, seed=5, tau=tau)
    assert got.exponent == ref.exponent
    assert got.c0_hat == ref.c0_hat
    for name in ("dists", "diffs", "stderrs", "kept"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_falloff_over_blocks_agrees_with_the_one_batch_probe():
    n = 3 * PROBE_BLOCK_ROWS + 777
    got = quadratic_falloff_probe(*_falloff_case(20, n, FIT_SCALES, 9),
                                  n_directions=4, seed=5)
    ref = falloff_probe_reference(*_falloff_case(20, n, FIT_SCALES, 9),
                                  n_directions=4, seed=5)
    assert np.array_equal(got.kept, ref.kept)
    assert np.array_equal(got.dists, ref.dists)
    for a, b in ((got.diffs, ref.diffs), (got.stderrs, ref.stderrs),
                 (got.exponent, ref.exponent), (got.c0_hat, ref.c0_hat)):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)


def test_falloff_memory_stays_within_a_few_blocks(monkeypatch):
    block, dim = 8192, 20
    monkeypatch.setattr(teachers, "PROBE_BLOCK_ROWS", block)
    case = _falloff_case(dim, 8 * block, FIT_SCALES, 4)
    tracemalloc.start()
    try:
        quadratic_falloff_probe(*case, n_directions=4, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_bytes = block * dim * 8
    assert peak < 3 * block_bytes, peak / block_bytes


def test_falloff_exponent_near_two():
    stream = GausStream(dim=20, std=1.0, seed=13)
    rng = np.random.default_rng(8)
    w_star = rng.normal(size=20)
    w_star /= np.linalg.norm(w_star)
    probe = quadratic_falloff_probe(w_star, (0.02, 0.05, 0.1, 0.2), stream,
                                    200_000, n_directions=4, seed=5)
    assert 1.7 <= probe.exponent <= 2.3, probe.exponent
    assert probe.c0_hat > 0.0


def test_falloff_constant_repeatable_across_seeds():
    rng = np.random.default_rng(8)
    w_star = rng.normal(size=20)
    w_star /= np.linalg.norm(w_star)
    cs = []
    for seed in range(4):
        stream = GausStream(dim=20, std=1.0, seed=100 + seed)
        probe = quadratic_falloff_probe(w_star, (0.05, 0.1, 0.2), stream,
                                        100_000, n_directions=4, seed=seed)
        cs.append(probe.c0_hat)
    mid = float(np.mean(cs))
    assert all(abs(c - mid) <= 0.3 * mid for c in cs), cs


def test_falloff_noise_floor_and_preconditions():
    stream = GausStream(dim=12, std=1.0, seed=3)
    w_star = np.zeros(12)
    w_star[0] = 1.0
    with pytest.raises(NumericError):
        # tiny perturbations at a tiny sample count sit below 3 stderr
        quadratic_falloff_probe(w_star, (1e-4, 2e-4), stream, 200,
                                n_directions=2, seed=0)
    with pytest.raises(PreconditionError):
        quadratic_falloff_probe(np.zeros(12), (0.1,), stream, 100)
    with pytest.raises(PreconditionError):
        quadratic_falloff_probe(w_star, (0.7,), stream, 100)
    with pytest.raises(DegenerateBatchError, match="never fires"):
        quadratic_falloff_probe(w_star, (0.1, 0.2), stream, 100, tau=50.0)


def test_falloff_zero_differences_do_not_clear_noise_floor():
    # the c0 probe of a dim-2 grid with probe_n 2 (teacher seed 0, the
    # grid's probe stream seed): on some directions the perturbed filter
    # fires on neither row, so a difference and its stderr are both 0.0
    w_star, _ = reduced_teacher(np.random.default_rng(0), 2, 1, 1)
    stream = GausStream(dim=2, std=1.0, seed=1490961094)
    with pytest.raises(NumericError, match="noise floor"):
        quadratic_falloff_probe(w_star[:, 0], (0.05, 0.1, 0.2, 0.4), stream,
                                2, n_directions=4, seed=0)


def test_gate_slope_matches_plain_relu_geometry():
    # tau = 0: the joint-firing kernel is (pi - angle)/(2 pi), so the
    # relative slope along a quarter-circle geodesic peaks near
    # (1/2pi)/(1/4) = 2/pi at the orthogonal end
    starts = np.array([[0.0], [1.0]])
    ends = np.array([[1.0], [0.0]])
    stream = GausStream(dim=2, std=1.0, seed=21)
    slope = gate_slope_on_geodesics(starts, ends, stream, 200_000)
    assert 0.4 < slope < 0.9, slope


def test_gate_slope_needs_two_points():
    stream = GausStream(dim=2, std=1.0, seed=21)
    with pytest.raises(PreconditionError):
        gate_slope_on_geodesics(np.eye(2), np.eye(2), stream, 100, n_points=1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 70_000),
       dim=st.integers(2, 6), width=st.integers(1, 4),
       n_points=st.integers(2, 13), tau=st.sampled_from([0.0, 0.3, 2.0]))
def test_geodesic_slopes_bit_equal_to_per_kernel_reference(
        seed, n, dim, width, n_points, tau):
    rng = np.random.default_rng(seed)
    ends = random_unit_columns(dim, width, rng)
    starts = random_unit_columns(dim, width, rng)
    same = rng.random(width) < 0.3
    starts[:, same] = ends[:, same]  # zero-angle columns have no path
    streams = [GausStream(dim=dim, std=1.0, seed=seed) for _ in range(5)]
    args = (starts, ends)
    k_d, k_l = geodesic_slopes(*args, streams[0], n, n_points, tau)
    ref_d = slope_on_geodesics_reference(*args, streams[1], n, n_points, tau,
                                         gate_feature)
    ref_l = slope_on_geodesics_reference(*args, streams[2], n, n_points, tau,
                                         act_feature)
    assert (k_d.hex(), k_l.hex()) == (ref_d.hex(), ref_l.hex())
    assert gate_slope_on_geodesics(*args, streams[3], n, n_points, tau) == k_d
    assert act_slope_on_geodesics(*args, streams[4], n, n_points, tau) == k_l
    # every probe drew exactly one batch
    after = [next_batch(s, 3) for s in streams]
    assert all(np.array_equal(after[0], a) for a in after[1:])
