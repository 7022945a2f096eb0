"""Channel decomposition exactness and the joint-firing kernel probe."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import random_network
from reludyn import teachers
from reludyn.beta import compute_beta, psi_d, verify_identity
from reludyn.errors import ConfigurationError, PreconditionError
from reludyn.net import NetworkSpec, backward, build_network, forward
from reludyn.teachers import GausStream, next_batch

# frozen from an independent 2D Monte-Carlo run (4e6 samples, seed 99)
PSI_D_ORACLE = {
    np.pi / 6: (0.417103, 0.000247),
    np.pi / 2: (0.250473, 0.000217),
}


def paired_traces(student, teacher, batch, seed=0, std=1.0):
    x = np.random.default_rng(seed).normal(0, std, size=(batch, student.spec.layer_widths[0]))
    return x, forward(student, x), forward(teacher, x)


def identity_residual(student, teacher, batch=8, seed=0):
    x, tr_s, tr_t = paired_traces(student, teacher, batch, seed)
    grads = backward(student, tr_s, tr_t.outputs)
    betas = compute_beta(student, teacher, tr_s, tr_t)
    res = verify_identity(betas, tr_s, tr_t, grads)
    gmax = max(float(np.abs(g).max()) for g in grads.node)
    return res, gmax


# ------------------------------------------------------------ decomposition


def test_identity_wide_random_pair():
    rng = np.random.default_rng(0)
    student = random_network(rng, (20, 30, 25, 10))
    teacher = random_network(rng, (20, 15, 12, 10))
    res, gmax = identity_residual(student, teacher, batch=8)
    assert res < 1e-10 * max(1.0, gmax)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "s_widths,t_widths",
    [
        ((5, 3), (5, 3)),  # no hidden layer: base case only
        ((6, 9, 4), (6, 5, 4)),
        ((4, 8, 8, 3), (4, 6, 5, 3)),
        ((7, 12, 10, 6, 2), (7, 5, 4, 3, 2)),
    ],
)
def test_identity_exact_across_architectures(s_widths, t_widths, seed):
    rng = np.random.default_rng(seed)
    student = random_network(rng, s_widths)
    teacher = random_network(rng, t_widths)
    res, gmax = identity_residual(student, teacher, batch=6, seed=seed)
    assert res < 1e-10 * max(1.0, gmax)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(2, 4),
       widths=st.lists(st.integers(1, 12), min_size=8, max_size=8),
       batch=st.integers(1, 16), bias=st.booleans(),
       log_scale=st.floats(-2.0, 2.0))
def test_identity_exact_on_drawn_pairs(seed, depth, widths, batch, bias,
                                       log_scale):
    # compute_beta is defined for bn_mode none only; check 1's tolerance
    d_in, d_out, hidden = widths[0], widths[1], widths[2:]
    s_widths = (d_in, *hidden[:depth - 1], d_out)
    t_widths = (d_in, *hidden[3:depth + 2], d_out)
    rng = np.random.default_rng(seed)
    student = random_network(rng, s_widths, bias=bias)
    teacher = random_network(rng, t_widths, bias=bias)
    x = rng.normal(0.0, 10.0 ** log_scale, size=(batch, d_in))
    tr_s, tr_t = forward(student, x), forward(teacher, x)
    grads = backward(student, tr_s, tr_t.outputs)
    res = verify_identity(compute_beta(student, teacher, tr_s, tr_t),
                          tr_s, tr_t, grads)
    assert res <= 1e-10 * max(float(np.abs(g).max()) for g in grads.node)


def test_identity_exact_without_biases():
    spec_s = NetworkSpec(layer_widths=(5, 8, 3), bias=False)
    spec_t = NetworkSpec(layer_widths=(5, 6, 3), bias=False)
    rng = np.random.default_rng(3)
    student = build_network(
        spec_s, [rng.normal(size=(5, 8)), rng.normal(size=(8, 3))]
    )
    teacher = build_network(
        spec_t, [rng.normal(size=(5, 6)), rng.normal(size=(6, 3))]
    )
    res, gmax = identity_residual(student, teacher)
    assert res < 1e-10 * max(1.0, gmax)
    x, tr_s, tr_t = paired_traces(student, teacher, 4)
    betas = compute_beta(student, teacher, tr_s, tr_t)
    for arr in betas.beta_star_bias + betas.beta_bias:
        assert np.all(arr == 0.0)


def test_top_layer_is_identity_pattern():
    rng = np.random.default_rng(1)
    student = random_network(rng, (4, 6, 3))
    teacher = random_network(rng, (4, 5, 3))
    x, tr_s, tr_t = paired_traces(student, teacher, 7)
    betas = compute_beta(student, teacher, tr_s, tr_t)
    eye = np.broadcast_to(np.eye(3), (7, 3, 3))
    assert np.array_equal(betas.beta_star[-1], eye)
    assert np.array_equal(betas.beta[-1], eye)
    assert np.all(betas.beta_star_bias[-1] == 0.0)
    assert np.all(betas.beta_bias[-1] == 0.0)


def test_closed_gates_zero_lower_channels():
    # a closed hidden layer kills every channel below it: its gates enter
    # each recursion step that crosses the layer.  Channels above (and the
    # gate-free top) are untouched.
    rng = np.random.default_rng(2)
    student = random_network(rng, (4, 6, 5, 2))
    biases = [b.copy() for b in student.biases]
    biases[1] = biases[1] - 100.0  # second hidden layer never fires
    student = build_network(student.spec, list(student.weights), biases)
    teacher = random_network(rng, (4, 3, 3, 2))
    x, tr_s, tr_t = paired_traces(student, teacher, 5)
    assert np.all(tr_s.gate[1] == 0.0)
    betas = compute_beta(student, teacher, tr_s, tr_t)
    assert np.all(betas.beta_star[0] == 0.0)
    assert np.all(betas.beta[0] == 0.0)
    assert np.all(betas.beta_star_bias[0] == 0.0)
    assert np.abs(betas.beta_star[1]).max() > 0.0
    grads = backward(student, tr_s, tr_t.outputs)
    assert verify_identity(betas, tr_s, tr_t, grads) < 1e-12


def test_clone_student_has_zero_gradients():
    teacher = random_network(np.random.default_rng(4), (5, 7, 3))
    x, tr_s, tr_t = paired_traces(teacher, teacher, 6)
    grads = backward(teacher, tr_s, tr_t.outputs)
    for g in grads.node:
        assert np.all(g == 0.0)
    betas = compute_beta(teacher, teacher, tr_s, tr_t)
    assert verify_identity(betas, tr_s, tr_t, grads) == 0.0


def test_corrupted_channel_is_detected():
    rng = np.random.default_rng(5)
    student = random_network(rng, (4, 6, 3))
    teacher = random_network(rng, (4, 5, 3))
    x, tr_s, tr_t = paired_traces(student, teacher, 8)
    grads = backward(student, tr_s, tr_t.outputs)
    betas = compute_beta(student, teacher, tr_s, tr_t)
    # pick an open gate against a clearly nonzero teacher activation
    b, j = np.argwhere(tr_s.gate[0] == 1.0)[0]
    m = int(np.argmax(tr_t.act[0][b]))
    assert tr_t.act[0][b, m] > 0.1
    betas.beta_star[0][b, j, m] += 1e-3
    assert verify_identity(betas, tr_s, tr_t, grads) > 1e-6


def test_bracket_matches_gradient_on_open_gates():
    # alternate route: where the gate is open, the channel bracket must
    # equal the backprop node gradient directly
    rng = np.random.default_rng(6)
    student = random_network(rng, (5, 9, 4))
    teacher = random_network(rng, (5, 6, 4))
    x, tr_s, tr_t = paired_traces(student, teacher, 10)
    grads = backward(student, tr_s, tr_t.outputs)
    betas = compute_beta(student, teacher, tr_s, tr_t)
    li = 0
    bracket = (
        np.einsum("bjm,bm->bj", betas.beta_star[li], tr_t.act[li])
        + betas.beta_star_bias[li]
        - np.einsum("bjn,bn->bj", betas.beta[li], tr_s.act[li])
        - betas.beta_bias[li]
    )
    open_ = tr_s.gate[li] == 1.0
    assert open_.any()
    assert np.allclose(bracket[open_], grads.node[li][open_], atol=1e-12)


def test_pair_validation_errors():
    rng = np.random.default_rng(7)
    student = random_network(rng, (4, 6, 3))
    teacher = random_network(rng, (4, 5, 5, 3))
    x = rng.normal(size=(4, 4))
    with pytest.raises(ConfigurationError):
        compute_beta(student, teacher, forward(student, x), forward(teacher, x))
    bn_student = random_network(rng, (4, 6, 3), bn_mode="linear_relu_bn")
    teacher2 = random_network(rng, (4, 5, 3))
    with pytest.raises(ConfigurationError):
        compute_beta(
            bn_student, teacher2, forward(bn_student, x), forward(teacher2, x)
        )
    y = rng.normal(size=(4, 4))
    with pytest.raises(PreconditionError):
        compute_beta(student, teacher2, forward(student, x), forward(teacher2, y))


# ---------------------------------------------------------------- kernels


def test_psi_d_matches_independent_oracle():
    stream = GausStream(dim=2, std=1.0, seed=7)
    for theta, (ref, ref_se) in PSI_D_ORACLE.items():
        w = np.array([1.0, 0.0])
        w_p = np.array([np.cos(theta), np.sin(theta)])
        val, se = psi_d(w, w_p, stream, 400000)
        assert abs(val - ref) < 3 * np.sqrt(se**2 + ref_se**2)


def test_psi_d_self_and_opposite():
    stream = GausStream(dim=5, std=1.0, seed=8)
    w = np.array([0.3, -1.0, 0.2, 0.0, 0.5])
    val, se = psi_d(w, w, stream, 50000)
    assert abs(val - 0.5) < 3 * se
    val_opp, se_opp = psi_d(w, -w, stream, 50000)
    assert val_opp == 0.0 and se_opp == 0.0


def psi_d_reference(w, w_p, stream, n, tau):
    # boolean joint firing with separate first- and second-moment sums,
    # 65,536 rows per batch
    s1 = s2 = 0.0
    done = 0
    while done < n:
        b = min(65536, n - done)
        x = next_batch(stream, b)
        p = ((x @ w > tau) & (x @ w_p > tau)).astype(float)
        s1 += p.sum()
        s2 += (p * p).sum()
        done += b
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0)
    return float(mean), float(np.sqrt(var / n))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 140_000),
       dim=st.integers(2, 5), tau=st.sampled_from([0.0, 0.3, 1.0]),
       pair=st.sampled_from(["random", "same", "opposite"]))
def test_psi_d_bit_equal_to_boolean_reference(seed, n, dim, tau, pair):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=dim)
    w_p = {"random": rng.normal(size=dim), "same": w, "opposite": -w}[pair]
    got = psi_d(w, w_p, GausStream(dim=dim, std=1.0, seed=seed), n, tau=tau)
    ref = psi_d_reference(w, w_p, GausStream(dim=dim, std=1.0, seed=seed),
                          n, tau)
    assert got == ref


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_psi_d_bits_do_not_depend_on_the_block_size(monkeypatch, tau):
    # 70,000 rows: two blocks at the default size, 70 at 1000 rows
    w, w_p = np.array([1.0, 0.4, -0.2]), np.array([0.3, -1.0, 0.6])
    default = psi_d(w, w_p, GausStream(dim=3, std=1.0, seed=21), 70_000, tau=tau)
    monkeypatch.setattr(teachers, "PROBE_BLOCK_ROWS", 1000)
    small = psi_d(w, w_p, GausStream(dim=3, std=1.0, seed=21), 70_000, tau=tau)
    assert small == default


def test_psi_stderr_scales_with_n():
    w = np.array([1.0, 0.5, -0.3])
    _, se1 = psi_d(w, w, GausStream(dim=3, std=1.0, seed=10), 20000)
    _, se2 = psi_d(w, w, GausStream(dim=3, std=1.0, seed=10), 80000)
    assert abs(se1 / se2 - 2.0) < 0.4


def test_psi_threshold_shrinks_overlap():
    w = np.array([1.0, 0.0])
    w_p = np.array([0.8, 0.6])
    v0, _ = psi_d(w, w_p, GausStream(dim=2, std=1.0, seed=11), 40000)
    v1, _ = psi_d(w, w_p, GausStream(dim=2, std=1.0, seed=11), 40000, tau=1.0)
    v4, _ = psi_d(w, w_p, GausStream(dim=2, std=1.0, seed=11), 40000, tau=4.0)
    assert v1 < v0
    assert v4 < 0.001


def test_psi_preconditions():
    stream = GausStream(dim=2, std=1.0, seed=12)
    with pytest.raises(PreconditionError):
        psi_d(np.zeros(2), np.array([1.0, 0.0]), stream, 100)
    with pytest.raises(PreconditionError):
        psi_d(np.array([1.0, 0.0]), np.array([1.0, 0.0]), stream, 1)
