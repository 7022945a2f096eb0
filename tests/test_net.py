"""Core network: forward traces, manual backprop, BN projection, SGD."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reludyn.errors import (
    ConfigurationError,
    DegenerateBatchError,
    NumericError,
    PreconditionError,
)
from reludyn.net import (
    BN_MODES,
    BNSite,
    Network,
    NetworkSpec,
    _bn,
    backward,
    bn_backward,
    build_network,
    centered_moments,
    filter_norms,
    forward,
    sgd_step,
    squared_loss,
)

from oracles import (
    backward_reference,
    bn_backward_reference,
    bn_stats_reference,
    fd_gradients,
    forward_reference,
    max_rel_err,
    random_network,
    sample_kink_free_case,
    statistics_cases,
)


def hand_net():
    spec = NetworkSpec(layer_widths=(2, 2, 1))
    return build_network(
        spec,
        weights=[np.array([[1.0, -0.5], [0.5, 1.0]]), np.array([[2.0], [-1.0]])],
        biases=[np.array([0.1, -0.2]), np.array([0.3])],
    )


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_zero_input_all_gates_closed():
    spec = NetworkSpec(layer_widths=(3, 4, 2), bias=False)
    rng = np.random.default_rng(0)
    net = build_network(spec, [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))])
    trace = forward(net, np.zeros((5, 3)))
    # gate at exactly 0 is 0 by convention
    assert np.all(trace.act[0] == 0.0)
    assert np.all(trace.gate[0] == 0.0)
    assert np.all(trace.outputs == 0.0)


def test_forward_identity_layer():
    spec = NetworkSpec(layer_widths=(2, 2), bias=False)
    net = build_network(spec, [np.eye(2)])
    trace = forward(net, np.array([[1.0, -2.0]]))
    assert np.allclose(trace.outputs, [[1.0, -2.0]])
    # a ReLU in front of these pre-activations would gate (1, 0)
    assert np.array_equal((trace.pre[0] > 0).astype(float), [[1.0, 0.0]])


def test_forward_hand_example():
    net = hand_net()
    trace = forward(net, np.array([[1.0, -1.0], [0.0, 1.0]]))
    assert np.allclose(trace.pre[0], [[0.6, -1.7], [0.6, 0.8]])
    assert np.allclose(trace.act[0], [[0.6, 0.0], [0.6, 0.8]])
    assert np.allclose(trace.gate[0], [[1.0, 0.0], [1.0, 1.0]])
    assert np.allclose(trace.outputs, [[1.5], [0.7]])


def test_forward_shape_mismatch():
    net = hand_net()
    with pytest.raises(ConfigurationError):
        forward(net, np.zeros((4, 3)))


@pytest.mark.parametrize("bn_mode", ["linear_relu_bn", "linear_bn_relu"])
def test_forward_bn_batch_too_small(bn_mode):
    rng = np.random.default_rng(1)
    net = random_network(rng, (3, 4, 2), bn_mode=bn_mode)
    with pytest.raises(PreconditionError):
        forward(net, np.zeros((1, 3)))


@pytest.mark.parametrize("bn_mode", ["linear_relu_bn", "linear_bn_relu"])
def test_forward_bn_output_statistics(bn_mode):
    rng = np.random.default_rng(2)
    net = random_network(rng, (6, 8, 3), bn_mode=bn_mode)
    x = rng.normal(size=(64, 6))
    trace = forward(net, x)
    if bn_mode == "linear_relu_bn":
        bn_out = trace.out[0]
    else:
        site = trace.bn[0]
        bn_out = site.c0 * site.f_tilde + net.bn_c1[0]
    # batch mean c1 and batch std |c0|, up to the variance-epsilon guard
    assert np.allclose(bn_out.mean(axis=0), net.bn_c1[0], atol=1e-10)
    assert np.allclose(bn_out.std(axis=0), np.abs(net.bn_c0[0]), rtol=1e-4)


@pytest.mark.parametrize("bn_mode", ["none", "linear_relu_bn", "linear_bn_relu"])
def test_gate_identity_on_traces(bn_mode):
    # relu(x) == gate(x) * x entrywise, exact in floating point
    for seed in range(5):
        rng = np.random.default_rng(seed)
        net = random_network(rng, (5, 7, 6, 4), bn_mode=bn_mode)
        trace = forward(net, rng.normal(size=(16, 5)))
        for li in range(net.n_layers - 1):
            relu_in = (
                trace.pre[li]
                if bn_mode != "linear_bn_relu"
                else trace.bn[li].c0 * trace.bn[li].f_tilde + net.bn_c1[li]
            )
            assert np.array_equal(trace.act[li], trace.gate[li] * relu_in)
            assert set(np.unique(trace.gate[li])) <= {0.0, 1.0}


def test_forward_deterministic():
    rng = np.random.default_rng(3)
    net = random_network(rng, (4, 6, 3), bn_mode="linear_relu_bn")
    x = rng.normal(size=(8, 4))
    t1, t2 = forward(net, x), forward(net, x)
    for a, b in zip(t1.out, t2.out):
        assert np.array_equal(a, b)


def _same(a, b) -> bool:
    # a channel constant over the batch has nothing to project off, so no
    # NaN may appear in either step
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bn_mode=st.sampled_from(BN_MODES),
       bias=st.booleans(),
       widths=st.lists(st.integers(1, 12), min_size=2, max_size=5),
       batch=st.integers(2, 40))
def test_step_matches_reference_bit_for_bit(seed, bn_mode, bias, widths, batch):
    # one hidden-layer path for both BN placements keeps every byte of the
    # earlier one-branch-per-placement step
    rng = np.random.default_rng(seed)
    net = random_network(rng, tuple(widths), bn_mode=bn_mode, bias=bias)
    x = rng.normal(size=(batch, widths[0]))
    target = rng.normal(size=(batch, widths[-1]))
    trace, ref = forward(net, x), forward_reference(net, x)
    for name in ("pre", "gate", "act", "out"):
        ours, theirs = getattr(trace, name), getattr(ref, name)
        assert len(ours) == len(theirs) == net.n_layers
        assert all(map(np.array_equal, ours, theirs)), name
    assert len(trace.bn) == len(ref.bn)
    for site, ref_site in zip(trace.bn, ref.bn):
        assert (site is None) == (ref_site is None)
        if site is not None:
            for name in ("f_in", "mu", "sigma", "f_tilde"):
                assert np.array_equal(getattr(site, name), getattr(ref_site, name))
            assert site.c0 is ref_site.c0
    with np.errstate(invalid="ignore"):
        grads = backward(net, trace, target)
        ref_grads = backward_reference(net, ref, target)
    for name in ("node", "weights", "biases", "bn_c0", "bn_c1"):
        ours, theirs = getattr(grads, name), getattr(ref_grads, name)
        assert len(ours) == len(theirs) == net.n_layers
        assert all(map(_same, ours, theirs)), name


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_zero_residual():
    rng = np.random.default_rng(4)
    net = random_network(rng, (3, 5, 2))
    x = rng.normal(size=(6, 3))
    trace = forward(net, x)
    grads = backward(net, trace, trace.outputs.copy())
    for g in grads.weights:
        assert np.all(g == 0.0)
    for g in grads.node:
        assert np.all(g == 0.0)


def test_backward_single_linear_layer():
    spec = NetworkSpec(layer_widths=(2, 1), bias=False)
    net = build_network(spec, [np.array([[0.0], [0.0]])])
    trace = forward(net, np.array([[1.0, 0.0]]))
    grads = backward(net, trace, np.array([[1.0]]))
    assert np.allclose(grads.weights[0], [[1.0], [0.0]])


def test_backward_hand_example():
    net = hand_net()
    x = np.array([[1.0, -1.0], [0.0, 1.0]])
    target = np.array([[2.0], [0.0]])
    trace = forward(net, x)
    grads = backward(net, trace, target)
    assert np.allclose(grads.node[1], [[0.5], [-0.7]])
    assert np.allclose(grads.node[0], [[1.0, 0.0], [-1.4, 0.7]])
    assert np.allclose(grads.weights[1], [[-0.06], [-0.28]])
    assert np.allclose(grads.biases[1], [-0.1])
    assert np.allclose(grads.weights[0], [[0.5, 0.0], [-1.2, 0.35]])
    assert np.allclose(grads.biases[0], [-0.2, 0.35])
    assert squared_loss(trace.outputs, target) == pytest.approx(0.185)


def test_backward_chain_rule_structure():
    rng = np.random.default_rng(5)
    net = random_network(rng, (4, 6, 5, 3))
    x = rng.normal(size=(8, 4))
    trace = forward(net, x)
    grads = backward(net, trace, rng.normal(size=(8, 3)))
    # g_k = gate_k * sum_j w_jk g_j on plain ReLU layers
    for li in range(net.n_layers - 1):
        expected = trace.gate[li] * (grads.node[li + 1] @ net.weights[li + 1].T)
        assert np.allclose(grads.node[li], expected, atol=1e-14)
    # weight gradient = batch mean of g_j(x) f_k(x)
    for li in range(net.n_layers):
        inp = trace.layer_input(li)
        assert np.allclose(
            grads.weights[li], inp.T @ grads.node[li] / x.shape[0], atol=1e-14
        )


@pytest.mark.parametrize("bn_mode", ["none", "linear_relu_bn", "linear_bn_relu"])
def test_backward_matches_finite_differences(bn_mode):
    # central differences of the matching loss, kink-guarded
    rng = np.random.default_rng(6)
    net, x = sample_kink_free_case(rng, (4, 6, 5, 3), batch=8, bn_mode=bn_mode)
    target = rng.normal(size=(8, 3))
    grads = backward(net, forward(net, x), target)
    analytic = {
        "w": grads.weights,
        "b": grads.biases,
        "c0": grads.bn_c0,
        "c1": grads.bn_c1,
    }
    assert max_rel_err(analytic, fd_gradients(net, x, target)) < 1e-5


def test_backward_wide_net_finite_differences():
    rng = np.random.default_rng(7)
    net, x = sample_kink_free_case(rng, (20, 30, 25, 10), batch=16)
    target = rng.normal(size=(16, 10))
    grads = backward(net, forward(net, x), target)
    analytic = {
        "w": grads.weights,
        "b": grads.biases,
        "c0": grads.bn_c0,
        "c1": grads.bn_c1,
    }
    assert max_rel_err(analytic, fd_gradients(net, x, target)) < 1e-5


def test_backward_target_shape_mismatch():
    net = hand_net()
    trace = forward(net, np.array([[1.0, 2.0]]))
    with pytest.raises(PreconditionError):
        backward(net, trace, np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# bn_backward
# ---------------------------------------------------------------------------

def make_site(rng, batch=8, width=5, c0=None):
    f = rng.normal(2.0, 1.5, size=(batch, width))
    mu = f.mean(axis=0)
    sigma = np.sqrt(f.var(axis=0) + 1e-8)
    c0 = np.ones(width) if c0 is None else c0
    return BNSite(f_in=f, mu=mu, sigma=sigma, f_tilde=(f - mu) / sigma, c0=c0)


def test_bn_backward_kills_constant_gradient():
    rng = np.random.default_rng(8)
    site = make_site(rng)
    g_out = np.ones((8, 5)) * rng.normal(size=(1, 5))
    g_in, _, _ = bn_backward(g_out, site)
    assert np.allclose(g_in, 0.0, atol=1e-12)


def test_bn_backward_kills_activation_direction():
    rng = np.random.default_rng(9)
    site = make_site(rng)
    g_in, _, _ = bn_backward(site.f_in.copy(), site)
    assert np.allclose(g_in, 0.0, atol=1e-10)


def test_bn_backward_projection_properties():
    # zero batch mean and zero correlation with the pre-BN activation
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        site = make_site(rng, batch=2 + seed % 13, width=1 + seed % 7,
                         c0=rng.uniform(0.5, 2.0, 1 + seed % 7))
        g_out = rng.normal(size=site.f_in.shape) * 10 ** rng.uniform(-2, 2)
        g_in, _, _ = bn_backward(g_out, site)
        scale = np.linalg.norm(g_out)
        assert np.abs(g_in.sum(axis=0)).max() < 1e-10 * scale
        corr = np.abs((g_in * site.f_in).sum(axis=0)).max()
        assert corr < 1e-10 * scale * np.linalg.norm(site.f_in)


def flat_channel_case(seed, bn_mode, widths, batch, n_flat, spread):
    """A random BN network and batch whose first n_flat layer-0 channels
    read only input 0, which is 1 plus spread times noise: exactly
    constant over the batch at spread 0, near-constant otherwise."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, widths, bn_mode=bn_mode)
    w0 = net.weights[0].copy()
    n_flat = min(n_flat, widths[1])
    w0[:, :n_flat] = 0.0
    w0[0, :n_flat] = rng.uniform(0.1, 10.0, n_flat)
    net = dataclasses.replace(net, weights=(w0, *net.weights[1:]))
    x = rng.normal(size=(batch, widths[0]))
    x[:, 0] = 1.0 + spread * rng.normal(size=batch)
    return net, x, rng.normal(size=(batch, widths[-1]))


def site_gradients(net, trace, grads):
    """Per BN site: the gradient backward sent into the site's input and
    the one it received at the site's output.

    Under linear_bn_relu the site's input gradient is the node gradient;
    under linear_relu_bn the ReLU gate follows it, so it is recomputed
    from the upstream node gradient and tied to backward's node bit for
    bit.
    """
    out = []
    for hi, site in enumerate(trace.bn):
        if site is None:
            continue
        g_up = grads.node[hi + 1] @ net.weights[hi + 1].T
        if net.spec.bn_mode == "linear_bn_relu":
            g_out, g_in = g_up * trace.gate[hi], grads.node[hi]
        else:
            g_out, g_in = g_up, bn_backward(g_up, site)[0]
            assert np.array_equal(grads.node[hi], g_in * trace.gate[hi])
        out.append((site, g_in, g_out))
    return out


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       bn_mode=st.sampled_from(["linear_relu_bn", "linear_bn_relu"]),
       widths=st.lists(st.integers(1, 12), min_size=3, max_size=5),
       batch=st.integers(2, 64), n_flat=st.integers(0, 12),
       spread=st.one_of(st.just(0.0),
                        st.floats(-16.0, -1.0).map(lambda e: 10.0 ** e)))
# a spread of a few ulps: f_tilde's batch sum, zero only to the rounding of
# the batch mean, is not small against f_tilde there
@example(seed=0, bn_mode="linear_relu_bn", widths=[4, 6, 5, 3], batch=64,
         n_flat=6, spread=1e-15)
@example(seed=0, bn_mode="linear_bn_relu", widths=[4, 6, 5, 3], batch=64,
         n_flat=6, spread=1e-15)
def test_bn_node_gradients_are_projected_on_real_steps(seed, bn_mode, widths,
                                                       batch, n_flat, spread):
    # every site's input gradient has zero batch mean and zero correlation
    # with the pre-BN activation, relative to its scale, through the real
    # forward and backward, on exactly constant and near-constant channels
    # (a constant layer input gives the next layer channels whose spread
    # is the rounding of the matrix product)
    net, x, target = flat_channel_case(seed, bn_mode, tuple(widths), batch,
                                       n_flat, spread)
    trace = forward(net, x)
    grads = backward(net, trace, target)
    sites = site_gradients(net, trace, grads)
    assert len(sites) == len(widths) - 2
    for site, g_in, g_out in sites:
        # scale of g_in: (|c0| / sigma) times the incoming gradient's L1 norm
        scale = np.abs(site.c0) / site.sigma * np.abs(g_out).sum(axis=0)
        assert np.all(np.abs(g_in.sum(axis=0)) <= 1e-9 * scale)
        f_max = np.abs(site.f_in).max(axis=0)
        corr = np.abs((g_in * site.f_in).sum(axis=0))
        assert np.all(corr <= 1e-9 * scale * f_max)


def test_bn_backward_param_grads_are_batch_sums():
    rng = np.random.default_rng(10)
    site = make_site(rng)
    g_out = rng.normal(size=(8, 5))
    _, g_c0, g_c1 = bn_backward(g_out, site)
    assert np.allclose(g_c1, g_out.sum(axis=0))
    assert np.allclose(g_c0, (g_out * site.f_tilde).sum(axis=0))


def test_one_pass_bn_statistics_match_two_pass_reference():
    rng = np.random.default_rng(12)
    for a in statistics_cases():
        width = a.shape[1]
        mu, centered, var = centered_moments(a)
        assert mu.tobytes() == a.mean(axis=0).tobytes()
        assert centered.tobytes() == (a - a.mean(axis=0)).tobytes()
        assert var.tobytes() == a.var(axis=0).tobytes()
        assert np.sqrt(var).tobytes() == a.std(axis=0).tobytes()
        c0, c1 = rng.uniform(0.5, 2.0, width), rng.normal(size=width)
        site, out = _bn(a, c0, c1)
        ref_mu, ref_sigma, ref_f_tilde = bn_stats_reference(a)
        assert site.mu.tobytes() == ref_mu.tobytes()
        assert site.sigma.tobytes() == ref_sigma.tobytes()
        assert site.f_tilde.tobytes() == ref_f_tilde.tobytes()
        assert out.tobytes() == (c0 * ref_f_tilde + c1).tobytes()
        g_out = rng.normal(size=a.shape)
        for ours, theirs in zip(bn_backward(g_out, site),
                                bn_backward_reference(g_out, site)):
            assert ours.tobytes() == theirs.tobytes()


def test_bn_backward_constant_channel_takes_a_finite_step():
    # unit 1 = (-1, -1) is dead on non-negative inputs: its ReLU output is
    # 0 on the whole batch, so the BN site sees a constant channel
    spec = NetworkSpec(layer_widths=(2, 3, 1), bn_mode="linear_relu_bn")
    w0 = np.array([[0.7, -1.0, 0.4], [0.2, -1.0, -0.3]])
    net = build_network(spec, [w0, np.array([[0.5], [-0.8], [1.1]])])
    rng = np.random.default_rng(13)
    x = np.abs(rng.normal(size=(8, 2)))
    trace = forward(net, x)
    assert np.all(trace.act[0][:, 1] == 0.0)
    grads = backward(net, trace, rng.normal(size=(8, 1)))
    for g in grads.node + grads.weights:
        assert np.all(np.isfinite(g))
    # nothing to project off: the channel's gradient is (c0 / sigma) * centered
    site = trace.bn[0]
    g_up = grads.node[1] @ net.weights[1].T
    g_in, _, _ = bn_backward(g_up, site)
    centered = g_up[:, 1] - g_up.mean(axis=0)[1]
    assert np.array_equal(g_in[:, 1], (site.c0[1] / site.sigma[1]) * centered)
    stepped = sgd_step(net, grads, 0.1)
    assert all(np.all(np.isfinite(w)) for w in stepped.weights)


def test_bn_backward_degenerate_sigma():
    rng = np.random.default_rng(11)
    site = make_site(rng)
    site.sigma = site.sigma * 0.0
    with pytest.raises(DegenerateBatchError):
        bn_backward(np.zeros_like(site.f_in), site)


# ---------------------------------------------------------------------------
# sgd_step / filter_norms
# ---------------------------------------------------------------------------

def test_sgd_step_hand_example():
    net = hand_net()
    x = np.array([[1.0, -1.0]])
    trace = forward(net, x)
    grads = backward(net, trace, np.array([[2.0]]))
    stepped = sgd_step(net, grads, 0.1)
    assert np.allclose(stepped.weights[0], [[1.1, -0.5], [0.4, 1.0]])
    assert np.allclose(stepped.biases[0], [0.2, -0.2])
    assert np.allclose(stepped.weights[1], [[2.03], [-1.0]])
    assert np.allclose(stepped.biases[1], [0.35])
    # original untouched, eta = 0 is a no-op
    assert np.allclose(net.weights[0], [[1.0, -0.5], [0.5, 1.0]])
    same = sgd_step(net, grads, 0.0)
    assert np.array_equal(same.weights[0], net.weights[0])


def test_sgd_step_reduces_loss():
    rng = np.random.default_rng(12)
    net = random_network(rng, (4, 8, 3))
    x = rng.normal(size=(32, 4))
    target = rng.normal(size=(32, 3))
    before = squared_loss(forward(net, x).outputs, target)
    stepped = sgd_step(net, backward(net, forward(net, x), target), 0.05)
    after = squared_loss(forward(stepped, x).outputs, target)
    assert after < before


def test_sgd_step_rejects_nonfinite():
    # one non-finite gradient entry of any parameter kind makes a
    # non-finite parameter, which the stepped Network rejects
    x = np.array([[1.0, -1.0], [0.5, 2.0], [-1.5, 0.3]])
    for bn_mode, kind, li, value in (
        ("none", "weights", 0, np.nan),
        ("none", "biases", 1, np.inf),
        ("linear_relu_bn", "bn_c1", 0, np.inf),
    ):
        net = random_network(np.random.default_rng(15), (2, 3, 1), bn_mode=bn_mode)
        grads = backward(net, forward(net, x), np.zeros((3, 1)))
        entries = getattr(grads, kind)
        entries[li] = entries[li].copy()
        entries[li][0] = value
        with pytest.raises(NumericError):
            sgd_step(net, grads, 0.1)


def test_filter_norms():
    spec = NetworkSpec(layer_widths=(2, 2), bias=True)
    net = build_network(spec, [np.array([[3.0, 1.0], [4.0, 0.0]])],
                        [np.array([9.0, 9.0])])
    norms = filter_norms(net)
    assert np.allclose(norms[0], [5.0, 1.0])  # bias plays no part
    ident = build_network(NetworkSpec((3, 3), bias=False), [np.eye(3)])
    assert np.allclose(filter_norms(ident)[0], 1.0)


def perturbed_clone(teacher, rng, delta):
    """Same network with weights nudged by a relative factor delta."""
    from reludyn.net import build_network as _bn

    ws = [w + rng.normal(0, delta * np.abs(w).mean(), w.shape) for w in teacher.weights]
    copy = lambda vs: [None if v is None else v.copy() for v in vs]
    return _bn(teacher.spec, ws, copy(teacher.biases),
               copy(teacher.bn_c0), copy(teacher.bn_c1))


@pytest.mark.parametrize("bn_mode", ["linear_relu_bn", "linear_bn_relu"])
def test_filter_norm_conservation_short(bn_mode):
    # norms of pre-BN filters stay put while the weights themselves move;
    # quick version of the 1000-step check in the acceptance suite.  The
    # run starts near the teacher so that the second-order term of the
    # discrete step (eta^2 |dW|^2, the part the continuous-time statement
    # ignores) stays below the drift tolerance.
    rng = np.random.default_rng(13)
    teacher = random_network(rng, (6, 10, 8, 4), bn_mode=bn_mode)
    net = perturbed_clone(teacher, rng, 0.002)
    initial = [n.copy() for n in filter_norms(net)]
    w0 = [w.copy() for w in net.weights]
    for _ in range(200):
        x = rng.normal(size=(64, 6))
        target = forward(teacher, x).outputs
        net = sgd_step(net, backward(net, forward(net, x), target), 0.01)
    final = filter_norms(net)
    for li in range(net.n_layers - 1):  # hidden (pre-BN) layers only
        drift = np.abs(final[li] - initial[li]) / initial[li]
        assert drift.max() < 1e-6
    # the run is not vacuous: weights moved far more than the norms did
    moved = max(
        np.linalg.norm(net.weights[li] - w0[li]) / np.linalg.norm(w0[li])
        for li in range(net.n_layers - 1)
    )
    assert moved > 1e-4


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        NetworkSpec(layer_widths=(3,))
    with pytest.raises(ConfigurationError):
        NetworkSpec(layer_widths=(3, 0, 2))
    with pytest.raises(ConfigurationError):
        NetworkSpec(layer_widths=(3, 4, 2), bn_mode="always")
    with pytest.raises(ConfigurationError):
        # a hidden layer under BN has no bias, so none may be given
        build_network(
            NetworkSpec(layer_widths=(3, 4, 2), bn_mode="linear_relu_bn"),
            [np.ones((3, 4)), np.ones((4, 2))],
            biases=[np.zeros(4), np.zeros(2)],
        )
    with pytest.raises(NumericError):
        build_network(
            NetworkSpec((2, 2), bias=False), [np.array([[np.inf, 0], [0, 1]])]
        )
