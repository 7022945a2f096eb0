"""Correlation, rank, fan-out norm, and BN sign-audit metrics."""

import math

import numpy as np
import pytest

from oracles import random_network
from reludyn.errors import PreconditionError
from reludyn.metrics import (
    bn_bias_audit,
    mean_rank,
    rho_bar,
    rho_matrix,
    v_row_norms,
)
from reludyn.net import NetworkSpec, build_network


def cm_from(rho, valid_s=None, valid_t=None):
    rho = np.asarray(rho, dtype=float)
    from reludyn.metrics import CorrelationMatrix

    n, m = rho.shape
    return CorrelationMatrix(
        rho=rho,
        valid_students=np.ones(n, bool) if valid_s is None else np.asarray(valid_s),
        valid_teachers=np.ones(m, bool) if valid_t is None else np.asarray(valid_t),
    )


# --------------------------------------------------------------------- rho


def test_rho_perfect_and_anti_correlation():
    rng = np.random.default_rng(0)
    f = rng.normal(size=(64, 3))
    cm = rho_matrix(f, f.copy())
    assert np.allclose(np.diag(cm.rho), 1.0, atol=1e-12)
    cm_neg = rho_matrix(f, -f)
    assert np.allclose(np.diag(cm_neg.rho), -1.0, atol=1e-12)
    assert np.all(cm.rho >= -1.0) and np.all(cm.rho <= 1.0)


def test_rho_affine_invariance():
    rng = np.random.default_rng(1)
    f = rng.normal(size=(32, 4))
    g = rng.normal(size=(32, 5))
    a = rho_matrix(f, g).rho
    b = rho_matrix(3.7 * f + 2.0, g).rho
    assert np.allclose(a, b, atol=1e-12)


def test_rho_independent_noise_is_small():
    rng = np.random.default_rng(2)
    batch = 4096
    cm = rho_matrix(rng.normal(size=(batch, 50)), rng.normal(size=(batch, 20)))
    violations = int((np.abs(cm.rho) >= 3.0 / math.sqrt(batch)).sum())
    # 1000 entries, each violating with prob ~ 0.003
    assert violations < 15


def test_rho_dead_nodes_flagged_not_nan():
    rng = np.random.default_rng(3)
    f = rng.normal(size=(16, 3))
    f[:, 1] = 2.5  # constant: zero spread
    g = rng.normal(size=(16, 2))
    g[:, 0] = 0.0
    cm = rho_matrix(f, g)
    assert not np.isnan(cm.rho).any()
    assert cm.valid_students.tolist() == [True, False, True]
    assert cm.valid_teachers.tolist() == [False, True]
    assert np.all(cm.rho[1, :] == 0.0) and np.all(cm.rho[:, 0] == 0.0)


def test_rho_preconditions():
    with pytest.raises(PreconditionError):
        rho_matrix(np.zeros((1, 3)), np.zeros((1, 2)))
    with pytest.raises(PreconditionError):
        rho_matrix(np.zeros((4, 3)), np.zeros((5, 2)))


# ----------------------------------------------------------------- rho_bar


def test_rho_bar_exact_copies():
    rng = np.random.default_rng(4)
    t = rng.normal(size=(64, 4))
    s = np.concatenate([rng.normal(size=(64, 6)), t], axis=1)
    summary = rho_bar(rho_matrix(s, t))
    assert abs(summary.value - 1.0) < 1e-12
    assert summary.n_covered == 4 and summary.excluded == ()


def test_rho_bar_excludes_dead_columns():
    cm = rho_matrix(np.zeros((8, 1)), np.random.default_rng(5).normal(size=(8, 1)))
    summary = rho_bar(cm)
    assert summary.n_covered == 0
    assert summary.excluded == (0,)
    assert math.isnan(summary.value)


def test_rho_bar_monotone_in_students():
    rng = np.random.default_rng(6)
    t = rng.normal(size=(32, 5))
    s = rng.normal(size=(32, 8))
    base = rho_bar(rho_matrix(s, t)).value
    grown = rho_bar(rho_matrix(np.concatenate([s, rng.normal(size=(32, 4))], 1), t)).value
    assert grown >= base - 1e-15


def test_rho_bar_overparam_baseline_in_unit_interval():
    # recorded as a baseline: wide random student against a small teacher
    rng = np.random.default_rng(7)
    t = rng.normal(size=(256, 10))
    s = rng.normal(size=(256, 100))
    v = rho_bar(rho_matrix(s, t)).value
    assert 0.0 < v < 1.0


# --------------------------------------------------------------- mean_rank


def test_mean_rank_winner_stays_first():
    a = cm_from([[0.9, 0.1], [0.2, 0.8], [0.0, 0.3]])
    ranks = mean_rank([a, a, a])
    assert np.allclose(ranks, 0.0)


def test_mean_rank_two_student_swap():
    early = cm_from([[0.1], [0.9]])
    late = cm_from([[0.9], [0.1]])
    ranks = mean_rank([early, late])
    assert ranks.tolist() == [1.0, 0.0]  # winner was second of two at t=0


def test_mean_rank_half_affected():
    # two teachers, winner of the first was mid-ranked early on
    early = cm_from([[0.1, 0.9], [0.9, 0.1], [0.5, 0.2]])
    late = cm_from([[0.9, 0.8], [0.1, 0.3], [0.0, 0.2]])
    ranks = mean_rank([early, late])
    # teacher 0 winner (student 0) ranked 2 of 3 early; teacher 1 winner
    # (student 0) ranked 0 early; mean = (1.0 + 0.0)/2
    assert np.allclose(ranks, [0.5, 0.0])


def test_mean_rank_tie_breaks_to_smaller_index():
    tied = cm_from([[0.5], [0.5]])
    final = cm_from([[0.2], [0.9]])
    ranks = mean_rank([tied, final])
    # winner is student 1; at t=0 the tie goes to student 0, so rank 1
    assert ranks[0] == 1.0


def test_mean_rank_permutation_equivariant():
    rng = np.random.default_rng(8)
    mats = [rng.uniform(-1, 1, size=(6, 3)) for _ in range(4)]
    base = mean_rank([cm_from(m) for m in mats])
    perm = rng.permutation(6)
    permuted = mean_rank([cm_from(m[perm]) for m in mats])
    assert np.allclose(base, permuted)


def test_mean_rank_preconditions():
    cm = cm_from([[0.5], [0.1]])
    with pytest.raises(PreconditionError):
        mean_rank([cm])
    with pytest.raises(PreconditionError):
        mean_rank([cm, cm_from([[0.5]])])
    dead = cm_from([[0.0], [0.0]], valid_t=[False])
    with pytest.raises(PreconditionError):
        mean_rank([dead, dead])


# ------------------------------------------------------------- v_row_norms


def test_v_row_norms_hand_cases():
    spec = NetworkSpec(layer_widths=(2, 2, 1), bias=False)
    net = build_network(
        spec, [np.eye(2), np.array([[3.0], [4.0]])]
    )
    assert v_row_norms(net, 0).tolist() == [3.0, 4.0]
    net_zero = build_network(spec, [np.eye(2), np.zeros((2, 1))])
    assert v_row_norms(net_zero, 0).tolist() == [0.0, 0.0]
    net_345 = build_network(
        NetworkSpec(layer_widths=(2, 1, 2), bias=False),
        [np.ones((2, 1)), np.array([[3.0, 4.0]])],
    )
    assert v_row_norms(net_345, 0).tolist() == [5.0]


def test_v_row_norms_permutation_invariant_as_set():
    rng = np.random.default_rng(9)
    net = random_network(rng, (4, 6, 3))
    norms = v_row_norms(net, 0)
    perm = rng.permutation(6)
    permuted = build_network(
        net.spec,
        [net.weights[0][:, perm], net.weights[1][perm, :]],
        [net.biases[0][perm], net.biases[1]],
    )
    assert np.allclose(np.sort(v_row_norms(permuted, 0)), np.sort(norms))


def test_v_row_norms_needs_upper_layer():
    net = random_network(np.random.default_rng(10), (3, 4, 2))
    with pytest.raises(PreconditionError):
        v_row_norms(net, 1)


# ------------------------------------------------------------ bn sign audit


def test_bn_audit_no_bn_is_empty():
    net = random_network(np.random.default_rng(11), (3, 4, 2))
    assert bn_bias_audit(net) == []


def test_bn_audit_zero_init_counts_non_negative():
    spec = NetworkSpec(layer_widths=(3, 5, 2), bn_mode="linear_relu_bn")
    net = build_network(spec, [np.ones((3, 5)), np.ones((5, 2))])
    rep = bn_bias_audit(net)
    assert len(rep) == 1
    assert rep[0].n_negative == 0 and rep[0].n_positive == 5
    assert rep[0].counts.sum() == 5
    assert rep[0].counts.max() == 5  # all mass in one bin


def test_bn_audit_mixed_signs():
    spec = NetworkSpec(layer_widths=(2, 2, 1), bn_mode="linear_bn_relu")
    net = build_network(
        spec,
        [np.eye(2), np.ones((2, 1))],
        bn_c1=[np.array([-1.0, 1.0]), None],
    )
    rep = bn_bias_audit(net)[0]
    assert rep.n_negative == 1 and rep.n_positive == 1
    assert rep.counts.sum() == 2
    assert len(rep.bin_edges) == 21
