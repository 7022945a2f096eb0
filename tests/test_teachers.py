"""Teacher sampling, student initialization geometry, and data streams."""

import numpy as np
import pytest

from reludyn.errors import ConfigurationError, PreconditionError
from reludyn.net import BN_MODES, NetworkSpec, build_network, forward
from reludyn.teachers import (
    MAX_MIXING,
    GausStream,
    StudentInit,
    TeacherSpec,
    make_student,
    make_teacher,
    next_batch,
    teacher_labels,
)


def cosines(a, b):
    """Columnwise cosine between two matrices of matching shape."""
    num = (a * b).sum(axis=0)
    den = np.linalg.norm(a, axis=0) * np.linalg.norm(b, axis=0)
    return num / den


def padded_teacher_cols(teacher, li, fan_in):
    """Teacher layer li columns zero-padded to the student fan-in."""
    m_prev, m = teacher.weights[li].shape
    out = np.zeros((fan_in, m))
    out[:m_prev, :] = teacher.weights[li]
    return out


# ---------------------------------------------------------------- teachers


def test_teacher_weights_on_grid():
    spec = TeacherSpec(layer_widths=(5, 8, 3), seed=7)
    t = make_teacher(spec)
    grid = set(spec.weight_grid)
    for w in t.weights:
        assert set(np.unique(w)) <= grid


def test_teacher_columns_distinct():
    t = make_teacher(TeacherSpec(layer_widths=(6, 12, 10, 4), seed=3))
    for w in t.weights:
        keys = {w[:, j].tobytes() for j in range(w.shape[1])}
        assert len(keys) == w.shape[1]


def test_teacher_biases_in_range():
    spec = TeacherSpec(layer_widths=(4, 9, 2), bias_range=(-0.3, 0.1), seed=1)
    t = make_teacher(spec)
    for b in t.biases:
        assert b is not None
        assert np.all(b >= -0.3) and np.all(b <= 0.1)


def test_teacher_deterministic():
    spec = TeacherSpec(layer_widths=(5, 7, 3), seed=42)
    a, b = make_teacher(spec), make_teacher(spec)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)
    c = make_teacher(TeacherSpec(layer_widths=(5, 7, 3), seed=43))
    assert not all(
        np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights)
    )


def test_teacher_zero_grid_values_dropped():
    spec = TeacherSpec(layer_widths=(4, 6, 2), weight_grid=(-0.5, 0.0, 0.5))
    assert spec.weight_grid == (-0.5, 0.5)
    t = make_teacher(spec)
    assert set(np.unique(t.weights[0])) <= {-0.5, 0.5}


def test_teacher_infeasible_width_raises():
    # 4 grid values, fan-in 2: only 16 distinct columns available
    with pytest.raises(ConfigurationError):
        make_teacher(TeacherSpec(layer_widths=(2, 20, 1)))


def test_teacher_spec_validation():
    with pytest.raises(ConfigurationError):
        TeacherSpec(layer_widths=(5,))
    with pytest.raises(ConfigurationError):
        TeacherSpec(layer_widths=(5, 3), weight_grid=(0.5, 0.0))
    with pytest.raises(ConfigurationError):
        TeacherSpec(layer_widths=(5, 3), bias_range=(0.2, -0.2))


# ---------------------------------------------------------------- students


def test_student_shapes_and_unit_columns():
    t = make_teacher(TeacherSpec(layer_widths=(6, 10, 8, 3), seed=5))
    s = make_student(t, StudentInit(overparam_factor=4, seed=0))
    assert s.spec.layer_widths == (6, 40, 32, 3)
    for li in range(s.n_layers - 1):
        norms = np.linalg.norm(s.weights[li], axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_student_large_mixing_recovers_teacher():
    t = make_teacher(TeacherSpec(layer_widths=(6, 10, 8, 3), seed=5))
    s = make_student(t, StudentInit(overparam_factor=2, p_w=1e6, p_v=1e6, seed=1))
    for li in range(s.n_layers - 1):
        m = t.spec.layer_widths[li + 1]
        ref = padded_teacher_cols(t, li, s.spec.layer_widths[li])
        cos = cosines(s.weights[li][:, :m], ref)
        assert np.min(cos) > 1.0 - 1e-9
    # top rows align with teacher fan-outs (rows are not normalized)
    m_prev = t.spec.layer_widths[-2]
    cos_rows = cosines(s.weights[-1][:m_prev, :].T, t.weights[-1].T)
    assert np.min(cos_rows) > 1.0 - 1e-9


def test_student_zero_mixing_is_unaligned():
    t = make_teacher(TeacherSpec(layer_widths=(100, 50, 2), seed=9))
    cos_all = []
    for seed in range(20):
        s = make_student(t, StudentInit(p_w=0.0, seed=seed))
        ref = t.weights[0] / np.linalg.norm(t.weights[0], axis=0)
        cos_all.append(np.abs(cosines(s.weights[0][:, :50], ref)))
    # random unit vectors in R^100: |cos| concentrates near sqrt(2/(pi*100))
    assert np.mean(cos_all) < 3.0 / np.sqrt(100)


def test_student_alignment_monotone_in_mixing():
    t = make_teacher(TeacherSpec(layer_widths=(10, 6, 2), seed=2))
    ref = t.weights[0] / np.linalg.norm(t.weights[0], axis=0)
    means = []
    for p_w in (0.0, 0.5, 1.0, 2.0):
        vals = []
        for seed in range(32):
            s = make_student(t, StudentInit(p_w=p_w, seed=seed))
            vals.append(np.mean(cosines(s.weights[0][:, :6], ref)))
        means.append(np.mean(vals))
    assert means[0] < means[1] < means[2] < means[3]


def test_student_bn_drops_hidden_biases():
    t = make_teacher(TeacherSpec(layer_widths=(5, 8, 4, 2), seed=0))
    s = make_student(t, StudentInit(seed=0), bn_mode="linear_relu_bn")
    assert s.biases[0] is None and s.biases[1] is None
    assert s.biases[-1] is not None and np.all(s.biases[-1] == 0.0)
    assert s.bn_c0[0] is not None and np.all(s.bn_c0[0] == 1.0)
    assert s.bn_c1[0] is not None and np.all(s.bn_c1[0] == 0.0)


@pytest.mark.parametrize("bn_mode", BN_MODES)
def test_student_of_bias_free_teacher_has_no_biases(bn_mode):
    rng = np.random.default_rng(6)
    t = build_network(
        NetworkSpec(layer_widths=(5, 8, 4, 2), bias=False),
        [rng.normal(size=(5, 8)), rng.normal(size=(8, 4)), rng.normal(size=(4, 2))],
    )
    s = make_student(t, StudentInit(overparam_factor=2, seed=0), bn_mode=bn_mode)
    assert s.spec.bn_mode == bn_mode
    assert all(b is None for b in s.biases)
    assert not any(s.spec.has_bias(li) for li in range(s.n_layers))


def test_student_plain_keeps_zero_biases():
    t = make_teacher(TeacherSpec(layer_widths=(5, 8, 2), seed=0))
    s = make_student(t, StudentInit(seed=0))
    for b in s.biases:
        assert b is not None and np.all(b == 0.0)


def test_student_init_validation():
    with pytest.raises(ConfigurationError):
        StudentInit(overparam_factor=0)
    with pytest.raises(ConfigurationError):
        StudentInit(p_w=-0.1)
    for name in ("p_w", "p_v"):
        with pytest.raises(ConfigurationError, match=f"{name} = 1e"):
            StudentInit(**{name: MAX_MIXING * 10})
    StudentInit(p_w=MAX_MIXING, p_v=MAX_MIXING)


def test_teacher_bias_range_must_have_a_finite_width():
    # the generator cannot draw from a range whose width overflows
    with pytest.raises(ConfigurationError, match="wider than a float"):
        TeacherSpec(layer_widths=(1, 1), bias_range=(-1.8e308, 1e292))
    TeacherSpec(layer_widths=(1, 1), bias_range=(-1e307, 1e307))


# ------------------------------------------------------------------ stream


def test_stream_infinite_moments():
    st = GausStream(dim=5, std=10.0, seed=0)
    x = next_batch(st, 4000)
    assert x.shape == (4000, 5)
    assert abs(x.mean()) < 0.5
    assert abs(x.std() - 10.0) < 0.5


def test_stream_deterministic():
    a = GausStream(dim=3, std=1.0, seed=11)
    b = GausStream(dim=3, std=1.0, seed=11)
    assert np.array_equal(next_batch(a, 16), next_batch(b, 16))
    assert np.array_equal(next_batch(a, 16), next_batch(b, 16))


def test_stream_finite_cycles_through_pool():
    st = GausStream(dim=2, std=1.0, mode="finite", n_samples=7, seed=3)
    pool_keys = None
    for _ in range(3):  # each full pass covers the pool exactly once
        batch = next_batch(st, 7)
        keys = sorted(batch[i].tobytes() for i in range(7))
        if pool_keys is None:
            pool_keys = keys
        assert keys == pool_keys


def test_stream_finite_wraps_within_batch():
    st = GausStream(dim=2, std=1.0, mode="finite", n_samples=4, seed=5)
    batch = next_batch(st, 10)  # 2.5 passes
    keys = {batch[i].tobytes() for i in range(10)}
    assert len(keys) == 4


def test_stream_validation():
    with pytest.raises(ConfigurationError):
        GausStream(dim=0)
    with pytest.raises(ConfigurationError):
        GausStream(dim=2, std=0.0)
    with pytest.raises(ConfigurationError):
        GausStream(dim=2, mode="finite")
    with pytest.raises(ConfigurationError):
        GausStream(dim=2, mode="loop")
    st = GausStream(dim=2)
    with pytest.raises(PreconditionError):
        next_batch(st, 0)


def test_teacher_labels_match_forward():
    t = make_teacher(TeacherSpec(layer_widths=(4, 6, 3), seed=8))
    x = np.random.default_rng(0).normal(size=(12, 4))
    lab = teacher_labels(t, x)
    assert lab.shape == (12, 3)
    assert np.array_equal(lab, forward(t, x).outputs)
