"""Gradient decomposition channels and the joint-firing kernel probe.

For plain ReLU stacks trained toward a teacher, the per-sample negative
gradient at every node splits exactly into a teacher-channel sum minus a
student-channel sum:

    g_j(x) = f'_j(x) * (sum_jt beta_star[j, jt] f_t[jt]
                        - sum_jp beta[j, jp] f_s[jp])

with both channel tensors built top-down: identity at the output layer,
then one contraction through weights and gates per layer.  Biases are
folded in by treating each bias as a weight to a constant always-on node,
which adds one extra channel column per side.  The decomposition needs the
sigma(x) = sigma'(x) * x property of ReLU, so it is only defined for
networks without batch normalization.

psi_d estimates the joint firing probability of two filters on Gaussian
inputs with the gate kernel and stderr formula of the reduced dynamics,
streaming its rows through teachers.batch_blocks like the fall-off probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _gate, _stderr
from .errors import ConfigurationError, PreconditionError
from .net import ForwardTrace, GradientSet, Network
from .teachers import GausStream, batch_blocks


@dataclass(frozen=True)
class BetaTensors:
    """Per-sample channel tensors, one entry per linear layer (0 = first).

    ``beta_star[li]`` has shape (batch, n_li, m_li): student node j against
    teacher node jt at the same layer.  ``beta[li]`` is the student-student
    analogue.  The ``*_bias`` arrays hold the constant-node column that the
    bias augmentation adds; they are zero everywhere when no layer below
    carries a bias.
    """

    beta_star: tuple[np.ndarray, ...]
    beta: tuple[np.ndarray, ...]
    beta_star_bias: tuple[np.ndarray, ...]
    beta_bias: tuple[np.ndarray, ...]

    @property
    def n_layers(self) -> int:
        return len(self.beta_star)

    @property
    def batch_size(self) -> int:
        return self.beta_star[-1].shape[0]


def _augmented_weight(w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """[[W, 0], [b^T, 1]]: bias as a weight from the constant node, plus
    the constant node's own pass-through column."""
    fan_in, width = w.shape
    out = np.zeros((fan_in + 1, width + 1))
    out[:fan_in, :width] = w
    out[fan_in, :width] = 0.0 if b is None else b
    out[fan_in, width] = 1.0
    return out


def _augmented_gates(gate: np.ndarray) -> np.ndarray:
    """Gates with the constant node appended (always on)."""
    return np.concatenate([gate, np.ones((gate.shape[0], 1))], axis=1)


def _check_pair(student: Network, teacher: Network,
                trace_s: ForwardTrace, trace_t: ForwardTrace) -> None:
    if student.n_layers != teacher.n_layers:
        raise ConfigurationError("student and teacher depths differ")
    if student.spec.layer_widths[-1] != teacher.spec.layer_widths[-1]:
        raise ConfigurationError("student and teacher output widths differ")
    if student.spec.bn_mode != "none" or teacher.spec.bn_mode != "none":
        raise ConfigurationError(
            "gradient decomposition is defined for plain ReLU stacks only"
        )
    if trace_s.x.shape != trace_t.x.shape or not np.array_equal(
        trace_s.x, trace_t.x
    ):
        raise PreconditionError("traces must come from the same batch")


def _descend(beta_aug: np.ndarray, w_s: np.ndarray, gate_s: np.ndarray,
             w_other_aug: np.ndarray, gate_other_aug: np.ndarray) -> np.ndarray:
    """One layer of the downward channel recursion (augmented columns)."""
    t = beta_aug * gate_s[:, :, None] * gate_other_aug[:, None, :]
    t = np.einsum("kj,bjm->bkm", w_s, t)
    return np.einsum("bkm,nm->bkn", t, w_other_aug)


def compute_beta(student: Network, teacher: Network,
                 trace_s: ForwardTrace, trace_t: ForwardTrace) -> BetaTensors:
    """Build both channel tensors for every layer of a matched pair.

    Top layer starts at the identity pattern (each output matched to
    itself, no constant contribution); each step down contracts through
    the layer's weights on the student row side and the augmented
    weights/gates of the respective column side.
    """
    _check_pair(student, teacher, trace_s, trace_t)
    n_layers = student.n_layers
    batch = trace_s.batch_size
    c = student.spec.layer_widths[-1]

    eye_aug = np.zeros((c, c + 1))
    eye_aug[:, :c] = np.eye(c)
    star = [np.empty(0)] * n_layers
    self_ = [np.empty(0)] * n_layers
    star[-1] = np.broadcast_to(eye_aug, (batch, c, c + 1)).copy()
    self_[-1] = star[-1].copy()
    for li in range(n_layers - 1, 0, -1):
        gs = trace_s.gate[li]
        star[li - 1] = _descend(
            star[li], student.weights[li], gs,
            _augmented_weight(teacher.weights[li], teacher.biases[li]),
            _augmented_gates(trace_t.gate[li]),
        )
        self_[li - 1] = _descend(
            self_[li], student.weights[li], gs,
            _augmented_weight(student.weights[li], student.biases[li]),
            _augmented_gates(trace_s.gate[li]),
        )
    return BetaTensors(
        beta_star=tuple(a[:, :, :-1] for a in star),
        beta=tuple(a[:, :, :-1] for a in self_),
        beta_star_bias=tuple(a[:, :, -1] for a in star),
        beta_bias=tuple(a[:, :, -1] for a in self_),
    )


def verify_identity(betas: BetaTensors, trace_s: ForwardTrace,
                    trace_t: ForwardTrace, grads: GradientSet) -> float:
    """Max absolute gap between node gradients and their channel form.

    Zero (up to roundoff) for any architecture and batch; the module's
    central self-test.
    """
    if betas.n_layers != len(grads.node):
        raise ConfigurationError("channel tensors and gradients differ in depth")
    worst = 0.0
    for li in range(betas.n_layers):
        teacher_sum = (
            np.einsum("bjm,bm->bj", betas.beta_star[li], trace_t.act[li])
            + betas.beta_star_bias[li]
        )
        student_sum = (
            np.einsum("bjn,bn->bj", betas.beta[li], trace_s.act[li])
            + betas.beta_bias[li]
        )
        recon = trace_s.gate[li] * (teacher_sum - student_sum)
        worst = max(worst, float(np.abs(grads.node[li] - recon).max()))
    return worst


def psi_d(w, w_p, stream: GausStream, n: int, tau: float = 0.0):
    """Joint firing probability of two filters, with standard error.

    Draws n rows in the blocks of teachers.batch_blocks, the block loop
    the fall-off probe shares.  Each block adds an exact integer count of
    joint firings, so the estimate has the same bits for any block size.
    The products of 0/1 gates satisfy p * p == p, so the second moment
    equals the mean and the stderr follows from the mean alone.
    """
    w = np.asarray(w, dtype=float)
    w_p = np.asarray(w_p, dtype=float)
    if np.linalg.norm(w) == 0 or np.linalg.norm(w_p) == 0:
        raise PreconditionError("kernel probes need nonzero filters")
    if n < 2:
        raise PreconditionError("need at least two samples")
    s1 = 0.0
    # x stays alive while the next block is drawn: dropping a small block
    # first lets malloc trim the heap top and fault it back in per block
    for x in batch_blocks(stream, n):
        s1 += (_gate(x @ w, tau) * _gate(x @ w_p, tau)).sum()
    mean = s1 / n
    return float(mean), float(_stderr(mean, mean, n))
