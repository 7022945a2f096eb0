"""Node-matching metrics between a trained net and its teacher.

Per-node correlation on a validation batch, layer summaries (mean best
match), historical rank of the eventual winners, fan-out row norms, and a
sign audit of the BN shift parameters.  Everything here is a pure function
of activation snapshots or a network; nothing mutates state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .net import Network, centered_moments


@dataclass(frozen=True)
class CorrelationMatrix:
    """Correlations between standardized activation columns.

    ``rho[j, jt]`` scores student node j against teacher node jt on one
    shared batch; entries lie in [-1, 1].  Nodes whose activation has zero
    spread on the batch cannot be standardized: their entries are set to
    0.0 and flagged through the validity masks instead of turning NaN.
    """

    rho: np.ndarray
    valid_students: np.ndarray
    valid_teachers: np.ndarray

    @property
    def n_students(self) -> int:
        return self.rho.shape[0]

    @property
    def n_teachers(self) -> int:
        return self.rho.shape[1]


@dataclass(frozen=True)
class RhoSummary:
    """Mean best-match correlation with dead-column accounting.

    ``value`` averages, over teacher nodes that have at least one live
    student, the best correlation any student reaches.  Columns without a
    single live student are excluded and listed; ``value`` is NaN when no
    column survives.
    """

    value: float
    n_teachers: int
    n_covered: int
    excluded: tuple[int, ...]


@dataclass(frozen=True)
class BNBiasReport:
    """Sign counts and a 20-bin histogram of one layer's BN shifts.

    Zeros count as non-negative.
    """

    layer: int
    n_negative: int
    n_positive: int
    bin_edges: np.ndarray
    counts: np.ndarray


def rho_matrix(acts_s: np.ndarray, acts_t: np.ndarray) -> CorrelationMatrix:
    """Correlate every student activation column with every teacher column.

    Columns are centered and scaled to unit spread, so the batch-size
    normalized inner product is a sample correlation.
    """
    if acts_s.ndim != 2 or acts_t.ndim != 2:
        raise PreconditionError("activation snapshots must be batch x nodes")
    batch = acts_s.shape[0]
    if acts_t.shape[0] != batch:
        raise PreconditionError("snapshots must share one batch")
    if batch < 2:
        raise PreconditionError("correlation needs batch >= 2")

    def standardize(a):
        _, z, var = centered_moments(a)
        std = np.sqrt(var)
        alive = std > 0.0
        z /= np.where(alive, std, 1.0)
        return z, alive

    z_s, ok_s = standardize(acts_s)
    z_t, ok_t = standardize(acts_t)
    rho = np.clip(z_s.T @ z_t / batch, -1.0, 1.0)
    rho[~ok_s, :] = 0.0
    rho[:, ~ok_t] = 0.0
    return CorrelationMatrix(rho=rho, valid_students=ok_s, valid_teachers=ok_t)


def rho_bar(cm: CorrelationMatrix) -> RhoSummary:
    """Mean over teacher nodes of the best live-student correlation."""
    live_rows = cm.valid_students
    excluded = []
    best = []
    for jt in range(cm.n_teachers):
        if not cm.valid_teachers[jt] or not live_rows.any():
            excluded.append(jt)
            continue
        best.append(cm.rho[live_rows, jt].max())
    value = float(np.mean(best)) if best else float("nan")
    return RhoSummary(
        value=value,
        n_teachers=cm.n_teachers,
        n_covered=cm.n_teachers - len(excluded),
        excluded=tuple(excluded),
    )


def _rank_in_column(vals: np.ndarray, winner: int) -> int:
    """Position of ``winner`` when sorting descending, ties to the smaller
    index first."""
    order = np.lexsort((np.arange(vals.shape[0]), -vals))
    return int(np.flatnonzero(order == winner)[0])


def mean_rank(checkpoints: list[CorrelationMatrix]) -> np.ndarray:
    """Historical normalized rank of each teacher's final best student.

    The last checkpoint picks one winning student per teacher (highest
    correlation, ties to the smaller index).  For every earlier checkpoint
    the winner's rank among all students is averaged over teachers and
    normalized to [0, 1], 0 meaning it was already the best.  Teacher
    columns with no live student at the end are skipped.
    """
    if len(checkpoints) < 2:
        raise PreconditionError("rank history needs >= 2 checkpoints")
    final = checkpoints[-1]
    n = final.n_students
    shapes = {(c.n_students, c.n_teachers) for c in checkpoints}
    if len(shapes) != 1:
        raise PreconditionError("checkpoints must share one shape")
    winners = {}
    for jt in range(final.n_teachers):
        if not final.valid_teachers[jt] or not final.valid_students.any():
            continue
        vals = np.where(final.valid_students, final.rho[:, jt], -np.inf)
        winners[jt] = int(np.argmax(vals))
    if not winners:
        raise PreconditionError("no teacher column has a live student")
    out = np.empty(len(checkpoints))
    for t, cm in enumerate(checkpoints):
        ranks = [
            _rank_in_column(cm.rho[:, jt], w) for jt, w in winners.items()
        ]
        out[t] = np.mean(ranks) / (n - 1) if n > 1 else 0.0
    return out


def v_row_norms(net: Network, layer: int) -> np.ndarray:
    """Norm of each layer node's fan-out row in the weights above it."""
    if not 0 <= layer < net.n_layers - 1:
        raise PreconditionError("layer must have an upper layer")
    return np.linalg.norm(net.weights[layer + 1], axis=1)


def bn_bias_audit(net: Network) -> list[BNBiasReport]:
    """Sign counts and histograms of the BN shift parameters, per layer.

    Returns an empty list for networks without BN sites.
    """
    reports = []
    for li in range(net.n_layers):
        if not net.spec.has_bn(li):
            continue
        c1 = net.bn_c1[li]
        counts, edges = np.histogram(c1, bins=20)
        reports.append(BNBiasReport(
            layer=li,
            n_negative=int((c1 < 0.0).sum()),
            n_positive=int((c1 >= 0.0).sum()),
            bin_edges=edges,
            counts=counts,
        ))
    return reports
