"""Teacher construction, student initialization, and Gaussian data streams.

Teachers get grid-valued weights (entries drawn uniformly from a small set
of nonzero values, columns pairwise distinct within a layer) and uniform
biases.  Students are wider copies of the teacher architecture whose first
m columns per hidden layer (the u-set) can be initialized close to the
teacher via a mixing factor; the remaining columns are the r-set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .net import Network, NetworkSpec, activations, build_network

REJECTION_CAP = 1000
# rows per block of the large-n probes (psi_d, the fall-off probe): an
# n-row estimate holds one block of the batch at a time
PROBE_BLOCK_ROWS = 65536
# largest mixing factor of a student init (make_student, the reduced
# mixed_two_layer_init): (1 + MAX_MIXING)**2 is finite, so no mixed
# column's norm overflows
MAX_MIXING = 1e150


def check_mixing_factors(p_w: float, p_v: float) -> None:
    """Both mixing factors of a student init lie in [0, MAX_MIXING].

    Above the bound a unit-norm column of p * target + noise has a norm
    whose square can overflow; far below it the mix already rounds to the
    target itself.
    """
    for name, p in (("p_w", p_w), ("p_v", p_v)):
        if not 0.0 <= p <= MAX_MIXING:
            raise ConfigurationError(
                f"mixing factor {name} = {p:g} is outside [0, {MAX_MIXING:g}]"
            )


@dataclass(frozen=True)
class TeacherSpec:
    layer_widths: tuple[int, ...]
    weight_grid: tuple[float, ...] = (-0.5, -0.25, 0.25, 0.5)
    bias_range: tuple[float, float] = (-0.5, 0.5)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "layer_widths", tuple(int(w) for w in self.layer_widths)
        )
        if any(w < 1 for w in self.layer_widths) or len(self.layer_widths) < 2:
            raise ConfigurationError("teacher widths must be >= 1, depth >= 1")
        nz = tuple(float(g) for g in self.weight_grid if g != 0.0)
        object.__setattr__(self, "weight_grid", nz)
        if len(nz) < 2:
            raise ConfigurationError("weight grid needs >= 2 nonzero values")
        lo, hi = self.bias_range
        if not lo <= hi:
            raise ConfigurationError("empty bias range")
        if not math.isfinite(hi - lo):
            raise ConfigurationError(
                f"bias range [{lo:g}, {hi:g}] is wider than a float holds")


@dataclass(frozen=True)
class StudentInit:
    overparam_factor: int = 1
    p_w: float = 0.0
    p_v: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.overparam_factor < 1:
            raise ConfigurationError("overparam factor must be >= 1")
        check_mixing_factors(self.p_w, self.p_v)


def make_teacher(spec: TeacherSpec) -> Network:
    """Sample a teacher: grid weights, distinct columns per layer, U biases."""
    rng = np.random.default_rng(spec.seed)
    grid = np.array(spec.weight_grid)
    widths = spec.layer_widths
    weights, biases = [], []
    for li in range(len(widths) - 1):
        fan_in, width = widths[li], widths[li + 1]
        # feasibility: number of distinct grid columns must cover the width
        if fan_in * math.log(len(grid)) < 64 * math.log(2):
            if len(grid) ** fan_in < width:
                raise ConfigurationError(
                    f"layer {li}: cannot make {width} distinct columns "
                    f"from {len(grid)}^{fan_in} grid patterns"
                )
        cols = np.empty((fan_in, width))
        seen: set[bytes] = set()
        for j in range(width):
            for _ in range(REJECTION_CAP):
                col = rng.choice(grid, size=fan_in)
                key = col.tobytes()
                if key not in seen:
                    seen.add(key)
                    cols[:, j] = col
                    break
            else:
                raise ConfigurationError(
                    f"layer {li}: no distinct column after {REJECTION_CAP} draws"
                )
        weights.append(cols)
        lo, hi = spec.bias_range
        biases.append(rng.uniform(lo, hi, size=width))
    net_spec = NetworkSpec(layer_widths=widths, bn_mode="none")
    return build_network(net_spec, weights, biases)


def _noise_matrix(rng: np.random.Generator, fan_in: int, width: int) -> np.ndarray:
    """i.i.d. Gaussian with std 1/sqrt(fan_in), columns normalized to 1."""
    eps = rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_in, width))
    return eps / np.linalg.norm(eps, axis=0)


def make_student(
    teacher: Network, init: StudentInit, bn_mode: str = "none"
) -> Network:
    """Build a k-times-wider student around the teacher.

    Hidden layer l of the teacher has m_l columns; the student gets
    k * m_l columns whose first m_l (the u-set) mix the teacher filter with
    noise at strength p_w, the rest being pure noise.  For layers past the
    first, teacher columns are placed on the u-input coordinates and padded
    with zeros elsewhere before mixing.  Top-layer rows mix with p_v and are
    never normalized; hidden columns are unit norm.  The student has biases
    when the teacher does, starting at zero, except on hidden layers under
    BN.  Teacher weights large enough that a mixed column's norm or a
    mixed top-layer row overflows raise ConfigurationError, computed
    without a RuntimeWarning.
    """
    rng = np.random.default_rng(init.seed)
    k = init.overparam_factor
    t_widths = teacher.spec.layer_widths
    n_layers = teacher.n_layers
    widths = (
        (t_widths[0],)
        + tuple(k * w for w in t_widths[1:-1])
        + (t_widths[-1],)
    )
    weights = []
    with np.errstate(over="ignore"):
        for li in range(n_layers - 1):
            fan_in, width = widths[li], widths[li + 1]
            m_prev, m = t_widths[li], t_widths[li + 1]
            w = _noise_matrix(rng, fan_in, width)
            if init.p_w > 0:
                padded = np.zeros((fan_in, m))
                padded[:m_prev, :] = teacher.weights[li]
                w[:, :m] = init.p_w * padded + w[:, :m]
            norms = np.linalg.norm(w, axis=0)
            if not np.isfinite(norms).all():
                raise ConfigurationError(
                    f"teacher weights mixed at p_w = {init.p_w:g} overflow "
                    f"a column norm of student layer {li}"
                )
            weights.append(w / norms)
        # top layer: rows are per-hidden-node fan-outs, mixed but not
        # normalized
        fan_in, c = widths[-2], widths[-1]
        m_prev = t_widths[-2]
        v = _noise_matrix(rng, fan_in, c)
        if init.p_v > 0:
            v[:m_prev, :] = init.p_v * teacher.weights[-1] + v[:m_prev, :]
            if not np.isfinite(v).all():
                raise ConfigurationError(
                    f"teacher weights mixed at p_v = {init.p_v:g} overflow "
                    f"student layer {n_layers - 1}"
                )
    weights.append(v)
    spec = NetworkSpec(
        layer_widths=widths, bn_mode=bn_mode, bias=teacher.spec.bias
    )
    return build_network(spec, weights)


@dataclass
class GausStream:
    """Seeded stream of i.i.d. N(0, std^2) input rows.

    Infinite mode draws fresh samples forever; finite mode pre-generates
    n_samples rows once and cycles through them, reshuffling after each
    full pass.
    """

    dim: int
    std: float = 10.0
    mode: str = "infinite"
    n_samples: int = 0
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)
    _pool: np.ndarray | None = field(init=False, repr=False, default=None)
    _order: np.ndarray | None = field(init=False, repr=False, default=None)
    _pos: int = field(init=False, repr=False, default=0)

    def __post_init__(self):
        if self.dim < 1 or self.std <= 0:
            raise ConfigurationError("stream needs dim >= 1 and std > 0")
        if self.mode not in ("infinite", "finite"):
            raise ConfigurationError(f"unknown stream mode {self.mode!r}")
        if self.mode == "finite" and self.n_samples < 1:
            raise ConfigurationError("finite mode needs n_samples >= 1")
        self._rng = np.random.default_rng(self.seed)
        if self.mode == "finite":
            self._pool = self._rng.normal(
                0.0, self.std, size=(self.n_samples, self.dim)
            )
            self._order = self._rng.permutation(self.n_samples)
            self._pos = 0


def next_batch(stream: GausStream, batch_size: int) -> np.ndarray:
    if batch_size < 1:
        raise PreconditionError("batch_size must be >= 1")
    if stream.mode == "infinite":
        return stream._rng.normal(0.0, stream.std, size=(batch_size, stream.dim))
    rows = np.empty((batch_size, stream.dim))
    got = 0
    while got < batch_size:
        take = min(batch_size - got, stream.n_samples - stream._pos)
        idx = stream._order[stream._pos : stream._pos + take]
        rows[got : got + take] = stream._pool[idx]
        got += take
        stream._pos += take
        if stream._pos == stream.n_samples:
            stream._order = stream._rng.permutation(stream.n_samples)
            stream._pos = 0
    return rows


def batch_blocks(stream: GausStream, n: int):
    """The next n rows of the stream, as consecutive blocks of at most
    PROBE_BLOCK_ROWS rows.

    The stream hands out the same rows in the same order as one
    next_batch(stream, n) would; only the batch is never held whole.
    """
    if n < 1:
        raise PreconditionError("batch_size must be >= 1")
    done = 0
    while done < n:
        b = min(PROBE_BLOCK_ROWS, n - done)
        yield next_batch(stream, b)
        done += b


def teacher_labels(teacher: Network, batch: np.ndarray) -> np.ndarray:
    """Raw teacher top-layer outputs (soft targets, no softmax), from the
    read-only walk, which keeps no trace."""
    for out in activations(teacher, batch):
        pass
    return out
