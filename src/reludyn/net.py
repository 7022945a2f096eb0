"""Fully-connected ReLU networks with optional BatchNorm, built on numpy.

Conventions used throughout the package:

* A network with widths ``[d0, d1, ..., dL]`` has L linear layers.  Layer
  ``l`` (1-based in prose, 0-based in the lists below) maps width ``d_{l-1}``
  to ``d_l``; weight matrices are stored as ``(d_{l-1}, d_l)`` so that
  column ``j`` is the fan-in filter of unit ``j``.
* Hidden layers apply ReLU; the top layer is linear (gate identically 1).
* The ReLU gate at exactly 0 is defined as 0, which makes the identity
  ``relu(x) == gate(x) * x`` exact in floating point.
* BatchNorm sits on every hidden layer when ``bn_mode`` is not ``"none"``
  and always uses the statistics of the current batch.  Under
  ``linear_relu_bn`` the order is linear -> ReLU -> BN; under
  ``linear_bn_relu`` it is linear -> BN -> ReLU.  The top layer never has
  BN.
* ``NetworkSpec.bias`` switches biases on or off for the whole network; a
  hidden layer under BN never has one (the BN shift c1 absorbs it), so
  ``spec.has_bias(li)`` is ``bias and not has_bn(li)``.
* Gradients follow the negative convention: the stored quantities point in
  the direction that decreases the loss, and ``sgd_step`` *adds* them.
  At the top layer the per-sample node gradient is ``target - output``.

Two shortcuts in the step are exact, not approximate.  numpy's mean and
var are ``add.reduce(a, 0) / n`` over the columns and over the squared
centered copy, so ``centered_moments`` has their bits, and BN whitens that
copy.  In-place updates write only into arrays the step just allocated and
compute what the out-of-place form would (IEEE sums and products commute);
no array that ``forward``, ``backward`` or ``sgd_step`` returned is written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateBatchError,
    NumericError,
    PreconditionError,
)

BN_MODES = ("none", "linear_relu_bn", "linear_bn_relu")
BN_EPS = 1e-8
SIGMA_FLOOR = 1e-12
# largest batch sum of f_tilde, relative to its Euclidean norm times
# sqrt(batch), that bn_backward projects off as it stands: the batch mean
# this puts back is at most RESIDUE_TOL * sqrt(batch) of the gradient
RESIDUE_TOL = 1e-11


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture: layer widths, BN placement, and whether layers have biases."""

    layer_widths: tuple[int, ...]
    bn_mode: str = "none"
    bias: bool = True

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise ConfigurationError("need at least input and output widths")
        if any(w < 1 for w in widths):
            raise ConfigurationError(f"all widths must be >= 1, got {widths}")
        if self.bn_mode not in BN_MODES:
            raise ConfigurationError(f"unknown bn_mode {self.bn_mode!r}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths) - 1

    def has_bn(self, li: int) -> bool:
        """True when 0-based layer li carries a BN site (hidden layers only)."""
        return self.bn_mode != "none" and li < self.n_layers - 1

    def has_bias(self, li: int) -> bool:
        """True when 0-based layer li has a bias: never under a BN site."""
        return self.bias and not self.has_bn(li)


@dataclass(frozen=True)
class Network:
    """Parameter container.  Treated as immutable; sgd_step returns a copy."""

    spec: NetworkSpec
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray | None, ...]
    bn_c0: tuple[np.ndarray | None, ...]
    bn_c1: tuple[np.ndarray | None, ...]

    def __post_init__(self):
        spec, widths = self.spec, self.spec.layer_widths
        layers = (self.weights, self.biases, self.bn_c0, self.bn_c1)
        if any(len(params) != spec.n_layers for params in layers):
            raise ConfigurationError("need one entry per layer for each parameter")
        for li, params in enumerate(zip(*layers)):
            bn, width = spec.has_bn(li), widths[li + 1 : li + 2]
            for name, v, wanted, shape in zip(
                ("weights", "bias", "BN c0", "BN c1"), params,
                (True, spec.has_bias(li), bn, bn),
                (widths[li : li + 2], width, width, width),
            ):
                if not wanted:
                    if v is not None:
                        raise ConfigurationError(f"layer {li}: unexpected {name}")
                elif v is None or v.shape != shape:
                    raise ConfigurationError(f"layer {li}: {name} is not {shape}")
                elif not np.isfinite(v).all():
                    raise NumericError(f"layer {li}: non-finite {name}")

    @property
    def n_layers(self) -> int:
        return self.spec.n_layers


def _filled(spec, given, present, fill) -> tuple[np.ndarray | None, ...]:
    """The given per-layer arrays as float64, else fill(width) where present."""
    if given is None:
        given = [
            fill(spec.layer_widths[li + 1]) if present(li) else None
            for li in range(spec.n_layers)
        ]
    return tuple(None if v is None else np.asarray(v, dtype=np.float64) for v in given)


def build_network(
    spec: NetworkSpec,
    weights: list[np.ndarray],
    biases: list[np.ndarray | None] | None = None,
    bn_c0: list[np.ndarray | None] | None = None,
    bn_c1: list[np.ndarray | None] | None = None,
) -> Network:
    """Assemble a Network, filling default biases (0) and BN params (1, 0)."""
    return Network(
        spec=spec,
        weights=tuple(np.asarray(w, dtype=np.float64) for w in weights),
        biases=_filled(spec, biases, spec.has_bias, np.zeros),
        bn_c0=_filled(spec, bn_c0, spec.has_bn, np.ones),
        bn_c1=_filled(spec, bn_c1, spec.has_bn, np.zeros),
    )


@dataclass
class BNSite:
    """Everything bn_backward needs about one BN application."""

    f_in: np.ndarray  # pre-BN activation, batch x width
    mu: np.ndarray  # batch mean per channel
    sigma: np.ndarray  # sqrt(batch var + BN_EPS) per channel
    f_tilde: np.ndarray  # whitened activation (f_in - mu) / sigma
    c0: np.ndarray  # the net's own scale array; parameters are never mutated


@dataclass
class ForwardTrace:
    """Per-layer tensors captured during forward evaluation.

    All lists are 0-based over linear layers.  ``act`` is the ReLU output
    (the theory's f_j; equal to ``pre`` at the top layer), ``gate`` the 0/1
    ReLU derivative (ones at the top layer), and ``out`` whatever feeds the
    next layer (BN output under linear_relu_bn, otherwise ``act``).
    """

    x: np.ndarray
    pre: list[np.ndarray]
    gate: list[np.ndarray]
    act: list[np.ndarray]
    out: list[np.ndarray]
    bn: list[BNSite | None]

    @property
    def outputs(self) -> np.ndarray:
        return self.out[-1]

    @property
    def batch_size(self) -> int:
        return self.x.shape[0]

    def layer_input(self, li: int) -> np.ndarray:
        return self.x if li == 0 else self.out[li - 1]


@dataclass
class GradientSet:
    """Negative gradients for every parameter plus per-node gradients.

    ``node[li]`` holds the batch x width gradient at the linear output of
    layer li (the g_j of the gradient decomposition).  Parameter entries
    are batch means, matching a loss averaged over the batch.
    """

    node: list[np.ndarray]
    weights: list[np.ndarray]
    biases: list[np.ndarray | None]
    bn_c0: list[np.ndarray | None]
    bn_c1: list[np.ndarray | None]


def centered_moments(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column batch mean, the centered copy a - mean, and the variance."""
    mu = np.add.reduce(a, 0) / a.shape[0]
    c = a - mu
    return mu, c, np.add.reduce(c * c, 0) / a.shape[0]


def _bn(f_in: np.ndarray, c0: np.ndarray, c1: np.ndarray) -> tuple[BNSite, np.ndarray]:
    """Batch-normalize f_in per channel: the site record and c0 * f~ + c1."""
    if f_in.shape[0] < 2:
        raise PreconditionError("BN needs batch size >= 2")
    mu, f_tilde, var = centered_moments(f_in)
    sigma = np.sqrt(var + BN_EPS)  # var >= 0: never below SIGMA_FLOOR
    f_tilde /= sigma
    return BNSite(f_in, mu, sigma, f_tilde, c0), c0 * f_tilde + c1


def forward(net: Network, batch: np.ndarray) -> ForwardTrace:
    """Evaluate the network on a batch, recording the full trace."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.spec.layer_widths[0]:
        raise ConfigurationError(
            f"batch shape {x.shape} incompatible with input width "
            f"{net.spec.layer_widths[0]}"
        )
    n_layers = net.n_layers
    mode = net.spec.bn_mode
    pre_l, gate_l, act_l, out_l, bn_l = [], [], [], [], []
    h = x
    for li in range(n_layers):
        pre = h @ net.weights[li]
        if net.biases[li] is not None:
            pre += net.biases[li]
        site = None
        if li == n_layers - 1:
            gate = np.ones_like(pre)
            act = out = pre
        else:
            y = pre
            if mode == "linear_bn_relu":
                site, y = _bn(pre, net.bn_c0[li], net.bn_c1[li])
            gate = (y > 0).astype(np.float64)
            act = out = gate * y
            if mode == "linear_relu_bn":
                site, out = _bn(act, net.bn_c0[li], net.bn_c1[li])
        pre_l.append(pre)
        gate_l.append(gate)
        act_l.append(act)
        out_l.append(out)
        bn_l.append(site)
        h = out
    return ForwardTrace(x=x, pre=pre_l, gate=gate_l, act=act_l, out=out_l, bn=bn_l)


def bn_backward(
    g_out: np.ndarray, site: BNSite
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagate one BN site: returns (g_in, g_c0, g_c1).

    g_in is (c0 / sigma) times the projection of g_out onto the orthogonal
    complement of span{pre-BN activation, ones} over the batch, per channel,
    so it has zero batch mean and zero correlation with the activation.
    The parameter entries are batch sums of the incoming gradient (times
    the whitened activation for c0); callers averaging the loss over the
    batch divide by the batch size themselves.
    """
    if np.any(site.sigma < SIGMA_FLOOR):
        raise DegenerateBatchError("zero batch std at a BN site")
    g = np.asarray(g_out, dtype=np.float64)
    if g.shape != site.f_in.shape:
        raise PreconditionError("g_out shape does not match the BN site")
    n = g.shape[0]
    g_c1 = np.add.reduce(g, 0)
    prod = g * site.f_tilde  # the one temporary of the three products
    g_c0 = np.add.reduce(prod, 0)
    centered = g - g_c1 / n
    # f_tilde has zero batch sum, so projecting out the ones direction and
    # then the f_tilde direction is an orthogonal projection off span{f, 1};
    # a channel constant over the batch has f_tilde = 0 and nothing to
    # project.  The sum is zero only to the rounding of the batch mean,
    # which on a channel whose spread is near that rounding is not small
    # against f_tilde: such a channel projects off its centered f_tilde,
    # and every other channel keeps its bits
    f = site.f_tilde
    ff = np.add.reduce(np.multiply(f, f, out=prod), 0)
    residue = np.add.reduce(f, 0)
    off = np.abs(residue) > RESIDUE_TOL * np.sqrt(n * ff)
    if off.any():
        f = f - np.where(off, residue / n, 0.0)
        ff = np.add.reduce(np.multiply(f, f, out=prod), 0)
    dot = np.add.reduce(np.multiply(centered, f, out=prod), 0)
    coef = np.divide(dot, ff, out=np.zeros_like(ff), where=ff != 0.0)
    centered -= np.multiply(f, coef, out=prod)
    centered *= site.c0 / site.sigma
    return centered, g_c0, g_c1


def backward(
    net: Network, trace: ForwardTrace, teacher_out: np.ndarray
) -> GradientSet:
    """Manual backprop of the squared matching loss, negative convention.

    The loss is 0.5 * batch mean of ||teacher_out - outputs||^2; the top
    node gradient is teacher_out - outputs per sample.
    """
    target = np.asarray(teacher_out, dtype=np.float64)
    if target.shape != trace.outputs.shape:
        raise PreconditionError(
            f"teacher_out shape {target.shape} != outputs {trace.outputs.shape}"
        )
    n_layers = net.n_layers
    batch = trace.batch_size
    mode = net.spec.bn_mode
    node: list[np.ndarray | None] = [None] * n_layers
    gc0: list[np.ndarray | None] = [None] * n_layers
    gc1: list[np.ndarray | None] = [None] * n_layers
    node[n_layers - 1] = target - trace.outputs
    for li in range(n_layers - 1, 0, -1):
        g = node[li] @ net.weights[li].T  # gradient at out[li - 1]
        hi = li - 1
        if mode == "linear_relu_bn":
            g, gc0[hi], gc1[hi] = bn_backward(g, trace.bn[hi])
        g *= trace.gate[hi]
        if mode == "linear_bn_relu":
            g, gc0[hi], gc1[hi] = bn_backward(g, trace.bn[hi])
        node[hi] = g
    # bn_backward returns batch sums; the loss is a batch mean
    gc0 = [None if s is None else s / batch for s in gc0]
    gc1 = [None if s is None else s / batch for s in gc1]
    gw = [trace.layer_input(li).T @ g for li, g in enumerate(node)]
    for w in gw:
        w /= batch
    gb = [
        np.add.reduce(g, 0) / batch if net.spec.has_bias(li) else None
        for li, g in enumerate(node)
    ]
    return GradientSet(node=node, weights=gw, biases=gb, bn_c0=gc0, bn_c1=gc1)


def squared_loss(outputs: np.ndarray, targets: np.ndarray) -> float:
    """0.5 * batch mean of the squared output mismatch."""
    diff = np.asarray(outputs) - np.asarray(targets)
    return 0.5 * float((diff * diff).sum(axis=1).mean())


def sgd_step(net: Network, grads: GradientSet, eta: float) -> Network:
    """One gradient step: every parameter moves by +eta * its entry.

    A non-finite gradient entry makes a non-finite parameter, which the
    Network constructor rejects with NumericError.
    """
    def step(p, g):
        if p is None or g is None:
            return p
        moved = eta * g
        return np.add(moved, p, out=moved)
    return Network(
        spec=net.spec,
        weights=tuple(map(step, net.weights, grads.weights)),
        biases=tuple(map(step, net.biases, grads.biases)),
        bn_c0=tuple(map(step, net.bn_c0, grads.bn_c0)),
        bn_c1=tuple(map(step, net.bn_c1, grads.bn_c1)),
    )


def filter_norms(net: Network) -> list[np.ndarray]:
    """Euclidean norm of each weight column per layer, biases excluded."""
    return [np.linalg.norm(w, axis=0) for w in net.weights]

