"""Independent oracles used by the test suite.

Everything here is deliberately written without reusing the package's
backward pass or constants code: finite differences through the forward
evaluation, brute-force 2D Monte Carlo, arc-cosine kernel closed forms,
the two-matmul mean±stderr moment formula, a per-kernel geodesic slope
loop, the one-batch fall-off probe, and a second, separately coded
arithmetic path for the convergence-constant ledgers.
``forward_reference`` and ``backward_reference`` keep the step's earlier
form, one branch per BN placement, as the bit-exact reference for
``net.forward`` and ``net.backward``; their BN statistics,
``bn_backward_reference`` and ``rho_matrix_reference`` make the separate
numpy mean/var/std passes the one-pass code must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from reludyn.dynamics import FalloffProbe
from reludyn.errors import (
    ConfigurationError,
    DegenerateBatchError,
    NumericError,
    PreconditionError,
)
from reludyn.net import (
    BN_EPS,
    RESIDUE_TOL,
    SIGMA_FLOOR,
    BNSite,
    ForwardTrace,
    GradientSet,
    Network,
    NetworkSpec,
    build_network,
    forward,
    squared_loss,
)
from reludyn.teachers import next_batch

FD_H = 1e-4
KINK_GUARD = 1e-3


# ---------------------------------------------------------------------------
# random networks with kink-free traces
# ---------------------------------------------------------------------------

def random_network(
    rng: np.random.Generator,
    widths: tuple[int, ...],
    bn_mode: str = "none",
    bias: bool = True,
    weight_std_scale: float = 1.0,
) -> Network:
    spec = NetworkSpec(layer_widths=widths, bn_mode=bn_mode, bias=bias)
    weights, biases, c0s, c1s = [], [], [], []
    for li in range(spec.n_layers):
        fan_in, width = widths[li], widths[li + 1]
        weights.append(
            rng.normal(0.0, weight_std_scale / math.sqrt(fan_in), (fan_in, width))
        )
        biases.append(rng.normal(0.0, 0.1, width) if spec.has_bias(li) else None)
        if spec.has_bn(li):
            c0s.append(rng.uniform(0.5, 1.5, width))
            c1s.append(rng.normal(0.0, 0.3, width))
        else:
            c0s.append(None)
            c1s.append(None)
    return build_network(spec, weights, biases, c0s, c1s)


def trace_is_kink_free(net: Network, x: np.ndarray, guard: float = KINK_GUARD) -> bool:
    """True when every ReLU input is at least `guard` away from 0 and BN
    batch variances are healthy, so central differences stay on one side
    of every kink."""
    trace = forward(net, x)
    for li in range(net.n_layers - 1):
        if net.spec.bn_mode == "linear_bn_relu":
            site = trace.bn[li]
            y = site.c0 * site.f_tilde + np.asarray(
                net.bn_c1[li]
            )  # ReLU input
            relu_in = y
        else:
            relu_in = trace.pre[li]
        if np.min(np.abs(relu_in)) < guard:
            return False
        # low batch spread at a BN site blows up loss curvature (1/sigma^3
        # terms) past what h = 1e-4 central differences can resolve
        if trace.bn[li] is not None and np.min(trace.bn[li].sigma) < 0.3:
            return False
    return True


def sample_kink_free_case(
    rng: np.random.Generator,
    widths: tuple[int, ...],
    batch: int,
    bn_mode: str = "none",
    bias: bool = True,
    max_tries: int = 200,
) -> tuple[Network, np.ndarray]:
    for _ in range(max_tries):
        net = random_network(rng, widths, bn_mode=bn_mode, bias=bias)
        x = rng.normal(0.0, 1.0, (batch, widths[0]))
        if trace_is_kink_free(net, x):
            return net, x
    raise RuntimeError("could not find a kink-free random case")


def statistics_cases(seed: int = 2024, n_random: int = 24):
    """Activation batches for the one-pass statistics checks: batch 2 to
    3000 by width 1 to 250, plain, shifted and scaled, ReLU-sparse and
    tiny-scaled, each with a dead (all-zero) and a constant column where
    the width allows."""
    rng = np.random.default_rng(seed)
    shapes = [(2, 1), (2, 250), (3000, 1), (3000, 250), (3, 7)]
    shapes += [(int(rng.integers(2, 3001)), int(rng.integers(1, 251)))
               for _ in range(n_random)]
    for i, (n, w) in enumerate(shapes):
        a = rng.normal(size=(n, w))
        if i % 4 == 1:
            a = a * 1e3 + 50.0
        elif i % 4 == 2:
            a = np.maximum(a - 1.0, 0.0)
        elif i % 4 == 3:
            a = a * 1e-3 - 7.0
        if w > 1:
            a[:, int(rng.integers(w))] = 0.0
        if w > 2:
            a[:, int(rng.integers(w))] = 2.5
        yield a


# ---------------------------------------------------------------------------
# the step with one branch per BN placement: bit-exact reference
# ---------------------------------------------------------------------------

def bn_stats_reference(f_in: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if f_in.shape[0] < 2:
        raise PreconditionError("BN needs batch size >= 2")
    mu = f_in.mean(axis=0)
    var = f_in.var(axis=0)
    sigma = np.sqrt(var + BN_EPS)
    if np.any(sigma < SIGMA_FLOOR):
        raise DegenerateBatchError("zero batch std at a BN site")
    return mu, sigma, (f_in - mu) / sigma


def bn_backward_reference(
    g_out: np.ndarray, site: BNSite
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """bn_backward with separate sum, mean and product passes; a channel
    whose whitened activation is 0 on the whole batch has nothing to
    project off (coef 0), and one whose whitened activation's batch sum
    exceeds RESIDUE_TOL of its norm times sqrt(batch) projects off its
    centered copy."""
    g = np.asarray(g_out, dtype=np.float64)
    g_c1 = g.sum(axis=0)
    g_c0 = (g * site.f_tilde).sum(axis=0)
    centered = g - g.mean(axis=0)
    f = site.f_tilde
    ff = (f * f).sum(axis=0)
    off = np.abs(f.sum(axis=0)) > RESIDUE_TOL * np.sqrt(len(f) * ff)
    f = np.where(off, f - f.mean(axis=0), f)
    ff = (f * f).sum(axis=0)
    with np.errstate(invalid="ignore"):
        coef = (centered * f).sum(axis=0) / ff
    coef = np.where(ff == 0.0, 0.0, coef)
    g_in = (site.c0 / site.sigma) * (centered - f * coef)
    return g_in, g_c0, g_c1


def rho_matrix_reference(acts_s: np.ndarray, acts_t: np.ndarray):
    """rho_matrix's (rho, valid_students, valid_teachers), standardizing
    with np.std and a second np.mean pass."""
    def standardize(a):
        std = a.std(axis=0)
        alive = std > 0.0
        return (a - a.mean(axis=0)) / np.where(alive, std, 1.0), alive

    z_s, ok_s = standardize(acts_s)
    z_t, ok_t = standardize(acts_t)
    rho = np.clip(z_s.T @ z_t / acts_s.shape[0], -1.0, 1.0)
    rho[~ok_s, :] = 0.0
    rho[:, ~ok_t] = 0.0
    return rho, ok_s, ok_t


def forward_reference(net: Network, batch: np.ndarray) -> ForwardTrace:
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
            pre = pre + net.biases[li]
        if li == n_layers - 1:
            gate = np.ones_like(pre)
            act = pre
            out = pre
            site = None
        elif mode == "linear_bn_relu":
            mu, sigma, f_tilde = bn_stats_reference(pre)
            site = BNSite(pre, mu, sigma, f_tilde, net.bn_c0[li])
            y = net.bn_c0[li] * f_tilde + net.bn_c1[li]
            gate = (y > 0).astype(np.float64)
            act = gate * y
            out = act
        else:
            gate = (pre > 0).astype(np.float64)
            act = gate * pre
            if mode == "linear_relu_bn":
                mu, sigma, f_tilde = bn_stats_reference(act)
                site = BNSite(act, mu, sigma, f_tilde, net.bn_c0[li])
                out = net.bn_c0[li] * f_tilde + net.bn_c1[li]
            else:
                site = None
                out = act
        pre_l.append(pre)
        gate_l.append(gate)
        act_l.append(act)
        out_l.append(out)
        bn_l.append(site)
        h = out
    return ForwardTrace(x=x, pre=pre_l, gate=gate_l, act=act_l, out=out_l, bn=bn_l)


def backward_reference(
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
        g_up = node[li] @ net.weights[li].T  # gradient at out[li - 1]
        hi = li - 1
        if mode == "none":
            node[hi] = trace.gate[hi] * g_up
        elif mode == "linear_relu_bn":
            g_relu, s_c0, s_c1 = bn_backward_reference(g_up, trace.bn[hi])
            gc0[hi] = s_c0 / batch
            gc1[hi] = s_c1 / batch
            node[hi] = trace.gate[hi] * g_relu
        else:  # linear_bn_relu
            g_y = trace.gate[hi] * g_up
            g_pre, s_c0, s_c1 = bn_backward_reference(g_y, trace.bn[hi])
            gc0[hi] = s_c0 / batch
            gc1[hi] = s_c1 / batch
            node[hi] = g_pre
    gw = [trace.layer_input(li).T @ node[li] / batch for li in range(n_layers)]
    gb = [
        node[li].mean(axis=0) if net.biases[li] is not None else None
        for li in range(n_layers)
    ]
    return GradientSet(node=node, weights=gw, biases=gb, bn_c0=gc0, bn_c1=gc1)


# ---------------------------------------------------------------------------
# finite-difference gradients of the matching loss
# ---------------------------------------------------------------------------

def _loss_of(net: Network, x: np.ndarray, target: np.ndarray) -> float:
    return squared_loss(forward(net, x).outputs, target)


def _perturbed(net: Network, kind: str, li: int, idx: tuple, delta: float) -> Network:
    weights = [w.copy() for w in net.weights]
    biases = [None if b is None else b.copy() for b in net.biases]
    c0s = [None if v is None else v.copy() for v in net.bn_c0]
    c1s = [None if v is None else v.copy() for v in net.bn_c1]
    {"w": weights, "b": biases, "c0": c0s, "c1": c1s}[kind][li][idx] += delta
    return build_network(net.spec, weights, biases, c0s, c1s)


def fd_gradients(
    net: Network, x: np.ndarray, target: np.ndarray, h: float = FD_H
) -> dict:
    """Central differences of the loss for every parameter.

    Returned entries carry the negative-gradient convention used by the
    package (direction of decreasing loss), so they compare directly with
    backward()'s output.
    """
    out: dict = {"w": [], "b": [], "c0": [], "c1": []}
    for li in range(net.n_layers):
        gw = np.zeros_like(net.weights[li])
        for idx in np.ndindex(*net.weights[li].shape):
            up = _loss_of(_perturbed(net, "w", li, idx, h), x, target)
            dn = _loss_of(_perturbed(net, "w", li, idx, -h), x, target)
            gw[idx] = -(up - dn) / (2 * h)
        out["w"].append(gw)
        for kind, param in (("b", net.biases), ("c0", net.bn_c0), ("c1", net.bn_c1)):
            if param[li] is None:
                out[kind].append(None)
                continue
            g = np.zeros_like(param[li])
            for j in range(param[li].shape[0]):
                up = _loss_of(_perturbed(net, kind, li, (j,), h), x, target)
                dn = _loss_of(_perturbed(net, kind, li, (j,), -h), x, target)
                g[j] = -(up - dn) / (2 * h)
            out[kind].append(g)
    return out


def max_rel_err(analytic, fd, floor_scale: float = 1e-3) -> float:
    """Worst per-entry relative error with a floor tied to the largest entry.

    Entries far below the gradient scale are compared in absolute terms
    (the floor), since central differences bottom out at roundoff there.
    """
    pairs = []
    for kind in ("w", "b", "c0", "c1"):
        for a, f in zip(analytic[kind], fd[kind]):
            if a is not None:
                pairs.append((a, f))
    gmax = max(max(np.max(np.abs(a)), np.max(np.abs(f))) for a, f in pairs)
    floor = max(gmax, 1.0) * floor_scale
    worst = 0.0
    for a, f in pairs:
        err = np.abs(a - f) / (np.abs(a) + np.abs(f) + floor)
        worst = max(worst, float(err.max()))
    return worst


# ---------------------------------------------------------------------------
# brute-force 2D Monte Carlo for the pairwise gate overlap
# ---------------------------------------------------------------------------

def psi_d_2d_oracle(
    theta: float, n: int, seed: int, tau: float = 0.0
) -> tuple[float, float]:
    """P(both units fire) for two unit vectors at angle theta, estimated by
    direct 2D sampling: w1 = (1, 0), w2 = (cos theta, sin theta)."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 2))
    both = (z[:, 0] > tau) & (z[:, 0] * math.cos(theta) + z[:, 1] * math.sin(theta) > tau)
    p = both.mean()
    stderr = math.sqrt(max(p * (1 - p), 1e-12) / n)
    return float(p), stderr


def arccos_kernels(w: np.ndarray, w_star: np.ndarray):
    """Closed-form gate and activation moment matrices under N(0, I)
    inputs at tau = 0 (Cho & Saul 2009).  For filters at angle theta:
    joint firing (pi - theta) / 2 pi, ReLU product
    |w||w'| (sin theta + (pi - theta) cos theta) / 2 pi."""
    norms = np.linalg.norm(w, axis=0)[:, None] * np.linalg.norm(w_star, axis=0)
    cos = np.clip((w.T @ w_star) / norms, -1.0, 1.0)
    theta = np.arccos(cos)
    d = (np.pi - theta) / (2.0 * np.pi)
    lam = norms * (np.sin(theta) + (np.pi - theta) * cos) / (2.0 * np.pi)
    return d, lam


def moment_with_err(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean a.T @ b / n and its stderr from a second matmul of the squares."""
    n = a.shape[0]
    m = a.T @ b / n
    sq = (a * a).T @ (b * b) / n
    return m, np.sqrt(np.maximum(sq - m * m, 0.0) / n)


# ---------------------------------------------------------------------------
# per-kernel geodesic slope probe
# ---------------------------------------------------------------------------

def gate_feature(x: np.ndarray, w: np.ndarray, tau: float) -> np.ndarray:
    return (x @ w > tau).astype(np.float64)


def act_feature(x: np.ndarray, w: np.ndarray, tau: float) -> np.ndarray:
    z = x @ w
    return np.where(z > tau, z, 0.0)


def slope_on_geodesics_reference(w_starts: np.ndarray, w_ends: np.ndarray,
                                 stream, n: int, n_points: int, tau: float,
                                 feature) -> float:
    """Worst relative kernel slope along each column's geodesic, one
    kernel at a time: one batch drawn per call, and the kernel against
    each path point is the batch mean of the end point's feature times
    the point's feature."""
    x = next_batch(stream, n)
    worst = 0.0
    for j in range(w_starts.shape[1]):
        a, b = w_starts[:, j], w_ends[:, j]
        angle = math.acos(float(np.clip(a @ b, -1.0, 1.0)))
        if angle == 0.0:
            continue
        ts = np.linspace(0.0, 1.0, n_points)
        pts = [
            (math.sin((1 - t) * angle) * a + math.sin(t * angle) * b)
            / math.sin(angle)
            for t in ts
        ]
        ref = feature(x, b.reshape(-1, 1), tau)[:, 0]
        vals = [
            float((ref * feature(x, p.reshape(-1, 1), tau)[:, 0]).mean())
            for p in pts
        ]
        for i in range(n_points - 1):
            dist = float(np.linalg.norm(pts[i + 1] - pts[i]))
            if vals[i] <= 0.0 or dist == 0.0:
                continue
            worst = max(worst, abs(vals[i + 1] - vals[i]) / (vals[i] * dist))
    return worst


# ---------------------------------------------------------------------------
# one-batch fall-off probe
# ---------------------------------------------------------------------------

def falloff_probe_reference(w_star: np.ndarray, scales: tuple[float, ...],
                            stream, n: int, n_directions: int = 4,
                            seed: int = 0, tau: float = 0.0) -> FalloffProbe:
    """The fall-off probe over one n-row batch held whole: per filter, the
    numpy mean of q = f (f* - f) and its std over sqrt(n).  The streamed
    probe must match it bit for bit within one block and to roundoff over
    several."""
    w_star = np.asarray(w_star, dtype=float)
    norm = np.linalg.norm(w_star)
    x = next_batch(stream, n)
    f_star = act_feature(x, w_star, tau)
    l_ref = float((f_star * f_star).mean())
    if l_ref == 0.0:
        raise DegenerateBatchError("the filter never fires")
    rng = np.random.default_rng(seed)
    dists, diffs, errs = [], [], []
    for _ in range(n_directions):
        while True:
            u = rng.normal(size=w_star.shape)
            u -= w_star * (w_star @ u) / norm**2
            u_norm = float(np.linalg.norm(u))
            if u_norm > 1e-9:
                break
        u /= u_norm
        for s in scales:
            w = w_star + s * norm * u
            w *= norm / np.linalg.norm(w)
            f = act_feature(x, w, tau)
            q = f * (f_star - f)
            dists.append(float(np.linalg.norm(w - w_star)))
            diffs.append(float(q.mean()))
            errs.append(float(q.std() / math.sqrt(n)))
    dists, diffs, errs = np.array(dists), np.array(diffs), np.array(errs)
    kept = (np.abs(diffs) >= 3.0 * errs) & (diffs != 0.0) & (dists > 0.0)
    if kept.sum() < 2:
        raise NumericError("not enough scales cleared the noise floor")
    slope = np.polyfit(np.log(dists[kept]), np.log(np.abs(diffs[kept])), 1)[0]
    c0 = float(np.max(np.abs(diffs[kept]) / (l_ref * dists[kept] ** 2)))
    return FalloffProbe(exponent=float(slope), c0_hat=c0, dists=dists,
                        diffs=diffs, stderrs=errs, kept=kept)


# ---------------------------------------------------------------------------
# independent re-implementations of the convergence-constant arithmetic
# ---------------------------------------------------------------------------
# Deliberately written as straight-line scalar code, structured differently
# from the package implementation, so the two can cross-check each other.

def single_layer_ledger_oracle(
    theta_0: float, m: int, eps_d: float, k_d: float, d_min: float, eta: float
) -> dict:
    half = 0.5 * theta_0
    bump = 1.0 + 2.0 * k_d * math.sin(half)
    big_m = bump * bump * (1.0 + k_d) / math.cos(half)
    gam = math.cos(theta_0) - eps_d * big_m * (m - 1)
    dbar = d_min * bump
    return {
        "m_d": big_m,
        "d_bar": dbar,
        "gamma": gam,
        "rate": 1.0 - dbar * gam * eta,
        "feasible": gam > 0.0,
    }


def two_layer_ledger_oracle(
    k_d: float, k_l: float, theta_0: float, eps_d: float, eps_l: float,
    b_v: float, b_dv: float, m: int, n: int, c0_hat: float, eta: float,
    d_min: float, l_min: float,
) -> dict:
    half_s = math.sin(theta_0 / 2.0)
    half_c = math.cos(theta_0 / 2.0)
    cos0 = math.cos(theta_0)

    def family(k: float, c_u: float, c_r: float, floor_in: float) -> dict:
        uu = (1.0 + c_u) * (1.0 + c_u) * (1.0 + k) / half_c
        ur = (1.0 + c_u) * (1.0 + c_r) * (1.0 + k)
        ru = (1.0 + c_u) * (1.0 + c_r) * (1.0 + k) / half_c
        rr = (1.0 + c_r) * (1.0 + c_r) * (1.0 + k)
        return {
            "uu": uu, "ur": ur, "ru": ru, "rr": rr,
            "bu": (m - 1) * uu + (n - m) * ur,
            "br": (m - 1) * ru + (n - m) * rr,
            "floor": (1.0 - k * max(c_u, c_r)) * floor_in,
        }

    c_du = 2.0 * k_d * half_s
    c_lu = 2.0 * k_l * half_s
    kap = 2.0 * c0_hat * half_s * (1.0 + b_dv)
    gamma = min((b_v - b_dv) * cos0, 1.0)
    cdr = clr = 0.0
    feasible = converged = False
    binding = ""
    its = 0
    fd = fl = None
    gw = gv = 0.0
    for its in range(1, 101):
        fd = family(k_d, c_du, cdr, d_min)
        fl = family(k_l, c_lu, clr, l_min)
        lam = min(fd["floor"], fl["floor"])
        gw = (b_v - b_dv) * cos0 - eps_d * (b_v + b_dv) * max(fd["bu"], fd["br"])
        gv = 1.0 - eps_l * max(fl["bu"], fl["br"]) - kap
        gn = min(gw, gv)
        if gn <= 0.0 or fd["floor"] <= 0.0 or fl["floor"] <= 0.0:
            if fd["floor"] <= 0.0:
                binding = "d-bar"
            elif fl["floor"] <= 0.0:
                binding = "l-bar"
            elif gw <= gv:
                binding = "w-cond"
            else:
                binding = "v-cond"
            gamma = gn
            break
        den = lam * gn * (2.0 - eta * lam * gn)
        if den <= 0.0:
            binding = "drift-denominator"
            break
        ncdr = eps_d * k_d * max(fd["bu"], fd["br"]) * (b_v + b_dv) * b_v / den
        nclr = eps_l * k_l * max(fl["bu"], fl["br"]) * (b_v + b_dv) * b_v / den
        if not (math.isfinite(ncdr) and math.isfinite(nclr)):
            binding = "drift-denominator"
            break
        moved = max(abs(gn - gamma), abs(ncdr - cdr), abs(nclr - clr))
        gamma = 0.5 * gamma + 0.5 * gn
        cdr = 0.5 * cdr + 0.5 * ncdr
        clr = 0.5 * clr + 0.5 * nclr
        if moved < 1e-10:
            converged = True
            feasible = True
            break
    fd = family(k_d, c_du, cdr, d_min)
    fl = family(k_l, c_lu, clr, l_min)
    gw = (b_v - b_dv) * cos0 - eps_d * (b_v + b_dv) * max(fd["bu"], fd["br"])
    gv = 1.0 - eps_l * max(fl["bu"], fl["br"]) - kap
    if feasible:
        gamma = min(gw, gv)
        feasible = gamma > 0.0 and fd["floor"] > 0.0 and fl["floor"] > 0.0
        if not feasible and not binding:
            binding = "w-cond" if gw <= gv else "v-cond"
    elif not binding:
        binding = "no-convergence"
    lam = min(fd["floor"], fl["floor"])
    return {
        "c_du": c_du, "c_dr": cdr, "c_lu": c_lu, "c_lr": clr,
        "m_duu": fd["uu"], "m_dur": fd["ur"], "m_dru": fd["ru"], "m_drr": fd["rr"],
        "m_luu": fl["uu"], "m_lur": fl["ur"], "m_lru": fl["ru"], "m_lrr": fl["rr"],
        "b_du": fd["bu"], "b_dr": fd["br"], "b_lu": fl["bu"], "b_lr": fl["br"],
        "d_bar": fd["floor"], "l_bar": fl["floor"], "lambda_bar": lam,
        "kappa": kap, "gamma_w": gw, "gamma_v": gv, "gamma": gamma,
        "rate_w": 1.0 - eta * fd["floor"] * gamma,
        "rate_v": 1.0 - eta * fl["floor"] * gamma,
        "feasible": feasible, "binding": binding,
        "iterations": its, "converged": converged,
    }
