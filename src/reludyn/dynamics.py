"""Reduced matrix dynamics for one- and two-layer teacher alignment.

Simulates the per-filter flow  dw_j = P_j (W* h*_j - W h_j)  with explicit
Euler steps, where the h columns come from fresh Monte-Carlo gate and
activation moments each step, making the run a stochastic discretization
of the underlying ODE.  Columns of W are projected onto the tangent space
of the unit sphere and renormalized after every step; the top-layer matrix
V (two-layer variant) is updated without projection.

The module also computes the full convergence-constant ledger for both
settings (contraction margin gamma, moment floors, cross-talk bounds),
monitors the four per-iteration induction inequalities the two-layer
guarantee rests on, and probes the quadratic fall-off of diagonal
activation moments under filter perturbation.

Gates may carry a positive firing threshold tau; the default 0 is the
plain ReLU gate.  All estimators reuse one shared batch per step so that
differences between student and teacher moments vanish with the
mismatch, not with the square root of the sample count.

Three kernel shortcuts are exact, not approximate:

- The thresholded ReLU is max(z, 0), times the gate z > tau only when
  tau > 0.  For tau >= 0 every z > tau is positive, so max(z, 0) is z
  itself, and every other z ends as +0.0 (max gives +0.0 for z <= 0,
  and a positive z times 0 is +0.0).  That equals the masked select
  where(z > tau, z, 0) bit for bit, for every non-NaN z; a NaN z
  propagates instead of turning into 0.
- Gate Gram matrices multiply 0/1 gates, so every partial sum is an
  integer no larger than the row count.  Below 2**24 rows such integers
  are exact in float32, so the float32 product, cast to float64 before
  dividing by the row count, has the same bits as the float64 product.
  The same holds for any split of the rows into blocks and for a
  count_nonzero of the joint gate, since every partial count is such an
  integer.
- The geodesic slope probe projects the batch onto each path point once
  and both kernels read that projection: it is the same matrix-vector
  product each kernel made on its own, so the values keep their bits.
  Stacking the points into one matrix product would not: its sums may
  run in another order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateBatchError,
    NumericError,
    PreconditionError,
)
from .teachers import (
    GausStream,
    batch_blocks,
    check_mixing_factors,
    next_batch,
)

NORM_FLOOR = 1e-6
# integers up to 2**24 are exact in float32 (24-bit significand)
EXACT_COUNT_ROWS = 2**24
# rows per block of self_moments' gate Gram, so no full gate matrix exists
GRAM_BLOCK_ROWS = 2048


# ------------------------------------------------------------------ moments


def _count_dtype(n: int) -> type:
    """Narrowest float dtype whose 0/1 Gram counts over n rows are exact."""
    return np.float32 if n < EXACT_COUNT_ROWS else np.float64


def _gate(z: np.ndarray, tau: float, dtype: type = float) -> np.ndarray:
    return (z > tau).astype(dtype)


def _gram_mean(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Mean of 0/1 gate products, counted in the gates' dtype."""
    return (a.T @ b).astype(float) / n


def _check_threshold(tau: float) -> None:
    if not tau >= 0.0:
        raise PreconditionError(f"gate threshold must be >= 0, got {tau!r}")


def _relu(z: np.ndarray, tau: float, out=None) -> np.ndarray:
    _check_threshold(tau)
    f = np.maximum(z, 0.0, out=out)
    if tau > 0.0:
        # for tau > 0, max(z, 0) > tau exactly where z > tau
        f *= f > tau
    return f


def _acts(x: np.ndarray, w: np.ndarray, tau: float) -> np.ndarray:
    return _relu(x @ w, tau)


def _stderr(m: np.ndarray, sq: np.ndarray, n: int) -> np.ndarray:
    return np.sqrt(np.maximum(sq - m * m, 0.0) / n)


def gate_moments(x: np.ndarray, w: np.ndarray, w_star: np.ndarray,
                 tau: float = 0.0):
    """Shared-batch student-student and student-target gate moments.

    Returns (d, d_star, d_err, d_star_err).  Gates are 0/1, so each
    second moment equals its mean exactly (both are integer counts over
    the batch size) and the stderrs need no further matmul.
    """
    n = x.shape[0]
    dtype = _count_dtype(n)
    g = _gate(x @ w, tau, dtype)
    g_star = _gate(x @ w_star, tau, dtype)
    d = _gram_mean(g, g, n)
    ds = _gram_mean(g, g_star, n)
    return d, ds, _stderr(d, d, n), _stderr(ds, ds, n)


def act_moments(x: np.ndarray, w: np.ndarray, w_star: np.ndarray,
                tau: float = 0.0):
    """Shared-batch activation moments (l, l_star, l_err, l_star_err).

    Each feature matrix is squared once; the self second moment is the
    symmetric product f2.T @ f2.
    """
    f = _acts(x, w, tau)
    f_star = _acts(x, w_star, tau)
    f2 = f * f
    n = x.shape[0]
    l = f.T @ f / n
    ls = f.T @ f_star / n
    return (l, ls, _stderr(l, f2.T @ f2 / n, n),
            _stderr(ls, f2.T @ (f_star * f_star) / n, n))


def self_moments(x: np.ndarray, w: np.ndarray,
                 tau: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Self gate and activation moment means (d, l) from one feature pass.

    Equal bit for bit to gate_moments(x, w, w, tau)[0] and
    act_moments(x, w, w, tau)[0], without their cross pair and stderrs.
    Only one rows x n feature matrix is alive: the gate Gram is counted
    over row blocks, then the ReLU is applied in place.
    """
    _check_threshold(tau)
    z = x @ w
    n = x.shape[0]
    counts = np.zeros((w.shape[1], w.shape[1]), _count_dtype(n))
    for lo in range(0, n, GRAM_BLOCK_ROWS):
        g = _gate(z[lo:lo + GRAM_BLOCK_ROWS], tau, counts.dtype)
        counts += g.T @ g
    f = _relu(z, tau, out=z)
    return counts.astype(float) / n, f.T @ f / n


def drive_stderr(d_star_err: np.ndarray, d_err: np.ndarray) -> np.ndarray:
    """Conservative per-column noise bound for W* D*^T - W D^T drives.

    Unit filter norms and the triangle inequality give, per student column,
    the sum of entry standard errors along its row of each moment matrix.
    """
    return d_star_err.sum(axis=1) + d_err.sum(axis=1)


# ------------------------------------------------------- single-layer flow


def _unit_columns(w: np.ndarray, what: str) -> None:
    norms = np.linalg.norm(w, axis=0)
    # written so that a NaN norm fails too
    if not np.all(np.abs(norms - 1.0) <= 1e-9):
        raise PreconditionError(f"{what} columns must be unit norm")


def column_angles(w: np.ndarray, w_star: np.ndarray) -> np.ndarray:
    """Per-column angle between paired unit filters, in [0, pi]."""
    cos = np.clip((w * w_star).sum(axis=0), -1.0, 1.0)
    return np.arccos(cos)


@dataclass(frozen=True)
class SingleLayerState:
    """Unit-column student filters chasing same-width teacher filters."""

    w: np.ndarray
    w_star: np.ndarray
    eta: float
    t: int = 0
    tau: float = 0.0

    def __post_init__(self):
        if self.w.shape != self.w_star.shape:
            raise ConfigurationError("single-layer flow needs matching widths")
        _unit_columns(self.w, "student")
        _unit_columns(self.w_star, "teacher")
        if self.eta <= 0:
            raise ConfigurationError("step size must be positive")

    @property
    def thetas(self) -> np.ndarray:
        return column_angles(self.w, self.w_star)


def _project_step(w: np.ndarray, drive: np.ndarray, eta: float) -> np.ndarray:
    radial = (w * drive).sum(axis=0)
    moved = w + eta * (drive - w * radial)
    norms = np.linalg.norm(moved, axis=0)
    if not np.all(np.isfinite(norms)) or np.any(norms < NORM_FLOOR):
        raise NumericError("step collapsed a filter; reduce the step size")
    return moved / norms


def step_single(state: SingleLayerState, d_star: np.ndarray,
                d: np.ndarray) -> SingleLayerState:
    """One projected Euler step of the bottom-layer flow.

    The channel weighting is all-ones here, so the drive columns are
    W* d*_j - W d_j built directly from gate moments.
    """
    n = state.w.shape[1]
    if d.shape != (n, n) or d_star.shape != (n, n):
        raise PreconditionError("moment matrices must match the state width")
    drive = state.w_star @ d_star.T - state.w @ d.T
    return replace(state, w=_project_step(state.w, drive, state.eta),
                   t=state.t + 1)


@dataclass(frozen=True)
class SingleLayerLedger:
    """Convergence constants for the single-layer guarantee."""

    theta_0: float
    m: int
    eps_d: float
    k_d: float
    d_diag_min: float
    eta: float
    m_d: float
    d_bar: float
    gamma: float
    rate: float
    feasible: bool


def single_layer_constants(theta_0: float, m: int, eps_d: float, k_d: float,
                           d_diag_min: float, eta: float) -> SingleLayerLedger:
    """Contraction margin and per-step rate bound for the matched flow.

    gamma <= 0 is reported through the feasible flag, not an exception;
    the rate field is only meaningful when feasible.
    """
    if not 0.0 < theta_0 < math.pi / 2:
        raise PreconditionError("initial angle must lie in (0, pi/2)")
    if m < 1:
        raise PreconditionError("need at least one node")
    if min(eps_d, k_d, d_diag_min) < 0 or eta <= 0:
        raise PreconditionError("constants must be non-negative, eta positive")
    s_half = math.sin(theta_0 / 2.0)
    m_d = (1.0 + k_d) * (1.0 + 2.0 * k_d * s_half) ** 2 / math.cos(theta_0 / 2.0)
    gamma = math.cos(theta_0) - (m - 1) * eps_d * m_d
    d_bar = (1.0 + 2.0 * k_d * s_half) * d_diag_min
    return SingleLayerLedger(
        theta_0=theta_0, m=m, eps_d=eps_d, k_d=k_d, d_diag_min=d_diag_min,
        eta=eta, m_d=m_d, d_bar=d_bar, gamma=gamma,
        rate=1.0 - eta * d_bar * gamma, feasible=gamma > 0.0,
    )


@dataclass(frozen=True)
class SingleRunRecord:
    """Trajectory of the single-layer flow with noise-aware step factors."""

    sin_theta: np.ndarray      # (steps+1, n)
    factors: np.ndarray        # (steps,) per-step ratio of max sin theta
    factor_noise: np.ndarray   # (steps,) conservative stderr of that ratio


def run_single(state: SingleLayerState, stream: GausStream, n_steps: int,
               n_mc: int, mode: str = "free",
               ledger: SingleLayerLedger | None = None) -> tuple[SingleLayerState, SingleRunRecord]:
    """Drive the flow for n_steps with fresh moments per step.

    "guaranteed" mode refuses to start unless the supplied ledger is
    feasible; "free" mode runs regardless.
    """
    if mode not in ("free", "guaranteed"):
        raise ConfigurationError(f"unknown mode {mode!r}")
    if mode == "guaranteed":
        if ledger is None or not ledger.feasible:
            raise ConfigurationError(
                "guaranteed mode needs a feasible constant ledger"
            )
    sins = [np.sin(state.thetas)]
    factors, noises = [], []
    for _ in range(n_steps):
        x = next_batch(stream, n_mc)
        d, ds, d_err, ds_err = gate_moments(x, state.w, state.w_star, state.tau)
        before = float(np.max(np.sin(state.thetas)))
        state = step_single(state, ds, d)
        sins.append(np.sin(state.thetas))
        after = float(np.max(sins[-1]))
        col_noise = float(drive_stderr(ds_err, d_err).max())
        denom = max(before, 1e-300)
        factors.append(after / denom)
        noises.append(state.eta * col_noise / denom)
    return state, SingleRunRecord(
        sin_theta=np.array(sins),
        factors=np.array(factors),
        factor_noise=np.array(noises),
    )


# --------------------------------------------------------- two-layer flow


@dataclass(frozen=True)
class TwoLayerState:
    """Over-parameterized pair: n student filters, m teacher filters.

    The first m student columns (the u-set) are paired with the teacher;
    the rest (the r-set) are paired with their own frozen initial values,
    kept in w0.
    """

    w: np.ndarray        # (d, n), unit columns
    v: np.ndarray        # (n, c), rows are fan-outs
    w_star: np.ndarray   # (d, m), unit columns
    v_star: np.ndarray   # (m, c)
    eta: float
    w0: np.ndarray       # (d, n) snapshot at t = 0
    t: int = 0
    tau: float = 0.0

    def __post_init__(self):
        d, n = self.w.shape
        m = self.w_star.shape[1]
        if n < m:
            raise ConfigurationError("student must be at least teacher width")
        if self.v.shape[0] != n or self.v_star.shape[0] != m:
            raise ConfigurationError("top rows must match filter counts")
        if self.v.shape[1] != self.v_star.shape[1]:
            raise ConfigurationError("output widths differ")
        if self.w0.shape != self.w.shape:
            raise ConfigurationError("snapshot shape mismatch")
        _unit_columns(self.w, "student")
        _unit_columns(self.w_star, "teacher")
        if self.eta <= 0:
            raise ConfigurationError("step size must be positive")

    @property
    def n_filters(self) -> int:
        return self.w.shape[1]

    @property
    def u_count(self) -> int:
        return self.w_star.shape[1]

    @property
    def targets(self) -> np.ndarray:
        """Per-column alignment targets: teacher for u, frozen init for r."""
        return np.concatenate(
            [self.w_star, self.w0[:, self.u_count:]], axis=1
        )

    @property
    def thetas(self) -> np.ndarray:
        return column_angles(self.w, self.targets)


def two_layer_moments(state: TwoLayerState, x: np.ndarray) -> dict[str, np.ndarray]:
    """Gate and activation moment means of the current pair on one batch."""
    d, ds = gate_moments(x, state.w, state.w_star, state.tau)[:2]
    l, ls = act_moments(x, state.w, state.w_star, state.tau)[:2]
    return {"d": d, "d_star": ds, "l": l, "l_star": ls}


def step_two_layer(state: TwoLayerState,
                   moments: dict[str, np.ndarray]) -> TwoLayerState:
    """One Euler step of both layers.

    Filter drives weight the gate moments by top-row inner products
    (h_jj' = d_jj' v_j . v_j'); filters are projected and renormalized,
    top rows are not.
    """
    h = moments["d"] * (state.v @ state.v.T)
    h_star = moments["d_star"] * (state.v @ state.v_star.T)
    drive_w = state.w_star @ h_star.T - state.w @ h.T
    new_w = _project_step(state.w, drive_w, state.eta)
    drive_v = moments["l_star"] @ state.v_star - moments["l"] @ state.v
    new_v = state.v + state.eta * drive_v
    if not np.all(np.isfinite(new_v)):
        raise NumericError("top-layer update diverged; reduce the step size")
    return replace(state, w=new_w, v=new_v, t=state.t + 1)


# ------------------------------------------------------------------ ledger


@dataclass(frozen=True)
class ConstantLedger:
    """Every constant of the over-parameterized convergence argument.

    gamma solves a small fixed-point problem because the r-set drift bound
    c_dr feeds back into the moment floors; the solve is a damped
    iteration.  When no positive gamma satisfies both margin conditions
    the ledger is marked infeasible and names the binding condition.
    """

    # inputs
    k_d: float
    k_l: float
    theta_0: float
    eps_d: float
    eps_l: float
    b_v: float
    b_dv: float
    m: int
    n: int
    c0_hat: float
    eta: float
    d_diag_min: float
    l_diag_min: float
    # derived
    c_du: float
    c_dr: float
    c_lu: float
    c_lr: float
    m_duu: float
    m_dur: float
    m_dru: float
    m_drr: float
    m_luu: float
    m_lur: float
    m_lru: float
    m_lrr: float
    b_du: float
    b_dr: float
    b_lu: float
    b_lr: float
    d_bar: float
    l_bar: float
    lambda_bar: float
    kappa: float
    gamma_w: float
    gamma_v: float
    gamma: float
    rate_w: float
    rate_v: float
    feasible: bool
    binding: str
    iterations: int
    converged: bool


def _ledger_pass(p: dict[str, float], c_dr: float, c_lr: float) -> dict[str, float]:
    """One evaluation of the constant block at trial drift constants."""
    s_half = math.sin(p["theta_0"] / 2.0)
    c_half = math.cos(p["theta_0"] / 2.0)
    c_du = 2.0 * p["k_d"] * s_half
    c_lu = 2.0 * p["k_l"] * s_half
    out = {"c_du": c_du, "c_lu": c_lu, "c_dr": c_dr, "c_lr": c_lr}
    for fam, k, cu, cr in (("d", p["k_d"], c_du, c_dr),
                           ("l", p["k_l"], c_lu, c_lr)):
        muu = (1.0 + k) * (1.0 + cu) ** 2 / c_half
        mur = (1.0 + k) * (1.0 + cu) * (1.0 + cr)
        mru = (1.0 + k) * (1.0 + cu) * (1.0 + cr) / c_half
        mrr = (1.0 + k) * (1.0 + cr) ** 2
        out[f"m_{fam}uu"], out[f"m_{fam}ur"] = muu, mur
        out[f"m_{fam}ru"], out[f"m_{fam}rr"] = mru, mrr
        out[f"b_{fam}u"] = (p["m"] - 1) * muu + (p["n"] - p["m"]) * mur
        out[f"b_{fam}r"] = (p["m"] - 1) * mru + (p["n"] - p["m"]) * mrr
    out["d_bar"] = (1.0 - p["k_d"] * max(c_du, c_dr)) * p["d_diag_min"]
    out["l_bar"] = (1.0 - p["k_l"] * max(c_lu, c_lr)) * p["l_diag_min"]
    out["lambda_bar"] = min(out["d_bar"], out["l_bar"])
    out["kappa"] = 2.0 * p["c0_hat"] * s_half * (1.0 + p["b_dv"])
    out["gamma_w"] = (
        (p["b_v"] - p["b_dv"]) * math.cos(p["theta_0"])
        - p["eps_d"] * (p["b_v"] + p["b_dv"]) * max(out["b_du"], out["b_dr"])
    )
    out["gamma_v"] = 1.0 - p["eps_l"] * max(out["b_lu"], out["b_lr"]) - out["kappa"]
    return out


def _drift_bound(p: dict[str, float], fam: str, eps: float, k: float,
                 vals: dict[str, float], gamma: float) -> float:
    """r-set drift constant; conservative over the two cross-talk bounds."""
    lam = vals["lambda_bar"]
    denom = lam * gamma * (2.0 - p["eta"] * lam * gamma)
    if denom <= 0.0:
        return math.inf
    b = max(vals[f"b_{fam}u"], vals[f"b_{fam}r"])
    return eps * k * b * (p["b_v"] + p["b_dv"]) * p["b_v"] / denom


def two_layer_constants(k_d: float, k_l: float, theta_0: float, eps_d: float,
                        eps_l: float, b_v: float, b_dv: float, m: int, n: int,
                        c0_hat: float, eta: float, d_diag_min: float,
                        l_diag_min: float) -> ConstantLedger:
    """Solve the mutually referential constant block to a fixed point.

    Damped iteration (factor 0.5, tolerance 1e-10, 100-iteration cap) on
    (gamma, drift constants); infeasibility is a reported outcome, not an
    exception.
    """
    if not 0.0 < theta_0 < math.pi / 2:
        raise PreconditionError("initial angle must lie in (0, pi/2)")
    if n < m or m < 1:
        raise PreconditionError("need n >= m >= 1")
    if not all(map(math.isfinite, (k_d, k_l, eps_d, eps_l, b_v, b_dv, c0_hat,
                                   eta, d_diag_min, l_diag_min))):
        raise PreconditionError("constants must be finite")
    if min(k_d, k_l, eps_d, eps_l, b_v, b_dv, c0_hat,
           d_diag_min, l_diag_min) < 0 or eta <= 0:
        raise PreconditionError("constants must be non-negative, eta positive")
    p = {
        "k_d": k_d, "k_l": k_l, "theta_0": theta_0, "eps_d": eps_d,
        "eps_l": eps_l, "b_v": b_v, "b_dv": b_dv, "m": m, "n": n,
        "c0_hat": c0_hat, "eta": eta,
        "d_diag_min": d_diag_min, "l_diag_min": l_diag_min,
    }
    gamma = min((b_v - b_dv) * math.cos(theta_0), 1.0)
    c_dr = c_lr = 0.0
    feasible, binding, converged, it = False, "", False, 0
    for it in range(1, 101):
        vals = _ledger_pass(p, c_dr, c_lr)
        new_gamma = min(vals["gamma_w"], vals["gamma_v"])
        if new_gamma <= 0.0 or vals["d_bar"] <= 0.0 or vals["l_bar"] <= 0.0:
            binding = (
                "d-bar" if vals["d_bar"] <= 0.0
                else "l-bar" if vals["l_bar"] <= 0.0
                else "w-cond" if vals["gamma_w"] <= vals["gamma_v"]
                else "v-cond"
            )
            gamma = new_gamma
            break
        new_c_dr = _drift_bound(p, "d", eps_d, k_d, vals, new_gamma)
        new_c_lr = _drift_bound(p, "l", eps_l, k_l, vals, new_gamma)
        if not (math.isfinite(new_c_dr) and math.isfinite(new_c_lr)):
            binding = "drift-denominator"
            break
        moved = max(
            abs(new_gamma - gamma), abs(new_c_dr - c_dr), abs(new_c_lr - c_lr)
        )
        gamma = 0.5 * gamma + 0.5 * new_gamma
        c_dr = 0.5 * c_dr + 0.5 * new_c_dr
        c_lr = 0.5 * c_lr + 0.5 * new_c_lr
        if moved < 1e-10:
            converged = True
            feasible = True
            break
    vals = _ledger_pass(p, c_dr, c_lr)
    if feasible:
        gamma = min(vals["gamma_w"], vals["gamma_v"])
        feasible = gamma > 0.0 and vals["d_bar"] > 0.0 and vals["l_bar"] > 0.0
        if not feasible and not binding:
            binding = "w-cond" if vals["gamma_w"] <= vals["gamma_v"] else "v-cond"
    elif not binding:
        binding = "no-convergence"
    return ConstantLedger(
        **p, **vals, gamma=gamma,
        rate_w=1.0 - eta * vals["d_bar"] * gamma,
        rate_v=1.0 - eta * vals["l_bar"] * gamma,
        feasible=feasible, binding=binding, iterations=it, converged=converged,
    )


# ---------------------------------------------------------------- monitors


@dataclass(frozen=True)
class HypothesisEntry:
    """Measured status of the four induction inequalities at one iteration.

    Slacks are bound minus measurement, minimized over the indices each
    inequality quantifies; negative slack means violated.  Monitoring is
    total: violations are recorded, never raised.
    """

    t: int
    w_separation_ok: bool
    wu_contraction_ok: bool
    v_contraction_ok: bool
    wr_bound_ok: bool
    slack_w_separation: float
    slack_wu: float
    slack_v: float
    slack_wr: float


def _pair_bound_matrix(ledger: ConstantLedger, n: int, fam: str) -> np.ndarray:
    m = ledger.m
    out = np.empty((n, n))
    g = lambda key: getattr(ledger, f"m_{fam}{key}")
    out[:m, :m] = g("uu")
    out[:m, m:] = g("ur")
    out[m:, :m] = g("ru")
    out[m:, m:] = g("rr")
    return out


def monitor_hypotheses(state: TwoLayerState, ledger: ConstantLedger, t: int,
                       x: np.ndarray) -> HypothesisEntry:
    """Evaluate all four inequality families on one measurement batch.

    ``t`` counts iterations from 1 (the initial state), matching the
    exponent convention of the contraction bounds.
    """
    if t < 1:
        raise PreconditionError("iterations count from 1")
    m, n = state.u_count, state.n_filters
    z = x @ state.w
    z_t = x @ state.targets
    nb = x.shape[0]
    dtype = _count_dtype(nb)
    d_star = _gram_mean(_gate(z, state.tau, dtype),
                        _gate(z_t, state.tau, dtype), nb)
    l_star = _relu(z, state.tau).T @ _relu(z_t, state.tau) / nb
    off = ~np.eye(n, dtype=bool)
    slack_sep = math.inf
    for fam, mat, eps in (("d", d_star, ledger.eps_d), ("l", l_star, ledger.eps_l)):
        bound = eps * _pair_bound_matrix(ledger, n, fam) * np.diag(mat)[:, None]
        # a single filter has no pair to separate
        slack_sep = min(slack_sep, float((bound - mat)[off].min(initial=math.inf)))

    sin_t = np.sin(state.thetas[:m])
    bound_wu = (1.0 - state.eta * ledger.d_bar * ledger.gamma) ** (t - 1) * math.sin(
        ledger.theta_0
    )
    slack_wu = float(bound_wu - sin_t.max()) if m > 0 else math.inf

    decay_v = (1.0 - state.eta * ledger.l_bar * ledger.gamma) ** (t - 1)
    dv_u = np.linalg.norm(state.v[:m] - state.v_star, axis=1)
    slack_v = float(decay_v * ledger.b_dv - dv_u.max()) if m > 0 else math.inf
    if n > m:
        v_r = np.linalg.norm(state.v[m:], axis=1)
        slack_v = min(slack_v, float(decay_v * ledger.b_v - v_r.max()))

    if n > m:
        drift = np.linalg.norm(state.w[:, m:] - state.w0[:, m:], axis=0)
        slack_wr = float(ledger.c_dr - drift.max())
    else:
        slack_wr = math.inf

    return HypothesisEntry(
        t=t,
        w_separation_ok=slack_sep >= 0.0,
        wu_contraction_ok=slack_wu >= 0.0,
        v_contraction_ok=slack_v >= 0.0,
        wr_bound_ok=slack_wr >= 0.0,
        slack_w_separation=slack_sep,
        slack_wu=slack_wu,
        slack_v=slack_v,
        slack_wr=slack_wr,
    )


# ------------------------------------------------------------ falloff probe


@dataclass(frozen=True)
class FalloffProbe:
    """Perturbation response of a diagonal activation moment.

    One record per (direction, scale): actual filter distance, measured
    moment difference, its standard error, and whether the point cleared
    the noise floor and entered the fit.
    """

    exponent: float
    c0_hat: float
    dists: np.ndarray
    diffs: np.ndarray
    stderrs: np.ndarray
    kept: np.ndarray


def quadratic_falloff_probe(w_star: np.ndarray, scales: tuple[float, ...],
                            stream: GausStream, n: int, n_directions: int = 4,
                            seed: int = 0, tau: float = 0.0) -> FalloffProbe:
    """Fit log moment-difference against log filter distance.

    The student filter is the teacher rotated along random tangent
    directions and renormalized; moments share one batch so the
    difference estimator sees the mismatch, not independent noise.
    Points whose difference sits within three standard errors of zero,
    or is exactly zero (a zero stderr clears that test), are dropped from
    the fit (and from the constant estimate).  The fit needs kept points
    at two scales or more: a point's distance depends on its scale
    alone.  A filter that never fires on the batch has no moment to fall
    off from and raises DegenerateBatchError.

    The batch streams through teachers.batch_blocks, the block loop
    psi_d shares, so at most one block of it is held at a time.  Each
    block projects onto every filter with a matrix-vector product of its
    own, and each filter's difference q = f (f* - f) gets the block's
    mean and centered sum of squares, combined in block order by the
    pairwise update of Chan et al.  Within one block that is the
    one-batch arithmetic, sum(q) / n and sqrt(sum((q - mean)^2) / n),
    bit for bit; over several blocks it agrees to roundoff.
    """
    w_star = np.asarray(w_star, dtype=float)
    norm = np.linalg.norm(w_star)
    if norm == 0:
        raise PreconditionError("needs a nonzero filter")
    if any(s < 0 or s > 0.5 for s in scales):
        raise PreconditionError("perturbation scales must lie in [0, 0.5]")
    rng = np.random.default_rng(seed)
    filters = []
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
            filters.append(w)
    # per filter: the mean of q over the rows so far, and its centered
    # sum of squares
    rows, sq_ref = 0, 0.0
    diffs, m2s = np.zeros(len(filters)), np.zeros(len(filters))
    for x in batch_blocks(stream, n):
        b = x.shape[0]
        total = rows + b
        f_star = _acts(x, w_star, tau)
        sq_ref += np.add.reduce(f_star * f_star)
        for i, w in enumerate(filters):
            f = _acts(x, w, tau)
            q = f_star - f
            q *= f
            mean = np.add.reduce(q) / b
            # q becomes its squared deviations in place, as numpy's var
            # computes them
            q -= mean
            q *= q
            # the first block's (mean, m2) pass through exactly: b / total
            # is 1.0 and the cross term is 0.0
            delta = mean - diffs[i]
            diffs[i] += delta * (b / total)
            m2s[i] += np.add.reduce(q) + delta * delta * (rows * b / total)
        rows = total
    l_ref = float(sq_ref / n)
    if l_ref == 0.0:
        raise DegenerateBatchError(
            f"fall-off probe: the filter never fires on the {n}-row batch "
            f"(tau={tau:g})"
        )
    dists = np.array([float(np.linalg.norm(w - w_star)) for w in filters])
    errs = np.sqrt(m2s / n) / math.sqrt(n)
    kept = np.abs(diffs) >= 3.0 * errs
    kept &= diffs != 0.0
    kept &= dists > 0.0
    # a set, not np.unique, which would import numpy.ma (~1 MB)
    if len(set(np.tile(scales, n_directions)[kept].tolist())) < 2:
        raise NumericError(
            "fewer than two perturbation scales cleared the noise floor"
        )
    slope = np.polyfit(np.log(dists[kept]), np.log(np.abs(diffs[kept])), 1)[0]
    c0 = float(np.max(np.abs(diffs[kept]) / (l_ref * dists[kept] ** 2)))
    return FalloffProbe(
        exponent=float(slope), c0_hat=c0,
        dists=dists, diffs=diffs, stderrs=errs, kept=kept,
    )


# ------------------------------------------------------ pair construction


def _column_normalize(a: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(a, axis=0)
    if np.any(norms == 0.0):
        raise PreconditionError("cannot normalize a zero column")
    return a / norms


def reduced_teacher(rng: np.random.Generator, dim: int, m: int,
                    c: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian teacher pair with unit-norm columns in both layers."""
    if min(dim, m, c) < 1:
        raise ConfigurationError("teacher sizes must be positive")
    w_star = _column_normalize(rng.normal(size=(dim, m)))
    v_star = _column_normalize(rng.normal(size=(m, c)))
    return w_star, v_star


def mixed_two_layer_init(rng: np.random.Generator, w_star: np.ndarray,
                         v_star: np.ndarray, n: int, p_w: float, p_v: float,
                         eta: float, tau: float = 0.0) -> TwoLayerState:
    """Student whose first m columns lean toward the teacher.

    Both layers mix target and unit-column noise, then renormalize
    columns: w_u = normalize(p_w W* + noise); the spare filters are pure
    noise; the top matrix mixes p_v V* into its first m rows the same
    way.  Larger factors start closer to the teacher.
    """
    d, m = w_star.shape
    c = v_star.shape[1]
    if n < m:
        raise ConfigurationError("student must be at least teacher width")
    check_mixing_factors(p_w, p_v)
    w_u = _column_normalize(
        p_w * w_star + _column_normalize(rng.normal(size=(d, m)))
    )
    w_r = _column_normalize(rng.normal(size=(d, n - m)))
    w = np.concatenate([w_u, w_r], axis=1)
    v_lean = np.concatenate([p_v * v_star, np.zeros((n - m, c))], axis=0)
    v = _column_normalize(v_lean + _column_normalize(rng.normal(size=(n, c))))
    return TwoLayerState(w=w, v=v, w_star=w_star, v_star=v_star,
                         eta=eta, w0=w.copy(), tau=tau)


def spare_row_gap(state: TwoLayerState) -> float:
    """Largest spare top-row norm over the smallest matched one."""
    rows = np.linalg.norm(state.v, axis=1)
    m = state.u_count
    if m == state.n_filters:
        return 0.0
    return float(rows[m:].max() / rows[:m].min())


# --------------------------------------------------- configuration probing


def _worst_quotient(vals: list[float], dists: list[float]) -> float:
    worst = 0.0
    for i, dist in enumerate(dists):
        if vals[i] <= 0.0 or dist == 0.0:
            continue
        worst = max(worst, abs(vals[i + 1] - vals[i]) / (vals[i] * dist))
    return worst


def geodesic_slopes(w_starts: np.ndarray, w_ends: np.ndarray,
                    stream: GausStream, n: int, n_points: int = 12,
                    tau: float = 0.0) -> tuple[float, float]:
    """Worst relative slopes (k_d, k_l) of the joint-firing and the
    activation-product kernel along the great circles a run will actually
    traverse.

    For each column pair (start, end) the reference filter is the end
    point; each kernel against points interpolated along the geodesic
    gives difference quotients |psi(p_i+1) - psi(p_i)| /
    (psi(p_i) |p_i+1 - p_i|).  One batch is drawn from the stream, and
    both kernels read the same projection of it onto each path point.
    Zero-angle columns have no path and are skipped.  A negative or NaN
    threshold raises PreconditionError.
    """
    if n_points < 2:
        raise PreconditionError("need at least two path points")
    _check_threshold(tau)
    x = next_batch(stream, n)
    worst_d = worst_l = 0.0
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
        z_ref = (x @ b.reshape(-1, 1))[:, 0]
        ref_gate, ref_act = z_ref > tau, _relu(z_ref, tau)
        gate_vals, act_vals = [], []
        for p in pts:
            z = (x @ p.reshape(-1, 1))[:, 0]
            gate_vals.append(np.count_nonzero(ref_gate & (z > tau)) / n)
            act_vals.append(float((ref_act * _relu(z, tau)).mean()))
        dists = [float(np.linalg.norm(pts[i + 1] - pts[i]))
                 for i in range(n_points - 1)]
        worst_d = max(worst_d, _worst_quotient(gate_vals, dists))
        worst_l = max(worst_l, _worst_quotient(act_vals, dists))
    return worst_d, worst_l


def gate_slope_on_geodesics(w_starts: np.ndarray, w_ends: np.ndarray,
                            stream: GausStream, n: int, n_points: int = 12,
                            tau: float = 0.0) -> float:
    """The joint-firing slope k_d of geodesic_slopes."""
    return geodesic_slopes(w_starts, w_ends, stream, n, n_points, tau)[0]


def act_slope_on_geodesics(w_starts: np.ndarray, w_ends: np.ndarray,
                           stream: GausStream, n: int, n_points: int = 12,
                           tau: float = 0.0) -> float:
    """The activation-product slope k_l of geodesic_slopes."""
    return geodesic_slopes(w_starts, w_ends, stream, n, n_points, tau)[1]
