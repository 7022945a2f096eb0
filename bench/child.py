"""Run one reludyn CLI invocation in this fresh process and report on it.

    python3 bench/child.py SPEC.json   run `reludyn.cli.main` as the spec says
    python3 bench/child.py --env       print the interpreter/numpy/BLAS block

The spec names the CLI arguments, whether to trace, which calls to capture
for output checks, and where to write the result JSON.  Times are
`time.monotonic()` readings, a clock shared by every process on the host,
so the parent can subtract the moment it started this process.
"""

import os

# BLAS reads its thread count once, when numpy loads it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import reludyn  # noqa: E402
from reludyn import cli, dynamics, net  # noqa: E402

# every public function a per-layer metric times, as (module, function)
TRACED = (
    ("net", "forward"), ("net", "backward"), ("net", "sgd_step"),
    ("teachers", "next_batch"), ("teachers", "teacher_labels"),
    ("metrics", "rho_matrix"), ("metrics", "mean_rank"),
    ("dynamics", "two_layer_moments"), ("dynamics", "gate_moments"),
    ("dynamics", "act_moments"), ("dynamics", "step_two_layer"),
    ("dynamics", "gate_slope_on_geodesics"),
    ("dynamics", "act_slope_on_geodesics"),
    ("dynamics", "quadratic_falloff_probe"),
    ("dynamics", "two_layer_constants"),
    ("beta", "psi_d"), ("beta", "compute_beta"), ("beta", "verify_identity"),
    ("experiments", "make_config"), ("experiments", "emit_reports"),
    ("experiments", "run_experiment"),
)

Z_MAX = 6.0  # moment estimates may sit this many stderrs off the closed form
BN_REL_TOL = 1e-9
FD_REL_TOL = 1e-5


def _layer_macs(network) -> int:
    return sum(w.shape[0] * w.shape[1] for w in network.weights)


# multiply-adds of a call, counted from its argument shapes
MACS = {
    "net.forward": lambda network, batch, *_, **__: (
        np.shape(batch)[0] * _layer_macs(network)),
    # node gradients below the top layer, then one weight gradient per layer
    "net.backward": lambda network, trace, *_, **__: trace.x.shape[0] * (
        2 * _layer_macs(network)
        - network.weights[0].shape[0] * network.weights[0].shape[1]),
    # the four mean matrices D, D*, L, L*
    "dynamics.two_layer_moments": lambda state, x, *_, **__: (
        2 * x.shape[0] * state.w.shape[1]
        * (state.w.shape[1] + state.w_star.shape[1])),
}


def rebind(old, new) -> None:
    """Point every reludyn module-level name bound to `old` at `new`.

    Modules import functions by name (`from .net import forward`), so
    replacing the definition in its own module alone would miss callers.
    """
    for name, mod in list(sys.modules.items()):
        if name == "reludyn" or name.startswith("reludyn."):
            for attr, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, attr, new)


class Tracer:
    """Spans around calls into each traced function, kept in memory.

    Per name: calls, total seconds, seconds covered by child spans, and
    multiply-adds where MACS knows how to count them.
    """

    def __init__(self):
        self.stats = {}
        self.stack = []

    def install(self) -> None:
        for mod_name, fn_name in TRACED:
            mod = sys.modules[f"reludyn.{mod_name}"]
            orig = getattr(mod, fn_name)
            rebind(orig, self._wrap(f"{mod_name}.{fn_name}", orig))

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        macs = MACS.get(name)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += frame[0]
                if macs is not None:
                    stat[3] += macs(*args, **kwargs)

        return traced


class Capture:
    """Keep the arguments and result of selected calls for output checks.

    `keep(args)` returns a key for calls worth keeping (None otherwise);
    the first call per key is kept.  After `limit` keys the wrapper
    unbinds itself, so untraced runs pay for a handful of calls only.
    """

    def __init__(self, mod, fn_name, keep, limit):
        self.calls = {}
        self.current = getattr(mod, fn_name)
        self.keep, self.limit = keep, limit
        rebind(self.current, self._hook)

    def _hook(self, *args, **kwargs):
        result = self.current(*args, **kwargs)
        key = self.keep(args)
        if key is not None and key not in self.calls:
            self.calls[key] = (args, result)
            if len(self.calls) >= self.limit:
                rebind(self._hook, self.current)
        return result


# ------------------------------------------------------------ output checks


def _arccos_kernels(w, w_star):
    """Closed-form gate and activation moments under N(0, I) inputs.

    For filters at angle theta (Cho & Saul 2009): joint firing
    D = (pi - theta) / 2 pi, and for the ReLU products
    L = |w||w'| (sin theta + (pi - theta) cos theta) / 2 pi.
    """
    norms = np.linalg.norm(w, axis=0)[:, None] * np.linalg.norm(w_star, axis=0)
    cos = np.clip((w.T @ w_star) / norms, -1.0, 1.0)
    theta = np.arccos(cos)
    d = (np.pi - theta) / (2.0 * np.pi)
    lam = norms * (np.sin(theta) + (np.pi - theta) * cos) / (2.0 * np.pi)
    return d, lam


def check_moments(gates: Capture, acts: Capture) -> tuple[list, list]:
    fails, notes = [], []
    for family, cap, pick in (("gate", gates, 0), ("act", acts, 1)):
        if not cap.calls:
            fails.append(f"{family}_moments was never called")
        for rows, (args, res) in sorted(cap.calls.items()):
            # the grid config keeps the default gate threshold tau = 0
            w, w_star = args[1:3]
            self_cf = _arccos_kernels(w, w)[pick]
            cross_cf = _arccos_kernels(w, w_star)[pick]
            est, cross, err, cross_err = res
            worst = 0.0
            for val, cf, se in ((est, self_cf, err), (cross, cross_cf,
                                                      cross_err)):
                if not (np.all(np.isfinite(val)) and np.all(np.isfinite(se))):
                    fails.append(f"{family}_moments: non-finite output")
                    continue
                z = np.abs(val - cf) / (se + 1.0 / rows)
                worst = max(worst, float(z.max()))
            notes.append(f"{family}_moments n={rows}: worst z {worst:.2f}")
            if worst > Z_MAX:
                fails.append(f"{family}_moments n={rows}: estimate is "
                             f"{worst:.2f} stderr off the closed form")
    return fails, notes


def check_bn_step(cap: Capture, forward, squared_loss, seed: int):
    """BN projection and finite-difference checks on one captured step."""
    fails, notes = [], []
    if not cap.calls:
        return ["backward was never called"], notes
    (network, trace, target), grads = next(iter(cap.calls.values()))
    worst_mean = worst_orth = 0.0
    for hi, site in enumerate(trace.bn):
        if site is None:
            continue
        # under linear_bn_relu the node gradient is the BN backward output
        g, f = grads.node[hi], site.f_in
        scale = np.abs(g).sum(axis=0) + 1e-300
        worst_mean = max(worst_mean, float((np.abs(g.sum(axis=0)) / scale).max()))
        orth = np.abs((g * f).sum(axis=0)) / (
            np.linalg.norm(g, axis=0) * np.linalg.norm(f, axis=0) + 1e-300)
        worst_orth = max(worst_orth, float(orth.max()))
    notes.append(f"BN node gradients: rel batch mean {worst_mean:.1e}, "
                 f"rel correlation with pre-BN {worst_orth:.1e}")
    if worst_mean > BN_REL_TOL or worst_orth > BN_REL_TOL:
        fails.append(f"BN node gradients not projected: mean {worst_mean:.1e},"
                     f" correlation {worst_orth:.1e} > {BN_REL_TOL:.0e}")

    def loss(li, i, j, delta):
        ws = list(network.weights)
        ws[li] = ws[li].copy()
        ws[li][i, j] += delta
        moved = dataclasses.replace(network, weights=tuple(ws))
        return squared_loss(forward(moved, trace.x).outputs, target)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for li, gw in enumerate(grads.weights):
        picks = [np.unravel_index(np.argmax(np.abs(gw)), gw.shape)]
        picks += [(int(rng.integers(gw.shape[0])), int(rng.integers(gw.shape[1])))
                  for _ in range(2)]
        for i, j in picks:
            h = 1e-6 * max(1.0, abs(float(network.weights[li][i, j])))
            fd = -(loss(li, i, j, h) - loss(li, i, j, -h)) / (2.0 * h)
            rel = abs(fd - gw[i, j]) / float(np.abs(gw).max())
            worst = max(worst, rel)
    notes.append(f"weight gradients vs central differences: worst rel {worst:.1e}")
    if worst > FD_REL_TOL:
        fails.append(f"weight gradient off finite differences by {worst:.1e}"
                     f" of the layer's largest entry")
    return fails, notes


# ---------------------------------------------------------------- running


class _SetupDone(Exception):
    """Raised at run_experiment entry when only set-up is measured."""


def run(spec: dict) -> dict:
    originals = (net.forward, net.squared_loss)
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    captures = {}
    if spec["capture"] == "moments":
        rows = lambda args: int(args[0].shape[0])
        captures["gate"] = Capture(dynamics, "gate_moments", rows, 2)
        captures["act"] = Capture(dynamics, "act_moments", rows, 2)
    elif spec["capture"] == "bn_step":
        captures["bn"] = Capture(net, "backward", lambda args: 0, 1)

    marks = {}
    run_experiment = cli.run_experiment

    def entry(cfg):
        marks["entry"] = time.monotonic()
        if spec["setup_only"]:
            raise _SetupDone
        return run_experiment(cfg)

    cli.run_experiment = entry
    try:
        code = cli.main(spec["argv"])
    except _SetupDone:
        code = 0
    done = time.monotonic()
    out = {
        "exit": code,
        "t_entry": marks.get("entry"),
        "t_done": done,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.stats if tracer else {},
        "failures": [],
        "notes": [],
    }
    if spec["setup_only"] or code != 0:
        return out
    if spec["capture"] == "moments":
        fails, notes = check_moments(captures["gate"], captures["act"])
    elif spec["capture"] == "bn_step":
        fails, notes = check_bn_step(captures["bn"], *originals, spec["seed"])
    else:
        fails, notes = [], []
    out["failures"], out["notes"] = fails, notes
    return out


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_thread_vars": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def main(argv: list[str]) -> int:
    if not Path(reludyn.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"reludyn imported from {reludyn.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if argv == ["--env"]:
        print(json.dumps(environment(), sort_keys=True))
        return 0
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
