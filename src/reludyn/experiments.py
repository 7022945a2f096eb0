"""Configuration-driven experiment runners with reproducible reports.

Every experiment is described by a JSON config validated against the
packaged schema, runs to a RunLog of plain scalar rows, and is emitted as
CSV/JSON (optionally SVG) whose bytes depend only on the config and seed
list.  Every kind's seeds are independent (cfg, unit) work units, so a
process pool with N workers produces exactly the serial result.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .beta import compute_beta, psi_d, verify_identity
from .dynamics import (
    column_angles,
    geodesic_slopes,
    mixed_two_layer_init,
    monitor_hypotheses,
    quadratic_falloff_probe,
    reduced_teacher,
    self_moments,
    spare_row_gap,
    step_two_layer,
    two_layer_constants,
    two_layer_moments,
)
from .errors import (
    ConfigurationError,
    DegenerateBatchError,
    NumericError,
    PreconditionError,
)
from .metrics import bn_bias_audit, mean_rank, rho_bar, rho_matrix, v_row_norms
from .net import (
    Network,
    NetworkSpec,
    activations,
    backward,
    build_network,
    forward,
    sgd_step,
    squared_loss,
)
from .teachers import (
    GausStream,
    StudentInit,
    TeacherSpec,
    check_mixing_factors,
    make_student,
    make_teacher,
    next_batch,
    teacher_labels,
)

# Role offsets keep the init, the training stream, and the evaluation
# stream statistically independent while still derived from one run seed.
TRAIN_STREAM_OFF = 10_000
VAL_STREAM_OFF = 20_000
REINIT_OFF = 30_000
RETRAIN_STREAM_OFF = 40_000

VAL_BATCH = 2048
DIVERGENCE_LOSS = 1e6
# A grid unit whose recorded fan-out row norm exceeds this has diverged:
# the teacher's fan-out rows have norm at most sqrt(outputs).
DIVERGENCE_NORM = 1e6
# BLAS reads its thread count from these once, when numpy loads it; the
# count changes the summation order of matrix products, hence last bits
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")

_KIND_OVERRIDES: dict = {
    "bn_audit": {"student": {"bn_mode": "linear_relu_bn"}},
}


@functools.cache
def _schema_facts() -> tuple:
    """The packaged config schema and the defaults dict its properties
    carry, read on first use.

    The schema is static, so it is checked against its metaschema by the
    test suite rather than on every validation.
    """
    text = resources.files("reludyn").joinpath("config_schema.json").read_text()
    schema = json.loads(text)
    return schema, _defaults(schema)


def _defaults(node: dict) -> dict:
    """The "default" of every leaf property under an object node."""
    return {
        key: _defaults(prop) if "properties" in prop else prop["default"]
        for key, prop in node["properties"].items()
        if "properties" in prop or "default" in prop
    }


_JSON_TYPES = {"object": dict, "array": list, "integer": (int, float),
               "number": (int, float)}


def _rejected(key: str, value, reason: str) -> ConfigurationError:
    return ConfigurationError(f"{key} rejected: {value!r} {reason}")


def _typed(value, node: dict, key: str = "config"):
    """value checked against a schema node and typed in one walk, each
    error naming its key: an integer written as 2.0 reaches the runners
    as the int 2, and every number as a float.

    It reads the keywords config_schema.json uses; an object rejects the
    keys its properties do not name, as additionalProperties is false on
    every one.  As in JSON Schema a bool is not a number, an integer node
    takes 2.0 but not 2.5, and uniqueness compares the typed items.
    json.loads accepts NaN and Infinity, which a number must not be.
    """
    if "enum" in node and value not in node["enum"]:
        raise _rejected(key, value, f"is not one of {node['enum']}")
    kind = node.get("type")
    if kind is None:
        return value
    if (not isinstance(value, _JSON_TYPES[kind]) or isinstance(value, bool)
            or kind == "integer" and isinstance(value, float)
            and not value.is_integer()):
        raise _rejected(key, value, f"is not of type {kind!r}")
    if kind == "object":
        props = node["properties"]
        for name in node.get("required", ()):
            if name not in value:
                raise _rejected(key, name, "is a required key")
        for name in value:
            if name not in props:
                raise _rejected(key, name, "is not a known key")
        return {k: _typed(v, props[k], f"{key}.{k}") for k, v in value.items()}
    if kind == "array":
        if len(value) < node.get("minItems", 0):
            raise _rejected(key, value,
                            f"has fewer than {node['minItems']} items")
        if len(value) > node.get("maxItems", math.inf):
            raise _rejected(key, value,
                            f"has more than {node['maxItems']} items")
        items = [_typed(v, node["items"], f"{key}[{i}]")
                 for i, v in enumerate(value)]
        ordered = sorted(items) if node.get("uniqueItems") else []
        if any(a == b for a, b in zip(ordered, ordered[1:])):
            raise _rejected(key, value, "has non-unique elements")
        return items
    try:
        typed = int(value) if kind == "integer" else float(value)
    except OverflowError:  # an int beyond the float range
        typed = math.inf
    if not math.isfinite(typed):
        raise ConfigurationError(f"{key} must be finite, got {value}")
    if "minimum" in node and typed < node["minimum"]:
        raise _rejected(key, value,
                        f"is less than the minimum of {node['minimum']}")
    if "exclusiveMinimum" in node and typed <= node["exclusiveMinimum"]:
        raise _rejected(key, value, "is not greater than the exclusive "
                        f"minimum of {node['exclusiveMinimum']}")
    if "maximum" in node and typed > node["maximum"]:
        raise _rejected(key, value,
                        f"is greater than the maximum of {node['maximum']}")
    return typed


def config_hash(data: dict) -> str:
    """Stable short digest of a config: canonical JSON, sorted keys.

    The worker count is execution plumbing, not experiment identity, so
    it never enters the digest: serial and pooled runs of one config
    must produce byte-identical summaries, hash column included.
    """
    data = {k: v for k, v in data.items() if k != "workers"}
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _merge(base: dict, over: dict) -> dict:
    out = dict(base)
    for key, val in over.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, default-filled experiment description."""

    kind: str
    seeds: tuple[int, ...]
    eta: float
    epochs: int
    batches_per_epoch: int
    batch_size: int
    mode: str
    workers: int
    teacher: dict
    student: dict
    stream: dict
    grid: dict
    ablate: dict
    lottery: dict
    falloff: dict
    psi: dict
    verify: dict
    raw: dict
    config_hash: str


def make_config(data: dict) -> ExperimentConfig:
    """Fill a raw config dict with the schema's defaults and the kind's
    overrides, then check and type it against the schema in one walk.

    raw and config_hash keep the merged values as written; the sections
    hold them typed.  The lottery and grid rules apply to the typed
    values.
    """
    if not isinstance(data, dict):
        raise ConfigurationError("config must be a JSON object")
    schema, defaults = _schema_facts()
    kind = data.get("kind")
    override = _KIND_OVERRIDES.get(kind, {}) if isinstance(kind, str) else {}
    merged = _merge(_merge(defaults, override), data)
    typed = _typed(merged, schema)
    if kind == "lottery" and typed["student"]["bn_mode"] != "none":
        raise _rejected(
            "config.student.bn_mode", typed["student"]["bn_mode"],
            "for a lottery: pruning zeroes whole channels and degenerates "
            "batch statistics; lottery runs require bn_mode none",
        )
    if kind == "overparam_grid":
        # a cell's key names its detail table and ledger block
        g = typed["grid"]
        keys = [_cell_key(o, *c) for o in g["overparams"] for c in g["cells"]]
        repeated = [k for k in keys if keys.count(k) > 1]
        if repeated:
            raise ConfigurationError(
                f"config.grid.cells: two cells share the cell key {repeated[0]} "
                "(p_w and p_v are keyed to 6 significant digits)"
            )
        # checked before the run measures anything; the first overparam's
        # keys name the cells
        for key, (p_w, p_v) in zip(keys, g["cells"]):
            try:
                check_mixing_factors(p_w, p_v)
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"config.grid.cells: cell {key}: {exc}") from None
    typed["seeds"] = tuple(typed["seeds"])
    return ExperimentConfig(**typed, raw=merged, config_hash=config_hash(merged))


@dataclass
class RunLog:
    """Everything one experiment produced, ready for emission.

    Rows hold only str/int/float/bool/None so the CSV bytes are a pure
    function of the values; wall_clock and the per-phase timings (seconds
    by phase name) are reported in meta only and never enter a CSV.
    Each pooled work unit returns one with its rows, tables, ledgers,
    assumptions and timings, and its runner merges them with _merged and
    adds the aggregates; run_experiment sets kind, config, config_hash,
    wall_clock, the environment it ran in and the peak resident memory.
    failed is read from the rows: any ok == 0 fails.
    """

    rows: list[dict]
    aggregates: list[dict] = field(default_factory=list)
    tables: dict[str, list[dict]] = field(default_factory=dict)
    ledgers: dict = field(default_factory=dict)
    assumptions: list[dict] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    kind: str = ""
    config: dict = field(default_factory=dict)
    config_hash: str = ""
    wall_clock: float = 0.0
    environment: dict = field(default_factory=dict)
    peak_rss_mb: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return any(row.get("ok") == 0 for row in self.rows)


def _merged(logs: list[RunLog]) -> RunLog:
    """The work units' logs as one run's: rows, same-named tables and
    assumptions concatenated in unit order, ledgers joined, timings
    summed by phase."""
    out = RunLog(rows=[])
    for log in logs:
        out.rows.extend(log.rows)
        for name, rows in log.tables.items():
            out.tables.setdefault(name, []).extend(rows)
        out.ledgers.update(log.ledgers)
        out.assumptions.extend(log.assumptions)
        for phase, seconds in log.timings.items():
            out.timings[phase] = out.timings.get(phase, 0.0) + seconds
    return out


# ----------------------------------------------------------- aggregation


def _numeric_keys(rows: list[dict], skip: set[str]) -> list[str]:
    """Keys outside skip in order of their first int or float (not bool)."""
    return list(dict.fromkeys(
        k for row in rows for k, v in row.items() if k not in skip
        and isinstance(v, (int, float)) and not isinstance(v, bool)
    ))


def _grouped(rows: list[dict], by: tuple[str, ...]):
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = tuple(row.get(k) for k in by)
        groups.setdefault(key, []).append(row)
    return sorted(groups.items(), key=lambda kv: kv[0])


def _aggregate(rows: list[dict], by: tuple[str, ...], stats: str) -> list[dict]:
    if not rows:
        return []
    metrics = _numeric_keys(rows, set(by) | {"seed"})
    out = []
    for key, grp in _grouped(rows, by):
        agg = dict(zip(by, key))
        agg["n_seeds"] = len({r.get("seed") for r in grp})
        for k in metrics:
            vals = [r[k] for r in grp if r.get(k) is not None]
            if not vals:
                continue
            if stats == "minmax":
                agg[f"{k}_min"] = float(min(vals))
                agg[f"{k}_max"] = float(max(vals))
            else:
                agg[f"{k}_mean"] = float(np.mean(vals))
                agg[f"{k}_std"] = float(np.std(vals))
        out.append(agg)
    return out


def _parallel_map(fn, payloads: list, workers: int) -> list:
    """fn over payloads, in order, on at most one process per payload and
    per CPU: the pool starts all its processes at once."""
    workers = min(workers, len(payloads), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads))


def _pooled(cfg: ExperimentConfig, unit_fn, units: list) -> RunLog:
    """unit_fn's logs over (cfg, unit) per unit, merged in unit order."""
    return _merged(_parallel_map(unit_fn, [(cfg, u) for u in units],
                                 cfg.workers))


def _derive_seed(*parts: int) -> int:
    """Deterministic child seed from a tuple of role/unit tags."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# ------------------------------------------------------ training runners


def _checkpoint(net: Network, val_x: np.ndarray, val_acts: list[np.ndarray],
                epoch: int, checkpoints: list[list]) -> dict:
    """One student's epoch row on the validation batch; appends each
    hidden layer's correlation matrix to that layer's checkpoint list.

    The student's validation pass is net.activations' read-only walk:
    each hidden layer's correlations and fan-out norms are taken as soon
    as its activation exists, and the next step drops it, so a run holds
    one layer of one checkpoint at a time.  The loss is read from the
    top layer, the outputs, and its keys keep their place first in the
    row.  diverged is 1 when the loss is non-finite or above the
    divergence cutoff.
    """
    row = {"epoch": epoch, "loss": None, "diverged": None}
    acts = activations(net, val_x)
    for h, cps in enumerate(checkpoints):
        # no name holds the activation, so it goes with the next step
        cm = rho_matrix(next(acts), val_acts[h])
        cps.append(cm)
        rb = rho_bar(cm)
        # with every teacher node of the layer dead on the validation
        # batch there is no correlation: an empty cell
        row[f"rho_bar_l{h}"] = rb.value if rb.n_covered else None
        vr = v_row_norms(net, h)
        row[f"v_l{h}_min"] = float(vr.min())
        row[f"v_l{h}_max"] = float(vr.max())
        row[f"v_l{h}_mean"] = float(vr.mean())
    loss = float(squared_loss(next(acts), val_acts[-1]))
    row["loss"] = loss
    row["diverged"] = int(not math.isfinite(loss) or loss > DIVERGENCE_LOSS)
    return row


def _run_training(teacher: Network, students: list[Network],
                  cfg: ExperimentConfig, unit: dict, epochs: int,
                  stream_seed: int, timings: dict[str, float]) -> list[tuple]:
    """SGD on teacher soft targets, students in lockstep; per-epoch rows.

    Each batch of the unit's stream is drawn and labelled once, then every
    live student steps on it in list order, as a run of its own would; the
    unit's seed fixes the validation batch.  Epoch 0 is the untouched
    initialization.  A loss above the divergence cutoff (or a numeric
    failure inside an epoch) marks a student diverged and drops it from
    the run, keeping its rows up to that epoch.  The seconds spent in
    validation checkpoints are added to timings["checkpoints"].  Returns
    (rows, trained net, final correlations, diverged) per student.
    """
    dim = teacher.spec.layer_widths[0]
    stream_cfg = unit["stream"]
    train_stream = GausStream(
        dim=dim, std=stream_cfg["std"], mode=stream_cfg["mode"],
        n_samples=stream_cfg["n_samples"], seed=stream_seed,
    )
    val_x = next_batch(
        GausStream(dim=dim, std=stream_cfg["std"], mode="infinite",
                   seed=unit["seed"] + VAL_STREAM_OFF),
        VAL_BATCH,
    )
    eta, batch_size, n_batches = cfg.eta, cfg.batch_size, cfg.batches_per_epoch
    nets = list(students)
    rows: list[list[dict]] = [[] for _ in nets]
    checkpoints = [[[] for _ in range(s.n_layers - 1)] for s in nets]
    diverged = [False] * len(nets)
    live = list(range(len(nets)))
    # overflow on the way to the divergence cutoff is an expected,
    # reported outcome, not a numeric bug worth a warning storm
    with np.errstate(over="ignore", invalid="ignore"):
        val_acts = list(activations(teacher, val_x))
        # the teacher is the target: if it overflows, no run measures
        if not all(np.isfinite(a).all() for a in val_acts):
            raise ConfigurationError(
                f"config.teacher.weight_grid {unit['teacher']['weight_grid']}"
                " overflows the teacher's activations at layer_widths "
                f"{unit['teacher']['layer_widths']}"
            )
        for epoch in range(epochs + 1):
            stepping = live if epoch > 0 else []
            for _ in range(n_batches if stepping else 0):
                x = next_batch(train_stream, batch_size)
                labels = teacher_labels(teacher, x)
                for i in stepping:
                    try:
                        grads = backward(nets[i], forward(nets[i], x), labels)
                        nets[i] = sgd_step(nets[i], grads, eta)
                    except (NumericError, DegenerateBatchError):
                        diverged[i] = True
                stepping = [i for i in stepping if not diverged[i]]
                if not stepping:
                    break
            t0 = time.perf_counter()
            for i in live:
                row = _checkpoint(nets[i], val_x, val_acts, epoch,
                                  checkpoints[i])
                diverged[i] = diverged[i] or bool(row["diverged"])
                row["diverged"] = int(diverged[i])
                rows[i].append(row)
            timings["checkpoints"] = (timings.get("checkpoints", 0.0)
                                      + time.perf_counter() - t0)
            live = [i for i in live if not diverged[i]]
            if not live:
                break
    for student_rows, cps_by_layer in zip(rows, checkpoints):
        for h, cps in enumerate(cps_by_layer):
            try:
                series = mean_rank(cps)
            except PreconditionError:
                continue
            for row, r in zip(student_rows, series):
                row[f"r_bar_l{h}"] = float(r)
    finals = [[cps[-1] for cps in by_layer] for by_layer in checkpoints]
    return list(zip(rows, nets, finals, diverged))


def _training_units(cfg: ExperimentConfig) -> list[dict]:
    """One unit per (ablation level, seed), level outer: its seed, its row
    tags and the teacher, student and stream sections it trains with.

    train, bn_audit and lottery have one level with no tags.
    """
    levels: list[tuple[dict, dict]] = [({}, {})]
    if cfg.kind == "ablate_size":
        levels = [
            ({"arch": "-".join(str(w) for w in widths), "bn_mode": bn},
             {"teacher": dict(cfg.teacher, layer_widths=list(widths)),
              "student": dict(cfg.student, bn_mode=bn)})
            for widths in cfg.ablate["archs"] for bn in cfg.ablate["bn_modes"]
        ]
    elif cfg.kind == "ablate_overparam":
        levels = [
            ({"factor": f}, {"student": dict(cfg.student, overparam_factor=f)})
            for f in cfg.ablate["factors"]
        ]
    elif cfg.kind == "ablate_finite":
        levels = [
            ({"samples": size},
             {"stream": dict(cfg.stream, mode="finite" if size else "infinite",
                             n_samples=size)})
            for size in cfg.ablate["finite_sizes"] + [0]
        ]
    units = []
    for tags, sections in levels:
        for seed in cfg.seeds:
            unit = {"seed": seed, "tags": tags, "teacher": cfg.teacher,
                    "student": cfg.student, "stream": cfg.stream, **sections}
            if cfg.kind == "ablate_overparam":
                # a fresh teacher per seed: the band statistics are over
                # (teacher, init) draws, not one fixed teacher
                unit["teacher"] = dict(cfg.teacher,
                                       seed=cfg.teacher["seed"] + seed)
            units.append(unit)
    return units


def _student(teacher: Network, unit: dict, seed: int) -> Network:
    """The unit's student around the teacher, initialized from seed.

    The mixing factors are bounded, so a student init that overflows
    does so on the teacher's grid values.
    """
    s = unit["student"]
    init = StudentInit(overparam_factor=s["overparam_factor"],
                       p_w=s["p_w"], p_v=s["p_v"], seed=seed)
    try:
        return make_student(teacher, init, bn_mode=s["bn_mode"])
    except ConfigurationError as exc:
        raise ConfigurationError(
            f"config.teacher.weight_grid {unit['teacher']['weight_grid']}: "
            f"{exc}"
        ) from None


def _train_unit(payload: tuple) -> RunLog:
    cfg, unit = payload
    t0 = time.perf_counter()
    seed = unit["seed"]
    teacher = make_teacher(TeacherSpec(**unit["teacher"]))
    timings: dict[str, float] = {}
    [(rows, trained, _, diverged)] = _run_training(
        teacher, [_student(teacher, unit, seed)], cfg, unit,
        cfg.epochs, seed + TRAIN_STREAM_OFF, timings,
    )
    entry = {"seed": seed, "diverged": diverged}
    if cfg.kind.startswith("ablate_"):
        entry["tags"] = unit["tags"]
    log = RunLog(rows=[dict(unit["tags"], seed=seed, **r) for r in rows],
                 assumptions=[entry], timings=timings)
    if cfg.kind == "bn_audit":
        reports = bn_bias_audit(trained)
        log.tables["bn_bias"] = [
            {"seed": seed, "layer": rep.layer,
             "n_negative": rep.n_negative, "n_positive": rep.n_positive}
            for rep in reports
        ]
        log.tables["bn_bias_hist"] = [
            {"seed": seed, "layer": rep.layer, "bin": b,
             "lo": float(rep.bin_edges[b]), "hi": float(rep.bin_edges[b + 1]),
             "count": int(rep.counts[b])}
            for rep in reports for b in range(len(rep.counts))
        ]
    log.timings["units"] = time.perf_counter() - t0
    return log


def run_training(cfg: ExperimentConfig) -> RunLog:
    """Train one student per unit; per-epoch metrics and their aggregate.

    The aggregate groups rows by the ablation tags and epoch: mean and
    std over seeds for ablate_overparam's bands, min and max otherwise.
    Ablation assumptions name each unit's tags.  A bn_audit run also
    reports the sign split of each trained student's BN shifts.
    """
    units = _training_units(cfg)
    log = _pooled(cfg, _train_unit, units)
    by = (*units[0]["tags"], "epoch")
    stats = "meanstd" if cfg.kind == "ablate_overparam" else "minmax"
    log.aggregates = _aggregate(log.rows, by, stats)
    return log


# --------------------------------------------------------------- lottery


def _greedy_winners(rho: np.ndarray) -> dict[int, int]:
    """Distinct best student per teacher column, strongest pairs first.

    Ties break toward smaller indices, so the assignment is deterministic.
    """
    n_s, n_t = rho.shape
    order = sorted(
        (-float(rho[i, j]), i, j) for i in range(n_s) for j in range(n_t)
    )
    assigned: dict[int, int] = {}
    used: set[int] = set()
    for _, i, j in order:
        if j in assigned or i in used:
            continue
        assigned[j] = i
        used.add(i)
        if len(assigned) == n_t:
            break
    return assigned


def _prune_to(net: Network, keep: list[list[int]]) -> Network:
    """Zero the fan-in column, bias, and fan-out row of dropped nodes.

    A zeroed hidden node never fires and its gradient is identically
    zero, so it stays dead through any further plain-SGD training.
    """
    weights = [w.copy() for w in net.weights]
    biases = [None if b is None else b.copy() for b in net.biases]
    for h, kept in enumerate(keep):
        width = net.spec.layer_widths[h + 1]
        drop = sorted(set(range(width)) - set(kept))
        if not drop:
            continue
        weights[h][:, drop] = 0.0
        if biases[h] is not None:
            biases[h][drop] = 0.0
        weights[h + 1][drop, :] = 0.0
    return build_network(net.spec, weights, biases)


def _lottery_unit(payload: tuple) -> RunLog:
    cfg, unit = payload
    seed = unit["seed"]
    teacher = make_teacher(TeacherSpec(**unit["teacher"]))
    student0 = _student(teacher, unit, seed)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    [(base_rows, _, finals, _)] = _run_training(
        teacher, [student0], cfg, unit, cfg.epochs, seed + TRAIN_STREAM_OFF,
        timings,
    )
    t1 = time.perf_counter()
    keep, contested = [], []
    for cm in finals:
        win = _greedy_winners(cm.rho)
        keep.append(sorted(win.values()))
        best = [int(np.argmax(cm.rho[:, j])) for j in range(cm.rho.shape[1])]
        contested.append(len(best) - len(set(best)))
    arms = (
        ("winners_reset", _prune_to(student0, keep)),
        ("winners_reinit",
         _prune_to(_student(teacher, unit, seed + REINIT_OFF), keep)),
        ("baseline", student0),
    )
    retrain = cfg.lottery["retrain_epochs"] or cfg.epochs
    rows = [dict(seed=seed, arm="base", **r) for r in base_rows]
    summaries = []
    trained = _run_training(teacher, [net0 for _, net0 in arms], cfg, unit,
                            retrain, seed + RETRAIN_STREAM_OFF, timings)
    timings.update(base=t1 - t0, arms=time.perf_counter() - t1)
    for (arm, _), (a_rows, _, _, a_div) in zip(arms, trained):
        rows.extend(dict(seed=seed, arm=arm, **r) for r in a_rows)
        summary = {
            "seed": seed, "arm": arm,
            "final_loss": a_rows[-1]["loss"], "diverged": int(a_div),
        }
        for h in range(len(keep)):
            summary[f"rho_bar_l{h}"] = a_rows[-1].get(f"rho_bar_l{h}")
            summary[f"n_winners_l{h}"] = len(keep[h])
            summary[f"n_contested_l{h}"] = contested[h]
        summaries.append(summary)
    return RunLog(rows=rows, tables={"arms": summaries}, timings=timings)


def run_lottery(cfg: ExperimentConfig) -> RunLog:
    """Reset-and-prune study: winners-reset vs winners-reinit vs baseline.

    Winners are one distinct student node per teacher node, picked by
    final correlation after a base training run; the three arms retrain
    in lockstep on one retrain stream, so the comparison is paired.  The
    base and arms phases are timed, and the checkpoints inside them,
    each summed over units.
    """
    log = _pooled(cfg, _lottery_unit, _training_units(cfg))
    log.aggregates = _aggregate(log.rows, ("arm", "epoch"), "minmax")
    return log


# ------------------------------------------------------ checking runners


def _random_net(rng: np.random.Generator, widths: list[int],
                bias: bool) -> Network:
    spec = NetworkSpec(layer_widths=tuple(widths), bn_mode="none", bias=bias)
    weights = [
        rng.normal(0.0, 1.0 / math.sqrt(widths[li]),
                   size=(widths[li], widths[li + 1]))
        for li in range(len(widths) - 1)
    ]
    biases = [
        rng.uniform(-0.5, 0.5, size=widths[li + 1]) if bias else None
        for li in range(len(widths) - 1)
    ]
    return build_network(spec, weights, biases)


def _verify_unit(payload: tuple) -> RunLog:
    """Exactness check of the gradient decomposition on the seed's random
    pairs, n_trials of them drawn from default_rng(seed).

    Residuals are reported relative to the largest node gradient; a
    trial over tolerance has ok 0, which fails the run.
    """
    cfg, seed = payload
    rng = np.random.default_rng(seed)
    tol = cfg.verify["tol"]
    rows = []
    for trial in range(cfg.verify["n_trials"]):
        depth = int(rng.integers(2, 5))
        d_in = int(rng.integers(3, 13))
        d_out = int(rng.integers(3, 9))
        s_widths = [d_in] + [int(rng.integers(4, 25)) for _ in range(depth - 1)] + [d_out]
        t_widths = [d_in] + [int(rng.integers(4, 25)) for _ in range(depth - 1)] + [d_out]
        bias = bool(rng.integers(0, 2))
        student = _random_net(rng, s_widths, bias)
        teacher = _random_net(rng, t_widths, bias)
        x = rng.normal(0.0, 1.0, size=(int(rng.integers(4, 25)), d_in))
        tr_s, tr_t = forward(student, x), forward(teacher, x)
        grads = backward(student, tr_s, tr_t.outputs)
        betas = compute_beta(student, teacher, tr_s, tr_t)
        resid = verify_identity(betas, tr_s, tr_t, grads)
        gmax = max(float(np.abs(g).max()) for g in grads.node)
        rel = resid / gmax if gmax > 0 else 0.0
        rows.append({
            "seed": seed, "trial": trial,
            "student": "-".join(str(w) for w in s_widths),
            "teacher": "-".join(str(w) for w in t_widths),
            "bias": int(bias), "residual": float(rel),
            "ok": int(rel < tol),
        })
    return RunLog(rows=rows)


def _psi_unit(payload: tuple) -> RunLog:
    """Joint-firing moment vs the closed form (pi - angle) / 2 pi.

    The seed also checks trial -1, the self-overlap at angle 0 (closed
    form 1/2), on a stream of its own.
    """
    cfg, seed = payload
    n = cfg.psi["n"]
    w1 = np.array([1.0, 0.0])
    rows = []
    trials = [(i, angle, _derive_seed(50, seed, i))
              for i, angle in enumerate(cfg.psi["angles"])]
    trials.append((-1, 0.0, _derive_seed(51, seed)))
    for trial, angle, stream_seed in trials:
        stream = GausStream(dim=2, std=1.0, seed=stream_seed)
        w2 = np.array([math.cos(angle), math.sin(angle)])
        val, err = psi_d(w1, w2, stream, n)
        ref = (math.pi - angle) / (2.0 * math.pi)
        rows.append({
            "seed": seed, "trial": trial, "angle": angle,
            "psi_d": float(val), "stderr": float(err),
            "closed_form": ref,
            "ok": int(abs(val - ref) <= 4.0 * err + 1e-12),
        })
    return RunLog(rows=rows)


def _falloff_unit(payload: tuple) -> RunLog:
    """Perturbation-response exponent of the diagonal activation moment."""
    cfg, seed = payload
    f = cfg.falloff
    rng = np.random.default_rng(seed)
    w_star = rng.normal(size=f["dim"])
    w_star /= np.linalg.norm(w_star)
    stream = GausStream(dim=f["dim"], std=1.0, seed=_derive_seed(70, seed))
    probe = quadratic_falloff_probe(
        w_star, tuple(f["scales"]), stream, f["n"],
        n_directions=f["n_directions"], seed=_derive_seed(71, seed),
    )
    points = [
        {"seed": seed, "point": idx, "dist": float(probe.dists[idx]),
         "diff": float(probe.diffs[idx]), "stderr": float(probe.stderrs[idx]),
         "kept": int(probe.kept[idx])}
        for idx in range(len(probe.dists))
    ]
    return RunLog(rows=[{
        "seed": seed, "exponent": float(probe.exponent),
        "c0_hat": float(probe.c0_hat), "n_kept": int(probe.kept.sum()),
    }], tables={"points": points})


# ------------------------------------------------------------- grid runs


def _cell_key(overparam: int, p_w: float, p_v: float) -> str:
    fmt = lambda v: f"{v:g}".replace(".", "p")
    return f"x{overparam}_pw{fmt(p_w)}_pv{fmt(p_v)}"


def _measure_cell_ledger(state, grid: dict, cell_index: int, cell: str,
                         c0_hat: float) -> tuple:
    """Convergence-constant inputs measured on the cell's own geometry.

    Separation scales are worst off-diagonal/diagonal moment ratios of
    the alignment targets (0 for a single filter); slopes are probed
    along the geodesics the u-set would traverse.  The initial angle is
    clamped into the open quarter circle; a start beyond it simply
    yields an infeasible ledger.  A target that never fires on the probe
    batch leaves no ratio to take and raises DegenerateBatchError.
    """
    d = state.w.shape[0]
    m, n = state.u_count, state.n_filters
    x = next_batch(
        GausStream(dim=d, std=1.0, seed=_derive_seed(5, cell_index)),
        grid["probe_n"],
    )
    d_t, l_t = self_moments(x, state.targets, grid["tau"])
    d_diag, l_diag = np.diag(d_t), np.diag(l_t)
    silent = np.flatnonzero((d_diag == 0.0) | (l_diag == 0.0))
    if silent.size:
        raise DegenerateBatchError(
            f"cell {cell}: alignment target {int(silent[0])} never fires "
            f"on the {x.shape[0]}-row probe batch (tau={grid['tau']:g})"
        )
    off = ~np.eye(n, dtype=bool)
    eps_d = float((d_t / d_diag[:, None])[off].max(initial=0.0))
    eps_l = float((l_t / l_diag[:, None])[off].max(initial=0.0))
    theta_raw = float(column_angles(state.w[:, :m], state.w_star).max())
    theta_0 = min(max(theta_raw, 1e-4), math.pi / 2 - 1e-9)
    k_d, k_l = geodesic_slopes(
        state.w[:, :m], state.w_star,
        GausStream(dim=d, std=1.0, seed=_derive_seed(6, cell_index)),
        grid["probe_n"], tau=grid["tau"],
    )
    row_norms = np.linalg.norm(state.v, axis=1)
    b_v = float(max(np.linalg.norm(state.v_star, axis=1).max(),
                    row_norms.max()))
    b_dv = float(np.linalg.norm(state.v[:m] - state.v_star, axis=1).max())
    inputs = dict(
        k_d=k_d, k_l=k_l, theta_0=theta_0, eps_d=eps_d, eps_l=eps_l,
        b_v=b_v, b_dv=b_dv, m=m, n=n, c0_hat=c0_hat, eta=grid["eta"],
        d_diag_min=float(d_diag.min()), l_diag_min=float(l_diag.min()),
    )
    return two_layer_constants(**inputs), dict(inputs, theta_raw=theta_raw)


def _grid_unit(payload: tuple) -> RunLog:
    """One (cell, seed) trajectory, its rows not yet tagged with the cell.

    The cell's first seed also reports the cell: it measures the cell's
    ledger on the initial pair it runs and returns the ledger block, the
    assumption entry, the per-filter detail table and, when that ledger
    is feasible in guaranteed mode, the tagged monitor rows.  A failed
    step, or a recorded fan-out row norm above DIVERGENCE_NORM or
    non-finite, marks the unit diverged and stops it.
    """
    cfg, unit = payload
    g = cfg.grid
    seed, cell_index, tags = unit["seed"], unit["cell_index"], unit["tags"]
    w_star, v_star = reduced_teacher(
        np.random.default_rng(g["teacher_seed"]), g["dim"],
        g["teacher_width"], g["outputs"],
    )
    state = mixed_two_layer_init(
        np.random.default_rng(_derive_seed(1, cell_index, seed)),
        w_star, v_star, tags["overparam"] * g["teacher_width"],
        tags["p_w"], tags["p_v"], g["eta"], tau=g["tau"],
    )
    t0 = time.perf_counter()
    detailed, monitor_x = seed == cfg.seeds[0], None
    if detailed:
        key = _cell_key(**tags)
        ledger, inputs = _measure_cell_ledger(
            state, g, cell_index, key, unit["c0_hat"],
        )
        guaranteed = cfg.mode == "guaranteed" and ledger.feasible
        if guaranteed:
            monitor_x = next_batch(
                GausStream(dim=g["dim"], std=1.0,
                           seed=_derive_seed(3, cell_index, seed)),
                g["n_mc"],
            )
    t1 = time.perf_counter()
    stream = GausStream(dim=g["dim"], std=1.0,
                        seed=_derive_seed(2, cell_index, seed))
    m = state.u_count
    rows, monitors, detail = [], [], []

    def record(it: int, diverged: int) -> bool:
        """Append the state's row; True when the unit has diverged."""
        thetas = state.thetas
        norms = np.linalg.norm(state.v, axis=1)
        diverged = int(diverged or not norms.max() <= DIVERGENCE_NORM)
        u, r = norms[:m], norms[m:]
        row = dict(seed=seed, iteration=it, diverged=diverged)
        row["u_min"] = float(u.min())
        row["u_max"] = float(u.max())
        row["u_mean"] = float(u.mean())
        row["r_max"] = float(r.max()) if r.size else 0.0
        row["r_mean"] = float(r.mean()) if r.size else 0.0
        row["gap"] = float(spare_row_gap(state))
        row["sin_max"] = float(np.sin(thetas[:m]).max())
        rows.append(row)
        if detailed and not diverged:
            entry = {"t": it}
            entry.update((f"sin_{j}", float(v))
                         for j, v in enumerate(np.sin(thetas)))
            entry.update((f"v_{j}", float(v)) for j, v in enumerate(norms))
            detail.append(entry)
        return bool(diverged)

    # as in _run_training: overflow on the way to a diverged step is an
    # expected, recorded outcome
    with np.errstate(over="ignore", invalid="ignore"):
        record(0, 0)
        for it in range(1, g["iterations"] + 1):
            x = next_batch(stream, g["n_mc"])
            try:
                state = step_two_layer(state, two_layer_moments(state, x))
            except NumericError:
                # the last good state's row says so, recorded if need be
                if rows[-1]["iteration"] == it - 1:
                    rows[-1]["diverged"] = 1
                else:
                    record(it - 1, 1)
                break
            if ((it % g["record_every"] == 0 or it == g["iterations"])
                    and record(it, 0)):
                break
            if monitor_x is not None and it % g["monitor_every"] == 0:
                entry = asdict(monitor_hypotheses(state, ledger, it + 1,
                                                  monitor_x))
                monitors.append(dict(tags, guaranteed=1, seed=seed, **entry))
                if detail[-1]["t"] == it:
                    detail[-1].update(
                        {k: v for k, v in entry.items()
                         if k.startswith("slack_")},
                        gamma=ledger.gamma, rate_w=ledger.rate_w,
                    )
    log = RunLog(rows=rows, timings={"ledgers": t1 - t0,
                                     "units": time.perf_counter() - t1})
    if detailed:
        cell_mode = "guaranteed" if guaranteed else "free-run"
        log.tables[f"detail_{key}"] = detail
        if monitors:
            log.tables["monitors"] = monitors
        log.ledgers[key] = {
            "inputs": inputs, "ledger": asdict(ledger), "cell_mode": cell_mode,
        }
        log.assumptions.append({
            "cell": key,
            "cell_mode": cell_mode,
            "feasible": ledger.feasible,
            "binding": ledger.binding,
            "checked": len(monitors),
            "violations": sum(
                not (mrow["w_separation_ok"] and mrow["wu_contraction_ok"]
                     and mrow["v_contraction_ok"] and mrow["wr_bound_ok"])
                for mrow in monitors
            ),
        })
    return log


def run_overparam_grid(cfg: ExperimentConfig) -> RunLog:
    """Reduced two-layer trajectories over (overparam) x (init proximity).

    One worker pool runs every (cell, seed) unit.  Each cell's first-seed
    unit measures the cell's constant ledger on the initial pair it runs
    and reports the cell's ledger block, detail table and assumption
    entry; in guaranteed mode a feasible ledger has that unit monitor the
    hypotheses, and an infeasible one downgrades the cell to free-run
    (trajectories still run, the marking lands in the ledger block and
    the row tags).  The runner merges the units' logs and tags each row
    with its cell, taking guaranteed from the cell's first-seed unit.
    Per-iteration mean and std across seeds mirror the row-norm panels.
    The c0 probe is timed as a phase; the ledgers and the trajectories
    are timed in each unit and summed over units.
    """
    g = cfg.grid
    t0 = time.perf_counter()
    w_star, _ = reduced_teacher(
        np.random.default_rng(g["teacher_seed"]), g["dim"],
        g["teacher_width"], g["outputs"],
    )
    c0_probe = quadratic_falloff_probe(
        w_star[:, 0], (0.05, 0.1, 0.2, 0.4),
        GausStream(dim=g["dim"], std=1.0, seed=_derive_seed(4)),
        g["probe_n"], n_directions=4, seed=0, tau=g["tau"],
    )
    c0_s = time.perf_counter() - t0
    units = [
        {"cell_index": ci, "seed": seed, "c0_hat": c0_probe.c0_hat,
         "tags": {"overparam": o, "p_w": p_w, "p_v": p_v}}
        for ci, (o, (p_w, p_v)) in enumerate(
            itertools.product(g["overparams"], g["cells"])
        )
        for seed in cfg.seeds
    ]
    logs = _parallel_map(_grid_unit, [(cfg, u) for u in units], cfg.workers)
    for unit, unit_log in zip(units, logs):
        # a cell's first-seed unit comes before the cell's other units
        if unit["seed"] == cfg.seeds[0]:
            cell_mode = unit_log.assumptions[0]["cell_mode"]
        tags = dict(unit["tags"], guaranteed=int(cell_mode == "guaranteed"))
        unit_log.rows = [dict(tags, **r) for r in unit_log.rows]
    log = _merged(logs)
    log.aggregates = _aggregate(
        log.rows, ("overparam", "p_w", "p_v", "iteration"), "meanstd",
    )
    log.timings["c0_probe"] = c0_s
    return log


_RUNNERS = {
    "verify_identity": lambda cfg: _pooled(cfg, _verify_unit, cfg.seeds),
    "train": run_training,
    "overparam_grid": run_overparam_grid,
    "ablate_size": run_training,
    "ablate_overparam": run_training,
    "ablate_finite": run_training,
    "lottery": run_lottery,
    "bn_audit": run_training,
    "psi_check": lambda cfg: _pooled(cfg, _psi_unit, cfg.seeds),
    "falloff_probe": lambda cfg: _pooled(cfg, _falloff_unit, cfg.seeds),
}


def _environment() -> dict:
    """Interpreter and numpy versions, the BLAS thread variables as this
    process sees them (None when unset) and the CPU count."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def _peak_rss_mb() -> dict:
    """Peak resident memory so far, in MB, of this process ("main") and
    of its largest waited-for child ("workers", None when there was none).

    Both are process-lifetime peaks: they include whatever ran before the
    experiment in the same process.
    """
    def mb(who):
        return round(resource.getrusage(who).ru_maxrss / 1024, 1)  # KB
    return {"main": mb(resource.RUSAGE_SELF),
            "workers": mb(resource.RUSAGE_CHILDREN) or None}


def run_experiment(cfg: ExperimentConfig) -> RunLog:
    """Dispatch a validated config to its runner and stamp the log with
    the config's identity, the runner's wall-clock time, the environment
    and the peak resident memory."""
    t0 = time.perf_counter()
    log = _RUNNERS[cfg.kind](cfg)
    log.wall_clock = time.perf_counter() - t0
    log.kind, log.config, log.config_hash = cfg.kind, cfg.raw, cfg.config_hash
    log.environment = _environment()
    log.peak_rss_mb = _peak_rss_mb()
    return log


# -------------------------------------------------------------- emission


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, rows: list[dict]) -> None:
    keys = list(dict.fromkeys(k for row in rows for k in row))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_fmt_cell(row.get(k)) for k in keys])


def _jsonable(v):
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        v = float(v)
        return v if math.isfinite(v) else repr(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    return v


def emit_reports(log: RunLog, out_dir, plots: bool = False) -> list[Path]:
    """Write summary.csv, per-table CSVs, meta.json, optional SVG plots.

    Emission is pure: the same log yields the same bytes, and summary
    rows carry the config hash so they can be traced back to meta.json.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    summary = [dict(config=log.config_hash, **row) for row in log.rows]
    path = out / "summary.csv"
    if summary:
        _write_csv(path, summary)
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerow(["config"])
    written.append(path)
    if log.aggregates:
        path = out / "aggregate.csv"
        _write_csv(path, log.aggregates)
        written.append(path)
    for name in sorted(log.tables):
        path = out / f"{name}.csv"
        _write_csv(path, log.tables[name])
        written.append(path)
    meta = {
        "kind": log.kind,
        "config_hash": log.config_hash,
        "config": log.config,
        "ledgers": log.ledgers,
        "assumptions": log.assumptions,
        "failed": log.failed,
        "row_count": len(log.rows),
        "wall_clock_s": round(log.wall_clock, 3),
        "environment": log.environment,
        "peak_rss_mb": log.peak_rss_mb,
    }
    if log.timings:
        meta["timings_s"] = {k: round(v, 3) for k, v in log.timings.items()}
    path = out / "meta.json"
    path.write_text(
        json.dumps(_jsonable(meta), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    written.append(path)
    if plots:
        for fname, svg in _plots(log):
            path = out / fname
            path.write_text(svg, encoding="utf-8")
            written.append(path)
    return written


# ----------------------------------------------------------------- plots


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

_TAG_KEYS = {
    "seed", "epoch", "iteration", "trial", "t", "point", "bin",
    "arch", "bn_mode", "factor", "samples", "arm", "overparam",
    "p_w", "p_v", "guaranteed", "diverged", "ok", "bias", "kept",
    "n_kept", "config", "student", "teacher",
}


def svg_line_plot(series: dict[str, tuple[list, list]], title: str,
                  xlabel: str, ylabel: str) -> str:
    """Minimal self-contained line chart; coordinates rounded to 0.01."""
    width, height = 720, 440
    ml, mr, mt, mb = 64, 156, 36, 46
    pts_x = [x for xs, _ in series.values() for x in xs
             if isinstance(x, (int, float)) and math.isfinite(x)]
    pts_y = [y for _, ys in series.values() for y in ys
             if isinstance(y, (int, float)) and math.isfinite(y)]
    x0, x1 = (min(pts_x), max(pts_x)) if pts_x else (0.0, 1.0)
    y0, y1 = (min(pts_y), max(pts_y)) if pts_y else (0.0, 1.0)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    sx = lambda x: ml + (x - x0) / (x1 - x0) * (width - ml - mr)
    sy = lambda y: height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)
    f = lambda v: f"{v:.2f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="22" font-family="sans-serif" font-size="14">'
        f'{title}</text>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
        f'y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        f'stroke="black"/>',
        f'<text x="{(ml + width - mr) // 2}" y="{height - 10}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle">'
        f'{xlabel}</text>',
        f'<text x="14" y="{(mt + height - mb) // 2}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {(mt + height - mb) // 2})">'
        f'{ylabel}</text>',
    ]
    for i in range(5):
        xv = x0 + i * (x1 - x0) / 4
        yv = y0 + i * (y1 - y0) / 4
        parts.append(
            f'<line x1="{f(sx(xv))}" y1="{height - mb}" x2="{f(sx(xv))}" '
            f'y2="{height - mb + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{f(sx(xv))}" y="{height - mb + 16}" '
            f'font-family="sans-serif" font-size="10" text-anchor="middle">'
            f'{xv:.4g}</text>'
        )
        parts.append(
            f'<line x1="{ml - 4}" y1="{f(sy(yv))}" x2="{ml}" '
            f'y2="{f(sy(yv))}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{f(sy(yv))}" font-family="sans-serif" '
            f'font-size="10" text-anchor="end">{yv:.4g}</text>'
        )
    for idx, (name, (xs, ys)) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(
            f"{f(sx(x))},{f(sy(y))}"
            for x, y in zip(xs, ys)
            if isinstance(y, (int, float)) and math.isfinite(y)
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = mt + 14 * (idx + 1)
        parts.append(
            f'<line x1="{width - mr + 8}" y1="{ly - 4}" '
            f'x2="{width - mr + 28}" y2="{ly - 4}" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - mr + 32}" y="{ly}" '
            f'font-family="sans-serif" font-size="10">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _series_key(row: dict, keys: list[str]) -> str:
    return ",".join(f"{k}={row[k]}" for k in keys if k in row)


def _plots(log: RunLog) -> list[tuple[str, str]]:
    plots: list[tuple[str, str]] = []
    if log.kind == "overparam_grid":
        for key, grp in _grouped(
            log.aggregates, ("overparam", "p_w", "p_v"),
        ):
            o, p_w, p_v = key
            xs = [r["iteration"] for r in grp]
            series = {}
            for metric in ("u_min_mean", "u_max_mean", "r_max_mean",
                           "r_mean_mean"):
                if any(metric in r for r in grp):
                    series[metric] = (xs, [r.get(metric) for r in grp])
            name = f"cell_{_cell_key(int(o), p_w, p_v)}.svg"
            plots.append((name, svg_line_plot(
                series, f"overparam {o}, p_w {p_w:g}, p_v {p_v:g}",
                "iteration", "fan-out row norm",
            )))
        return plots
    if not log.rows:
        return plots
    x_key = next(
        (k for k in ("epoch", "iteration", "trial") if k in log.rows[0]),
        None,
    )
    if x_key is None:
        return plots
    tag_keys = [
        k for k in log.rows[0]
        if k in _TAG_KEYS and k != x_key and k != "diverged"
    ]
    metrics = _numeric_keys(log.rows, _TAG_KEYS | {x_key})
    for metric in metrics:
        series: dict[str, tuple[list, list]] = {}
        for row in log.rows:
            if metric not in row:
                continue
            label = _series_key(row, tag_keys) or "all"
            xs, ys = series.setdefault(label, ([], []))
            xs.append(row[x_key])
            ys.append(row[metric])
        if len(series) > 16:
            series = dict(list(series.items())[:16])
        plots.append((f"{metric}.svg", svg_line_plot(
            series, f"{log.kind}: {metric}", x_key, metric,
        )))
    return plots
