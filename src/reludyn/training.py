"""Training runners: students trained on a teacher's soft targets (train,
the ablations, bn_audit) and the lottery study built on them."""

from __future__ import annotations

import math
import time

import numpy as np

from .config import ExperimentConfig
from .errors import (
    ConfigurationError,
    DegenerateBatchError,
    NumericError,
    PreconditionError,
)
from .metrics import bn_bias_audit, mean_rank, rho_bar, rho_matrix, v_row_norms
from .net import (
    Network,
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
    make_student,
    make_teacher,
    next_batch,
    teacher_labels,
)
from .units import RunLog, _aggregate, _pooled

# Role offsets keep the init, the training stream, and the evaluation
# stream statistically independent while still derived from one run seed.
TRAIN_STREAM_OFF = 10_000
VAL_STREAM_OFF = 20_000
REINIT_OFF = 30_000
RETRAIN_STREAM_OFF = 40_000

VAL_BATCH = 2048
DIVERGENCE_LOSS = 1e6


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
