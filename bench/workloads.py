"""The four benchmark workloads: CLI configs made from a seed, row counts
and the output checks that read the reports a run wrote.

Every workload is a fixed list of CLI invocations (one round).  Row
counts are computed from the config alone, never counted inside the
program, so a change to the program cannot move them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

VAL_BATCH = 2048  # validation rows per epoch checkpoint in train/lottery runs

GRID_ITERATIONS = 30
GRID_RECORD_EVERY = 10
GROWTH_EPOCHS = 4
LOTTERY_EPOCHS = 6
LOTTERY_SEEDS = 5
PSI_N = 4_000_000
FALLOFF_N = 1_000_000
VERIFY_TRIALS = 100


@dataclass(frozen=True)
class Invocation:
    """One CLI run: `reludyn <command> --config <config>`."""

    command: str
    config: dict
    rows: int  # input rows the config asks the program to process
    capture: str | None = None  # child-side check on captured calls


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list[Invocation]]
    # (invocations, output dirs of one round) -> failure messages
    check: Callable[[list[Invocation], list[Path]], list[str]]
    workers_check: bool = False  # rerun once with --workers 2 and compare


# ------------------------------------------------------------ report reading


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite(row: dict) -> bool:
    for val in row.values():
        if val in ("", None):
            continue
        try:
            if not math.isfinite(float(val)):
                return False
        except ValueError:
            continue  # tag columns such as the config hash
    return True


def _train_rows(seeds: int, epochs: int, batches: int, batch: int) -> int:
    return seeds * (epochs * batches * batch + (epochs + 1) * VAL_BATCH)


# -------------------------------------------------------------- grid-reduced


def build_grid(seed: int) -> list[Invocation]:
    grid = {
        "dim": 10, "teacher_width": 20, "outputs": 30, "teacher_seed": seed,
        "overparams": [2, 5, 10],
        "cells": [[10.0, 10.0], [10.0, 0.0], [0.0, 10.0], [0.0, 0.0]],
        "iterations": GRID_ITERATIONS, "n_mc": 1024, "eta": 0.05,
        "record_every": GRID_RECORD_EVERY, "monitor_every": GRID_ITERATIONS,
        "probe_n": 20000,
    }
    units = len(grid["overparams"]) * len(grid["cells"])
    # per unit: n_mc rows per step; per cell ledger: one moment batch and
    # two geodesic slope batches; once: the c0 fall-off probe batch
    rows = (units * grid["iterations"] * grid["n_mc"]
            + units * 3 * grid["probe_n"] + grid["probe_n"])
    cfg = {"kind": "overparam_grid", "seeds": [seed], "grid": grid}
    return [Invocation("overparam-grid", cfg, rows, capture="moments")]


def check_grid(invs: list[Invocation], outs: list[Path]) -> list[str]:
    grid = invs[0].config["grid"]
    rows = read_csv(outs[0] / "summary.csv")
    units = len(grid["overparams"]) * len(grid["cells"])
    want = units * (grid["iterations"] // grid["record_every"] + 1)
    fails = []
    if len(rows) != want:
        fails.append(f"grid: {len(rows)} summary rows, expected {want}")
    if any(r["diverged"] != "0" for r in rows):
        fails.append("grid: a unit diverged")
    if not all(_finite(r) for r in rows):
        fails.append("grid: non-finite summary value")
    return fails


# ----------------------------------------------------------------- growth-bn


def build_growth(seed: int) -> list[Invocation]:
    base = {
        "kind": "train", "seeds": [seed], "epochs": GROWTH_EPOCHS,
        "batches_per_epoch": 100, "batch_size": 128, "eta": 0.01,
        "teacher": {"layer_widths": [20, 10, 15, 20, 25], "seed": seed},
        "student": {"overparam_factor": 10, "bn_mode": "linear_bn_relu"},
    }
    rows = _train_rows(1, GROWTH_EPOCHS, 100, 128)
    infinite = dict(base, stream={"std": 10.0})
    finite = dict(base, stream={"std": 10.0, "mode": "finite",
                                "n_samples": 512})
    return [Invocation("train", infinite, rows, capture="bn_step"),
            Invocation("train", finite, rows, capture="bn_step")]


def check_growth(invs: list[Invocation], outs: list[Path]) -> list[str]:
    fails = []
    for inv, out in zip(invs, outs):
        mode = inv.config["stream"].get("mode", "infinite")
        rows = read_csv(out / "summary.csv")
        if len(rows) != inv.config["epochs"] + 1:
            fails.append(f"growth {mode}: {len(rows)} epoch rows")
            continue
        if any(r["diverged"] != "0" for r in rows):
            fails.append(f"growth {mode}: diverged")
        if not all(_finite(r) for r in rows):
            fails.append(f"growth {mode}: non-finite summary value")
        first, last = float(rows[0]["loss"]), float(rows[-1]["loss"])
        if not last < first:
            fails.append(f"growth {mode}: validation loss {first:.4g} -> "
                         f"{last:.4g} did not fall")
    return fails


# ------------------------------------------------------------- lottery-plain


def build_lottery(seed: int) -> list[Invocation]:
    seeds = [LOTTERY_SEEDS * seed + i for i in range(LOTTERY_SEEDS)]
    cfg = {
        "kind": "lottery", "seeds": seeds, "epochs": LOTTERY_EPOCHS,
        "batches_per_epoch": 100, "batch_size": 128, "eta": 0.001,
        "teacher": {"layer_widths": [10, 8, 5], "seed": seed},
        "student": {"overparam_factor": 10, "bn_mode": "none"},
        "stream": {"std": 10.0},
        "lottery": {"retrain_epochs": LOTTERY_EPOCHS},
    }
    # one base training and three retrained arms per seed
    rows = 4 * _train_rows(len(seeds), LOTTERY_EPOCHS, 100, 128)
    return [Invocation("lottery", cfg, rows)]


def check_lottery(invs: list[Invocation], outs: list[Path]) -> list[str]:
    seeds = invs[0].config["seeds"]
    final = {(int(r["seed"]), r["arm"]): float(r["final_loss"])
             for r in read_csv(outs[0] / "arms.csv")}
    need = len(seeds) - 1
    try:
        beats = sum(final[(s, "winners_reset")] < final[(s, "winners_reinit")]
                    for s in seeds)
        near = sum(final[(s, "winners_reset")] <= 1.5 * final[(s, "baseline")]
                   for s in seeds)
    except KeyError as exc:
        return [f"lottery: arms.csv lacks {exc}"]
    fails = []
    if beats < need:
        fails.append(f"lottery: reset < reinit on {beats}/{len(seeds)} seeds")
    if near < need:
        fails.append(f"lottery: reset <= 1.5x baseline on {near}/{len(seeds)}")
    return fails


# ------------------------------------------------------------ probes-large-n


def build_probes(seed: int) -> list[Invocation]:
    psi = {"kind": "psi_check", "seeds": [seed], "psi": {"n": PSI_N}}
    n_estimates = 3 + 1  # default angles plus the self-overlap
    falloff = {"kind": "falloff_probe", "seeds": [seed],
               "falloff": {"dim": 20, "n": FALLOFF_N}}
    verify = {"kind": "verify_identity", "seeds": [seed],
              "verify": {"n_trials": VERIFY_TRIALS, "tol": 1e-10}}
    # verify-identity draws its tiny batch sizes inside the program, so its
    # rows (at most 24 per trial) are left out of the count
    return [Invocation("psi-check", psi, n_estimates * PSI_N),
            Invocation("falloff", falloff, FALLOFF_N),
            Invocation("verify-identity", verify, 0)]


def check_probes(invs: list[Invocation], outs: list[Path]) -> list[str]:
    fails = []
    for r in read_csv(outs[0] / "summary.csv"):
        angle = float(r["angle"])
        closed = (math.pi - angle) / (2.0 * math.pi)
        val, err = float(r["psi_d"]), float(r["stderr"])
        if not abs(val - closed) <= 4.0 * err:
            fails.append(f"psi_d at angle {angle:.4f}: {val:.6f} vs closed "
                         f"form {closed:.6f}, stderr {err:.2e}")
    for r in read_csv(outs[1] / "summary.csv"):
        if not 1.7 <= float(r["exponent"]) <= 2.3:
            fails.append(f"falloff exponent {r['exponent']} not in [1.7, 2.3]")
    tol = invs[2].config["verify"]["tol"]
    rows = read_csv(outs[2] / "summary.csv")
    if len(rows) != invs[2].config["verify"]["n_trials"]:
        fails.append(f"verify-identity: {len(rows)} trial rows")
    for r in rows:
        if not float(r["residual"]) < tol:
            fails.append(f"verify-identity trial {r['trial']}: residual "
                         f"{r['residual']} >= {tol}")
    return fails


# why each workload exists is in BENCHMARK.json and bench/README.md
WORKLOADS = {
    w.name: w for w in (
        Workload("grid-reduced", build_grid, check_grid, workers_check=True),
        Workload("growth-bn", build_growth, check_growth),
        Workload("lottery-plain", build_lottery, check_lottery),
        Workload("probes-large-n", build_probes, check_probes),
    )
}
