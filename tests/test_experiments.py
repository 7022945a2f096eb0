"""Runner, config, and report-emission behavior."""

import copy
import dataclasses
import functools
import json
import math
import os
import platform
import tracemalloc

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reludyn import experiments
from reludyn.dynamics import mixed_two_layer_init, reduced_teacher
from reludyn.errors import ConfigurationError, DegenerateBatchError
from reludyn.experiments import (
    BLAS_THREAD_VARS,
    DIVERGENCE_NORM,
    VAL_BATCH,
    RunLog,
    _grid_unit,
    _measure_cell_ledger,
    _parallel_map,
    _validator,
    config_hash,
    emit_reports,
    make_config,
    run_experiment,
)
from reludyn.net import backward, build_network, forward, sgd_step
from reludyn.teachers import StudentInit, TeacherSpec, make_student, make_teacher


def tiny_train(**over):
    data = {
        "kind": "train",
        "seeds": [0, 1],
        "epochs": 2,
        "batches_per_epoch": 4,
        "batch_size": 16,
        "eta": 0.005,
        "teacher": {"layer_widths": [4, 3, 2], "seed": 3},
        "student": {"overparam_factor": 2},
        "stream": {"std": 1.0},
    }
    data.update(over)
    return make_config(data)


def tiny_grid(**over):
    grid = {
        "dim": 5, "teacher_width": 4, "outputs": 3, "teacher_seed": 7,
        "overparams": [2], "cells": [[10.0, 10.0]],
        "iterations": 30, "n_mc": 256, "eta": 0.05,
        "record_every": 10, "monitor_every": 10, "probe_n": 4096,
    }
    grid.update(over.pop("grid", {}))
    data = {"kind": "overparam_grid", "seeds": [0, 1], "grid": grid}
    data.update(over)
    return make_config(data)


# ----------------------------------------------------------------- config


def test_config_defaults_filled():
    cfg = make_config({"kind": "train"})
    assert cfg.eta == 0.01
    assert cfg.batch_size == 128
    assert cfg.batches_per_epoch == 100
    assert cfg.epochs == 100
    assert cfg.seeds == (0,)
    assert cfg.teacher["layer_widths"] == [20, 10, 15, 20, 25]
    assert cfg.mode == "free-run"


def test_config_schema_is_valid_under_its_metaschema():
    schema = _validator().schema
    jsonschema.validators.validator_for(schema).check_schema(schema)


# make_config({"kind": k}).config_hash from when the defaults lived in a
# Python dict: a default retyped in the schema (0 for 0.0) moves a hash
PINNED_DEFAULT_HASHES = {
    "verify_identity": "51f784b34fea6a5a",
    "train": "d9b01a254da76338",
    "overparam_grid": "c19eade567226b39",
    "ablate_size": "f8270ab8fcd059fa",
    "ablate_overparam": "6b2437813232ea7d",
    "ablate_finite": "7dd92bcaf308a478",
    "lottery": "7bf7913b1423953a",
    "bn_audit": "31fd7e168eca3a02",
    "psi_check": "8790b042c7a26b6b",
    "falloff_probe": "d10f64615b8d4061",
}


def schema_leaves(node, path=()):
    for key, prop in node["properties"].items():
        if "properties" in prop:
            yield from schema_leaves(prop, path + (key,))
        else:
            yield path + (key,), prop


def test_schema_holds_every_default_and_keeps_the_hashes():
    validator = _validator()
    leaves = dict(schema_leaves(validator.schema))
    assert len(leaves) == 45
    for path, prop in leaves.items():
        if path == ("kind",):
            assert "default" not in prop
            continue
        assert "default" in prop, path
        assert type(validator)(prop).is_valid(prop["default"]), path
    kinds = validator.schema["properties"]["kind"]["enum"]
    assert {k: make_config({"kind": k}).config_hash for k in kinds} == (
        PINNED_DEFAULT_HASHES
    )


def test_config_sections_are_typed_and_raw_is_as_written():
    cfg = make_config({
        "kind": "ablate_size", "seeds": [3.0], "epochs": 2.0, "eta": 1,
        "student": {"overparam_factor": 2.0, "p_w": 1},
        "ablate": {"archs": [[4.0, 3, 2.0]]},
        "grid": {"cells": [[1, 0]], "probe_n": 100.0},
    })
    assert cfg.seeds == (3,) and type(cfg.seeds[0]) is int
    assert type(cfg.epochs) is int and type(cfg.eta) is float
    assert type(cfg.student["overparam_factor"]) is int
    assert type(cfg.student["p_w"]) is float
    assert all(type(w) is int for w in cfg.ablate["archs"][0])
    assert all(type(p) is float for p in cfg.grid["cells"][0])
    assert type(cfg.grid["probe_n"]) is int
    assert cfg.raw["epochs"] == 2.0 and type(cfg.raw["epochs"]) is float
    assert cfg.raw["ablate"]["archs"] == [[4.0, 3, 2.0]]
    assert cfg.config_hash == config_hash(cfg.raw)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_make_config_rejects_non_finite_numbers(bad):
    with pytest.raises(ConfigurationError, match="eta must be finite"):
        make_config({"kind": "train", "eta": bad})
    with pytest.raises(ConfigurationError,
                       match=r"grid\.cells\[1\]\[0\] must be finite"):
        make_config({"kind": "overparam_grid",
                     "grid": {"cells": [[1.0, 0.0], [bad, 0.0]]}})


def test_config_hash_ignores_key_order():
    a = make_config({"kind": "train", "seeds": [1, 2], "eta": 0.02})
    b = make_config({"eta": 0.02, "seeds": [1, 2], "kind": "train"})
    assert a.config_hash == b.config_hash
    c = make_config({"kind": "train", "seeds": [1, 3], "eta": 0.02})
    assert c.config_hash != a.config_hash


def test_config_hash_is_pure_function():
    data = {"kind": "train", "seeds": [5]}
    assert config_hash(data) == config_hash(dict(data))


JSON_LEAVES = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
               | st.floats(allow_nan=False, allow_infinity=False)
               | st.text(max_size=6))
JSON_CONFIGS = st.dictionaries(st.text(max_size=8), st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=20,
), max_size=6)


def reordered(value):
    """value with the keys of every dict in it, at any depth, reversed."""
    if isinstance(value, dict):
        return {k: reordered(value[k]) for k in reversed(list(value))}
    if isinstance(value, list):
        return [reordered(v) for v in value]
    return value


def leaf_paths(value, path=()):
    """Key and index paths to every non-container value under value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        yield path
        return
    for key, v in items:
        yield from leaf_paths(v, path + (key,))


def with_leaf(value, path, leaf):
    """A copy of value with the leaf at path replaced."""
    if not path:
        return leaf
    out = copy.copy(value)
    out[path[0]] = with_leaf(value[path[0]], path[1:], leaf)
    return out


@settings(max_examples=200, deadline=None)
@given(data=JSON_CONFIGS)
def test_config_hash_ignores_key_order_at_every_depth_and_never_mutates(data):
    text = json.dumps(data)
    assert config_hash(reordered(data)) == config_hash(data)
    # key order and values alike: the input reads back as it was written
    assert json.dumps(data) == text


@settings(max_examples=100, deadline=None)
@given(data=JSON_CONFIGS, workers=JSON_LEAVES)
def test_config_hash_ignores_workers(data, workers):
    rest = {k: v for k, v in data.items() if k != "workers"}
    assert config_hash(dict(data, workers=workers)) == config_hash(rest)


@settings(max_examples=200, deadline=None)
@given(data=JSON_CONFIGS, draw=st.data())
def test_config_hash_changes_with_any_other_leaf(data, draw):
    paths = [p for p in leaf_paths(data) if p[0] != "workers"]
    assume(paths)
    path = draw.draw(st.sampled_from(paths))
    old = json.dumps(functools.reduce(lambda v, k: v[k], path, data))
    leaf = draw.draw(JSON_LEAVES.filter(lambda v: json.dumps(v) != old))
    assert config_hash(with_leaf(data, path, leaf)) != config_hash(data)


def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigurationError):
        make_config({"kind": "warp"})


def test_config_rejects_unknown_field():
    with pytest.raises(ConfigurationError):
        make_config({"kind": "train", "bogus": 1})


def test_config_rejects_nonpositive_eta():
    with pytest.raises(ConfigurationError):
        make_config({"kind": "train", "eta": 0})


def test_config_rejects_empty_seeds():
    with pytest.raises(ConfigurationError):
        make_config({"kind": "train", "seeds": []})


def test_lottery_config_rejects_bn():
    with pytest.raises(ConfigurationError):
        make_config({
            "kind": "lottery",
            "student": {"bn_mode": "linear_relu_bn"},
        })


def test_bn_audit_defaults_to_bn_student():
    cfg = make_config({"kind": "bn_audit"})
    assert cfg.student["bn_mode"] == "linear_relu_bn"


# ------------------------------------------------------------------ train


def test_train_zero_epochs_is_baseline_only():
    log = run_experiment(tiny_train(epochs=0))
    assert len(log.rows) == 2
    assert all(r["epoch"] == 0 for r in log.rows)
    assert {r["seed"] for r in log.rows} == {0, 1}
    assert all("r_bar_l0" not in r for r in log.rows)
    assert len(log.aggregates) == 1
    assert log.aggregates[0]["n_seeds"] == 2


def test_train_rows_have_all_metric_families():
    log = run_experiment(tiny_train())
    assert len(log.rows) == 6
    row = log.rows[-1]
    for key in ("seed", "epoch", "loss", "diverged", "rho_bar_l0",
                "v_l0_min", "v_l0_max", "v_l0_mean", "r_bar_l0"):
        assert key in row
    assert all(math.isfinite(r["loss"]) and r["loss"] > 0 for r in log.rows)


def test_train_loss_decreases_on_easy_problem():
    cfg = tiny_train(seeds=[0], epochs=4, batches_per_epoch=25, eta=0.01)
    log = run_experiment(cfg)
    losses = [r["loss"] for r in log.rows]
    assert losses[-1] < losses[0]


def test_train_divergence_marks_and_stops():
    cfg = tiny_train(seeds=[0], epochs=3, batches_per_epoch=25, eta=80.0)
    log = run_experiment(cfg)
    assert log.rows[-1]["diverged"] == 1
    assert len(log.rows) < 4
    assert log.assumptions == [{"seed": 0, "diverged": True}]


def test_train_reruns_are_identical(tmp_path):
    log_a = run_experiment(tiny_train())
    log_b = run_experiment(tiny_train())
    emit_reports(log_a, tmp_path / "a")
    emit_reports(log_b, tmp_path / "b")
    emit_reports(log_b, tmp_path / "b")  # idempotent re-emission
    bytes_a = (tmp_path / "a" / "summary.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "summary.csv").read_bytes()
    assert bytes_a == bytes_b
    agg_a = (tmp_path / "a" / "aggregate.csv").read_bytes()
    agg_b = (tmp_path / "b" / "aggregate.csv").read_bytes()
    assert agg_a == agg_b


def pooled_config(kind: str, workers: int):
    """A two-seed config of each kind whose units go through the pool."""
    if kind == "overparam_grid":
        # a feasible single-filter cell, so monitors and slacks run too
        return tiny_grid(workers=workers, mode="guaranteed", grid={
            "dim": 10, "teacher_width": 1, "overparams": [1, 2],
            "iterations": 6, "record_every": 2, "monitor_every": 1,
            "tau": 0.3, "probe_n": 2000,
        })
    data = {
        "kind": kind, "seeds": [0, 1], "epochs": 1, "batches_per_epoch": 3,
        "batch_size": 16, "eta": 0.005, "workers": workers,
        "teacher": {"layer_widths": [4, 3, 2], "seed": 3},
        "student": {"overparam_factor": 2}, "stream": {"std": 1.0},
    }
    data.update({
        "ablate_size": {"ablate": {"archs": [[4, 3, 2], [4, 5, 2]],
                                   "bn_modes": ["none", "linear_relu_bn"]}},
        "ablate_overparam": {"ablate": {"factors": [1, 2]}},
        "ablate_finite": {"ablate": {"finite_sizes": [32]}},
        "lottery": {"lottery": {"retrain_epochs": 1}},
        "verify_identity": {"verify": {"n_trials": 3}},
        "psi_check": {"psi": {"n": 2000}},
        "falloff_probe": {"falloff": {"dim": 6, "scales": [0.1, 0.2, 0.3],
                                      "n": 20000, "n_directions": 2}},
    }.get(kind, {}))
    return make_config(data)


@pytest.mark.parametrize(
    "kind", _validator().schema["properties"]["kind"]["enum"],
)
def test_parallel_matches_serial(kind):
    logs = []
    for workers in (1, 2):
        log = run_experiment(pooled_config(kind, workers))
        config = {k: v for k, v in log.config.items() if k != "workers"}
        logs.append(dataclasses.replace(log, wall_clock=0.0, timings={},
                                        peak_rss_mb={}, config=config))
    serial, pooled = logs
    assert serial == pooled
    assert serial.rows
    if kind.startswith("ablate_"):
        assert all(set(a) == {"seed", "tags", "diverged"}
                   for a in serial.assumptions)
        tag_keys = list(serial.assumptions[0]["tags"])
        assert tag_keys
        assert {tuple(a["tags"].values()) for a in serial.assumptions} == {
            tuple(r[k] for k in tag_keys) for r in serial.rows
        }
    elif kind in ("train", "bn_audit"):
        assert serial.assumptions == [
            {"seed": 0, "diverged": False}, {"seed": 1, "diverged": False},
        ]
    elif kind == "overparam_grid":
        assert serial.tables["monitors"]
    else:
        assert {r["seed"] for r in serial.rows} == {0, 1}


def test_merged_joins_unit_logs_in_unit_order():
    first = RunLog(
        rows=[{"seed": 0}], tables={"t": [{"x": 1}], "empty": []},
        ledgers={"a": {"k": 1}}, assumptions=[{"seed": 0}],
        timings={"units": 1.5, "ledgers": 0.25},
    )
    second = RunLog(
        rows=[{"seed": 1}, {"seed": 2}], tables={"t": [{"x": 2}]},
        ledgers={"b": {"k": 2}}, assumptions=[{"seed": 1}],
        timings={"units": 2.0},
    )
    log = experiments._merged([first, second])
    assert log.rows == [{"seed": 0}, {"seed": 1}, {"seed": 2}]
    assert log.tables == {"t": [{"x": 1}, {"x": 2}], "empty": []}
    assert log.ledgers == {"a": {"k": 1}, "b": {"k": 2}}
    assert log.assumptions == [{"seed": 0}, {"seed": 1}]
    assert log.timings == {"units": 3.5, "ledgers": 0.25}
    assert log.aggregates == [] and not log.failed
    # the units' own logs are left as they were
    assert first.rows == [{"seed": 0}] and first.tables["t"] == [{"x": 1}]


def recording_pool(monkeypatch) -> list[int]:
    """Swap the worker pool for a stand-in that records the size of each
    pool opened and maps in this process; returns the list of sizes."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 8)
    return sizes


def test_parallel_map_caps_the_pool(monkeypatch):
    """The pool starts one process per payload and per CPU at most."""
    sizes = recording_pool(monkeypatch)
    assert _parallel_map(abs, [-1, -2, -3], 64) == [1, 2, 3]
    assert _parallel_map(abs, list(range(-20, 0)), 64) == list(range(20, 0, -1))
    assert _parallel_map(abs, list(range(-20, 0)), 4) == list(range(20, 0, -1))
    assert sizes == [3, 8, 4]
    # a single payload, a single worker or an unknown CPU count: no pool
    assert _parallel_map(abs, [-1], 64) == [1]
    assert _parallel_map(abs, [-1, -2], 1) == [1, 2]
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    assert _parallel_map(abs, [-1, -2], 64) == [1, 2]
    assert sizes == [3, 8, 4]


# -------------------------------------------------------------- ablations


def test_ablate_size_covers_arch_bn_product():
    cfg = make_config({
        "kind": "ablate_size", "seeds": [0, 1], "epochs": 1,
        "batches_per_epoch": 3, "batch_size": 16, "eta": 0.005,
        "stream": {"std": 1.0},
        "student": {"overparam_factor": 2},
        "ablate": {"archs": [[4, 3, 2], [4, 5, 2]], "bn_modes": ["none"]},
    })
    log = run_experiment(cfg)
    assert {r["arch"] for r in log.rows} == {"4-3-2", "4-5-2"}
    assert all(r["bn_mode"] == "none" for r in log.rows)
    assert {"arch", "bn_mode", "epoch"} <= set(log.aggregates[0])
    assert "loss_min" in log.aggregates[0]


def test_ablate_overparam_varies_teacher_and_reports_bands():
    cfg = make_config({
        "kind": "ablate_overparam", "seeds": [0, 1], "epochs": 0,
        "batches_per_epoch": 2, "batch_size": 16, "eta": 0.005,
        "teacher": {"layer_widths": [4, 3, 2], "seed": 3},
        "stream": {"std": 1.0},
        "student": {"overparam_factor": 1},
        "ablate": {"factors": [1, 2]},
    })
    log = run_experiment(cfg)
    assert {r["factor"] for r in log.rows} == {1, 2}
    assert "loss_mean" in log.aggregates[0]
    assert "loss_std" in log.aggregates[0]
    # different seeds draw different teachers, so baselines differ
    at_f1 = [r["loss"] for r in log.rows if r["factor"] == 1]
    assert at_f1[0] != at_f1[1]


def test_ablate_finite_includes_infinite_reference():
    cfg = make_config({
        "kind": "ablate_finite", "seeds": [0], "epochs": 1,
        "batches_per_epoch": 3, "batch_size": 16, "eta": 0.005,
        "teacher": {"layer_widths": [4, 3, 2], "seed": 3},
        "stream": {"std": 1.0},
        "student": {"overparam_factor": 2},
        "ablate": {"finite_sizes": [64]},
    })
    log = run_experiment(cfg)
    assert {r["samples"] for r in log.rows} == {0, 64}


# ---------------------------------------------------------------- lottery


def lottery_config(factor):
    return make_config({
        "kind": "lottery", "seeds": [0], "epochs": 1,
        "batches_per_epoch": 5, "batch_size": 16, "eta": 0.005,
        "teacher": {"layer_widths": [4, 3, 2], "seed": 3},
        "student": {"overparam_factor": factor},
        "stream": {"std": 1.0},
        "lottery": {"retrain_epochs": 1},
    })


def test_lottery_no_pruning_reset_equals_baseline():
    log = run_experiment(lottery_config(1))
    reset = [dict(r) for r in log.rows if r["arm"] == "winners_reset"]
    base = [dict(r) for r in log.rows if r["arm"] == "baseline"]
    for r in reset + base:
        r.pop("arm")
    assert reset == base


def test_lottery_arms_and_winner_accounting():
    log = run_experiment(lottery_config(2))
    arms = log.tables["arms"]
    assert [a["arm"] for a in arms] == [
        "winners_reset", "winners_reinit", "baseline",
    ]
    for a in arms:
        assert a["n_winners_l0"] == 3  # one distinct winner per teacher node
        assert a["n_contested_l0"] >= 0
        assert math.isfinite(a["final_loss"])
    assert {r["arm"] for r in log.rows} == {
        "base", "winners_reset", "winners_reinit", "baseline",
    }


def _scaled(net, factor):
    return dataclasses.replace(
        net, weights=tuple(w * factor for w in net.weights))


@pytest.mark.parametrize("stream", [
    {"std": 1.0},
    {"std": 1.0, "mode": "finite", "n_samples": 40},
])
def test_lockstep_students_match_runs_of_their_own(stream):
    """Students stepped in lockstep on one stream end exactly as each
    would alone: rows with r_bar, final rho, diverged flag, parameters.
    Scaled weights make students diverge at epoch 0 (x100), by a
    numeric failure mid-epoch (x30) and at the loss cutoff (x10)."""
    cfg = tiny_train(seeds=[0], epochs=3, batches_per_epoch=6, eta=0.05,
                     stream=stream)
    unit = experiments._training_units(cfg)[0]
    teacher = make_teacher(TeacherSpec(**unit["teacher"]))
    a, b = (experiments._student(teacher, unit, s) for s in (5, 6))
    groups = ([a], [_scaled(a, 30.0), b], [a, _scaled(b, 10.0), b],
              [_scaled(a, 100.0), b, _scaled(b, 30.0)])
    seen = set()
    for students in groups:
        together = experiments._run_training(teacher, students, cfg, unit,
                                             3, 11)
        assert len(together) == len(students)
        for net, joint in zip(students, together):
            [alone] = experiments._run_training(teacher, [net], cfg, unit,
                                                3, 11)
            rows, trained, finals, diverged = joint
            assert repr(rows) == repr(alone[0])
            assert any("r_bar_l0" in r for r in rows) == (len(rows) > 1)
            assert diverged == alone[3]
            seen.add((diverged, len(rows)))
            for cm, cm_alone in zip(finals, alone[2]):
                assert cm.rho.tobytes() == cm_alone.rho.tobytes()
            params = [p for group in (trained.weights, trained.biases)
                      for p in group if p is not None]
            params_alone = [p for group in (alone[1].weights, alone[1].biases)
                            for p in group if p is not None]
            assert [p.tobytes() for p in params] == [
                p.tobytes() for p in params_alone]
    # every divergence path above was taken
    assert {(False, 4), (True, 1), (True, 2)} <= seen


# --------------------------------------------------------------- bn audit


def tiny_bn_audit(**over):
    data = {
        "kind": "bn_audit", "seeds": [0], "epochs": 1,
        "batches_per_epoch": 5, "batch_size": 32, "eta": 0.005,
        "teacher": {"layer_widths": [5, 4, 3], "seed": 2},
        "student": {"overparam_factor": 2},
        "stream": {"std": 1.0},
    }
    data.update(over)
    return make_config(data)


def test_bn_audit_tables_cover_hidden_layers():
    log = run_experiment(tiny_bn_audit())
    bias = log.tables["bn_bias"]
    assert [b["layer"] for b in bias] == [0]
    assert bias[0]["n_negative"] + bias[0]["n_positive"] == 8
    hist = log.tables["bn_bias_hist"]
    assert len(hist) == 20
    assert sum(h["count"] for h in hist) == 8
    assert log.assumptions == [{"seed": 0, "diverged": False}]


def test_bn_audit_parallel_matches_serial():
    # the trained students cross the process pool before the audit
    serial = run_experiment(tiny_bn_audit(seeds=[0, 1], workers=1))
    pooled = run_experiment(tiny_bn_audit(seeds=[0, 1], workers=2))
    assert serial.rows == pooled.rows
    assert serial.aggregates == pooled.aggregates
    assert serial.assumptions == pooled.assumptions
    for name in ("bn_bias", "bn_bias_hist"):
        assert serial.tables[name] == pooled.tables[name]
    assert {b["seed"] for b in serial.tables["bn_bias"]} == {0, 1}


def test_bn_audit_without_bn_writes_empty_tables(tmp_path):
    log = run_experiment(tiny_bn_audit(
        seeds=[0, 1], student={"overparam_factor": 2, "bn_mode": "none"},
    ))
    assert log.tables == {"bn_bias": [], "bn_bias_hist": []}
    emit_reports(log, tmp_path)
    for name in ("bn_bias", "bn_bias_hist"):
        assert (tmp_path / f"{name}.csv").read_text() == "\n"


def test_backward_calls_keep_the_bn_step_contract(monkeypatch):
    """What bench/child.py's check_bn_step reads from a captured step.

    It wraps backward, keeps the first call's (network, trace, target)
    and result, lets the run finish, then reads trace.bn[i].f_in,
    trace.x, grads.node and grads.weights and evaluates
    dataclasses.replace(network, weights=...) with forward.  Checked in
    every bn_mode; sgd_step must also leave the gradients it reads as
    they were.
    """
    captured = []

    def capture(*args, **kwargs):
        assert not kwargs  # called positionally
        grads = backward(*args, **kwargs)
        if not captured:
            network, trace, target = args
            frozen = [np.array(a) for a in _step_arrays(network, trace, grads)]
            captured.append((args, grads, frozen, np.array(target)))
        return grads

    def step_reading_only(network, grads, eta):
        before = [np.array(a) for a in _step_arrays(network, None, grads)]
        moved = sgd_step(network, grads, eta)
        after = _step_arrays(network, None, grads)
        assert all(np.array_equal(a, b) for a, b in zip(after, before))
        return moved

    monkeypatch.setattr(experiments, "backward", capture)
    monkeypatch.setattr(experiments, "sgd_step", step_reading_only)
    for bn_mode in ("none", "linear_relu_bn", "linear_bn_relu"):
        captured.clear()
        run_experiment(tiny_train(
            seeds=[0], student={"overparam_factor": 2, "bn_mode": bn_mode},
        ))
        (network, trace, target), grads, frozen, target0 = captured[0]
        # no captured array moved while the run went on
        after = _step_arrays(network, trace, grads)
        assert len(after) == len(frozen)
        for a, b in zip(after, frozen):
            assert np.array_equal(a, b)
        assert np.array_equal(target, target0)
        assert len(grads.node) == len(grads.weights) == network.n_layers
        sites = [site for site in trace.bn if site is not None]
        assert len(sites) == (0 if bn_mode == "none" else network.n_layers - 1)
        for hi, site in enumerate(trace.bn[:-1]):
            if site is not None:
                assert site.f_in.shape == grads.node[hi].shape
        ws = list(network.weights)
        ws[0] = ws[0] * 1.5
        moved = dataclasses.replace(network, weights=tuple(ws))
        rebuilt = build_network(network.spec, ws, list(network.biases),
                                list(network.bn_c0), list(network.bn_c1))
        out = forward(moved, trace.x).outputs
        assert np.array_equal(out, forward(rebuilt, trace.x).outputs)
        assert not np.array_equal(out, forward(network, trace.x).outputs)


def _step_arrays(network, trace, grads) -> list:
    params = [*network.weights, *network.biases, *network.bn_c0, *network.bn_c1]
    sites, traced = [], []
    if trace is not None:
        sites = [a for site in trace.bn if site is not None
                 for a in (site.f_in, site.mu, site.sigma, site.f_tilde,
                           site.c0)]
        traced = [trace.x, *trace.pre, *trace.gate, *trace.act, *trace.out]
    grad = [*grads.node, *grads.weights, *grads.biases, *grads.bn_c0,
            *grads.bn_c1]
    return [a for a in params + sites + traced + grad if a is not None]


# --------------------------------------------------------- check runners


def test_verify_identity_passes_and_reports():
    cfg = make_config({
        "kind": "verify_identity", "seeds": [0],
        "verify": {"n_trials": 6, "tol": 1e-10},
    })
    log = run_experiment(cfg)
    assert not log.failed
    assert len(log.rows) == 6
    assert all(r["ok"] == 1 for r in log.rows)
    assert all(r["residual"] < 1e-10 for r in log.rows)


def test_verify_identity_runs_every_seed():
    def rows(seeds):
        return run_experiment(make_config({
            "kind": "verify_identity", "seeds": seeds,
            "verify": {"n_trials": 4},
        })).rows

    both = rows([0, 1])
    assert len(both) == 2 * 4
    assert both[:4] == rows([0])
    assert both[4:] == rows([1])


def test_verify_identity_fails_at_absurd_tolerance():
    cfg = make_config({
        "kind": "verify_identity", "seeds": [0],
        "verify": {"n_trials": 3, "tol": 1e-300},
    })
    log = run_experiment(cfg)
    assert log.failed


def test_psi_check_matches_closed_form():
    cfg = make_config({
        "kind": "psi_check", "seeds": [0, 1],
        "psi": {"angles": [1.5707963267948966], "n": 20000},
    })
    log = run_experiment(cfg)
    assert not log.failed
    quarter = [r for r in log.rows if r["trial"] == 0]
    assert all(abs(r["closed_form"] - 0.25) < 1e-12 for r in quarter)
    self_rows = [r for r in log.rows if r["trial"] == -1]
    assert all(r["closed_form"] == 0.5 for r in self_rows)


def test_falloff_probe_reports_quadratic_exponent():
    cfg = make_config({
        "kind": "falloff_probe", "seeds": [0],
        "falloff": {"dim": 6, "scales": [0.1, 0.2, 0.3], "n": 20000,
                    "n_directions": 2},
    })
    log = run_experiment(cfg)
    assert 1.5 < log.rows[0]["exponent"] < 2.5
    assert log.rows[0]["n_kept"] >= 2
    assert len(log.tables["points"]) == 6


# ------------------------------------------------------------------- grid


def test_grid_records_trajectories_and_ledger():
    log = run_experiment(tiny_grid())
    assert {r["iteration"] for r in log.rows} == {0, 10, 20, 30}
    assert {r["seed"] for r in log.rows} == {0, 1}
    (key,) = log.ledgers
    assert key == "x2_pw10_pv10"
    entry = log.ledgers[key]
    assert set(entry) == {"inputs", "ledger", "cell_mode"}
    assert entry["inputs"]["m"] == 4
    assert entry["inputs"]["n"] == 8
    assert "feasible" in entry["ledger"]
    agg = log.aggregates[0]
    assert "u_min_mean" in agg and "u_min_std" in agg
    assert agg["n_seeds"] == 2
    detail = log.tables["detail_x2_pw10_pv10"]
    assert detail[0]["t"] == 0
    assert "sin_0" in detail[0] and "v_7" in detail[0]
    assert log.assumptions[0]["cell"] == key


def test_grid_guaranteed_mode_downgrades_infeasible_cell():
    log = run_experiment(tiny_grid(mode="guaranteed"))
    entry = log.ledgers["x2_pw10_pv10"]
    if entry["ledger"]["feasible"]:
        assert entry["cell_mode"] == "guaranteed"
        assert all(r["guaranteed"] == 1 for r in log.rows)
    else:
        assert entry["cell_mode"] == "free-run"
        assert all(r["guaranteed"] == 0 for r in log.rows)
    # the trajectories run either way
    assert max(r["iteration"] for r in log.rows) == 30


@pytest.mark.parametrize("mode", ["free-run", "guaranteed"])
def test_grid_single_filter_runs(mode):
    cfg = make_config({
        "kind": "overparam_grid", "seeds": [0], "mode": mode,
        "grid": {"teacher_width": 1, "overparams": [1],
                 "cells": [[10.0, 10.0]], "iterations": 2,
                 "probe_n": 2000, "monitor_every": 1},
    })
    log = run_experiment(cfg)
    entry = log.ledgers["x1_pw10_pv10"]
    # no off-diagonal pair: the separation scales are zero
    assert entry["inputs"]["eps_d"] == 0.0
    assert entry["inputs"]["eps_l"] == 0.0
    assert entry["ledger"]["feasible"]
    assert entry["cell_mode"] == mode
    monitors = log.tables.get("monitors", [])
    assert len(monitors) == (2 if mode == "guaranteed" else 0)
    assert all(r["slack_w_separation"] == math.inf for r in monitors)


def test_cell_ledger_rejects_silent_target_naming_the_cell():
    cfg = tiny_grid(grid={"tau": 50.0, "probe_n": 512})
    w_star, v_star = reduced_teacher(np.random.default_rng(0), 5, 4, 3)
    state = mixed_two_layer_init(np.random.default_rng(1), w_star, v_star,
                                 8, 10.0, 10.0, 0.05, tau=50.0)
    with pytest.raises(DegenerateBatchError, match="cell x2_pw10_pv10"):
        _measure_cell_ledger(state, cfg.grid, 0, "x2_pw10_pv10", 1.0)
    # the same error crosses the worker pool from a cell's first-seed unit
    payloads = [
        (cfg, {"cell_index": ci, "seed": 0, "c0_hat": 1.0,
               "tags": {"overparam": 2, "p_w": 10.0, "p_v": 10.0}})
        for ci in range(2)
    ]
    with pytest.raises(DegenerateBatchError, match="cell x2_pw10_pv10"):
        _parallel_map(_grid_unit, payloads, 2)


def test_grid_reruns_are_identical():
    a = run_experiment(tiny_grid())
    b = run_experiment(tiny_grid())
    assert a.rows == b.rows
    assert a.aggregates == b.aggregates


def test_grid_parallel_matches_serial():
    # two cells, so the first-seed units measure ledgers in the pool too
    cells = [[10.0, 10.0], [0.0, 0.0]]
    cases = [
        ({"grid": {"cells": cells}}, False),
        # guaranteed cells: each first-seed unit measures the ledger and
        # records monitors
        ({"seeds": [3, 4], "mode": "guaranteed",
          "grid": {"teacher_width": 1, "overparams": [1, 2], "cells": cells,
                   "tau": 2.0, "iterations": 20, "monitor_every": 5}}, True),
    ]
    for over, monitored in cases:
        serial = run_experiment(tiny_grid(workers=1, **over))
        pooled = run_experiment(tiny_grid(workers=2, **over))
        assert serial.rows == pooled.rows
        assert serial.ledgers == pooled.ledgers
        assert serial.assumptions == pooled.assumptions
        assert serial.tables == pooled.tables
        assert ("monitors" in serial.tables) == monitored


def test_grid_opens_one_pool(monkeypatch):
    sizes = recording_pool(monkeypatch)
    log = run_experiment(tiny_grid(
        workers=2, grid={"cells": [[10.0, 10.0], [0.0, 0.0]],
                         "iterations": 2, "probe_n": 2048},
    ))
    assert len(log.rows) == 2 * 2 * 2
    assert sizes == [2]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eta", [1e5, 1e200])
def test_grid_divergence_stops_the_unit_on_one_marked_row(eta):
    """A fan-out row norm past DIVERGENCE_NORM (eta 1e5) or a failed first
    step (eta 1e200, overflowing without a warning) marks one row
    diverged, and nothing follows it."""
    log = run_experiment(tiny_grid(seeds=[0], grid={
        "eta": eta, "iterations": 6, "n_mc": 64, "record_every": 1,
    }))
    iterations = [r["iteration"] for r in log.rows]
    assert iterations == list(range(len(iterations)))
    assert [r["diverged"] for r in log.rows] == [0] * (len(iterations) - 1) + [1]
    assert all(r["u_max"] <= DIVERGENCE_NORM for r in log.rows[:-1])


# --------------------------------------------------------------- emission


def test_emit_empty_log_writes_header_only(tmp_path):
    log = RunLog(kind="train", config={}, config_hash="cafe", rows=[])
    files = emit_reports(log, tmp_path)
    summary = tmp_path / "summary.csv"
    assert summary in files
    assert summary.read_text() == "config\n"
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["config_hash"] == "cafe"
    assert meta["row_count"] == 0


def test_emit_rows_reference_config_hash(tmp_path):
    log = run_experiment(tiny_train(epochs=0))
    emit_reports(log, tmp_path)
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "config"
    for line in lines[1:]:
        assert line.split(",")[0] == log.config_hash
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["config_hash"] == log.config_hash


def test_emit_plots_are_written_and_deterministic(tmp_path):
    log = run_experiment(tiny_train())
    files_a = emit_reports(log, tmp_path / "a", plots=True)
    emit_reports(log, tmp_path / "b", plots=True)
    svgs = [f for f in files_a if f.suffix == ".svg"]
    assert any(f.name == "loss.svg" for f in svgs)
    for f in svgs:
        text = f.read_text()
        assert text.startswith("<svg")
        assert text == (tmp_path / "b" / f.name).read_text()


def test_emit_grid_plots_one_per_cell(tmp_path):
    log = run_experiment(tiny_grid(seeds=[0]))
    files = emit_reports(log, tmp_path, plots=True)
    names = {f.name for f in files}
    assert "cell_x2_pw10_pv10.svg" in names


def test_grid_meta_records_phase_timings_outside_summary(tmp_path):
    log = run_experiment(tiny_grid(seeds=[0]))
    phases = {"c0_probe", "ledgers", "units"}
    assert set(log.timings) == phases
    assert sum(log.timings.values()) <= log.wall_clock
    emit_reports(log, tmp_path / "timed")
    emit_reports(dataclasses.replace(log, timings={}), tmp_path / "untimed")
    timed, untimed = tmp_path / "timed", tmp_path / "untimed"
    assert ((timed / "summary.csv").read_bytes()
            == (untimed / "summary.csv").read_bytes())
    meta = json.loads((timed / "meta.json").read_text())
    timings = meta.pop("timings_s")
    assert set(timings) == phases
    assert all(v >= 0.0 and v == round(v, 3) for v in timings.values())
    assert meta == json.loads((untimed / "meta.json").read_text())
    # runners that record no phases keep meta.json as it was
    verify = make_config({"kind": "verify_identity", "seeds": [0],
                          "verify": {"n_trials": 2}})
    emit_reports(run_experiment(verify), tmp_path / "verify")
    assert "timings_s" not in json.loads(
        (tmp_path / "verify" / "meta.json").read_text())


@pytest.mark.parametrize("cfg, phases", [
    (tiny_train(), {"units"}),
    (lottery_config(2), {"base", "arms"}),
])
def test_training_meta_records_phase_timings_outside_summary(
        tmp_path, cfg, phases):
    log = run_experiment(cfg)
    assert set(log.timings) == phases
    # one worker: the per-unit phase sums fit inside the run
    assert all(v >= 0.0 for v in log.timings.values())
    assert sum(log.timings.values()) <= log.wall_clock
    emit_reports(log, tmp_path / "timed")
    emit_reports(dataclasses.replace(log, timings={}), tmp_path / "untimed")
    for name in ("summary.csv", "aggregate.csv"):
        assert ((tmp_path / "timed" / name).read_bytes()
                == (tmp_path / "untimed" / name).read_bytes())
    meta = json.loads((tmp_path / "timed" / "meta.json").read_text())
    assert set(meta.pop("timings_s")) == phases
    assert meta == json.loads((tmp_path / "untimed" / "meta.json").read_text())


def test_meta_records_the_environment_outside_summary(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = make_config({"kind": "verify_identity", "seeds": [0],
                       "verify": {"n_trials": 1}})
    emit_reports(run_experiment(cfg), tmp_path)
    env = json.loads((tmp_path / "meta.json").read_text())["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["cpu_count"] == os.cpu_count()
    assert set(env["blas_thread_vars"]) == set(BLAS_THREAD_VARS)
    assert len(BLAS_THREAD_VARS) == 5
    assert env["blas_thread_vars"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["blas_thread_vars"]["MKL_NUM_THREADS"] is None
    header = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert not {"python", "numpy", "cpu_count"} & set(header.split(","))


def test_meta_records_peak_rss_outside_summary(tmp_path):
    emit_reports(run_experiment(tiny_train(workers=2)), tmp_path)
    peak = json.loads((tmp_path / "meta.json").read_text())["peak_rss_mb"]
    assert set(peak) == {"main", "workers"}
    assert peak["main"] > 0
    if (os.cpu_count() or 1) > 1:  # the two seeds ran in a pool
        assert peak["workers"] > 0
    header = (tmp_path / "summary.csv").read_text().splitlines()[0]
    assert not {"peak_rss_mb", "main", "workers"} & set(header.split(","))


def traced_peak(fn) -> int:
    """Peak bytes traced while fn runs; numpy reports its buffers."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind, bn_mode", [("train", "linear_bn_relu"),
                                           ("lottery", "none")])
def test_training_holds_one_validation_checkpoint_at_a_time(kind, bn_mode):
    # a 20-400-25 student's validation forward traces ~26 MB under BN and
    # ~20 MB without; one checkpoint's trace alive while the next is taken
    # (the next epoch's, or the next lockstep lottery arm's) would peak
    # near twice one forward
    cfg = make_config({
        "kind": kind, "seeds": [0], "epochs": 2, "batches_per_epoch": 2,
        "batch_size": 16, "teacher": {"layer_widths": [20, 40, 25]},
        "student": {"overparam_factor": 10, "bn_mode": bn_mode},
    })
    teacher = make_teacher(TeacherSpec(**cfg.teacher))
    student = make_student(teacher, StudentInit(overparam_factor=10),
                           bn_mode=bn_mode)
    val_x = np.random.default_rng(0).normal(size=(VAL_BATCH, 20))
    run_experiment(cfg)  # first-call caches are not the run's
    one = traced_peak(lambda: forward(student, val_x))
    run = traced_peak(lambda: run_experiment(cfg))
    assert run <= 1.3 * one


def test_emit_handles_nonfinite_ledger_values(tmp_path):
    log = run_experiment(tiny_grid(seeds=[0]))
    emit_reports(log, tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    # infeasible drift constants may be infinite; meta must stay valid JSON
    assert "ledgers" in meta
