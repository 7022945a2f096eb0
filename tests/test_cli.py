"""Command-line behavior: exit codes, overrides, end-to-end determinism."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from reludyn import units
from reludyn.cli import _ABLATE_KINDS, _SUBCOMMANDS, main
from reludyn.config import _schema_facts
from reludyn.experiments import _RUNNERS

SCHEMA = _schema_facts()[0]

TINY_TRAIN = {
    "kind": "train",
    "seeds": [0, 1],
    "epochs": 1,
    "batches_per_epoch": 3,
    "batch_size": 16,
    "eta": 0.005,
    "teacher": {"layer_widths": [4, 3, 2], "seed": 3},
    "student": {"overparam_factor": 2},
    "stream": {"std": 1.0},
}

# the schema's minimum sizes; on the dim-2 grid, 2 probe rows leave some
# fall-off differences at exactly 0.0 with a 0.0 stderr
TINY_GRID = {
    "dim": 2, "teacher_width": 1, "outputs": 1, "overparams": [1],
    "cells": [[0.0, 0.0]], "iterations": 1, "n_mc": 2, "probe_n": 2,
}
MIN_NET = {
    "epochs": 0, "batches_per_epoch": 1, "batch_size": 1,
    "teacher": {"layer_widths": [2, 1]},
    "student": {"overparam_factor": 1},
}
MIN_HIDDEN = dict(MIN_NET, epochs=1, teacher={"layer_widths": [2, 1, 1]})
MIN_SIZE_RUNS = {
    "verify-identity": ("verify-identity", {"verify": {"n_trials": 1}}),
    "train": ("train", MIN_NET),
    "train-bn-batch-1": ("train", dict(
        MIN_HIDDEN, student={"overparam_factor": 1, "bn_mode": "linear_relu_bn"},
    )),
    "train-finite-1": ("train", dict(
        MIN_NET, epochs=1, stream={"mode": "finite", "n_samples": 1},
    )),
    "overparam-grid": ("overparam-grid", {"grid": TINY_GRID}),
    "ablate": ("ablate", dict(
        MIN_NET, kind="ablate_finite", ablate={"finite_sizes": [2]},
    )),
    "lottery": ("lottery", MIN_HIDDEN),
    "bn-audit": ("bn-audit", MIN_HIDDEN),
    "psi-check": ("psi-check", {"psi": {"n": 2}}),
    "falloff": ("falloff", {"falloff": {"dim": 2, "n": 2, "n_directions": 1}}),
}


# every integer field each runner reads, spelled out so that it can be
# rewritten as x.0
INT_NET = {
    "seeds": [0, 1], "workers": 1, "epochs": 1, "batches_per_epoch": 3,
    "batch_size": 16, "eta": 0.005,
    "teacher": {"layer_widths": [4, 3, 2], "seed": 3},
    "student": {"overparam_factor": 2},
    "stream": {"std": 1.0, "mode": "finite", "n_samples": 40},
}
INTEGRAL_FLOAT_RUNS = {
    "train": ("train", dict(INT_NET, kind="train")),
    "lottery": ("lottery", dict(
        INT_NET, kind="lottery", lottery={"retrain_epochs": 1},
    )),
    "ablate_finite": ("ablate", dict(
        INT_NET, kind="ablate_finite", ablate={"finite_sizes": [32]},
    )),
    "ablate_size": ("ablate", dict(
        INT_NET, kind="ablate_size",
        ablate={"archs": [[4, 3, 2], [4, 5, 2]], "bn_modes": ["none"]},
    )),
    "overparam-grid": ("overparam-grid", {
        "kind": "overparam_grid", "seeds": [0], "workers": 1,
        "grid": {"dim": 5, "teacher_width": 4, "outputs": 3,
                 "teacher_seed": 7, "overparams": [2],
                 "cells": [[10.0, 10.0]], "iterations": 4, "n_mc": 64,
                 "record_every": 2, "monitor_every": 2, "probe_n": 4096},
    }),
}


def integral_floats(data):
    """data with every int written as a float: 2 -> 2.0."""
    if isinstance(data, dict):
        return {k: integral_floats(v) for k, v in data.items()}
    if isinstance(data, list):
        return [integral_floats(v) for v in data]
    if isinstance(data, int) and not isinstance(data, bool):
        return float(data)
    return data


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_schema_runners_and_subcommands_name_the_same_kinds():
    schema_kinds = set(SCHEMA["properties"]["kind"]["enum"])
    cli_kinds = {k for k in _SUBCOMMANDS.values() if k is not None}
    assert schema_kinds == set(_RUNNERS)
    assert schema_kinds == cli_kinds | set(_ABLATE_KINDS)


def test_train_roundtrip_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_TRAIN)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "train: ok" in out
    bytes_a = (tmp_path / "a" / "summary.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "summary.csv").read_bytes()
    assert bytes_a == bytes_b
    assert (tmp_path / "a" / "meta.json").exists()


def test_workers_flag_matches_serial(tmp_path):
    cfg = write_config(tmp_path, TINY_TRAIN)
    main(["train", "--config", cfg, "--out", str(tmp_path / "s")])
    main(["train", "--config", cfg, "--out", str(tmp_path / "p"),
          "--workers", "2"])
    assert (
        (tmp_path / "s" / "summary.csv").read_bytes()
        == (tmp_path / "p" / "summary.csv").read_bytes()
    )


def test_seeds_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, TINY_TRAIN)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out),
                 "--seeds", "5"]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    seed_col = lines[0].split(",").index("seed")
    assert {line.split(",")[seed_col] for line in lines[1:]} == {"5"}


def test_plots_flag_emits_svg(tmp_path):
    cfg = write_config(tmp_path, TINY_TRAIN)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out),
                 "--plots"]) == 0
    assert (out / "loss.svg").exists()


def test_missing_config_file_is_io_error(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["train", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_schema_violation_is_config_error(tmp_path):
    cfg = write_config(tmp_path, dict(TINY_TRAIN, eta=-1.0))
    assert main(["train", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2


def test_kind_mismatch_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_TRAIN)
    assert main(["falloff", "--config", cfg]) == 2
    assert "does not match" in capsys.readouterr().err


def test_ablate_reads_kind_from_config(tmp_path):
    data = {
        "kind": "ablate_finite", "seeds": [0], "epochs": 0,
        "batches_per_epoch": 2, "batch_size": 8, "eta": 0.005,
        "teacher": {"layer_widths": [4, 3, 2], "seed": 3},
        "student": {"overparam_factor": 1},
        "stream": {"std": 1.0},
        "ablate": {"finite_sizes": [32]},
    }
    cfg = write_config(tmp_path, data)
    assert main(["ablate", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0
    header = (tmp_path / "out" / "summary.csv").read_text().splitlines()[0]
    assert "samples" in header.split(",")


def test_ablate_rejects_non_ablation_kind(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_TRAIN)
    assert main(["ablate", "--config", cfg]) == 2
    assert "ablate config kind" in capsys.readouterr().err


def test_check_failure_exits_three(tmp_path, capsys):
    data = {
        "kind": "verify_identity", "seeds": [0],
        "verify": {"n_trials": 2, "tol": 1e-300},
    }
    cfg = write_config(tmp_path, data)
    assert main(["verify-identity", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_verify_identity_passes(tmp_path):
    data = {
        "kind": "verify_identity", "seeds": [0],
        "verify": {"n_trials": 3, "tol": 1e-10},
    }
    cfg = write_config(tmp_path, data)
    assert main(["verify-identity", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0


def test_unwritable_out_dir_is_io_error(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(TINY_TRAIN, epochs=0))
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main(["train", "--config", cfg, "--out", str(blocker)]) == 4
    assert "i/o error" in capsys.readouterr().err


def assert_noise_floor_exit(tmp_path, capsys, grid):
    cfg = write_config(tmp_path, {"grid": grid})
    assert main(["overparam-grid", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and "noise floor" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_grid_noise_floor_exits_three_without_traceback(tmp_path, capsys):
    # 256 probe rows leave too few fall-off points above the noise floor
    assert_noise_floor_exit(tmp_path, capsys, {
        "iterations": 2, "overparams": [2], "cells": [[10.0, 10.0]],
        "probe_n": 256,
    })


def test_grid_zero_differences_do_not_clear_noise_floor(tmp_path, capsys):
    assert_noise_floor_exit(tmp_path, capsys, TINY_GRID)


# the dim-2 grid at 2000 probe rows: only the scale-0.4 points of the c0
# probe clear the noise floor, all at one distance, so no slope is fitted
DIM2_GRID = {
    "dim": 2, "teacher_width": 1, "outputs": 1, "overparams": [1],
    "cells": [[10.0, 0.0]], "iterations": 1, "n_mc": 2, "probe_n": 2000,
}


def test_grid_fit_at_one_distance_exits_three_without_warning(tmp_path,
                                                              capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_noise_floor_exit(tmp_path, capsys, DIM2_GRID)


@pytest.mark.parametrize("cell, name", [([1e308, 0.0], "p_w"),
                                        ([0.0, 1e308], "p_v")])
def test_grid_overflowing_mixing_factor_is_a_config_error(tmp_path, capsys,
                                                          cell, name):
    cfg = write_config(tmp_path, {"grid": dict(DIM2_GRID, cells=[cell])})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["overparam-grid", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"mixing factor {name} = 1e+308" in err
    assert "cell x1_" in err


@pytest.mark.parametrize("name", ["p_w", "p_v"])
def test_training_overflowing_mixing_factor_is_a_config_error(tmp_path, capsys,
                                                              name):
    # the student init has the grid's bound: above it a mixed column's
    # norm overflows
    student = {"overparam_factor": 1, name: 1e308}
    cfg = write_config(tmp_path, {
        "seeds": [0], "epochs": 1, "batches_per_epoch": 2, "batch_size": 4,
        "teacher": {"layer_widths": [4, 3, 2]}, "student": student,
        "stream": {"std": 1.0},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"mixing factor {name} = 1e+308" in err


# the first overflows the teacher's first layer; the second reaches inf
# only at its fourth, with grid values a bound at MAX_MIXING would pass
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("widths, grid", [([4, 3, 2], [-1e300, 1e300]),
                                          ([4, 3, 3, 3, 2], [-1e100, 1e100])])
def test_overflowing_teacher_is_a_config_error(tmp_path, capsys, widths,
                                               grid):
    cfg = write_config(tmp_path, {
        "seeds": [0], "epochs": 1, "batches_per_epoch": 2, "batch_size": 4,
        "teacher": {"layer_widths": widths, "weight_grid": grid},
        "student": {"overparam_factor": 1}, "stream": {"std": 1.0},
    })
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config.teacher")
    assert err.count("\n") == 1
    assert not out.exists()


# p_v 1 mixes a finite top layer, and the teacher's own forward overflows;
# p_v 1e10 overflows the student's top layer, p_w 1 a hidden column norm
@pytest.mark.parametrize("student", [{"p_v": 1.0}, {"p_v": 1e10},
                                     {"p_w": 1.0, "p_v": 1.0}])
def test_overflowing_student_init_is_a_config_error(tmp_path, student):
    cfg = write_config(tmp_path, {
        "seeds": [0], "epochs": 1, "batches_per_epoch": 2, "batch_size": 4,
        "teacher": {"layer_widths": [4, 3, 2],
                    "weight_grid": [-1e300, 1e300]},
        "student": {"overparam_factor": 1, **student}, "stream": {"std": 1.0},
    })
    out = tmp_path / "out"
    # a fresh interpreter, so no earlier test's warning filter hides one
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "reludyn.cli",
         "train", "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("config error: config.teacher.weight_grid ")
    assert run.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_overflowing_ledger_rate_is_an_infeasible_ledger(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {
        "dim": 5, "teacher_width": 4, "outputs": 3, "overparams": [2],
        "cells": [[10.0, 10.0], [0.0, 0.0]], "iterations": 2, "eta": 1.7e308,
        "probe_n": 4000, "n_mc": 64,
    }})
    out = tmp_path / "out"
    assert main(["overparam-grid", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    ledgers = json.loads((out / "meta.json").read_text())["ledgers"]
    assert len(ledgers) == 2
    for cell in ledgers.values():
        assert cell["ledger"]["binding"] == "rate-overflow"
        assert cell["ledger"]["feasible"] is False


# every teacher node is dead on the validation batch, so no layer-0
# correlation exists; each kind used to write it as nan on exit 0
DEAD_TEACHER = {
    "seeds": [0], "epochs": 1, "batches_per_epoch": 2, "batch_size": 4,
    "teacher": {"layer_widths": [4, 3, 2], "bias_range": [-1000, -900]},
    "student": {"overparam_factor": 1}, "stream": {"std": 1.0},
}


@pytest.mark.parametrize("command, extra", [
    ("train", {}),
    ("lottery", {"kind": "lottery"}),
    ("bn-audit", {}),
    ("ablate", {"kind": "ablate_finite", "ablate": {"finite_sizes": [8]}}),
])
def test_dead_teacher_layer_writes_empty_cells_not_nan(tmp_path, command,
                                                       extra):
    cfg = write_config(tmp_path, dict(DEAD_TEACHER, **extra))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    for path in out.glob("*.csv"):
        assert not re.search(r"\bnan\b", path.read_text(), re.IGNORECASE), \
            path.name
    header, *rows = (out / "summary.csv").read_text().splitlines()
    col = header.split(",").index("rho_bar_l0")
    assert rows and all(row.split(",")[col] == "" for row in rows)


def test_grid_silent_filters_exit_three(tmp_path, capsys):
    # no filter fires above tau = 50, so no moment can be measured
    cfg = write_config(tmp_path, {"grid": {
        "tau": 50, "iterations": 2, "overparams": [2],
        "cells": [[10.0, 10.0]], "probe_n": 2000,
    }})
    assert main(["overparam-grid", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and "never fires" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", sorted(MIN_SIZE_RUNS))
def test_min_size_configs_end_in_documented_exit_codes(tmp_path, name):
    command, data = MIN_SIZE_RUNS[name]
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out)])
    assert code in (0, 2, 3, 4)
    if code == 0:
        for path in out.iterdir():
            if path.suffix in (".csv", ".json"):
                text = path.read_text()
                assert not re.search(r"\bnan\b", text, re.IGNORECASE), path.name


@pytest.mark.parametrize("name", sorted(MIN_SIZE_RUNS))
def test_min_size_configs_written_as_floats_exit_as_written(tmp_path, name):
    command, data = MIN_SIZE_RUNS[name]
    codes = [
        main([command, "--config", write_config(tmp_path, d, f"{i}.json"),
              "--out", str(tmp_path / str(i))])
        for i, d in enumerate((data, integral_floats(data)))
    ]
    assert codes[1] == codes[0]


@pytest.mark.parametrize("name", sorted(INTEGRAL_FLOAT_RUNS))
def test_integer_fields_written_as_floats_run_the_same(tmp_path, name):
    command, data = INTEGRAL_FLOAT_RUNS[name]
    outs = {}
    for spelling, cfg_data in (("int", data), ("float", integral_floats(data))):
        cfg = write_config(tmp_path, cfg_data, name=f"{spelling}.json")
        out = tmp_path / spelling
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        outs[spelling] = out
    csvs = sorted(p.name for p in outs["int"].glob("*.csv"))
    assert csvs == sorted(p.name for p in outs["float"].glob("*.csv"))
    assert "summary.csv" in csvs
    for fname in csvs:
        rows = [
            (outs[s] / fname).read_text().splitlines() for s in ("int", "float")
        ]
        if fname == "summary.csv":
            # the config hash column differs: the hash reads the config as
            # written
            rows = [[line.split(",", 1)[1] for line in r] for r in rows]
        assert rows[0] == rows[1], fname


# json.loads reads NaN and Infinity; each of these used to run (exit 0 or 3)
NON_FINITE_RUNS = {
    "psi-check-nan-angle": ("psi-check", {"psi": {"n": 2, "angles": [math.nan]}},
                            "psi.angles[0]"),
    "train-nan-eta": ("train", dict(TINY_TRAIN, eta=math.nan), "eta"),
    "train-inf-eta": ("train", dict(TINY_TRAIN, eta=math.inf), "eta"),
    "overparam-grid-inf-tau": (
        "overparam-grid", {"grid": dict(TINY_GRID, tau=math.inf)}, "grid.tau",
    ),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_RUNS))
def test_non_finite_config_numbers_are_config_errors(tmp_path, capsys, name):
    command, data, key = NON_FINITE_RUNS[name]
    cfg = write_config(tmp_path, data)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{key} must be finite" in err


# a repeated entry would run a work unit, a grid cell or an ablation level
# twice; a repeated cell key would write one cell's table over another's.
# Each error names its key.
REPEATED_RUNS = {
    "seeds-flag": ("train", TINY_TRAIN, ["--seeds", "3,3"],
                   "config.seeds rejected: [3, 3] has non-unique"),
    "grid-seeds": ("overparam-grid", {"seeds": [0, 0], "grid": TINY_GRID},
                   [], "config.seeds rejected: [0, 0] has non-unique"),
    "grid-overparams": ("overparam-grid",
                        {"grid": dict(TINY_GRID, overparams=[1, 1])}, [],
                        "config.grid.overparams rejected: [1, 1] has "
                        "non-unique"),
    "grid-cells": ("overparam-grid",
                   {"grid": dict(TINY_GRID, cells=[[1, 0], [1.0, 0.0]])}, [],
                   "config.grid.cells rejected: [[1, 0], [1.0, 0.0]] has "
                   "non-unique"),
    "grid-cell-keys": ("overparam-grid", {"grid": dict(
        TINY_GRID, cells=[[1.0000001, 0.0], [1.0000002, 0.0]],
    )}, [], "config.grid.cells: two cells share the cell key x1_pw1_pv0"),
    "ablate-archs": ("ablate", dict(MIN_NET, kind="ablate_size", ablate={
        "archs": [[2, 1], [2, 1]], "bn_modes": ["none"]}), [],
        "config.ablate.archs rejected: [[2, 1], [2, 1]] has non-unique"),
    "ablate-bn-modes": ("ablate", dict(MIN_NET, kind="ablate_size", ablate={
        "archs": [[2, 1]], "bn_modes": ["none", "none"]}), [],
        "config.ablate.bn_modes rejected: ['none', 'none'] has non-unique"),
    "ablate-factors": ("ablate", dict(
        MIN_NET, kind="ablate_overparam", ablate={"factors": [1, 1]},
    ), [], "config.ablate.factors rejected: [1, 1] has non-unique"),
    "ablate-finite-sizes": ("ablate", dict(
        MIN_NET, kind="ablate_finite", ablate={"finite_sizes": [2, 2]},
    ), [], "config.ablate.finite_sizes rejected: [2, 2] has non-unique"),
}


@pytest.mark.parametrize("name", sorted(REPEATED_RUNS))
def test_repeated_seeds_and_levels_are_config_errors(tmp_path, capsys, name):
    command, data, flags, message = REPEATED_RUNS[name]
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_os_error_while_running_is_io_error(tmp_path, capsys, monkeypatch):
    def no_pool(max_workers):
        raise OSError("cannot fork")

    monkeypatch.setattr(units, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(units.os, "cpu_count", lambda: 2)
    cfg = write_config(tmp_path, TINY_TRAIN)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out),
                 "--workers", "2"]) == 4
    assert capsys.readouterr().err == "i/o error: cannot fork\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_diverging_grid_runs_without_warnings(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {
        "dim": 5, "teacher_width": 4, "outputs": 3, "overparams": [2],
        "cells": [[10.0, 10.0], [0.0, 0.0]], "iterations": 60, "eta": 500,
        "probe_n": 4000, "n_mc": 256, "record_every": 1,
    }})
    out = tmp_path / "out"
    assert main(["overparam-grid", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    lines = (out / "summary.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 8
    # each cell stops at its first recorded fan-out row norm past the
    # divergence cutoff, and only that row is marked diverged
    assert [(r["p_w"], r["iteration"]) for r in rows
            if r["diverged"] == "1"] == [("10.0", "3"), ("0.0", "3")]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverged_band_has_empty_spread_cells(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "ablate_overparam", "seeds": [0, 1], "epochs": 1,
        "batches_per_epoch": 2, "batch_size": 4, "eta": 1e30,
        "teacher": {"layer_widths": [4, 3, 2]},
        "student": {"overparam_factor": 1}, "stream": {"std": 1.0},
        "ablate": {"factors": [1]},
    })
    out = tmp_path / "out"
    assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
    assert all("nan" not in path.read_text() for path in out.glob("*.csv"))
    lines = (out / "aggregate.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    # the seeds' losses at epoch 1 include inf: no spread to report
    [epoch_1] = [r for r in rows if r["epoch"] == "1"]
    assert epoch_1["loss_mean"] == "inf"
    assert epoch_1["loss_std"] == ""


# each integer is drawn from [minimum, minimum + span]: span 3 unless
# named here, so every size (epochs, batches, widths, iterations, sample
# counts, trials) stays small enough for a config to run in milliseconds
FUZZ_SPANS = {"workers": 1, "n_mc": 30, "probe_n": 5000, "n": 20000,
              "n_samples": 40, "finite_sizes": 40}


def schema_values(node: dict, key: str = "config"):
    """Values the schema node accepts: its enum, its type within its
    bounds, lists within minItems, maxItems and uniqueItems.  An object
    draws every property, so no large default runs."""
    if "enum" in node:
        return st.sampled_from(node["enum"])
    kind = node["type"]
    if kind == "object":
        return st.fixed_dictionaries({
            k: schema_values(prop, k) for k, prop in node["properties"].items()
        })
    if kind == "array":
        low = node.get("minItems", 0)
        return st.lists(
            schema_values(node["items"], key), min_size=low,
            max_size=node.get("maxItems", low + 2),
            unique_by=json.dumps if node.get("uniqueItems") else None,
        )
    if kind == "integer":
        low = node.get("minimum", 0)
        return st.integers(low, low + FUZZ_SPANS.get(key, 3))
    return st.floats(
        min_value=node.get("minimum", node.get("exclusiveMinimum")),
        max_value=node.get("maximum"),
        exclude_min="exclusiveMinimum" in node,
        allow_nan=False, allow_infinity=False,
    )


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_schema_drawn_configs_end_in_documented_exit_codes(command, data):
    config = data.draw(schema_values(SCHEMA))
    kind = _SUBCOMMANDS[command]
    config["kind"] = kind or data.draw(st.sampled_from(_ABLATE_KINDS))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/cfg.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        assert main([command, "--config", path, "--out", f"{tmp}/out"]) in (
            0, 2, 3, 4,
        )
