"""Command-line behavior: exit codes, overrides, end-to-end determinism."""

import json

from reludyn.cli import main

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


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


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


def test_grid_noise_floor_exits_three_without_traceback(tmp_path, capsys):
    # 256 probe rows leave too few fall-off points above the noise floor
    cfg = write_config(tmp_path, {"grid": {
        "iterations": 2, "overparams": [2], "cells": [[10.0, 10.0]],
        "probe_n": 256,
    }})
    assert main(["overparam-grid", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


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
