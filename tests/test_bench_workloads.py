"""Every CLI invocation of the benchmark's workloads is a valid config.

bench/workloads.py is run from its path, as the benchmark's own process
would import it, so a schema or CLI change that would make a benchmark
run exit 2 fails here first.
"""

import json
import runpy
from pathlib import Path

import pytest

from reludyn import cli
from reludyn.experiments import make_config

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads() -> dict:
    return runpy.run_path(str(WORKLOADS))["WORKLOADS"]


@pytest.mark.parametrize("name", sorted(_workloads()))
def test_bench_invocations_build_valid_configs(tmp_path, name):
    workload = _workloads()[name]
    invocations = workload.build(0)
    assert invocations
    # a workload with a workers check also launches each run at --workers 2
    extras = [[]] + ([["--workers", "2"]] if workload.workers_check else [])
    for i, inv in enumerate(invocations):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(inv.config, sort_keys=True))
        for extra in extras:
            args = cli._parser().parse_args(
                [inv.command, "--config", str(path), *extra],
            )
            cfg = make_config(cli._build_config(args))
            assert cfg.kind == inv.config["kind"]
