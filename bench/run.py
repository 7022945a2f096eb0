"""reludyn benchmark: end-to-end CLI runs and per-module traced timings.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Each operation is one `reludyn` CLI invocation in a fresh process with
BLAS pinned to one thread (bench/child.py).  A run repeats whole rounds of
its workload's invocations for about S seconds and checks every round's
reports.  With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 rounds alternate untraced and traced
and it carries the per-layer metrics.  `--workload all` runs every
workload untraced, then traced, and prints both tables.  Every run writes
bench/out/BENCH_<workload>_seed<N>_trace<T>.json (environment, per-metric
median and quartiles, operation counts).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Invocation, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CHILD = BENCH / "child.py"

RUN_LIMIT_S = 170.0  # a run ends, one way or the other, before this
SETUP_PROBES = 4  # set-up-only launches per run, for a steady setup_s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("samples_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
)

# every function bench/child.py traces, and the metrics made from them
PER_LAYER = (
    ("net.forward.ms", "ms"), ("net.backward.ms", "ms"),
    ("net.sgd_step.ms", "ms"), ("net.forward.calls", "count"),
    ("net.step.useful_gflops", "GFLOP/s"),
    ("teachers.next_batch.ms", "ms"), ("teachers.teacher_labels.ms", "ms"),
    ("metrics.rho_matrix.ms", "ms"), ("metrics.mean_rank.ms", "ms"),
    ("dynamics.two_layer_moments.ms", "ms"),
    ("dynamics.two_layer_moments.calls", "count"),
    ("dynamics.gate_moments.ms", "ms"), ("dynamics.act_moments.ms", "ms"),
    ("dynamics.step_two_layer.ms", "ms"),
    ("dynamics.moments.useful_gflops", "GFLOP/s"),
    ("dynamics.slope_probes.s", "s"),
    ("dynamics.quadratic_falloff_probe.s", "s"),
    ("dynamics.two_layer_constants.ms", "ms"),
    ("beta.psi_d.ms", "ms"), ("beta.compute_beta.ms", "ms"),
    ("beta.verify_identity.ms", "ms"),
    ("experiments.make_config.ms", "ms"), ("experiments.emit_reports.ms", "ms"),
    ("experiments.run_experiment.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run to its end."""


@dataclass
class Launch:
    """One finished child process, in parent-side terms."""

    exit: int | None
    setup_s: float | None
    wall_s: float | None
    run_s: float | None  # from run_experiment entry to reports written
    rss_mb: float | None
    spans: dict
    failures: list[str]
    notes: list[str]
    out_dir: Path

    @property
    def ok(self) -> bool:
        return self.exit == 0 and self.setup_s is not None


@dataclass
class Round:
    traced: bool
    launches: list[Launch]
    summaries: list[bytes | None] = field(default_factory=list)


def child_env() -> dict:
    # child.py pins the BLAS thread variables itself, before numpy loads
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the child puts this checkout's src first
    # string hashes order some allocations; a fixed seed makes the heap
    # layout, and so the peak RSS, repeat from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], log: Path, deadline: float) -> int:
    """Run bench/child.py to its end; kill its process group on timeout."""
    with open(log, "wb") as fh:
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *args], cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"child ran past the {RUN_LIMIT_S:.0f} s limit; "
                             f"log in {log}") from None


def launch(inv: Invocation, work: Path, tag: str, deadline: float, *,
           trace: bool = False, setup_only: bool = False,
           extra: tuple[str, ...] = (), seed: int = 0) -> Launch:
    out_dir = work / tag
    out_dir.mkdir(parents=True)
    cfg = out_dir / "config.json"
    cfg.write_text(json.dumps(inv.config, sort_keys=True), encoding="utf-8")
    result = out_dir / "child.json"
    spec = {
        "argv": [inv.command, "--config", str(cfg), "--out",
                 str(out_dir / "reports"), *extra],
        "trace": trace, "setup_only": setup_only,
        "capture": None if (setup_only or extra) else inv.capture,
        "result": str(result), "seed": seed,
    }
    spec_path = out_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    t_spawn = time.monotonic()
    code = spawn([str(spec_path)], out_dir / "child.log", deadline)
    if code != 0 or not result.exists():
        tail = (out_dir / "child.log").read_text(errors="replace")[-2000:]
        print(f"[{tag}] child exited {code}:\n{tail}", file=sys.stderr)
        return Launch(code or 1, None, None, None, None, {}, [], [], out_dir)
    res = json.loads(result.read_text(encoding="utf-8"))
    entry = res["t_entry"]
    return Launch(
        exit=res["exit"],
        setup_s=None if entry is None else entry - t_spawn,
        wall_s=res["t_done"] - t_spawn,
        run_s=None if entry is None else res["t_done"] - entry,
        rss_mb=res["maxrss_kb"] / 1024.0,
        spans=res["spans"], failures=res["failures"], notes=res["notes"],
        out_dir=out_dir,
    )


def environment(work: Path, deadline: float) -> dict:
    """Interpreter, numpy and BLAS facts, read in a child like the runs."""
    log = work / "env.log"
    if spawn(["--env"], log, deadline) != 0:
        raise BenchError(f"environment probe failed: {log.read_text()[-2000:]}")
    env = json.loads(log.read_text(encoding="utf-8").strip().splitlines()[-1])
    env["nproc"] = len(os.sched_getaffinity(0))
    env["cpu_count"] = os.cpu_count()
    env["workers"] = 1
    return env


# ------------------------------------------------------------------ metrics


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def round_figures(rnd: Round, invs: list[Invocation]) -> dict:
    rows = sum(inv.rows for inv in invs)
    return {
        "wall_s": sum(l.wall_s for l in rnd.launches),
        "samples_per_s": rows / sum(l.run_s for l in rnd.launches),
        "peak_rss_mb": max(l.rss_mb for l in rnd.launches),
    }


def merged_spans(rounds: list[Round]) -> dict:
    spans: dict[str, list] = {}
    for rnd in rounds:
        for lau in rnd.launches:
            for name, stat in lau.spans.items():
                acc = spans.setdefault(name, [0, 0.0, 0.0, 0])
                for i, v in enumerate(stat):
                    acc[i] += v
    return spans


def layer_metrics(traced: list[Round], plain_walls: list[float],
                  invs: list[Invocation]) -> dict[str, float]:
    """Per-layer values from the spans of the traced rounds.

    `.ms` is a mean per call over all calls; `.calls` and `.s` are per
    round; GFLOP/s counts two flops per multiply-add.
    """
    spans = merged_spans(traced)
    n = len(traced)
    get = lambda name: spans.get(name, [0, 0.0, 0.0, 0])
    out = {}
    for metric, _ in PER_LAYER:
        if metric.endswith(".ms"):
            calls, total = get(metric[:-3])[:2]
            out[metric] = 1000.0 * total / calls if calls else 0.0
        elif metric.endswith(".calls"):
            out[metric] = get(metric[:-6])[0] / n
    step = [get(f"net.{f}") for f in ("forward", "backward", "sgd_step")]
    step_s = sum(s[1] for s in step)
    out["net.step.useful_gflops"] = (
        2.0 * (step[0][3] + step[1][3]) / step_s / 1e9 if step_s else 0.0)
    mom = get("dynamics.two_layer_moments")
    out["dynamics.moments.useful_gflops"] = (
        2.0 * mom[3] / mom[1] / 1e9 if mom[1] else 0.0)
    out["dynamics.slope_probes.s"] = (
        get("dynamics.gate_slope_on_geodesics")[1]
        + get("dynamics.act_slope_on_geodesics")[1]) / n
    out["dynamics.quadratic_falloff_probe.s"] = (
        get("dynamics.quadratic_falloff_probe")[1] / n)
    run = get("experiments.run_experiment")
    out["experiments.run_experiment.self_s"] = (run[1] - run[2]) / n
    traced_walls = [round_figures(r, invs)["wall_s"] for r in traced]
    out["trace.overhead_s"] = (statistics.median(traced_walls)
                               - statistics.median(plain_walls))
    return out


# ------------------------------------------------------------------ running


def measure(wl: Workload, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    work = OUT / "work" / f"{wl.name}-{os.getpid()}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # the probe also warms the file cache and compiles bytecode, untimed
    env = environment(work, deadline)
    invs = wl.build(seed)

    setup = []
    for k in range(SETUP_PROBES):
        lau = launch(invs[k % len(invs)], work, f"setup{k}", deadline,
                     setup_only=True)
        if lau.setup_s is None:
            raise BenchError(f"set-up probe {k} never reached run_experiment")
        setup.append(lau.setup_s)

    rounds: list[Round] = []
    problems: list[str] = []
    notes: set[str] = set()
    failed = 0
    t_rounds = time.monotonic()
    while True:
        k = len(rounds)
        traced = trace and k % 2 == 1
        rnd = Round(traced, [
            launch(inv, work, f"r{k}-{i}", deadline, trace=traced, seed=seed)
            for i, inv in enumerate(invs)
        ])
        failed += sum(not lau.ok for lau in rnd.launches)
        for lau in rnd.launches:
            problems += lau.failures
            notes.update(lau.notes)
        if all(lau.ok for lau in rnd.launches):
            problems += wl.check(invs, [l.out_dir / "reports" for l in rnd.launches])
        rnd.summaries = [_summary(l.out_dir) for l in rnd.launches]
        if rounds and rnd.summaries != rounds[0].summaries:
            problems.append(f"round {k}: summary.csv differs from round 0")
        rounds.append(rnd)
        for lau in rnd.launches:
            if lau.exit == 0:
                shutil.rmtree(lau.out_dir / "reports")
        elapsed = time.monotonic() - start
        per_round = (time.monotonic() - t_rounds) / len(rounds)
        if len(rounds) >= 2 and elapsed + per_round > seconds:
            break

    if wl.workers_check:
        for i, inv in enumerate(invs):
            lau = launch(inv, work, f"workers2-{i}", deadline,
                         extra=("--workers", "2"))
            if lau.exit != 0:
                problems.append(f"--workers 2 run exited {lau.exit}")
            elif _summary(lau.out_dir) != rounds[0].summaries[i]:
                problems.append("--workers 2 summary.csv differs from serial")

    good = [r for r in rounds if all(lau.ok for lau in r.launches)]
    plain = [r for r in good if not r.traced]
    setup += [l.setup_s for r in plain for l in r.launches]
    samples = {"setup_s": setup}
    for name in ("wall_s", "samples_per_s", "peak_rss_mb"):
        samples[name] = [round_figures(r, invs)[name] for r in plain]
    result = {
        "workload": wl.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": env,
        "invocations": [{"command": i.command, "config": i.config,
                         "rows": i.rows} for i in invs],
        "rounds": len(rounds),
        "attempted": sum(len(r.launches) for r in rounds),
        "failed": failed,
        "correct": not problems and bool(plain),
        "problems": problems,
        "notes": sorted(notes),
        "elapsed_s": time.monotonic() - start,
        "end_to_end": {
            name: dict(quartiles(samples[name]), unit=unit,
                       samples=samples[name])
            for name, unit in END_TO_END if samples[name]
        },
    }
    traced_rounds = [r for r in good if r.traced]
    if trace and traced_rounds and plain:
        values = layer_metrics(traced_rounds, samples["wall_s"], invs)
        result["per_layer"] = {name: {"value": values[name], "unit": unit}
                               for name, unit in PER_LAYER}
    if not problems:
        shutil.rmtree(work, ignore_errors=True)
    return result


def _summary(out_dir: Path) -> bytes | None:
    path = out_dir / "reports" / "summary.csv"
    return path.read_bytes() if path.exists() else None


def write_result(name: str, payload: dict) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def print_run(res: dict) -> None:
    print(f"{res['workload']} seed {res['seed']}: {res['rounds']} rounds, "
          f"{res['attempted']} operations, {res['failed']} failed, "
          f"correct={res['correct']}")
    for msg in res["problems"]:
        print(f"  problem: {msg}")
    for msg in res["notes"]:
        print(f"  check: {msg}")
    for name, st in res["end_to_end"].items():
        print(f"  {name:<14} {st['median']:>14.6g} {st['unit']:<7} "
              f"q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  n={st['n']}")
    for name, st in res.get("per_layer", {}).items():
        print(f"  {name:<38} {st['value']:>14.6g} {st['unit']}")


def run_one(wl: Workload, seed: int, seconds: int, trace: bool) -> int:
    res = measure(wl, seed, seconds, trace)
    write_result(f"BENCH_{wl.name}_seed{seed}_trace{int(trace)}.json", res)
    print_run(res)
    if trace:
        metrics = res.get("per_layer", {})
    else:
        metrics = {name: {"value": st["median"], "unit": st["unit"]}
                   for name, st in res["end_to_end"].items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: int) -> int:
    runs = {}
    for wl in WORKLOADS.values():
        for trace in (False, True):
            res = measure(wl, seed, seconds, trace)
            runs[f"{wl.name}/trace{int(trace)}"] = res
            print_run(res)
    path = write_result(f"BENCH_all_seed{seed}.json", runs)
    names = list(WORKLOADS)
    print("\nend-to-end (median of untraced runs)")
    print(f"{'metric':<16}{'unit':<8}" + "".join(f"{n:>16}" for n in names))
    for metric, unit in END_TO_END:
        vals = [runs[f"{n}/trace0"]["end_to_end"].get(metric, {}) for n in names]
        print(f"{metric:<16}{unit:<8}"
              + "".join(f"{v.get('median', float('nan')):>16.5g}" for v in vals))
    print("\nper layer (traced runs)")
    print(f"{'metric':<38}{'unit':<9}" + "".join(f"{n:>16}" for n in names))
    for metric, unit in PER_LAYER:
        vals = [runs[f"{n}/trace1"].get("per_layer", {}).get(metric, {})
                for n in names]
        print(f"{metric:<38}{unit:<9}"
              + "".join(f"{v.get('value', float('nan')):>16.5g}" for v in vals))
    print(f"\nwrote {path}")
    ok = all(r["correct"] and r["failed"] == 0 for r in runs.values())
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "reludyn" / "__init__.py").is_file():
        print(f"no reludyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        return run_one(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
