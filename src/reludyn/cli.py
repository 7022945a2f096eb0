"""Command-line front end.

One subcommand per experiment family; JSON configs share the packaged
schema.  Flags override the config's seed list, worker count, and
guarantee mode.  Exit codes: 0 success, 2 bad config, 3 a check-style
run reported failures or a measurement was numerically unusable, 4 I/O
trouble.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    ConfigurationError,
    DegenerateBatchError,
    NumericError,
    PreconditionError,
)
from .experiments import _validator, emit_reports, make_config, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3
EXIT_IO = 4

# subcommand -> config kind; ablate reads the kind from the config
_SUBCOMMANDS: dict[str, str | None] = {
    "verify-identity": "verify_identity",
    "train": "train",
    "overparam-grid": "overparam_grid",
    "ablate": None,
    "lottery": "lottery",
    "bn-audit": "bn_audit",
    "psi-check": "psi_check",
    "falloff": "falloff_probe",
}

_ABLATE_KINDS = tuple(
    kind for kind in _validator().schema["properties"]["kind"]["enum"]
    if kind.startswith("ablate_")
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reludyn",
        description="Teacher-student ReLU training laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seeds", help="comma-separated seed list")
        p.add_argument("--plots", action="store_true",
                       help="emit SVG line plots")
        p.add_argument("--workers", type=int, help="parallel workers")
        p.add_argument("--mode", choices=("guaranteed", "free-run"))
    return parser


def _build_config(args) -> dict:
    data: dict = {}
    if args.config:
        text = Path(args.config).read_text(encoding="utf-8")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"config is not valid JSON: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ConfigurationError("config must be a JSON object")
    wanted = _SUBCOMMANDS[args.command]
    if wanted is None:
        kind = data.get("kind", "ablate_size")
        if kind not in _ABLATE_KINDS:
            raise ConfigurationError(
                f"ablate config kind must be one of {_ABLATE_KINDS}, "
                f"got {kind!r}"
            )
        data["kind"] = kind
    else:
        if "kind" in data and data["kind"] != wanted:
            raise ConfigurationError(
                f"config kind {data['kind']!r} does not match "
                f"subcommand {args.command!r}"
            )
        data["kind"] = wanted
    if args.seeds is not None:
        try:
            data["seeds"] = [
                int(s) for s in args.seeds.split(",") if s.strip()
            ]
        except ValueError as exc:
            raise ConfigurationError(
                f"--seeds must be comma-separated integers: {args.seeds!r}"
            ) from exc
        if not data["seeds"]:
            raise ConfigurationError("--seeds produced an empty list")
    if args.workers is not None:
        data["workers"] = args.workers
    if args.mode is not None:
        data["mode"] = args.mode
    return data


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = make_config(_build_config(args))
        log = run_experiment(cfg)
        out_dir = args.out or f"runs/{cfg.kind}-{cfg.config_hash[:8]}"
        files = emit_reports(log, out_dir, plots=args.plots)
    except (ConfigurationError, PreconditionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, DegenerateBatchError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for path in files:
        print(path)
    status = "FAIL" if log.failed else "ok"
    print(
        f"{cfg.kind}: {status}, rows={len(log.rows)}, "
        f"hash={cfg.config_hash}, wall={log.wall_clock:.2f}s"
    )
    if log.failed:
        return EXIT_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
