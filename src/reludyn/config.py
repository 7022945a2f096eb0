"""Experiment configs: the packaged schema, the walk that checks and
types a config against it, and the grid's cell key."""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources

from .errors import ConfigurationError
from .teachers import check_mixing_factors

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


def kinds() -> tuple[str, ...]:
    """The experiment kinds the schema names, in its order."""
    return tuple(_schema_facts()[0]["properties"]["kind"]["enum"])


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


def _cell_key(overparam: int, p_w: float, p_v: float) -> str:
    fmt = lambda v: f"{v:g}".replace(".", "p")
    return f"x{overparam}_pw{fmt(p_w)}_pv{fmt(p_v)}"
