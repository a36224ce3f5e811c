"""Experiment configuration: parsing and strict validation.

Configs are flat JSON objects.  One table, :data:`SCHEMA`, names each
kind's keys with their check and default (:data:`COMMON` holds the keys
every kind takes); :class:`ExperimentConfig` has one field per key of
it, and ``parse_config`` walks it and then applies the cross-field
rules.  Every problem in a config is reported in one shot
(unknown keys, missing keys, out-of-range values), so a user fixes the
file once rather than replaying the parser.
"""

from __future__ import annotations

import json
import math
from dataclasses import field, make_dataclass
from typing import Any, Callable

K_RULE_KINDS = ("fraction", "power", "sqrt_multiple")

#: Default of a key that every config of its kind must give.
REQUIRED = object()


class ConfigError(ValueError):
    """Invalid configuration; ``problems`` lists every violation found."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(problems))


# A check maps (key, raw value) to the parsed value or raises ConfigError.
Check = Callable[[str, Any], Any]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int(lo: int, hi: int | None = None) -> Check:
    def check(key, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError([f"'{key}' must be an integer, got {value!r}"])
        if value < lo:
            raise ConfigError([f"'{key}' must be >= {lo}, got {value}"])
        if hi is not None and value > hi:
            raise ConfigError([f"'{key}' must be <= {hi}, got {value}"])
        return value

    return check


def _number(lo_open: float, hi: float | None = None) -> Check:
    def check(key, value):
        if not _is_number(value):
            raise ConfigError([f"'{key}' must be a number, got {value!r}"])
        value = float(value)
        if not value > lo_open:
            raise ConfigError([f"'{key}' must be > {lo_open}, got {value}"])
        if not math.isfinite(value):
            raise ConfigError([f"'{key}' must be finite, got {value}"])
        if hi is not None and value > hi:
            raise ConfigError([f"'{key}' must be <= {hi}, got {value}"])
        return value

    return check


def _int_list(lo: int, min_len: int = 1) -> Check:
    def check(key, value):
        if not isinstance(value, list) or any(isinstance(v, bool) or not isinstance(v, int) for v in value):
            raise ConfigError([f"'{key}' must be a list of integers, got {value!r}"])
        if len(value) < min_len:
            raise ConfigError([f"'{key}' needs at least {min_len} entries, got {len(value)}"])
        if any(v < lo for v in value):
            raise ConfigError([f"every entry of '{key}' must be >= {lo}"])
        return tuple(value)

    return check


def _eps(key, value):
    if not isinstance(value, list) or not value or not all(map(_is_number, value)):
        raise ConfigError([f"'{key}' must be a nonempty list of numbers, got {value!r}"])
    eps = tuple(float(v) for v in value)
    if any(not 0.0 < e < 1.0 for e in eps):
        raise ConfigError([f"every entry of '{key}' must lie strictly between 0 and 1"])
    return tuple(dict.fromkeys(eps))  # dedupe, preserve order


def _walk_q(key, value):
    if not isinstance(value, list) or not value or not all(
        _is_number(v) and 0 < float(v) <= 1 for v in value
    ):
        raise ConfigError([f"'{key}' must be a nonempty list of numbers in (0, 1]"])
    return tuple(float(v) for v in value)


def _k_rule(key, rule):
    if rule is None:
        raise ConfigError([f"missing required key '{key}'"])
    if (
        not isinstance(rule, dict)
        or set(rule) != {"kind", "value"}
        or rule["kind"] not in K_RULE_KINDS
        or not _is_number(rule["value"])
        or not float(rule["value"]) > 0
    ):
        raise ConfigError([
            f"'{key}' must be {{'kind': one of "
            f"{list(K_RULE_KINDS)}, 'value': positive number}}, got {rule!r}"
        ])
    return (rule["kind"], float(rule["value"]))


def _format(key, value):
    if value not in ("csv", "json"):
        raise ConfigError([f"'{key}' must be 'csv' or 'json', got {value!r}"])
    return value


def _out(key, value):
    if value is not None and not isinstance(value, str):
        raise ConfigError([f"'{key}' must be a string path, got {value!r}"])
    return value


#: Keys every kind takes: key -> (check, default).
COMMON: dict[str, tuple[Check, Any]] = {
    "seed": (_int(0), 0),
    "threads": (_int(1), 1),
    "format": (_format, "csv"),
    "out": (_out, None),
}

_N, _K = (_int(2), REQUIRED), (_int(1), REQUIRED)
_REPLICAS = (_int(1), 100_000)

#: Each kind's own keys: kind -> {key: (check, default or REQUIRED)}.
#: Problems are reported in table order, common keys first.
SCHEMA: dict[str, dict[str, tuple[Check, Any]]] = {
    "tv-curve": {
        "n": _N, "k": _K, "t_max": (_int(0), REQUIRED), "stride": (_int(1), 1),
        "eps": (_eps, (0.25,)),
    },
    "sweep": {
        "n_grid": (_int_list(2, min_len=3), REQUIRED), "k_rule": (_k_rule, REQUIRED),
        "eps": (_eps, (0.1,)),
    },
    "coupling": {"n": _N, "k": _K, "t_values": (_int_list(0), REQUIRED), "replicas": _REPLICAS},
    "bounds": {
        "n": _N, "k": _K, "t_values": (_int_list(0), REQUIRED),
        "threshold": (_int(1), REQUIRED), "replicas": _REPLICAS,
    },
    "hitting": {
        "m": (_int(1), REQUIRED), "q": (_number(0.0, 1.0), REQUIRED),
        "steps_values": (_int_list(0), REQUIRED), "replicas": _REPLICAS,
    },
    "oracle-check": {
        "n_max": (_int(2, 8), 6), "t_max": (_int(0, 10_000), 30),
        "walk_m_max": (_int(1, 200), 5), "walk_steps_max": (_int(0, 200), 30),
        "pair_n_max": (_int(2, 50), 12),
        "tol": (_number(0.0), 1e-10), "walk_q": (_walk_q, (0.1, 0.5, 1.0)),
    },
}

KINDS = tuple(SCHEMA)


# One field per key of the table, in table order; keys that several kinds
# share (n, k, eps, ...) appear once.
_KEYS = dict.fromkeys(key for table in (COMMON, *SCHEMA.values()) for key in table)

ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    [
        ("kind", str),
        *((key, Any, None) for key in _KEYS),
        ("normalized", dict, field(default_factory=dict, compare=False)),
    ],
    frozen=True,
    namespace={
        "__module__": __name__,
        "__doc__": """Validated experiment description.  Every key of the config's kind
    and of :data:`COMMON` is filled in; fields of other kinds are None.""",
    },
)


def parse_config(raw: dict[str, Any]) -> ExperimentConfig:
    """Validate a raw mapping into an ExperimentConfig.

    Raises :class:`ConfigError` carrying the complete list of problems.
    """
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigError([f"'kind' must be one of {list(KINDS)}, got {kind!r}"])

    table = {**COMMON, **SCHEMA[kind]}
    problems = [
        f"unknown key '{key}' for kind '{kind}'" for key in sorted(set(raw) - set(table) - {"kind"})
    ]
    values: dict[str, Any] = {}  # the keys that are present and valid, or defaulted
    for key, (check, default) in table.items():
        try:
            if key in raw:
                values[key] = check(key, raw[key])
            elif default is not REQUIRED:
                values[key] = default
            else:
                problems.append(f"missing required key '{key}'")
        except ConfigError as exc:
            problems += exc.problems
        except OverflowError:  # an integer beyond float range
            problems.append(f"'{key}' is out of range")
    problems += _cross_checks(values)
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(kind=kind, normalized=_normalize(kind, values), **values)


def _cross_checks(values: dict[str, Any]) -> list[str]:
    """The rules that tie keys together; each applies only when the keys
    it reads are present and valid."""
    problems = []
    n, k = values.get("n"), values.get("k")
    if n is not None and k is not None and not 1 <= k <= n // 2:
        problems.append(f"k must satisfy 1 <= k <= n/2, got k={k} for n={n}")
    if "k_rule" in values:
        for n_point in values.get("n_grid", ()):
            try:
                k_point = k_from_rule(values["k_rule"], n_point)
            except OverflowError:
                problems.append(
                    f"k rule gives no finite k for n={n_point}; k must satisfy 1 <= k <= n/2"
                )
                continue
            if not 1 <= k_point <= n_point // 2:
                problems.append(
                    f"k rule gives k={k_point} for n={n_point}; k must satisfy 1 <= k <= n/2"
                )
    threshold = values.get("threshold")
    if threshold is not None and k is not None and threshold >= k:
        problems.append(f"'threshold' must be below k={k}, got {threshold}")
    return problems


def _normalize(kind: str, values: dict[str, Any]) -> dict:
    """Canonical plain-data form of the config (defaults filled), used for
    hashing and for the metadata header."""
    data: dict[str, Any] = {"kind": kind, "seed": values["seed"], "format": values["format"]}
    for key in sorted(SCHEMA[kind]):
        value = values[key]
        if key == "k_rule":
            value = {"kind": value[0], "value": value[1]}
        elif isinstance(value, tuple):
            value = list(value)
        data[key] = value
    return data


def k_from_rule(rule: tuple[str, float], n: int) -> int:
    """Particle count for a sweep grid point: fraction of n, power of n,
    or multiple of sqrt(n)."""
    kind, value = rule
    if kind == "fraction":
        return int(round(value * n))
    if kind == "power":
        return math.ceil(n**value)
    if kind == "sqrt_multiple":
        return math.ceil(value * math.sqrt(n))
    raise ValueError(f"unknown k rule kind {kind!r}")


def load_config(path: str) -> dict[str, Any]:
    """Read a JSON config file (read and parse errors surface as ConfigError)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"]) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"config file could not be read: {exc}"]) from None
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ConfigError([f"config file is not valid JSON: {exc}"]) from None
    if not isinstance(data, dict):
        raise ConfigError(["config file must contain a JSON object"])
    return data
