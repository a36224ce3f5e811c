"""Config validation, record serialization, and the seeded stream helper."""

import contextlib
import dataclasses
import io
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mixlab
from mixlab import replica_stream
from mixlab.config import (
    COMMON,
    KINDS,
    SCHEMA,
    ConfigError,
    ExperimentConfig,
    k_from_rule,
    load_config,
    parse_config,
)
from mixlab.exclusion import ModelParams
from mixlab.experiments import _CurveRows, run_experiment, run_oracle_check
from mixlab.lumped import MixingProfile, d_curve
from mixlab.records import (
    ResultRecord,
    _printf_rows,
    config_hash,
    format_cell,
    render,
    write_record,
)
from reference import csv_reference, json_reference, tv_curve_rows


def test_replica_stream_determinism():
    a = replica_stream(12, 3, 4).random(8)
    b = replica_stream(12, 3, 4).random(8)
    np.testing.assert_array_equal(a, b)
    assert isinstance(replica_stream(12, 3, 4).bit_generator, np.random.SFC64)
    c = replica_stream(12, 3, 5).random(8)
    assert not np.array_equal(a, c)
    d = replica_stream(13, 3, 4).random(8)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError):
        replica_stream(-1)


MINIMAL = {
    "tv-curve": {"kind": "tv-curve", "n": 30, "k": 6, "t_max": 50},
    "sweep": {
        "kind": "sweep",
        "n_grid": [100, 200, 400],
        "k_rule": {"kind": "fraction", "value": 0.2},
    },
    "coupling": {"kind": "coupling", "n": 30, "k": 6, "t_values": [5, 20]},
    "bounds": {"kind": "bounds", "n": 30, "k": 6, "t_values": [5, 20], "threshold": 2},
    "hitting": {"kind": "hitting", "m": 2, "q": 0.5, "steps_values": [5, 20]},
    "oracle-check": {"kind": "oracle-check"},
}


@pytest.mark.parametrize("kind", KINDS)
def test_parse_minimal_configs(kind):
    config = parse_config(dict(MINIMAL[kind]))
    assert config.kind == kind
    assert config.seed == 0 and config.format == "csv" and config.threads == 1
    assert config.normalized["kind"] == kind
    # the normalized form is pure JSON data
    json.dumps(config.normalized)
    # fields of other kinds are None, not another kind's default (an
    # oracle-check config once carried replicas=100000, a tv-curve n_max=6)
    applies = {"kind", "normalized", *COMMON, *SCHEMA[kind]}
    for f in dataclasses.fields(ExperimentConfig):
        if f.name not in applies:
            assert getattr(config, f.name) is None, f.name


def test_config_fields_are_the_table_keys():
    """ExperimentConfig has kind, one field per key of the table, and the
    normalized form, which equality ignores."""
    fields = dataclasses.fields(ExperimentConfig)
    names = [f.name for f in fields]
    keys = {"kind", "normalized", *COMMON, *(key for table in SCHEMA.values() for key in table)}
    assert names[0] == "kind" and names[-1] == "normalized"
    assert len(names) == len(keys) and set(names) == keys
    assert [f.name for f in fields if not f.compare] == ["normalized"]
    assert ExperimentConfig.__module__ == "mixlab.config"
    with pytest.raises(dataclasses.FrozenInstanceError):
        parse_config(dict(MINIMAL["hitting"])).seed = 1


# For each kind, a config that trips one check of every key it sets, and
# every cross-field rule the kind has, with the exact problem strings.
EVERY_PROBLEM = {
    "tv-curve": (
        {"kind": "tv-curve", "n": 10, "k": 9, "stride": 0, "eps": [0.5, 1.5], "seed": -1,
         "threads": 0, "format": "yaml", "out": 3, "banana": 1},
        [
            "'format' must be 'csv' or 'json', got 'yaml'",
            "'out' must be a string path, got 3",
            "'seed' must be >= 0, got -1",
            "'stride' must be >= 1, got 0",
            "'threads' must be >= 1, got 0",
            "every entry of 'eps' must lie strictly between 0 and 1",
            "k must satisfy 1 <= k <= n/2, got k=9 for n=10",
            "missing required key 't_max'",
            "unknown key 'banana' for kind 'tv-curve'",
        ],
    ),
    "sweep": (
        {"kind": "sweep", "n_grid": [4, 100, 6], "k_rule": {"kind": "fraction", "value": 0.6},
         "eps": [], "seed": "s", "threads": True, "format": None},
        [
            "'eps' must be a nonempty list of numbers, got []",
            "'format' must be 'csv' or 'json', got None",
            "'seed' must be an integer, got 's'",
            "'threads' must be an integer, got True",
            "k rule gives k=4 for n=6; k must satisfy 1 <= k <= n/2",
            "k rule gives k=60 for n=100; k must satisfy 1 <= k <= n/2",
        ],
    ),
    "coupling": (
        {"kind": "coupling", "n": 10, "k": 6, "t_values": [5, -1], "replicas": 0},
        [
            "'replicas' must be >= 1, got 0",
            "every entry of 't_values' must be >= 0",
            "k must satisfy 1 <= k <= n/2, got k=6 for n=10",
        ],
    ),
    "bounds": (
        {"kind": "bounds", "n": 12, "k": 7, "t_values": [], "threshold": 7, "replicas": 1.5},
        [
            "'replicas' must be an integer, got 1.5",
            "'t_values' needs at least 1 entries, got 0",
            "'threshold' must be below k=7, got 7",
            "k must satisfy 1 <= k <= n/2, got k=7 for n=12",
        ],
    ),
    "hitting": (
        {"kind": "hitting", "m": 0, "q": 1.5, "steps_values": "5", "replicas": -3, "n": 5},
        [
            "'m' must be >= 1, got 0",
            "'q' must be <= 1.0, got 1.5",
            "'replicas' must be >= 1, got -3",
            "'steps_values' must be a list of integers, got '5'",
            "unknown key 'n' for kind 'hitting'",
        ],
    ),
    "oracle-check": (
        {"kind": "oracle-check", "n_max": 9, "t_max": -1, "walk_m_max": 0,
         "walk_steps_max": 201, "walk_q": [0.5, 2.0], "pair_n_max": 1, "tol": 0.0},
        [
            "'n_max' must be <= 8, got 9",
            "'pair_n_max' must be >= 2, got 1",
            "'t_max' must be >= 0, got -1",
            "'tol' must be > 0.0, got 0.0",
            "'walk_m_max' must be >= 1, got 0",
            "'walk_q' must be a nonempty list of numbers in (0, 1]",
            "'walk_steps_max' must be <= 200, got 201",
        ],
    ),
}


@pytest.mark.parametrize("kind", KINDS)
def test_parse_reports_every_problem_of_kind(kind):
    raw, expected = EVERY_PROBLEM[kind]
    with pytest.raises(ConfigError) as exc_info:
        parse_config(dict(raw))
    assert sorted(exc_info.value.problems) == expected


def test_parse_sweep_k_rule_messages():
    base = dict(MINIMAL["sweep"])
    for rule in (None, {"kind": "fraction"}):
        with pytest.raises(ConfigError) as exc_info:
            parse_config(dict(base, k_rule=rule, n_grid=[100, 200]))
        assert sorted(exc_info.value.problems) == sorted([
            "'n_grid' needs at least 3 entries, got 2",
            "missing required key 'k_rule'" if rule is None else
            "'k_rule' must be {'kind': one of ['fraction', 'power', 'sqrt_multiple'], "
            "'value': positive number}, got {'kind': 'fraction'}",
        ])


@pytest.mark.parametrize("value", ["1000", "1e400"])
def test_parse_sweep_k_rule_overflow(value):
    """A rule whose k overflows is a config problem per grid size, not a crash."""
    raw = json.loads('{"kind": "sweep", "n_grid": [100, 200, 400], '
                     f'"k_rule": {{"kind": "power", "value": {value}}}}}')
    with pytest.raises(ConfigError) as exc_info:
        parse_config(raw)
    assert exc_info.value.problems == [
        f"k rule gives no finite k for n={n}; k must satisfy 1 <= k <= n/2"
        for n in (100, 200, 400)
    ]


def test_parse_number_beyond_float_range():
    with pytest.raises(ConfigError) as exc_info:
        parse_config(dict(MINIMAL["hitting"], q=10**400))
    assert exc_info.value.problems == ["'q' is out of range"]


def test_readme_rows_name_every_key():
    """Each kind's row of the README config table lists every key of its schema."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    for kind in KINDS:
        rows = [ln for ln in readme.splitlines() if ln.startswith(f"| `{kind}` |")]
        assert len(rows) == 1, kind
        named = set(re.findall(r"`([a-z_]+)`", rows[0]))
        assert set(SCHEMA[kind]) <= named, (kind, set(SCHEMA[kind]) - named)
    common = next(ln for ln in readme.split("\n\n") if ln.startswith("Common keys"))
    assert set(COMMON) <= set(re.findall(r"`([a-z_]+)`", common))


def test_readme_oracle_note_names_every_identity():
    """The README's oracle-check note names each identity the check emits."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    start = readme.index("`oracle-check` deserves a note")
    note = readme[start : readme.index("\n## ", start)]
    config = parse_config({"kind": "oracle-check", "n_max": 3, "t_max": 2, "pair_n_max": 3,
                           "walk_m_max": 1, "walk_steps_max": 2, "walk_q": [0.5]})
    identities = {row[0] for row in run_oracle_check(config).rows}
    assert len(identities) == 11
    missing = {name for name in identities if f"`{name}`" not in note}
    assert not missing, missing


def test_parse_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        parse_config({"kind": "walk"})
    with pytest.raises(ConfigError):
        parse_config({})


def test_parse_collects_every_problem():
    raw = {
        "kind": "tv-curve",
        "n": 10,
        "k": 9,  # exceeds n/2
        "stride": 0,  # below 1
        "seed": -4,  # negative
        "banana": 1,  # unknown key
    }  # t_max missing
    with pytest.raises(ConfigError) as exc_info:
        parse_config(raw)
    problems = exc_info.value.problems
    assert len(problems) == 5
    assert any("k must satisfy 1 <= k <= n/2" in p for p in problems)
    assert any("banana" in p for p in problems)
    assert any("t_max" in p for p in problems)
    assert any("stride" in p for p in problems)
    assert any("seed" in p for p in problems)


def test_parse_type_checks():
    raw = dict(MINIMAL["tv-curve"], n="thirty")
    with pytest.raises(ConfigError):
        parse_config(raw)
    raw = dict(MINIMAL["tv-curve"], n=True)  # bool is not an int here
    with pytest.raises(ConfigError):
        parse_config(raw)
    raw = dict(MINIMAL["tv-curve"], eps=[0.5, 1.5])
    with pytest.raises(ConfigError):
        parse_config(raw)
    raw = dict(MINIMAL["tv-curve"], format="yaml")
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_parse_sweep_rule_must_fit_grid():
    raw = {
        "kind": "sweep",
        "n_grid": [100, 200, 400],
        "k_rule": {"kind": "fraction", "value": 0.9},  # k > n/2 everywhere
    }
    with pytest.raises(ConfigError) as exc_info:
        parse_config(raw)
    assert all("k must satisfy" in p for p in exc_info.value.problems)
    with pytest.raises(ConfigError):
        parse_config({"kind": "sweep", "n_grid": [100, 200], "k_rule": {"kind": "fraction", "value": 0.2}})


def test_parse_coupling_takes_no_start_keys():
    """The coupling runs from the worst pair (k, 0) only: x and y are unknown keys."""
    with pytest.raises(ConfigError) as exc_info:
        parse_config(dict(MINIMAL["coupling"], x=4, y=2))
    assert exc_info.value.problems == [
        "unknown key 'x' for kind 'coupling'",
        "unknown key 'y' for kind 'coupling'",
    ]


def test_parse_bounds_threshold_range():
    with pytest.raises(ConfigError):
        parse_config(dict(MINIMAL["bounds"], threshold=6))
    with pytest.raises(ConfigError):
        parse_config(dict(MINIMAL["bounds"], threshold=0))


def test_parse_oracle_check_ranges():
    config = parse_config(dict(MINIMAL["oracle-check"]))
    assert config.n_max == 6 and config.pair_n_max == 12 and config.tol == 1e-10
    assert config.walk_q == (0.1, 0.5, 1.0)
    with pytest.raises(ConfigError):
        parse_config({"kind": "oracle-check", "n_max": 9})
    with pytest.raises(ConfigError):
        parse_config({"kind": "oracle-check", "tol": 0.0})
    # JSON reads both as inf, which would let every identity pass
    for text in ('{"kind": "oracle-check", "tol": Infinity}', '{"kind": "oracle-check", "tol": 1e400}'):
        with pytest.raises(ConfigError) as exc_info:
            parse_config(json.loads(text))
        assert exc_info.value.problems == ["'tol' must be finite, got inf"]
    with pytest.raises(ConfigError):
        parse_config({"kind": "oracle-check", "walk_q": [0.5, 2.0]})
    # the cap: a walk from m above walk_steps_max (at most 200) cannot reach 0
    with pytest.raises(ConfigError) as exc_info:
        parse_config(dict(MINIMAL["oracle-check"], walk_m_max=201))
    assert exc_info.value.problems == ["'walk_m_max' must be <= 200, got 201"]
    # the cap: t_max at 10 000 keeps each instance's array of laws under 400 KB
    assert parse_config(dict(MINIMAL["oracle-check"], t_max=10_000)).t_max == 10_000
    with pytest.raises(ConfigError) as exc_info:
        parse_config(dict(MINIMAL["oracle-check"], t_max=10_001))
    assert exc_info.value.problems == ["'t_max' must be <= 10000, got 10001"]


def test_k_from_rule():
    assert k_from_rule(("fraction", 0.2), 1000) == 200
    assert k_from_rule(("power", 0.3), 1000) == math.ceil(1000**0.3)
    assert k_from_rule(("sqrt_multiple", 1.0), 1000) == 32
    with pytest.raises(ValueError):
        k_from_rule(("cube", 1.0), 1000)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(arr))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(MINIMAL["tv-curve"]), encoding="utf-8")
    assert load_config(str(good)) == MINIMAL["tv-curve"]


def test_load_config_unreadable(tmp_path):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"note": "café"}'.encode("latin-1"))
    for path in (tmp_path, latin1):
        with pytest.raises(ConfigError) as exc_info:
            load_config(str(path))
        [problem] = exc_info.value.problems
        assert problem.startswith("config file could not be read: ")


def test_config_hash_is_order_independent():
    a = config_hash({"b": 1, "a": [1, 2]})
    b = config_hash({"a": [1, 2], "b": 1})
    assert a == b
    assert len(a) == 16 and all(c in "0123456789abcdef" for c in a)
    assert config_hash({"a": [1, 2], "b": 2}) != a


def test_format_cell():
    assert format_cell(None) == ""
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(7) == "7"
    assert format_cell("x") == "x"
    # 17 significant digits round-trips doubles exactly
    for value in (0.1, 1.0 / 3.0, 2.0**-40, 6.02e23):
        assert float(format_cell(value)) == value


def _sample_record():
    return ResultRecord(
        experiment="tv-curve",
        meta={"seed": 3, "n": 30, "a": 0.5},
        columns=["t", "d"],
        rows=[(0, 0.875), (1, None)],
    )


def _written(record, fmt, tmp_path, capsys) -> str:
    """The text write_record writes to a file, checked equal to what it
    writes to stdout; the UTF-8 sizes of render's chunks, which the
    benchmark counts as bytes rendered, add up to the file's size."""
    path = tmp_path / f"out.{fmt}"
    write_record(record, str(path), fmt)
    data = path.read_bytes()
    write_record(record, None, fmt)
    assert capsys.readouterr().out.encode("utf-8") == data
    starts = range(0, max(len(record.rows), 1), 1024)
    assert sum(len(render(record, fmt, start).encode("utf-8")) for start in starts) == len(data)
    return data.decode("utf-8")


def test_csv_layout(tmp_path, capsys):
    text = _written(_sample_record(), "csv", tmp_path, capsys)
    lines = text.splitlines()
    assert lines[0] == "# a=0.5"  # metadata keys come out sorted
    assert lines[1] == "# n=30"
    assert lines[2] == "# seed=3"
    assert lines[3] == "t,d"
    assert lines[4] == "0,0.875"
    assert lines[5] == "1,"
    assert text.endswith("\n")


def test_csv_rows_match_the_cell_by_cell_writer(tmp_path, capsys):
    """Printf rows give csv.writer's bytes; a chunk with a cell of another
    type, or a str that needs quoting, falls back to csv.writer."""
    odd = [
        -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.0 / 3.0, 2**70, -7, True, None,
        "", "plain", " lead", np.float64(0.1),
    ]
    quoted = ["a,b", 'say "x"', "two\nlines", "cr\r"]
    rows = [(t, t / 7.0, "") for t in range(1024 * (2 + len(quoted)))]
    for i, value in enumerate(odd):
        rows[i] = (i, value, "")  # the first chunk mixes cell types
        rows.append((value, i))
    for i, value in enumerate(quoted):
        rows[1024 * (2 + i) + 5] = (i, 0.5, value)  # one str to quote per chunk
    rows += [("n=2,k=1", 1e-16), ("", "")]
    record = ResultRecord("x", {"version": "1", "k": None}, ["a", "b", "c"], rows)
    assert _written(record, "csv", tmp_path, capsys) == csv_reference(record)
    fallback = [_printf_rows(rows[start : start + 1024], 3) is None
                for start in range(0, 1024 * (2 + len(quoted)), 1024)]
    assert fallback == [True, False] + [True] * len(quoted)
    for width, row in ((1, ("",)), (1, (0.25,)), (2, (1, 2.5)), (0, ())):
        one = ResultRecord("x", {}, ["c"] * width, [row, row])
        assert _written(one, "csv", tmp_path, capsys) == csv_reference(one)


def test_json_text_is_one_dump_of_the_payload(tmp_path, capsys):
    """Rows dumped a chunk at a time give the bytes of one json.dumps,
    through the C encoder where a chunk's cells allow it and through the
    indenting encoder where a chunk holds another type or an empty row."""
    odd = [
        -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.0 / 3.0, 2**70, -7, True, False, None,
        "", 'say "x"', "two\nlines", "cr\r", "\u00e9", "]", "],\n      [", "[1, 2]",
    ]
    rows = [(t, t / 7.0, "") for t in range(5000)]
    for i, value in enumerate(odd):
        rows[1020 + i] = (i, value, "")  # odd cells across a chunk boundary
    # chunks for the indenting encoder: a float subclass, a nested list, an empty row
    rows[2100] = (1, np.float64(0.1), "")
    rows[3100] = (2, [0.5, [None, "]"]], "")
    rows[4100] = ()
    for meta, body in (({}, []), ({"k": None}, [(1, 0.5)]), ({"b": 1, "a": "x"}, rows)):
        record = ResultRecord("x", meta, ["a", "b", "c"], body)
        assert _written(record, "json", tmp_path, capsys) == json_reference(record)
    width_zero = ResultRecord("x", {}, [], [(), ()])
    assert _written(width_zero, "json", tmp_path, capsys) == json_reference(width_zero)


#: tv-curve configs whose eps is reached at t = 0, and never within 2048 steps.
_REACHED = {"kind": "tv-curve", "n": 4, "k": 2, "eps": [0.9]}
_UNREACHED = {"kind": "tv-curve", "n": 20000, "k": 283, "eps": [0.25]}


def _tv_curve_record(payload, t_max):
    """A tv-curve record from the runner and the same record with its rows
    built as one list."""
    config = parse_config(dict(payload, t_max=t_max))
    record = run_experiment(config)
    warning = "" if payload is _REACHED else "eps_not_reached"
    profile = d_curve(ModelParams(config.n, config.k), t_max)
    return record, dataclasses.replace(record, rows=tv_curve_rows(profile, warning))


@pytest.mark.parametrize("payload", [_REACHED, _UNREACHED], ids=["reached", "unreached"])
@pytest.mark.parametrize("rows", [1, 2, 1023, 1024, 1025, 2049])
def test_tv_curve_record_renders_as_its_row_list(payload, rows, tmp_path, capsys):
    record, eager = _tv_curve_record(payload, rows - 1)
    assert _written(record, "csv", tmp_path, capsys) == csv_reference(eager)
    assert _written(record, "json", tmp_path, capsys) == json_reference(eager)


@pytest.mark.parametrize("payload", [_REACHED, _UNREACHED], ids=["reached", "unreached"])
def test_tv_curve_rows_index_as_their_list(payload):
    record, eager = _tv_curve_record(payload, 1100)
    rows, expected = record.rows, eager.rows
    assert len(rows) == len(expected) == 1101
    assert list(rows) == expected
    assert rows[-1] == expected[-1]
    assert rows[-1][2] == ("" if payload is _REACHED else "eps_not_reached")
    assert rows[0] == expected[0] and rows[-1101] == expected[0]
    for index in (slice(None, -1), slice(None, None, -1), slice(1000, None, 7),
                  slice(-3, None), slice(5, 3), slice(None)):
        assert rows[index] == expected[index]
    for index in (1101, -1102):
        with pytest.raises(IndexError):
            rows[index]


def test_write_record_writes_long_text_whole(tmp_path, capsys):
    """Non-ASCII cells across several 64 KiB of text reach a file and
    stdout unchanged."""
    rows = [(t, t / 3.0, "\u00e9" * (t % 5)) for t in range(12000)]
    record = ResultRecord("x", {"n": 1}, ["t", "d", "s"], rows)
    for fmt, reference in (("csv", csv_reference), ("json", json_reference)):
        text = _written(record, fmt, tmp_path, capsys)
        assert len(text) > 3 * 65536
        assert text == reference(record)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_record_holds_one_chunk(tmp_path, fmt):
    """A record of 200 000 rows built from arrays on demand is written a
    chunk at a time: the traced peak stays far below the text written."""
    times = np.arange(200_000)
    profile = MixingProfile(ModelParams(4, 2), times, times / 7.0)
    record = ResultRecord("x", {"n": 1}, ["t", "d", "warning"], _CurveRows(profile, ""))
    path = tmp_path / f"out.{fmt}"
    tracemalloc.start()
    try:
        write_record(record, str(path), fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 4_000_000
    assert peak < 1_000_000


def test_readme_minimal_session_prints_its_comments():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    start = readme.index("A minimal session:")
    code = readme[readme.index("```python\n", start) + 10 : readme.index("```", readme.index("```python", start) + 9)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == ["1946", "{0.9: 1106, 0.1: 2414}"]
    printed = [line.split("# ")[1] for line in code.splitlines() if "# " in line]
    assert printed == out.getvalue().splitlines()


def test_json_layout(tmp_path, capsys):
    text = _written(_sample_record(), "json", tmp_path, capsys)
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["experiment"] == "tv-curve"
    assert payload["columns"] == ["t", "d"]
    assert payload["rows"] == [[0, 0.875], [1, None]]


def test_render_and_write(tmp_path, capsys):
    record = _sample_record()
    with pytest.raises(ValueError):
        render(record, "yaml", 0)
    with pytest.raises(ValueError, match="format must be 'csv' or 'json'"):
        write_record(record, str(tmp_path / "out.yaml"), "yaml")
    assert not (tmp_path / "out.yaml").exists()
    assert _written(record, "csv", tmp_path, capsys) == csv_reference(record)
    assert _written(record, "json", tmp_path, capsys) == json_reference(record)
    empty = ResultRecord("x", {"n": 1}, ["t", "d"], [])
    assert _written(empty, "csv", tmp_path, capsys) == csv_reference(empty)
    assert _written(empty, "json", tmp_path, capsys) == json_reference(empty)


def test_package_version_matches_pyproject():
    """Records carry ``mixlab.__version__``; pyproject.toml states it again,
    and both are bumped by hand."""
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as handle:
        assert mixlab.__version__ == tomllib.load(handle)["project"]["version"]
