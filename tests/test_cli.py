"""End-to-end CLI behavior and the experiment runners behind it."""

import json
import resource
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from mixlab import ModelParams, cli, lumped, walk
from mixlab.config import parse_config
from mixlab.experiments import OracleFailure, run_experiment, run_oracle_check
from mixlab.lumped import BirthDeathKernel, build_kernel
from test_config_records import MINIMAL


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "mixlab", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_cli_tv_curve_csv_output(tmp_path):
    cfg = _write_config(
        tmp_path, "c.json", {"kind": "tv-curve", "n": 40, "k": 8, "t_max": 30, "seed": 5}
    )
    result = _run_cli(["tv-curve", "--config", cfg], tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    meta = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln.startswith("# seed=5") for ln in meta)
    assert any(ln.startswith("# config=") for ln in meta)
    header_idx = len(meta)
    assert lines[header_idx] == "t,d,warning"
    assert len(lines) == header_idx + 1 + 31
    first = lines[header_idx + 1].split(",")
    assert first[0] == "0" and 0.9 < float(first[1]) <= 1.0


def test_cli_rerun_is_byte_identical(tmp_path):
    cfg = _write_config(
        tmp_path,
        "c.json",
        {"kind": "coupling", "n": 40, "k": 8, "t_values": [10, 40], "replicas": 2000},
    )
    a = _run_cli(["coupling", "--config", cfg, "--seed", "9"], tmp_path)
    b = _run_cli(["coupling", "--config", cfg, "--seed", "9"], tmp_path)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    c = _run_cli(["coupling", "--config", cfg, "--seed", "10"], tmp_path)
    assert c.stdout != a.stdout


def test_cli_json_format_and_out_file(tmp_path):
    cfg = _write_config(
        tmp_path, "c.json", {"kind": "hitting", "m": 2, "q": 0.5, "steps_values": [5, 25],
                             "replicas": 2000}
    )
    out = tmp_path / "result.json"
    result = _run_cli(
        ["hitting", "--config", cfg, "--format", "json", "--out", str(out)], tmp_path
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["experiment"] == "hitting"
    assert payload["columns"] == ["steps", "exact", "simulated", "stderr"]
    assert len(payload["rows"]) == 2
    for steps, exact, simulated, stderr in payload["rows"]:
        assert abs(simulated - exact) < 4.0 * max(stderr, 1e-3)


def test_cli_invalid_config_lists_problems(tmp_path):
    cfg = _write_config(
        tmp_path, "c.json", {"kind": "tv-curve", "n": 10, "k": 9, "seed": -1}
    )
    result = _run_cli(["tv-curve", "--config", cfg], tmp_path)
    assert result.returncode == 1
    assert result.stdout == ""
    errors = [ln for ln in result.stderr.splitlines() if ln.startswith("config error: ")]
    assert len(errors) == 3  # bad k, bad seed, missing t_max
    assert any("k must satisfy" in ln for ln in errors)


def test_cli_kind_mismatch_and_missing_file(tmp_path):
    cfg = _write_config(tmp_path, "c.json", {"kind": "tv-curve", "n": 10, "k": 2, "t_max": 5})
    result = _run_cli(["sweep", "--config", cfg], tmp_path)
    assert result.returncode == 1
    assert "does not match subcommand" in result.stderr
    result = _run_cli(["tv-curve", "--config", str(tmp_path / "nope.json")], tmp_path)
    assert result.returncode == 1
    assert "not found" in result.stderr


def test_cli_requires_subcommand_and_config(tmp_path):
    # the usage line shows the exit comes from argparse, not a failed import
    for args in ([], ["tv-curve"]):
        result = _run_cli(args, tmp_path)
        assert result.returncode == 1
        assert result.stderr.startswith("usage: mixlab"), result.stderr


def test_cli_horizon_error_exits_cleanly(tmp_path, monkeypatch, capsys):
    """A threshold not reached within the horizon is exit 1, not a traceback."""
    monkeypatch.setattr(lumped, "default_horizon", lambda params, eps_min: 5)
    cfg = _write_config(
        tmp_path,
        "c.json",
        {"kind": "sweep", "n_grid": [40, 60, 80], "k_rule": {"kind": "fraction", "value": 0.2}},
    )
    assert cli.main(["sweep", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: d(t) did not reach eps=")
    assert "within the horizon 5" in captured.err


def test_cli_allocation_failure_exits_cleanly(tmp_path, monkeypatch, capsys):
    """Arrays too large to allocate are exit 1, not a traceback.

    The sampler is patched to fail as numpy does, so nothing is allocated.
    """
    def too_large(params, t_cap, replicas, rng):
        raise MemoryError(f"Unable to allocate 72.8 TiB for an array with shape ({replicas},)")

    monkeypatch.setattr(walk, "hitting_time_samples", too_large)
    cfg = _write_config(tmp_path, "c.json", {"kind": "hitting", "m": 2, "q": 0.5,
                                             "steps_values": [10], "replicas": 10**13})
    assert cli.main(["hitting", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: Unable to allocate 72.8 TiB for an array with shape (10000000000000,)\n"
    )


def test_cli_hitting_with_a_tiny_move_probability_exits_cleanly(tmp_path, capsys):
    """A q the hold sampler cannot take is exit 1 with one line, not a wrapped time."""
    cfg = _write_config(tmp_path, "c.json", {"kind": "hitting", "m": 1, "q": 1e-19,
                                             "steps_values": [1000], "replicas": 5})
    assert cli.main(["hitting", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: move probability q=1e-19 ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("payload", [
    {"n": 40000, "k": 2000, "t_max": 10**12},  # 2e15 state-steps, 1e12 rows
    {"n": 40000, "k": 2000, "t_max": 10**8, "stride": 1000},  # 2e11 state-steps
    {"n": 40, "k": 1, "t_max": 2 * 10**7, "stride": 4},  # 5e6 rows
])
def test_cli_tv_curve_refuses_an_oversized_curve(tmp_path, capsys, payload):
    """Too many state-steps or rows is exit 1 with one line, before any allocation."""
    cfg = _write_config(tmp_path, "c.json", dict(payload, kind="tv-curve"))
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = cli.main(["tv-curve", "--config", cfg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert time.perf_counter() - start < 5.0
    assert peak < 1_000_000
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: t_max={payload['t_max']} with k={payload['k']} ")
    assert "beyond the cap" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("fmt, bound", [("csv", 4_500_000), ("json", 8_000_000)])
def test_cli_tv_curve_record_memory_is_bounded(tmp_path, fmt, bound):
    """A 40 001-row curve is rendered from its arrays a chunk at a time:
    the traced peak stays near the text itself (about 1.2 MB of csv and
    2.6 MB of json), far below a tuple per row."""
    cfg = _write_config(tmp_path, "c.json", {"kind": "tv-curve", "n": 400, "k": 20, "t_max": 40000})
    out = tmp_path / f"curve.{fmt}"
    tracemalloc.start()
    try:
        code = cli.main(["tv-curve", "--config", cfg, "--format", fmt, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.read_text(encoding="utf-8").count("\n") >= 40001
    assert peak < bound


def test_cli_loads_no_scipy(tmp_path):
    """The package runs on numpy alone: a process that imports the CLI and
    runs the kinds that call the walk's survival and the brute-force chain
    has no scipy module loaded."""
    configs = {
        "oracle-check": {"n_max": 4, "t_max": 5, "pair_n_max": 4, "walk_m_max": 3,
                         "walk_steps_max": 8},
        "hitting": {"m": 3, "q": 0.3, "steps_values": [10, 40], "replicas": 50},
        "coupling": {"n": 30, "k": 6, "t_values": [20, 40], "replicas": 50},
    }
    for kind, payload in configs.items():
        _write_config(tmp_path, f"{kind}.json", dict(payload, kind=kind))
    script = (
        "import sys\n"
        "from mixlab import cli\n"
        f"for kind in {list(configs)!r}:\n"
        "    code = cli.main([kind, '--config', kind + '.json', '--out', kind + '.csv'])\n"
        "    assert code == 0, kind\n"
        "print(sorted(name for name in sys.modules if name.startswith('scipy')))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            cwd=tmp_path, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
    assert all((tmp_path / f"{kind}.csv").stat().st_size > 0 for kind in configs)


def test_cli_oracle_check_passes(tmp_path):
    cfg = _write_config(tmp_path, "c.json", {"kind": "oracle-check", "n_max": 5, "t_max": 15,
                                             "pair_n_max": 8})
    result = _run_cli(["oracle-check", "--config", cfg], tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    assert body[0] == "identity,instance,residual,tol,status"
    statuses = {ln.split(",")[-1] for ln in body[1:]}
    assert statuses == {"pass"}


def test_cli_oracle_check_reports_violations(tmp_path):
    # an absurd tolerance turns ordinary float rounding into violations
    cfg = _write_config(tmp_path, "c.json", {"kind": "oracle-check", "n_max": 4, "t_max": 10,
                                             "pair_n_max": 4, "tol": 1e-30})
    out = tmp_path / "oracle.csv"
    result = _run_cli(["oracle-check", "--config", cfg, "--out", str(out)], tmp_path)
    assert result.returncode == 2
    assert "oracle violation:" in result.stderr
    # the record is still written for inspection
    assert "fail" in out.read_text(encoding="utf-8")


def test_cli_oracle_check_at_the_t_max_bound(tmp_path):
    """t_max at its bound of 10 000 steps one array of laws per instance, in seconds."""
    cfg = _write_config(tmp_path, "c.json", {"kind": "oracle-check", "n_max": 2, "t_max": 10_000})
    start = time.monotonic()
    result = _run_cli(["oracle-check", "--config", cfg], tmp_path)
    assert time.monotonic() - start < 10.0
    assert result.returncode == 0, result.stderr
    body = [ln for ln in result.stdout.splitlines() if ln and not ln.startswith("#")]
    assert "# t_max=10000" in result.stdout.splitlines()
    assert {ln.split(",")[-1] for ln in body[1:]} == {"pass"}


def test_oracle_check_localizes_a_corrupted_kernel():
    """A lazified kernel breaks exactly the identities that feel the rate.

    Halving up and down keeps rows stochastic, keeps detailed balance and
    the stationary law, but halves the spectral gap, so only the lumping,
    powering, moment, eigenfunction and spectral identities move.  The pair jump rates halve
    too, yet at ``pair_n_max`` 4 their floor ratio q n^2/k^2 is still 1.5,
    so the skeleton row passes.  Scaling the down rates by 0.1 takes
    that ratio to 0.75, and the skeleton row fails.
    """
    config = parse_config({"kind": "oracle-check", "n_max": 4, "t_max": 10, "pair_n_max": 4})

    def scaled(up_factor, down_factor):
        def factory(params):
            kernel = build_kernel(params)
            up = kernel.up * up_factor
            down = kernel.down * down_factor
            return BirthDeathKernel(params, up, down, 1.0 - up - down)

        return factory

    with pytest.raises(OracleFailure) as exc_info:
        run_oracle_check(config, kernel_factory=scaled(0.5, 0.5))
    assert exc_info.value.failures == [
        "eigenfunction", "lumping", "moment-mean", "moment-second", "powering", "spectral",
    ]
    record = exc_info.value.record
    by_identity = {}
    for identity, _, _, _, status in record.rows:
        by_identity.setdefault(identity, set()).add(status)
    assert by_identity["stationarity"] == {"pass"}
    assert by_identity["detailed-balance"] == {"pass"}
    assert by_identity["pair-marginal"] == {"pass"}
    assert by_identity["skeleton"] == {"pass"}
    assert by_identity["reflection"] == {"pass"}
    assert "fail" in by_identity["lumping"]
    assert "fail" in by_identity["powering"]
    assert [row[1] for row in record.rows if row[0] == "skeleton"] == ["n=2", "n=3", "n=4"]

    # slowing only the down moves also breaks balance and the stationary law
    with pytest.raises(OracleFailure) as exc_info:
        run_oracle_check(config, kernel_factory=scaled(1.0, 0.1))
    assert exc_info.value.failures == [
        "detailed-balance", "eigenfunction", "lumping", "moment-mean", "moment-second",
        "powering", "skeleton", "spectral", "stationarity",
    ]
    skeleton = {row[1]: row[2] for row in exc_info.value.record.rows if row[0] == "skeleton"}
    assert skeleton["n=2"] == skeleton["n=3"] == 0.0
    assert skeleton["n=4"] == pytest.approx(0.25, abs=1e-12)


def test_run_experiment_api_determinism():
    config = parse_config(
        {"kind": "bounds", "n": 60, "k": 12, "t_values": [5, 30], "threshold": 3,
         "replicas": 4000, "seed": 17}
    )
    a = run_experiment(config)
    b = run_experiment(config)
    assert a.rows == b.rows
    assert a.meta == b.meta
    assert a.columns[0] == "t" and len(a.rows) == 2


def test_sweep_rows_independent_of_threads():
    base = {
        "kind": "sweep",
        "n_grid": [60, 120, 240],
        "k_rule": {"kind": "fraction", "value": 0.2},
        "eps": [0.2],
    }
    single = run_experiment(parse_config(dict(base, threads=1)))
    threaded = run_experiment(parse_config(dict(base, threads=3)))
    assert single.rows == threaded.rows
    assert single.columns == ["n", "k", "eps", "t_enter", "t_mix", "window", "window_over_n"]
    for n, k, eps, t_enter, t_mix_val, window, window_over_n in single.rows:
        assert t_enter <= t_mix_val
        assert window == t_mix_val - t_enter
        assert window_over_n == pytest.approx(window / n, abs=1e-15)


def _child_cpu_seconds() -> float:
    """User plus system CPU time of this process's finished children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def test_cli_sweep_reaches_a_million_sites(tmp_path):
    """The sweep bisects its thresholds, so n = 10^6 runs in seconds of CPU
    time, whatever else runs on the host; the n = 10^4 row keeps the
    stepper's times, and the window stays O(n)."""
    cfg = _write_config(tmp_path, "c.json", {
        "kind": "sweep", "n_grid": [10**4, 10**5, 10**6],
        "k_rule": {"kind": "fraction", "value": 0.2}, "eps": [0.1],
    })
    start = _child_cpu_seconds()
    result = _run_cli(["sweep", "--config", cfg, "--format", "json"], tmp_path)
    elapsed = _child_cpu_seconds() - start
    assert result.returncode == 0, result.stderr
    assert elapsed < 10.0
    record = json.loads(result.stdout)
    rows = [dict(zip(record["columns"], row)) for row in record["rows"]]
    assert [row["n"] for row in rows] == [10**4, 10**5, 10**6]
    assert (rows[0]["t_enter"], rows[0]["t_mix"]) == (16982, 29920)
    assert all(1.2 <= row["window_over_n"] <= 1.4 for row in rows)


def test_cli_sweep_refuses_a_threshold_beyond_the_stepping_cap(tmp_path):
    """At n = 10^6, k = 2*10^5 the expansion cannot decide eps 0.2, and
    stepping on to the horizon is beyond the state-step cap: exit 1 with
    one line, in seconds."""
    cfg = _write_config(tmp_path, "c.json", {
        "kind": "sweep", "n_grid": [10**4, 10**5, 10**6],
        "k_rule": {"kind": "fraction", "value": 0.2}, "eps": [0.2],
    })
    start = time.monotonic()
    result = _run_cli(["sweep", "--config", cfg], tmp_path)
    assert time.monotonic() - start < 10.0
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: eps=0.2 is not decided by the eigen-expansion ")
    assert "the horizon" in result.stderr and result.stderr.count("\n") == 1


def test_tv_curve_warning_when_eps_unreachable():
    config = parse_config(
        {"kind": "tv-curve", "n": 200, "k": 40, "t_max": 3, "eps": [0.01]}
    )
    record = run_experiment(config)
    assert record.meta["t_mix[0.01]"] is None
    assert record.rows[-1][2] == "eps_not_reached"
    assert all(row[2] == "" for row in record.rows[:-1])


def test_labels_keep_values_apart_beyond_six_digits():
    """Two eps (or q) equal to 6 significant digits get two labels."""
    eps = [0.1, 0.1000001]
    record = run_experiment(
        parse_config({"kind": "tv-curve", "n": 30, "k": 6, "t_max": 200, "eps": eps})
    )
    times = lumped.mixing_times(ModelParams(30, 6), eps)
    assert record.meta["t_mix[0.1]"] == times[0.1]
    assert record.meta["t_mix[0.1000001]"] == times[0.1000001]
    record = run_oracle_check(
        parse_config({"kind": "oracle-check", "n_max": 2, "t_max": 2, "pair_n_max": 2,
                      "walk_m_max": 1, "walk_steps_max": 2, "walk_q": [0.1, 0.1000001]})
    )
    assert [row[1] for row in record.rows if row[0] == "reflection"] == ["q=0.1", "q=0.1000001"]


def test_coupling_record_bounds_exact_distance():
    config = parse_config(
        {"kind": "coupling", "n": 60, "k": 12, "t_values": [0, 30, 90],
         "replicas": 20_000, "seed": 3}
    )
    record = run_experiment(config)
    cols = {name: idx for idx, name in enumerate(record.columns)}
    for row in record.rows:
        d_exact = row[cols["d_exact"]]
        estimate = row[cols["estimate"]]
        stderr = row[cols["stderr"]]
        assert d_exact <= estimate + 4.0 * stderr
        assert row[cols["walk_start"]] >= 1
        assert 0.0 <= row[cols["walk_survival"]] <= 1.0


def test_hitting_record_from_beyond_the_horizon_survives():
    """m far beyond every steps value: simulated and exact survival are both 1."""
    record = run_experiment(parse_config(
        {"kind": "hitting", "m": 2**63 - 1, "q": 1.0, "steps_values": [100, 1000],
         "replicas": 2000}
    ))
    assert [row[1:] for row in record.rows] == [(1.0, 1.0, 0.0)] * 2


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_cli_hitting_refuses_a_sampler_of_hours(tmp_path, seed):
    """m 1, q 1 and t_cap 10^15 with 1000 replicas once ran 2 to 11 s at
    seeds 1-3 and over 30 s at seed 4; its expected rounds alone are
    estimated at about 8*10^4 s, so it is exit 1 with one line, in seconds."""
    cfg = _write_config(tmp_path, "c.json", {"kind": "hitting", "m": 1, "q": 1,
                                             "steps_values": [10**15], "replicas": 1000})
    start = time.monotonic()
    result = _run_cli(["hitting", "--config", cfg, "--seed", str(seed)], tmp_path)
    assert time.monotonic() - start < 10.0
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith(
        "error: the hitting sampler with m=1, q=1.0, t_cap=1000000000000000 and replicas=1000 "
        "is beyond the cap of 300 s of sampling, at an estimated "
    )
    assert result.stderr.count("\n") == 1


def test_cli_coupling_refuses_a_time_beyond_the_stepping_cap(tmp_path):
    """t = 10^12 at k = 10 is beyond the state-step cap of the exact laws:
    exit 1 with one line, in seconds."""
    cfg = _write_config(tmp_path, "c.json",
                        {"kind": "coupling", "n": 100, "k": 10, "t_values": [10**12]})
    start = time.monotonic()
    result = _run_cli(["coupling", "--config", cfg], tmp_path)
    assert time.monotonic() - start < 10.0
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: t=1000000000000 with k=10 is beyond the cap of ")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("payload, prefix", [
    ({"kind": "coupling", "n": 100, "k": 10, "t_values": [10**9]},
     "error: t=1000000000 with k=10 is beyond the cap of 300 s of stepping, "),
    ({"kind": "tv-curve", "n": 100, "k": 10, "t_max": 10**9, "stride": 1000},
     "error: t_max=1000000000 with k=10 is beyond the cap of 300 s of stepping, "),
    ({"kind": "bounds", "n": 10**6, "k": 10**5, "threshold": 10, "t_values": [60000, 80000]},
     "error: the collector bounds with replicas=100000 would draw 39998000000 geometric waits, "),
    ({"kind": "hitting", "m": 1, "q": 0.5, "steps_values": [4 * 10**18]},
     "error: the exact survival with m=1, steps=4000000000000000000 and q=0.5 is beyond "
     "the cap of 300 s of summing, "),
    ({"kind": "oracle-check", "t_max": 10**8},
     "config error: 't_max' must be <= 10000, got 100000000\n"),
], ids=["coupling", "tv-curve", "bounds", "hitting", "oracle-check"])
def test_cli_refuses_hours_of_work_at_once(tmp_path, payload, prefix):
    """Stepping 10^9 times at k = 10 (about 10^4 s estimated), drawing
    4*10^10 collector waits (4 to 6 minutes at 5.4 to 8.4 ns a wait), summing the walk's
    survival over 1.9*10^10 move counts (73 minutes estimated) or an
    oracle check to t = 10^8 is exit 1 with one line, in seconds; the
    hitting run draws no sample first."""
    cfg = _write_config(tmp_path, "c.json", payload)
    start = time.monotonic()
    result = _run_cli([payload["kind"], "--config", cfg], tmp_path)
    assert time.monotonic() - start < 10.0
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith(prefix)
    assert result.stderr.count("\n") == 1


_SWEEP = {"kind": "sweep", "n_grid": [40, 60, 80], "k_rule": {"kind": "fraction", "value": 0.2}}


def _bad_input_cases(tmp_path):
    """(args, expected stderr line) for each input the CLI must refuse cleanly."""
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"kind": "sweep", "note": "café"}'.encode("latin-1"))
    overflow = _write_config(tmp_path, "power.json",
                             dict(_SWEEP, k_rule={"kind": "power", "value": 1000}))
    good = _write_config(tmp_path, "good.json", _SWEEP)
    return {
        "directory": (["sweep", "--config", str(tmp_path)],
                      "config error: config file could not be read: "),
        "non-utf8": (["sweep", "--config", str(latin1)],
                     "config error: config file could not be read: "),
        "k-rule-overflow": (["sweep", "--config", overflow],
                            "config error: k rule gives no finite k for n=40; "),
        "unwritable-out": (["sweep", "--config", good, "--out",
                            str(tmp_path / "missing-dir" / "x.csv")],
                           "error: cannot write "),
    }


@pytest.mark.parametrize("case", ["directory", "non-utf8", "k-rule-overflow", "unwritable-out"])
def test_cli_refuses_bad_inputs_without_traceback(tmp_path, case):
    args, expected = _bad_input_cases(tmp_path)[case]
    result = _run_cli(args, tmp_path)
    assert result.returncode == 1, result.stderr
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines()[0].startswith(expected), result.stderr


def test_cli_unwritable_out_after_oracle_failure(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {"kind": "oracle-check", "n_max": 3, "t_max": 5,
                                             "pair_n_max": 3, "walk_m_max": 2,
                                             "walk_steps_max": 5, "tol": 1e-30})
    out = tmp_path / "missing-dir" / "oracle.csv"
    assert cli.main(["oracle-check", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"


@pytest.mark.parametrize("kind, key", [
    ("tv-curve", "n"), ("tv-curve", "t_max"), ("tv-curve", "stride"),
    ("sweep", "n_grid"),
    ("coupling", "t_values"), ("coupling", "replicas"),
    ("bounds", "t_values"), ("bounds", "replicas"),
    ("hitting", "m"), ("hitting", "steps_values"), ("hitting", "replicas"), ("hitting", "seed"),
    ("oracle-check", "t_max"),
])
def test_cli_integer_keys_at_the_int64_limit(tmp_path, kind, key):
    """Each integer key at 2**63 - 1 (the first entry of a list) runs or is
    refused with exit 1, never with a traceback, and in seconds."""
    payload = dict(MINIMAL[kind])
    value = payload.get(key)
    big = 2**63 - 1
    payload[key] = [big, *value[1:]] if isinstance(value, list) else big
    cfg = _write_config(tmp_path, "c.json", payload)
    start = time.monotonic()
    result = _run_cli([kind, "--config", cfg], tmp_path)
    assert time.monotonic() - start < 30.0
    assert result.returncode in (0, 1), result.stderr
    assert "Traceback" not in result.stderr
