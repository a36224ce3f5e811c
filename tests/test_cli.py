"""End-to-end CLI behavior and the experiment runners behind it."""

import json
import subprocess
import sys

import numpy as np
import pytest

from mixlab import cli, lumped
from mixlab.config import parse_config
from mixlab.experiments import OracleFailure, run_experiment, run_oracle_check
from mixlab.lumped import BirthDeathKernel, build_kernel


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "mixlab", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
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


def test_oracle_check_localizes_a_corrupted_kernel():
    """A lazified kernel breaks exactly the identities that feel the rate.

    Halving up and down keeps rows stochastic, keeps detailed balance and
    the stationary law, but halves the spectral gap, so only the lumping,
    moment and eigenfunction identities move.  The pair jump rates halve
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
    assert exc_info.value.failures == ["eigenfunction", "lumping", "moment-mean", "moment-second"]
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
    assert [row[1] for row in record.rows if row[0] == "skeleton"] == ["n=2", "n=3", "n=4"]

    # slowing only the down moves also breaks balance and the stationary law
    with pytest.raises(OracleFailure) as exc_info:
        run_oracle_check(config, kernel_factory=scaled(1.0, 0.1))
    assert exc_info.value.failures == [
        "detailed-balance", "eigenfunction", "lumping", "moment-mean", "moment-second",
        "skeleton", "stationarity",
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


def test_tv_curve_warning_when_eps_unreachable():
    config = parse_config(
        {"kind": "tv-curve", "n": 200, "k": 40, "t_max": 3, "eps": [0.01]}
    )
    record = run_experiment(config)
    assert record.meta["t_mix[0.01]"] is None
    assert record.rows[-1][2] == "eps_not_reached"
    assert all(row[2] == "" for row in record.rows[:-1])


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
