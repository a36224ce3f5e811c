"""Self-test of the benchmark on shrunken workloads.

    python3 -m pytest perfbench

Checks that every metric is emitted, that a corrupted output is counted
as failed, and the self-time arithmetic of the tracer.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import checks
import run
import tracing
from workloads import SMALL, WORKLOADS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    result = run.run_workload(name, 7, 0.5, False, ops=SMALL[name], work=tmp_path)
    out = run.report(result, {})
    assert result["problems"] == []
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2 * len(SMALL[name])
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())
    for op in SMALL[name]:
        assert result["metrics"][f"{op.name}_s"]["n"] >= 2
    assert result["metrics"]["setup_s"]["n"] == run.SETUP_SAMPLES + 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    result = run.run_workload(name, 7, 0.5, True, ops=SMALL[name], work=tmp_path)
    out = run.report(result, {})
    assert out["correct"]
    assert set(out["metrics"]) == set(run.PER_LAYER)
    assert set(run.REPORTED_LAYER) <= set(result["layers"])
    assert result["coverage"] >= 0.9
    layers = {k: v["median"] for k, v in result["layers"].items()}
    ops_per_pass = len(SMALL[name])
    # names imported into other modules are traced as well
    assert layers["cli.main.calls"] == ops_per_pass
    assert layers["config.parse_config.calls"] == ops_per_pass
    assert layers["records.write_record.calls"] == ops_per_pass
    assert layers["lumped.build_kernel.calls"] > 0
    assert layers["lumped.equilibrium.calls"] > 0
    assert layers["lumped.evolve.state_steps"] > 0
    if name == "exact":
        assert layers["experiments.sweep.calls"] == 1
        assert layers["coupling.CoupledKernel.transition_row.calls"] > 0
        assert layers["walk.survival_bruteforce.calls"] > 0
    if name == "montecarlo":
        assert layers["rng.replica_stream.calls"] > 0
        assert layers["coupling.merge_time_samples.replica_steps"] > 0
        assert 0 < layers["walk.hitting_time_samples.hit_ratio"] <= 1
    if name == "collector":
        # one unlabeled and one labeled sample per t value of each operation
        t_values = sum(len(op.config["t_values"]) for op in SMALL[name])
        assert layers["bounds.single_draw_collection_samples.calls"] == 2 * t_values
        useful = layers["bounds.single_draw_collection_samples.draws_useful"]
        assert 0 < useful <= layers["bounds.single_draw_collection_samples.draws_issued"]


def _change_first_row(text: str, column: str, change) -> str:
    """The record with ``change`` applied to one cell of its first row."""
    meta, _ = checks.parse_csv_record(text)
    lines = text.splitlines(keepends=True)
    header = len(meta)
    idx = lines[header].rstrip("\n").split(",").index(column)
    cells = lines[header + 1].rstrip("\n").split(",")
    cells[idx] = change(cells[idx])
    lines[header + 1] = ",".join(cells) + "\n"
    return "".join(lines)


def test_corrupted_output_counts_as_failed(tmp_path):
    ops = SMALL["exact"]
    run.prepare(tmp_path, ops)
    plan = run._plan(ops, 7, 0.3, False, tmp_path)
    child = run._spawn(plan, tmp_path, "main", time.monotonic() + 60)
    assert run.score(ops, [child], tmp_path)[1] == 0
    first = tmp_path / "tv_curve.first"
    first.write_text(_change_first_row(first.read_text(), "d", lambda v: repr(float(v) + 1e-3)))
    attempted, failed, problems = run.score(ops, [child], tmp_path)
    assert failed == len(child["passes"])
    assert attempted == len(child["passes"]) * len(ops)
    assert any(p.startswith("tv_curve:") for p in problems)


@pytest.mark.parametrize("name,op,column", [
    ("exact", 0, "t_mix"),
    ("montecarlo", 0, "d_exact"),
    ("montecarlo", 1, "exact"),
    ("montecarlo", 1, "simulated"),
    ("collector", 0, "d_exact"),
    ("collector", 1, "coupon_chebyshev"),
    ("collector", 1, "mean_gap_bound"),
])
def test_check_rejects_corrupted_column(name, op, column, tmp_path):
    ops = SMALL[name]
    run.prepare(tmp_path, ops)
    child = run._spawn(run._plan(ops, 7, 0.1, False, tmp_path, min_passes=1),
                       tmp_path, "main", time.monotonic() + 60)
    assert child["passes"][0][op]["rc"] == 0
    text = (tmp_path / f"{ops[op].name}.first").read_text()
    assert checks.check_output(ops[op].kind, ops[op].config, text) == []
    if column == "t_mix":
        bad = _change_first_row(text, column, lambda v: str(int(v) + 1))
    elif column == "simulated":
        bad = _change_first_row(text, column, lambda v: repr(float(v) + 0.5))
    else:
        bad = _change_first_row(text, column, lambda v: repr(float(v) + 1e-3))
    assert bad != text
    assert checks.check_output(ops[op].kind, ops[op].config, bad) != []


def test_self_time_of_synthetic_nested_spans():
    # root [0, 100] > a [10, 40] > b [15, 25]; root > c [50, 90]
    starts = np.array([0, 10, 15, 50])
    ends = np.array([100, 40, 25, 90])
    parents = np.array([-1, 0, 1, 0])
    assert tracing.self_times(starts, ends, parents).tolist() == [30.0, 20.0, 10.0, 40.0]


def test_self_time_of_wrapped_nested_calls():
    log = tracing.SpanLog()

    def inner(x):
        time.sleep(0.002)
        return x

    traced_inner = log.wrap("m.inner", inner)

    def outer():
        time.sleep(0.002)
        return traced_inner(1) + traced_inner(2)

    traced_outer = log.wrap("m.outer", outer)
    assert traced_outer() == 3
    log.end_pass()
    spans = {
        "names": log.names,
        "ids": np.array(log.ids),
        "starts": np.array(log.starts),
        "ends": np.array(log.ends),
        "parents": np.array(log.parents),
        "pass_bounds": log.pass_bounds,
    }
    assert spans["parents"].tolist() == [-1, 0, 0]
    table = tracing.pass_tables(spans)[0]
    total = (log.ends[0] - log.starts[0]) * 1e-9
    inner_total = sum(log.ends[i] - log.starts[i] for i in (1, 2)) * 1e-9
    assert table["m.inner"]["calls"] == 2 and table["m.outer"]["calls"] == 1
    assert table["m.inner"]["self_s"] == pytest.approx(inner_total, abs=1e-12)
    assert table["m.outer"]["self_s"] == pytest.approx(total - inner_total, abs=1e-12)
    assert 0.002 <= table["m.outer"]["self_s"] < total
