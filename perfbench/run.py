"""mixlab benchmark: CLI operations in a closed loop, checked, with an optional trace.

    python3 perfbench/run.py --workload exact|montecarlo|collector|all
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs to be installed,
because each workload child puts the checkout's absolute ``src`` path
first on ``sys.path`` and ``PYTHONPATH``.

``--trace 0`` measures the end-to-end metrics.  The workload runs in one
fresh child process, single-threaded, pass after pass for ``--seconds``
(at least two passes), and ``SETUP_SAMPLES`` more children only set up
and exit, so ``setup_s`` is a median too.  ``--trace 1`` alternates
untraced children and children with every public function of the
package wrapped (see tracing.py), one pass each, for ``--seconds``, and
reports the per-layer metrics and the tracing overhead.

Every output is checked outside the timed region (see checks.py); an
operation fails when it exits non-zero, when its record fails the check,
or when its bytes differ from the first pass of the same seed.  A report
goes to standard output, then, as the last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full result, with machine facts and every sample, is written to
``.perfbench/results/``.  Exit status 2 means there was nothing to
measure (no ``src/mixlab``) and 1 that a child process failed; no result
line is printed then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 6
#: Children still running this many seconds after a workload starts are
#: killed, which leaves time for the checks within a 180 s limit.
DEADLINE_S = 150.0

#: The metrics of the JSON line.  Each operation's own time is reported
#: too, as ``<op>_s``; see the README for why it is not among these.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = [
    "lumped.evolve.self_s", "lumped.evolve.calls", "lumped.evolve.state_steps",
    "lumped.evolve.ns_per_state_step", "lumped.tv_distance.self_s", "lumped.tv_distance.calls",
    "lumped.build_kernel.self_s", "lumped.equilibrium.self_s",
    "coupling.merge_time_samples.calls", "coupling.merge_time_samples.replica_steps",
    "coupling.merge_time_samples.merged_ratio", "coupling.CoupledKernel.transition_row.calls",
    "walk.hitting_time_samples.replica_steps", "walk.hitting_time_samples.hit_ratio",
    "walk.survival_exact.calls", "walk.survival_exact.steps",
    "bounds.single_draw_collection_samples.calls",
    "bounds.single_draw_collection_samples.draws_useful",
    "bounds.single_draw_collection_samples.draws_issued",
    "bounds.single_draw_collection_samples.draw_efficiency",
    "exclusion.brute_force_tv_curve.calls",
    "experiments.self_s", "records.render.self_s", "records.render.bytes",
    "config.parse_config.self_s", "cli.main.self_s", "trace.overhead_s",
]

#: Printed by a traced run in addition to PER_LAYER, which holds only
#: metrics that are measured on every workload or are counts.
REPORTED_LAYER = [
    "lumped.mixing_times.self_s", "lumped.d_curve.self_s",
    "coupling.merge_time_samples.self_s", "coupling.merge_time_samples.ns_per_replica_step",
    "coupling.CoupledKernel.transition_row.self_s",
    "walk.hitting_time_samples.self_s", "walk.survival_exact.self_s",
    "walk.survival_bruteforce.self_s",
    "bounds.single_draw_collection_samples.self_s",
    "bounds.single_draw_collection_samples.ns_per_draw_issued",
    "bounds.unlabeled_tv_lower_bound.self_s", "bounds.labeled_tv_lower_bound.self_s",
    "exclusion.brute_force_tv_curve.self_s",
    *(f"experiments.{kind}.self_s" for kind in
      ("tv-curve", "sweep", "coupling", "bounds", "hitting", "oracle-check")),
]


class ChildFailed(RuntimeError):
    pass


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(("_s", ".self_s")):
        return "s"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith(("_ratio", "efficiency")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def summarize(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles, n=4) of the samples."""
    values = [float(v) for v in values]
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return ""


def machine_facts() -> dict:
    """Facts about the host and the code measured, read without side effects."""
    import numpy
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": None,
        "llc": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": None,
        "src_sha256": None,
    }
    for line in _read_text(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            facts["cpu_model"] = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read_text(index / "level").strip()
        if level.isdigit():
            caches.append((int(level), _read_text(index / "size").strip()))
    if caches:
        level, size = max(caches)
        facts["llc"] = f"L{level} {size}"
    head = _read_text(ROOT / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        head = _read_text(ROOT / ".git" / ref).strip()
        if not head:
            for line in _read_text(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    head = line.split()[0]
    facts["git_commit"] = head or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mixlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    facts["src_sha256"] = digest.hexdigest()
    return facts


def _spawn(plan: dict, work: Path, tag: str, deadline: float) -> dict:
    """Run one child to completion and return its result."""
    plan_path = work / f"{tag}.plan.json"
    plan = dict(plan, result=str(work / f"{tag}.result.json"), spans=str(work / f"{tag}.spans.npz"))
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [plan["src"], env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with open(work / f"{tag}.stderr", "w", encoding="utf-8") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(plan_path), repr(t_spawn)],
            stdout=subprocess.DEVNULL, stderr=err, cwd=str(work), env=env,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise ChildFailed(f"{tag}: child ran past the deadline") from None
    if code != 0:
        tail = _read_text(work / f"{tag}.stderr")[-2000:]
        raise ChildFailed(f"{tag}: child exited with {code}\n{tail}")
    result = json.loads(Path(plan["result"]).read_text(encoding="utf-8"))
    result["spans_path"] = plan["spans"]
    return result


def score(ops, children: list[dict], work: Path) -> tuple[int, int, list[str]]:
    """Count attempted and failed operations; list the problems found.

    The first pass of the first child is checked against the independent
    derivation; every other execution must reproduce its bytes.
    """
    problems = []
    reference = {}
    for i, op in enumerate(ops):
        first = children[0]["passes"][0][i]
        text = _read_text(work / f"{op.name}.first")
        found = checks.check_output(op.kind, op.config, text) if text else ["no output"]
        if first["rc"] != 0:
            found.insert(0, f"exit status {first['rc']} {first['error']}".rstrip())
        problems += [f"{op.name}: {p}" for p in found]
        reference[op.name] = (first["digest"], not found)
    attempted = failed = 0
    for child in children:
        for number, one_pass in enumerate(child["passes"]):
            for execution in one_pass:
                attempted += 1
                digest, ok = reference[execution["name"]]
                if execution["rc"] != 0:
                    ok = False
                    problems.append(f"{execution['name']} pass {number}: exit status {execution['rc']}")
                elif execution["digest"] != digest:
                    ok = False
                    problems.append(f"{execution['name']} pass {number}: bytes differ from pass 0")
                failed += not ok
    return attempted, failed, problems


def _plan(ops, seed: int, seconds: float, trace: bool, work: Path, setup_only=False,
          min_passes=2) -> dict:
    return {
        "src": str(ROOT / "src"),
        "seed": seed,
        "seconds": seconds,
        "min_passes": min_passes,
        "trace": trace,
        "setup_only": setup_only,
        "ops": [
            {"name": op.name, "kind": op.kind, "config_path": str(work / f"{op.name}.json"),
             "out_path": str(work / f"{op.name}.out"), "first_path": str(work / f"{op.name}.first")}
            for op in ops
        ],
    }


def _pass_times(children: list[dict], ops) -> dict[str, list[float]]:
    passes = [p for child in children for p in child["passes"]]
    samples = {"wall_s": [sum(o["seconds"] for o in p) for p in passes]}
    for i, op in enumerate(ops):
        samples[f"{op.name}_s"] = [p[i]["seconds"] for p in passes]
    return samples


def prepare(work: Path, ops) -> None:
    """Create an empty work directory holding one config file per operation."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for op in ops:
        (work / f"{op.name}.json").write_text(
            json.dumps(dict(op.config, kind=op.kind)), encoding="utf-8")


def run_workload(name: str, seed: int, seconds: float, trace: bool, ops=None,
                 work: Path | None = None, spans_to: Path | None = None) -> dict:
    """Run one workload and return its full result (see module docstring).

    ``ops`` replaces the workload's operations (the self-test shrinks
    them); ``work`` keeps the work directory, which is otherwise
    removed; ``spans_to`` receives a copy of a traced run's spans.
    """
    ops = WORKLOADS[name] if ops is None else ops
    deadline = time.monotonic() + DEADLINE_S
    own_work = work is None
    work = work or ROOT / ".perfbench" / "work" / f"{name}-{seed}-{int(trace)}-{os.getpid()}"
    prepare(work, ops)
    try:
        result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "ops": [op.name for op in ops]}
        if trace:
            # one pass per child, untraced and traced children alternating,
            # so that drift in machine speed hits both sides alike
            children = []
            start = time.monotonic()
            while True:
                pair_start = time.monotonic()
                for traced in (False, True):
                    tag = f"{'traced' if traced else 'plain'}{len(children)}"
                    plan = _plan(ops, seed, 0, traced, work, min_passes=1)
                    children.append(_spawn(plan, work, tag, deadline))
                now = time.monotonic()
                if 2 * now - start - pair_start > seconds:
                    break
        else:
            children = [_spawn(_plan(ops, seed, seconds, False, work), work, "main", deadline)]
            setups = [
                _spawn(_plan(ops, seed, seconds, False, work, setup_only=True), work, f"setup{i}", deadline)
                for i in range(SETUP_SAMPLES)
            ]
        attempted, failed, problems = score(ops, children, work)
        result.update(attempted=attempted, failed=failed, problems=problems)
        if trace:
            plain, traced = children[0::2], children[1::2]
            samples = _pass_times(plain, ops)
            traced_samples = _pass_times(traced, ops)
            result["layers"], result["coverage"] = _layers(traced)
            overhead = (statistics.median(traced_samples["wall_s"])
                        - statistics.median(samples["wall_s"]))
            result["layers"]["trace.overhead_s"] = summarize([overhead])
            result["metrics"] = {
                **{k: summarize(v) for k, v in samples.items()},
                **{f"traced.{k}": summarize(v) for k, v in traced_samples.items()},
            }
            if spans_to is not None:
                spans_to.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(traced[-1]["spans_path"], spans_to)
        else:
            samples = _pass_times(children, ops)
            samples["setup_s"] = [children[0]["setup_s"]] + [s["setup_s"] for s in setups]
            samples["peak_rss_mb"] = [children[0]["peak_rss_mb"]]
            result["metrics"] = {k: summarize(v) for k, v in samples.items()}
        return result
    finally:
        if own_work:
            shutil.rmtree(work, ignore_errors=True)


def _layers(children: list[dict]) -> tuple[dict, float]:
    """Per-layer metrics (median over traced passes) and the smallest share
    of an operation's time that its root spans cover."""
    per_pass = []
    coverage = 1.0
    for child in children:
        spans = tracing.load(child["spans_path"])
        for table, counters in zip(tracing.pass_tables(spans), spans["pass_counters"]):
            metrics = tracing.layer_metrics(table, counters)
            metrics["experiments.self_s"] = sum(
                v for k, v in metrics.items()
                if k.startswith("experiments.") and k.endswith(".self_s")
            )
            per_pass.append(metrics)
        coverage = min(coverage, *(
            tracing.root_coverage(spans, *o["spans"], o["seconds"])
            for p in child["passes"] for o in p
        ))
    names = sorted(set().union(*per_pass))
    layers = {k: summarize([m.get(k, 0) for m in per_pass]) for k in names}
    return layers, coverage


def _line(name: str, summary: dict) -> str:
    computed = " computed" if name in tracing.COMPUTED else ""
    return (f"  {name:<58} {summary['median']:>14.6g} {unit_of(name):<5}"
            f" median of {summary['n']} (q1 {summary['q1']:.6g}, q3 {summary['q3']:.6g}){computed}")


def report(result: dict, machine: dict) -> dict:
    """Print the human-readable report; return the object of the JSON line."""
    print(f"perfbench workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']} ops={','.join(result['ops'])}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    for problem in result["problems"]:
        print(f"  CHECK FAILED {problem}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'ops_failed_ratio':<58} {ratio:>14.6g} ratio {result['failed']} of {result['attempted']} failed")
    if result["trace"]:
        for name in PER_LAYER + REPORTED_LAYER:
            print(_line(name, result["layers"][name]))
        print(f"  spans cover at least {result['coverage']:.4f} of each operation's time")
        print("  all traced functions (self_s, calls):")
        layers = result["layers"]
        called = [k[: -len(".calls")] for k in layers
                  if k.endswith(".calls") and layers[k]["median"] > 0]
        for fn in sorted(called, key=lambda f: -layers[f + ".self_s"]["median"]):
            print(f"    {fn:<56} {layers[fn + '.self_s']['median']:>12.6f} s"
                  f" {layers[fn + '.calls']['median']:>10g} calls")
        wanted = {name: unit_of(name) for name in PER_LAYER}
        source = result["layers"]
    else:
        for name in sorted(result["metrics"]):
            print(_line(name, result["metrics"][name]))
        wanted = END_TO_END
        source = result["metrics"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": source[name]["median"], "unit": unit}
            for name, unit in wanted.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mixlab" / "__init__.py").is_file():
        print(f"perfbench: no mixlab sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    machine = machine_facts()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outputs = {}
    out_dir = ROOT / ".perfbench" / "results"
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  spans_to=out_dir / f"{name}-spans.npz")
        except ChildFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        result["machine"] = machine
        outputs[name] = report(result, machine)
        result["line"] = outputs[name]
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}-trace{args.trace}-seed{args.seed}.json").write_text(
            json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    if len(names) == 1:
        final = outputs[names[0]]
    else:
        final = {
            "correct": all(o["correct"] for o in outputs.values()),
            "attempted": sum(o["attempted"] for o in outputs.values()),
            "failed": sum(o["failed"] for o in outputs.values()),
            "metrics": {f"{w}.{k}": v for w, o in outputs.items() for k, v in o["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
