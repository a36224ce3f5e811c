"""One workload run in a fresh process: set up, then CLI passes in a closed loop.

    python3 child.py PLAN.json T_SPAWN

``PLAN.json`` (written by run.py) names the source directory, the
operations with their config and output files, the seed, the time
budget and whether to trace.  ``T_SPAWN`` is the parent's
``time.monotonic()`` just before it started this process, so the set-up
time covers interpreter start, ``import mixlab`` and config parsing.

Operations run one after another on one thread through
``mixlab.cli.main``; each pass runs every operation once, and passes
repeat until the next one would overrun the budget (at least
``min_passes``).  Hashing the outputs, and keeping the first output of
each operation in the work directory, happen outside the timed region.
The result (times, exit codes, output digests, peak RSS) is written to
the plan's ``result`` path; spans, when traced, to its ``spans`` path.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time

MAX_PASSES = 50


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _peak_rss_mb() -> float:
    """Peak resident set of this process since it started its program.

    ``ru_maxrss`` is not used: Linux carries it over from the parent at
    exec, so it would report the benchmark's own size whenever that is
    larger.  ``VmHWM`` belongs to the process's current address space.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run_op(main, argv: list[str]) -> tuple[int, str]:
    try:
        return int(main(argv)), ""
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return code, f"SystemExit({exc.code!r})"
    except Exception as exc:  # an operation that raises is a failed operation
        return -1, f"{type(exc).__name__}: {exc}"


def main(argv: list[str]) -> int:
    plan_path, t_spawn = argv[1], float(argv[2])
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import mixlab
    import mixlab.cli
    from mixlab.config import load_config, parse_config

    for op in plan["ops"]:
        raw = load_config(op["config_path"])
        raw.update(kind=op["kind"], seed=plan["seed"], threads=1)
        parse_config(raw)
    setup_s = time.monotonic() - t_spawn
    result = {"setup_s": setup_s, "passes": []}
    if plan["setup_only"]:
        with open(plan["result"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    log = None
    if plan["trace"]:
        import tracing

        log = tracing.install(mixlab)
    cli_main = mixlab.cli.main  # after install, so a traced run goes through the wrapper
    start = time.perf_counter()
    while True:
        ops = []
        for op in plan["ops"]:
            cli_argv = [op["kind"], "--config", op["config_path"], "--seed", str(plan["seed"]),
                        "--out", op["out_path"], "--threads", "1"]
            first_span = log.mark() if log else 0
            t0 = time.perf_counter()
            rc, error = _run_op(cli_main, cli_argv)
            seconds = time.perf_counter() - t0
            spans = [first_span, log.mark()] if log else None
            try:
                digest = _digest(op["out_path"])
            except OSError:
                digest = ""
            if digest and not os.path.exists(op["first_path"]):
                shutil.copyfile(op["out_path"], op["first_path"])
            ops.append({"name": op["name"], "rc": rc, "error": error, "seconds": seconds,
                        "digest": digest, "spans": spans})
        if log:
            log.end_pass()
        result["passes"].append(ops)
        last = sum(o["seconds"] for o in ops)
        done = len(result["passes"])
        elapsed = time.perf_counter() - start
        if done >= MAX_PASSES or (done >= plan["min_passes"] and elapsed + last > plan["seconds"]):
            break
    result["peak_rss_mb"] = _peak_rss_mb()
    if log:
        log.save(plan["spans"])
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
