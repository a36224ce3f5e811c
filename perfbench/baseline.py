"""Collect saved run results into a baseline file.

    python3 perfbench/baseline.py [OUT]

Reads every ``.perfbench/results/<workload>-trace<t>-seed<s>.json``
written by run.py and writes, per workload, the median and quartiles
across runs of each run's value: end-to-end metrics from the untraced
runs, per-layer metrics from the traced ones.  OUT defaults to
``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import END_TO_END, PER_LAYER, REPORTED_LAYER, ROOT, summarize, unit_of
from workloads import WORKLOADS


def collect(results_dir: Path) -> dict:
    baseline = {"machine": None, "workloads": {}}
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            runs = [json.loads(p.read_text(encoding="utf-8"))
                    for p in sorted(results_dir.glob(f"{name}-trace{trace}-seed*.json"))]
            if not runs:
                continue
            baseline["machine"] = runs[-1]["machine"]
            if trace:
                names = PER_LAYER + REPORTED_LAYER
                values = {k: [r["layers"][k]["median"] for r in runs] for k in names}
            else:
                names = [*END_TO_END, *(f"{op.name}_s" for op in WORKLOADS[name])]
                values = {k: [r["metrics"][k]["median"] for r in runs] for k in names}
                values["ops_failed_ratio"] = [r["failed"] / r["attempted"] for r in runs]
            entry["traced" if trace else "untraced"] = {
                "seeds": [r["seed"] for r in runs],
                "seconds": runs[0]["seconds"],
                "metrics": {
                    k: dict(summarize(v), unit="ratio" if k == "ops_failed_ratio" else unit_of(k))
                    for k, v in values.items()
                },
            }
        baseline["workloads"][name] = entry
    return baseline


def main(argv: list[str]) -> int:
    out = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent / "baseline.json"
    baseline = collect(ROOT / ".perfbench" / "results")
    out.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
