"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload NAME --seeds 1 2 3 ... [--trace 0|1] [--out FILE]

Run from the repository root.  The spread of a metric is the distance
between the first and third quartiles of its values
(``statistics.quantiles(values, n=4)``) as a share of their median, next to
the metric's bound from BENCHMARK.json.  ``--out`` appends the raw result
lines and the summary to a JSON file keyed by workload, which is how the
baseline in perfbench/baseline.json was recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    a = ap.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in a.seeds:
        proc = subprocess.run(bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                                  "--seconds", str(bench["run_seconds"]),
                                                  "--trace", str(a.trace)],
                              capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        *_, env, last = proc.stdout.strip().splitlines()
        line = json.loads(last)
        line.update(seed=seed, **json.loads(env))
        runs.append(line)
        print(seed, line["correct"], line["attempted"], line["failed"],
              {k: round(v["value"], 4) for k, v in line["metrics"].items()
               if k in bounds or a.trace}, flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None, "bound": bounds.get(name)}
        print(f"{name:34s} median {med:14.6g}  spread {summary[name]['spread']!s:22.22s}"
              f"  bound {bounds.get(name)}")
    if a.out:
        path = Path(a.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc[f"{a.workload} --trace {a.trace}"] = {"runs": runs, "summary": summary}
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
