#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload imdb_large --seeds 1-10 [--trace 0] [--save out.json]

Spread is the distance between the first and third quartile of the values
(``statistics.quantiles(values, n=4)``) as a share of their median. For an
end-to-end metric it should stay below a third of the metric's bound in
BENCHMARK.json. Metrics a run only prints (not in its JSON line) are
summarized too. Counts show a spread of 0 when they repeat exactly for a seed
and the catalog shape does not vary; across seeds they vary a little.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LINE = re.compile(r"^  (\S+)\s+(-?[0-9.e+-]+) (\S*)")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--save", help="write the summary as JSON")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    declared, printed, units, runs = {}, {}, {}, []
    for seed in args.seeds:
        cmd = list(spec["command"]) + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds or spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"]})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", file=sys.stderr)
        for name, metric in result["metrics"].items():
            declared.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        for line in lines[:-1]:
            m = LINE.match(line)
            if m and m.group(1) not in declared:
                printed.setdefault(m.group(1), []).append(float(m.group(2)))
                units[m.group(1)] = m.group(3)
    summary = {"workload": args.workload, "trace": args.trace, "seeds": args.seeds, "runs": runs,
               "metrics": {}, "printed": {}}
    for table, values in (("metrics", declared), ("printed", printed)):
        for name, vals in values.items():
            s = summary[table][name] = dict(summarize(vals), unit=units[name])
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and s.get("spread") is not None:
                verdict = "ok" if s["spread"] < bound / 3 else "above a third of the bound"
            spread = s.get("spread")
            print(f"{name:40s} median {s['median']:12.6g} {s['unit']:6s} "
                  f"spread {spread if spread is not None else float('nan'):7.4f}  "
                  f"bound {bound}  {verdict}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
