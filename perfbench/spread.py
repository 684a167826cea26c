"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload dns-march --seeds 1 2 3 4 5

Runs one seed at a time.  For each metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the interquartile range
as a share of the median, next to the metric's bound from BENCHMARK.json.
With --trace 1 it also checks that the exact counts (metrics whose unit is
"count") are identical for every seed.  The collected results
are written to .perfbench_out/spread-<workload>-trace<n>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count",)


def run_once(workload, seed, seconds, trace) -> tuple[dict, dict]:
    """The result line of one run and the run record it wrote."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900, check=True)
    record = ROOT / ".perfbench_out" / workload / f"run_record_trace{trace}.json"
    with open(record, encoding="utf-8") as fh:
        return json.loads(proc.stdout.strip().splitlines()[-1]), json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results, records = [], []
    for seed in args.seeds:
        res, record = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(res)
        records.append({k: record.get(k) for k in ("seed", "inputs", "info")})
        print(f"seed {seed}: correct={res['correct']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in res["metrics"].items()
                         if args.trace == 0), flush=True)

    ok = all(r["correct"] for r in results)
    summary = {}
    for name, first in results[0]["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0],) * 3)
        share = (q3 - q1) / med if med else 0.0
        summary[name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                         "spread": share, "bound": bounds.get(name)}
        line = (f"{name:28s} median {med:12.6g} {first['unit']:8s} "
                f"q1 {q1:12.6g} q3 {q3:12.6g} spread {share:7.4f}")
        if bounds.get(name) is not None:
            line += f" (bound {bounds[name]})"
        if first["unit"] in EXACT_UNITS:
            same = len(set(vals)) == 1
            ok = ok and same
            line += "  exact: " + ("identical" if same else "DIFFER")
        print(line)

    out = ROOT / ".perfbench_out" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"seeds": args.seeds, "results": results,
                   "records": records, "summary": summary}, fh, indent=1)
    print(f"all correct{' and counts identical' if args.trace else ''}: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
