#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 e2ebench/spread.py --workload simulate [--workload ...]
                               [--seeds 1-10] [--sets 1] [--trace 0]
                               [--seconds S] [--out FILE]

Run from the repository root. For every set, workload and seed it runs
`python3 e2ebench/run.py ...`, then prints per workload and metric the
median, the first and third quartiles (Python's
`statistics.quantiles(values, n=4)`) and the quartile distance as a
share of the median, next to the bound BENCHMARK.json fixes for
end-to-end metrics. With `--sets 2` or more, every set runs all
workloads once more in the same order, and each later set's medians are
compared with the first set's: the worse-direction change as a share of
the first median, against the same bound. `--out` also writes all of it,
with each run's environment line and raw values, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    command = [
        sys.executable, "e2ebench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(command)} failed ({done.returncode}):\n{done.stderr}")
    env = json.loads(next((l[4:] for l in lines if l.startswith("env ")), "{}"))
    steal = next((l.split()[-1] for l in lines if l.startswith("host steal_frac")), "nan")
    env["steal_frac"] = float(steal)
    return env, json.loads(lines[-1])


def summarize(series):
    median = statistics.median(series)
    q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (
        series[0], None, series[0])
    spread = (q3 - q1) / median if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": series}


def verdict(share, bound):
    if bound is None:
        return ""
    return "ok" if share < bound / 3 else (
        "within bound" if share <= bound else "TOO WIDE")


def run_set(args, seconds, bounds):
    workloads = {}
    for workload in args.workload:
        values, envs, failed = {}, [], 0
        for seed in seed_list(args.seeds):
            env, result = run_once(workload, seed, seconds, args.trace)
            envs.append(env)
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
            ) + f" (host steal {env['steal_frac']:.3f})", flush=True)
        summary = {name: summarize(series) for name, series in values.items()}
        for name, s in summary.items():
            bound = None if args.trace else bounds.get(name)
            print(f"  {workload:10s} {name:28s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:7.4f} bound {bound if bound is not None else '-'} "
                  f"{verdict(s['spread'], bound)}", flush=True)
        workloads[workload] = {"env": envs, "failed": failed, "metrics": summary}
    return workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open("BENCHMARK.json") as handle:
        manifest = json.load(handle)
    seconds = args.seconds or manifest["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    lower = {m["name"] for m in manifest["end_to_end"] if m["better"] == "lower"}
    report = {"seconds": seconds, "trace": args.trace, "sets": []}
    for number in range(1, args.sets + 1):
        print(f"== set {number}", flush=True)
        report["sets"].append(run_set(args, seconds, bounds))
    if args.sets > 1 and not args.trace:
        first = report["sets"][0]
        drift = {}
        for number, later in enumerate(report["sets"][1:], start=2):
            for workload, result in later.items():
                for name, s in result["metrics"].items():
                    base = first[workload]["metrics"][name]["median"]
                    change = (s["median"] - base) / base
                    worse = change if name in lower else -change
                    drift.setdefault(workload, {})[name] = worse
                    print(f"  set {number} vs 1 {workload:10s} {name:28s} "
                          f"worse by {worse:+.4f} bound {bounds.get(name)} "
                          f"{verdict(max(worse, 0.0), bounds.get(name))}")
        report["drift_vs_first_set"] = drift
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")


if __name__ == "__main__":
    main()
