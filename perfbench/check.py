#!/usr/bin/env python3
"""Checks and records built on the benchmark.  Run from the repository root.

    python3 perfbench/check.py smoke
        Every workload at toy size, plain and traced: each metric named
        in BENCHMARK.json is printed with its unit, every trace file
        parses with non-negative span self times, and a copy holding
        only BENCHMARK.json and perfbench/ fails without a result.  The
        traced crash-matrix run itself fails unless the explorer's
        reports on a two-domain pool equal the serial ones.

    python3 perfbench/check.py spread [--workloads a,b] [--seeds 1-10]
        Plain runs on each seed; per metric, the quartile spread
        (q3 - q1) / median against the metric's bound.

    python3 perfbench/check.py baseline [--runs 5] [--seed 42]
        Two sets of plain runs plus one traced run per workload, written
        to perfbench/baseline.json.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OUT = os.path.join(run.ROOT, "_build", "perfbench-out")


def bench(workload, *args, trace=0, seconds=None):
    """Run bench.exe once; return its parsed result line."""
    cmd = [run.EXE, "--workload", workload, "--trace", str(trace),
           "--seconds", str(seconds if seconds is not None else SPEC["run_seconds"])]
    cmd += list(args)
    done = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{done.stderr}{' '.join(cmd)}: exit {done.returncode}")
    return json.loads(lines[-1])


def expect(ok, msg, failures):
    if not ok:
        failures.append(msg)
        print("FAIL:", msg)


def smoke():
    failures = []
    for w in WORKLOADS:
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            r = bench(w, "--size", "toy", trace=trace, seconds=0)
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(r["correct"] and r["attempted"] >= 1, f"{w} trace={trace}: not correct", failures)
            expect(got == want, f"{w} trace={trace}: metrics differ from BENCHMARK.json", failures)
        events = json.load(open(os.path.join(OUT, f"trace-{w}.json")))["traceEvents"]
        covered = {}
        for e in events:
            p = e["args"]["parent"]
            covered[p] = covered.get(p, 0.0) + e["dur"]
        bad = [e["name"] for e in events if e["dur"] - covered.get(e["args"]["id"], 0.0) < -1e-3]
        expect(not bad, f"{w}: spans with negative self time: {bad[:5]}", failures)
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=bare,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=180)
    expect(done.returncode != 0 and done.stdout.strip() == "",
           "a copy without the sources must fail without printing a result", failures)
    shutil.rmtree(bare)
    print("smoke:", "ok" if not failures else f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(workloads, seeds):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    worst = 0.0
    for w in workloads:
        values = {}
        for s in seeds:
            r = bench(w, "--seed", str(s))
            for k, v in r["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, vs in values.items():
            q = quartiles(vs)
            rel = (q["q3"] - q["q1"]) / q["median"]
            if k != "setup_s":
                worst = max(worst, rel / bounds[k])
            print(f"{w:14} {k:12} median {q['median']:<14.6g} spread {rel:7.4f}"
                  f"  bound {bounds[k]:.3f}  {'ok' if rel < bounds[k] / 3 else 'WIDE'}"
                  f"  [{' '.join(f'{v:.4g}' for v in vs)}]", flush=True)
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")


def baseline(runs, seed, path):
    doc = {
        "seed": seed,
        "run_seconds": SPEC["run_seconds"],
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "workloads": {},
    }
    for w in WORKLOADS:
        sets = []
        for _ in range(2):
            results = [bench(w, "--seed", str(seed)) for _ in range(runs)]
            sets.append({k: quartiles([r["metrics"][k]["value"] for r in results])
                         for k in results[0]["metrics"]})
        traced = bench(w, "--seed", str(seed), trace=1)
        doc["workloads"][w] = {
            "plain_sets": sets,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(w, "done", flush=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("smoke")
    sp = sub.add_parser("spread")
    sp.add_argument("--workloads", default=",".join(WORKLOADS))
    sp.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    bp = sub.add_parser("baseline")
    bp.add_argument("--runs", type=int, default=5)
    bp.add_argument("--seed", type=int, default=42)
    bp.add_argument("--out", default=os.path.join(run.ROOT, "perfbench", "baseline.json"))
    args = ap.parse_args()
    if not run.build():
        sys.exit("perfbench: build failed")
    if args.cmd == "smoke":
        smoke()
    elif args.cmd == "spread":
        spread(args.workloads.split(","), args.seeds)
    else:
        baseline(args.runs, args.seed, args.out)


if __name__ == "__main__":
    main()
