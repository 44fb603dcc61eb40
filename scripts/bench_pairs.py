"""Paired benchmark runs of a parent checkout against a changed checkout.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload train [synth eval] \
        --seeds 21 22 23 24 25 26 27 28 29 31 --seconds 34 [--trace 0] [--out FILE]

Each named workload runs in turn, with every seed. For each seed, runs
the unmodified ``perfbench/run.py`` of each checkout once, one after the
other, in a fresh process with that checkout as the working directory. The side that runs first alternates from pair to pair
(the parent first in the first pair), so a drift in the host's load falls
on both sides alike.

For every metric of the result line it reports each side's median and
quartiles, the parent's spread between quartiles (IQR), and in how many
pairs the change read better, by the direction ``BENCHMARK.json`` gives the
metric; ties count for neither side. Each such metric gets ``claim_met``,
what a speed claim needs: at least ten pairs, the change better in at least
nine in ten, and the medians apart by more than the parent's IQR in the
change's favour. Each end-to-end metric with a ``bound`` (a fraction of the
parent's median) gets a ``status``:

- ``identical in every pair`` when the change reads the same value as the
  parent in every pair, however wide the parent's spread across seeds;
- else ``unresolved`` when the parent's IQR is wider than the bound, unless
  every run of the change reads better than every run of the parent;
- else ``worse beyond bound`` when the change's median is worse than the
  parent's by more than the bound;
- else ``within bound``.

Every metric also gets ``max_rel_change_per_seed``, the largest
|after - before| / |before| over the pairs, each pair being one seed. It
shows how far a change moved a value that it should leave alone, such as a
``quality_err`` whose spread across seeds leaves its status ``unresolved``;
it changes no status. ``quality_err`` is also listed per seed, and failed
operations against attempted ones. Every run's values are kept under
``runs``. The summary of each workload is printed, and with ``--out`` all
of them are written as one JSON object whose ``workloads`` maps each name
to its summary.

Uses the standard library only, so it runs with any Python 3.8+.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("before", "after")  # parent, change


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in checkout; the result object is its last stdout line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {"seed": seed, "failed": result["failed"], "attempted": result["attempted"], "metrics": values}


def directions(checkout: Path) -> tuple[dict, dict]:
    """From the checkout's BENCHMARK.json: metric name -> "lower" or
    "higher", and end-to-end metric name -> its bound."""
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in bench.get(key, [])}
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", []) if "bound" in m}
    return better, bounds


def quartiles(xs: list) -> dict:
    if len(xs) < 2:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def verdict(b: list, a: list, sign: float, bound: float) -> str:
    """Status of the change's runs ``a`` against the parent's ``b``, pair by
    pair, for a bound that is a fraction of the parent's median; sign is 1.0
    where lower is better and -1.0 where higher is."""
    if a == b:
        return "identical in every pair"
    before = quartiles(b)
    allowed = bound * abs(before["median"])
    if max(sign * y for y in a) < min(sign * x for x in b):
        return "within bound"
    if before["q3"] - before["q1"] > allowed:
        return "unresolved"
    if sign * (quartiles(a)["median"] - before["median"]) > allowed:
        return "worse beyond bound"
    return "within bound"


def max_rel_change(b: list, a: list) -> float:
    """Largest |y - x| / |x| over the pairs (x, y); a pair that moved off a
    parent value of 0 reads inf."""
    def rel(x, y):
        if y == x:
            return 0.0
        return abs(y - x) / abs(x) if x else math.inf

    return max(rel(x, y) for x, y in zip(b, a))


def summarize(runs: dict, better: dict, bounds: dict | None = None) -> dict:
    """Per-metric quartiles of each side, the parent's IQR, pairs won,
    whether a claim is met and, for a metric with a bound, its status."""
    before, after = runs["before"], runs["after"]
    names = [k for k in before[0]["metrics"] if all(k in r["metrics"] for r in before + after)]
    out = {"repeats": len(before), "seeds": [r["seed"] for r in before], "metrics": {}}
    for name in names:
        b = [r["metrics"][name] for r in before]
        a = [r["metrics"][name] for r in after]
        entry = {"before": quartiles(b), "after": quartiles(a)}
        entry["parent_iqr"] = entry["before"]["q3"] - entry["before"]["q1"]
        entry["max_rel_change_per_seed"] = max_rel_change(b, a)
        if name in better:
            sign = 1.0 if better[name] == "lower" else -1.0
            entry["better"] = better[name]
            entry["after_better_in_pairs"] = sum(sign * (y - x) < 0 for x, y in zip(b, a))
            entry["after_worse_in_pairs"] = sum(sign * (y - x) > 0 for x, y in zip(b, a))
            entry["claim_met"] = (len(b) >= 10 and entry["after_better_in_pairs"] >= 0.9 * len(b)
                                  and sign * (entry["before"]["median"] - entry["after"]["median"]) > entry["parent_iqr"])
            if bounds and name in bounds:
                entry["bound"] = bounds[name]
                entry["status"] = verdict(b, a, sign, bounds[name])
        out["metrics"][name] = entry
    for side in SIDES:
        rs = runs[side]
        out.setdefault("failed_of_attempted", {})[side] = [sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)]
        if "quality_err" in names:
            out.setdefault("quality_err_per_seed", {})[side] = {str(r["seed"]): r["metrics"]["quality_err"] for r in rs}
    out["runs"] = runs
    return out


def pairs(checkouts: dict, workload: str, seeds: list, seconds: float, trace: int) -> dict:
    """One run per side and seed; the side that runs first alternates."""
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            r = run_once(checkouts[side], workload, seed, seconds, trace)
            runs[side].append(r)
            print(f"{workload} pair {i + 1}/{len(seeds)} seed {seed} {side}: "
                  f"p50 {r['metrics'].get('latency_ms_p50', float('nan')):.3f} ms", file=sys.stderr, flush=True)
    return runs


def report(workload: str, summary: dict) -> None:
    print(f"== {workload}")
    for name, m in summary["metrics"].items():
        won = (f"  better in {m['after_better_in_pairs']}/{summary['repeats']}"
               f"  claim met: {'yes' if m['claim_met'] else 'no'}") if "better" in m else ""
        won += f"  {m['status']} ({m['bound']:g})" if "status" in m else ""
        won += f"  max rel change per seed {m['max_rel_change_per_seed']:.3g}"
        print(f"{name:40s} before {m['before']['median']:.6g} [{m['before']['q1']:.6g}, {m['before']['q3']:.6g}]"
              f"  after {m['after']['median']:.6g} [{m['after']['q1']:.6g}, {m['after']['q3']:.6g}]"
              f"  parent IQR {m['parent_iqr']:.3g}{won}")
    print(f"failed/attempted: {summary['failed_of_attempted']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", nargs="+", required=True, choices=["train", "synth", "eval"],
                    help="one or more workloads, run in turn")
    ap.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path, help="write the summaries here as JSON")
    args = ap.parse_args(argv)

    checkouts = {"before": args.parent.resolve(), "after": args.change.resolve()}
    directed = directions(checkouts["before"])
    out = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in dict.fromkeys(args.workload):  # each name once, in the order given
        runs = pairs(checkouts, workload, args.seeds, args.seconds, args.trace)
        out["workloads"][workload] = summarize(runs, *directed)
        report(workload, out["workloads"][workload])
        if args.out:  # written after each workload, so a finished one is kept
            args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
