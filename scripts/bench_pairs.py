"""Run the benchmark in two checkouts, in alternating pairs, and summarise.

    python3 scripts/bench_pairs.py BASE CHANGE --workload bnb \
        --seed 1 --seed 2026 --pairs 10 --seconds 36 --out BENCH_23.json

``BASE`` and ``CHANGE`` are the roots of two checkouts (the parent commit and
the change).  Each pair runs ``perfbench/run.py`` once in each, base first in
even pairs and change first in odd ones; the pairs cycle through the seeds.
Every run is recorded with its end-to-end metrics, its per-operation medians
(``op_median_s``), the median of its reference timings (``ref_median_s``, the
work ``wall_rel`` divides by) and its output digest.  Per workload, and per
workload and seed, the summary gives each side's median and quartiles of every
metric, whether base and change printed the same outputs at each seed
(``outputs_equal``), the pairs the change won (ties count for neither side;
the better direction is read from the change's ``BENCHMARK.json``), whether
that meets the rule for claiming a gain, and per operation the median of the
runs' medians, in seconds (``op_median_s``) and in units of each run's
reference time (``op_median_rel``).  Raw seconds compare the machine's speed
as well as the code's; the reference units divide the machine's speed out,
as ``wall_rel`` does.

The output file is rewritten after every run, so an interrupted invocation
keeps what it measured; runs already in the file are kept, so several
invocations (one per workload, say) build one file.  The runs take no
thread setting of their own: ``perfbench/run.py`` sets every BLAS thread
variable to 1.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles


def git_head(root):
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def run_once(root, workload, seed, seconds):
    """One untraced benchmark run in the checkout ``root``: its report and
    result, the last two lines ``perfbench/run.py`` prints."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True, check=True)
    report, result = (json.loads(line)
                      for line in out.stdout.strip().splitlines()[-2:])
    return report, result


def spread(values):
    """Median and quartiles (the inclusive method: the extreme values stand
    for the 0th and 100th percentiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": median(values), "q1": q1, "q3": q3}


def outputs_equal(pairs):
    """Whether, seed by seed, every run of both sides printed one output
    digest; outputs that depend on the seed differ between seeds."""
    digests = {}
    for p in pairs:
        for r in p.values():
            digests.setdefault(r["seed"], set()).add(r["digest"]["outputs"])
    return all(len(d) == 1 for d in digests.values())


def summarise(runs, better):
    """Per workload, and per workload and seed: each side's spread of every
    metric, the change's wins over the pairs, and the per-operation
    medians."""
    groups = {}
    for r in runs:
        for key in (r["workload"], f"{r['workload']}/seed{r['seed']}"):
            groups.setdefault(key, []).append(r)
    summary = {}
    for key, members in sorted(groups.items()):
        pairs = {}
        for r in members:
            pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for p in pairs.values() if len(p) == 2]
        if not pairs:
            continue
        entry = {"pairs": len(pairs),
                 "seeds": sorted({p["base"]["seed"] for p in pairs}),
                 "outputs_equal": outputs_equal(pairs),
                 "metrics": {}, "op_median_s": {}, "op_median_rel": {}}
        for name in pairs[0]["change"]["metrics"]:
            sides = {s: [p[s]["metrics"][name] for p in pairs]
                     for s in ("base", "change")}
            sign = -1.0 if better.get(name) == "higher" else 1.0
            wins = sum(sign * (c - b) < 0
                       for b, c in zip(sides["base"], sides["change"]))
            base, change = spread(sides["base"]), spread(sides["change"])
            entry["metrics"][name] = {
                "base": base, "change": change, "change_wins": wins,
                # The rule for claiming a gain: nine tenths of the pairs won,
                # and the medians further apart than the base's quartiles.
                "gain_shown": (wins >= 0.9 * len(pairs)
                               and sign * (base["median"] - change["median"])
                               > base["q3"] - base["q1"]),
            }
        for op in pairs[0]["change"]["op_median_s"]:
            entry["op_median_s"][op] = {
                s: median(p[s]["op_median_s"][op] for p in pairs)
                for s in ("base", "change")}
            entry["op_median_rel"][op] = {
                s: median(p[s]["op_median_s"][op] / p[s]["ref_median_s"]
                          for p in pairs)
                for s in ("base", "change")}
        summary[key] = entry
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record = (json.loads(args.out.read_text()) if args.out.exists()
              else {"checkouts": {}, "runs": []})
    record["checkouts"] = {s: {"commit": git_head(r)}
                           for s, r in roots.items()}
    first_pair = 1 + max((r["pair"] for r in record["runs"]
                          if r["workload"] == args.workload), default=-1)
    for i in range(first_pair, first_pair + args.pairs):
        seed = args.seed[(i - first_pair) % len(args.seed)]
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for position, side in enumerate(order):
            report, result = run_once(roots[side], args.workload, seed,
                                      args.seconds)
            record["runs"].append({
                "workload": args.workload, "seed": seed, "pair": i,
                "side": side, "ran": position + 1,
                "seconds": args.seconds,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"]
                            for k, v in result["metrics"].items()},
                "op_median_s": report["op_median_s"],
                "ref_median_s": median(t for refs in report["passes"]["ref_s"]
                                       for t in refs),
                "digest": report["digest"],
            })
            record["environment"] = report["environment"]
            record["summary"] = summarise(record["runs"], better)
            args.out.write_text(json.dumps(record, indent=1) + "\n")
            m = record["runs"][-1]["metrics"]
            print(f"{args.workload} seed {seed} pair {i} {side}: "
                  + " ".join(f"{k}={v:.4g}" for k, v in m.items()),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
