"""Run one workload of the tnn benchmark and print its metrics.

    python3 perfbench/run.py --workload bnb --seed 1 --seconds 36 --trace 0

Run from the root of a checkout: the library is imported from ``src/``.  A
single caller runs the workload's fixed operation list again and again (a
closed loop: each call starts when the previous one returns) until
``--seconds`` would be exceeded, and reports medians over those passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` passes alternate
between untraced and traced, and the metrics are the per-layer ones plus the
tracing overhead.  The line before it is a JSON report: the environment,
every failed operation by name, and the digest of the deterministic outputs.
Reports, spans and digests are also written under ``.perfbench_out/``.
"""

import os
import sys

# BLAS and OpenMP read these once, when numpy loads, so they are set before
# anything imports it.  One thread: a fixed count no machine lacks, and the
# steadiest on a shared one.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
REF_EVERY_S = 0.4


def import_library():
    """Import tnn from this checkout's ``src`` and then ``tnn.cli``; return
    the seconds the ``tnn.cli`` import took on its own."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tnn

    if Path(tnn.__file__).resolve().parent != (src / "tnn").resolve():
        raise ImportError(f"tnn was imported from {tnn.__file__}, not {src}")
    start = time.perf_counter()
    import tnn.cli  # noqa: F401
    return time.perf_counter() - start


def measure_setup(args):
    """Median wall time of fresh processes that import the library and build
    this run's inputs, from process start to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.reduced:
        cmd.append("--reduced")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return median(times), times


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "mem_total_gib": round(mem / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_pass(ops, tracer=None):
    """Run every operation once.  Return the seconds each spent in library
    calls, the pass's time in units of the reference work, the reference
    times, and each outcome.  The reference is timed at the start and after
    every group of operations at least ``REF_EVERY_S`` long; a group's time
    is divided by the mean of the reference times on either side of it.  A
    failed operation still counts its time."""
    from reference import time_reference
    from workloads import Outcome

    times, refs, outcomes = [], [time_reference()], []
    rel, group = 0.0, 0.0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(index)
        start = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a failed operation, reported by name
            result, error = None, exc
        times.append(time.perf_counter() - start)
        group += times[-1]
        if group >= REF_EVERY_S or index == len(ops) - 1:
            refs.append(time_reference())
            rel += group / (0.5 * (refs[-2] + refs[-1]))
            group = 0.0
        if error is not None:
            outcome = Outcome("fail", (f"raised {type(error).__name__}: {error}",),
                              ("raised", type(error).__name__))
        else:
            try:
                outcome = op.check(result)
            except Exception as exc:  # an output the check cannot read
                outcome = Outcome("wrong", (f"check raised {exc!r}",), ("unreadable",))
        outcomes.append(outcome)
    return times, rel, refs, outcomes


def digest(items):
    return hashlib.sha256(
        json.dumps(items, default=str).encode()).hexdigest()[:16]


def outputs_digest(ops, outcomes):
    return digest([[op.name, o.status, o.record] for op, o in zip(ops, outcomes)])


def source_key():
    """Names the code under test, so digests are only compared between runs
    of the same code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tnn").glob("*.py")) + [
            Path(__file__).with_name("workloads.py")]:
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def compare_with_earlier(args, outputs, counts):
    """Store this run's digests; say whether an earlier run of the same seed
    and code disagreed."""
    path = OUT / "digests" / (
        f"{source_key()}-{args.workload}-seed{args.seed}"
        f"{'-reduced' if args.reduced else ''}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    earlier = json.loads(path.read_text()) if path.exists() else {}
    notes = []
    if earlier.get("outputs") not in (None, outputs):
        notes.append(f"outputs differ from an earlier run ({earlier['outputs']})")
    if counts is not None and earlier.get("counts") not in (None, counts):
        notes.append(f"call counts differ from an earlier run ({earlier['counts']})")
    stored = {"outputs": outputs, "counts": counts or earlier.get("counts")}
    path.write_text(json.dumps(stored))
    return notes


def measure(args, ops):
    """Closed-loop passes until the next one would overrun ``--seconds``."""
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    untraced, untraced_rel, traced, traced_rel = [], [], [], []
    counters, pass_op_s, pass_refs, pass_outcomes = [], [], [], []
    start, pass_wall = time.perf_counter(), []
    while True:
        pass_start = time.perf_counter()
        use_trace = tracer is not None and len(untraced) > len(traced)
        if use_trace:
            tracer.begin_pass()
            tracer.install()
            try:
                op_s, rel, _, outcomes = run_pass(ops, tracer)
            finally:
                tracer.uninstall()
            traced.append(sum(op_s))
            traced_rel.append(rel)
            counters.append(tracer.counters)
        else:
            op_s, rel, refs, outcomes = run_pass(ops)
            untraced.append(sum(op_s))
            untraced_rel.append(rel)
            pass_op_s.append(op_s)
            pass_refs.append(refs)
        pass_outcomes.append(outcomes)
        pass_wall.append(time.perf_counter() - pass_start)
        if tracer is not None and not traced:
            continue
        if time.perf_counter() - start + median(pass_wall) > args.seconds:
            return {"untraced_s": untraced, "untraced_rel": untraced_rel,
                    "traced_s": traced, "traced_rel": traced_rel,
                    "op_s": pass_op_s, "ref_s": pass_refs}, counters, pass_outcomes


def quality(outcomes):
    widths = [o.spectral_width for o in outcomes if o.spectral_width is not None]
    gaps = [o.nuclear_gap_rel for o in outcomes if o.nuclear_gap_rel is not None]
    return {
        "norms.spectral_width_max": (max(widths) if widths else 0.0, "abs"),
        "norms.nuclear_gap_rel_mean": (sum(gaps) / len(gaps) if gaps else 0.0,
                                       "ratio"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="one cheap operation per workload (smoke check)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli_import_s = import_library()
    import workloads

    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    ops = workloads.build(args.workload, args.seed, args.reduced)
    if args.setup_probe:
        return 0

    setup_s, setup_runs = measure_setup(args)
    passes, counters, pass_outcomes = measure(args, ops)

    from tracing import count_digest_items, layer_metrics

    first = pass_outcomes[0]
    outputs = outputs_digest(ops, first)
    count_digests = {digest(count_digest_items(c)) for c in counters}
    counts = digest(count_digest_items(counters[0])) if counters else None
    notes = []
    if any(outputs_digest(ops, outs) != outputs for outs in pass_outcomes):
        notes.append("passes of this run returned different outputs")
    if len(count_digests) > 1:
        notes.append("traced passes of this run made different calls")
    earlier_notes = compare_with_earlier(args, outputs, counts)

    attempted = sum(len(outs) for outs in pass_outcomes)
    failed = sum(o.status != "ok" for outs in pass_outcomes for o in outs)
    wrong = any(o.status == "wrong" for outs in pass_outcomes for o in outs)
    correct = not wrong and not notes

    shares = None
    if args.trace:
        metrics = layer_metrics(counters, cli_import_s)
        metrics.update(quality(first))
        traced_s, untraced_s = median(passes["traced_s"]), median(passes["untraced_s"])
        metrics["trace.wall_s"] = (traced_s, "s")
        metrics["trace.untraced_wall_s"] = (untraced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        metrics["trace.overhead_share"] = (
            median(passes["traced_rel"]) / median(passes["untraced_rel"]) - 1.0,
            "ratio")
        shares = {name: round(value / traced_s, 4)
                  for name, (value, unit) in metrics.items()
                  if name.endswith((".busy_s", ".self_s"))
                  and not name.startswith(("cli.", "trace."))}
    else:
        metrics = {
            "wall_rel": (median(passes["untraced_rel"]), "ref"),
            "setup_s": (setup_s, "s"),
            "ok_share": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "reduced": args.reduced,
        "wall_s": median(passes["untraced_s"]),
        "passes": passes,
        "setup_runs_s": setup_runs,
        "op_median_s": {op.name: median(op_s[i] for op_s in passes["op_s"])
                        for i, op in enumerate(ops)},
        "failures": [{"op": op.name, "status": o.status, "notes": list(o.notes)}
                     for op, o in zip(ops, first) if o.status != "ok"],
        "digest": {"source": source_key(), "outputs": outputs, "counts": counts},
        "determinism": notes + earlier_notes or ["consistent"],
        "traced_share_of_wall": shares,
        "environment": environment(),
    }
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{stem}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1))
    if counters:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "op"],
             "ops": [op.name for op in ops],
             "passes": [c.spans for c in counters]}))
    for note in earlier_notes:
        print(f"determinism: {note}", file=sys.stderr)
    print(json.dumps(report, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: cannot run: {exc!r}", file=sys.stderr)
        sys.exit(2)
