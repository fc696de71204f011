"""Print the library's outputs on a fixed set of inputs, and a hash of them.

    python3 scripts/dump_outputs.py [--out FILE]

Run it in two checkouts: a change meant to keep every output bit-identical
must print the same last line in both.  A change that moves floats writes
``--out`` in both and compares the files with ``scripts/compare_outputs.py``.
The lines are:

* the status, record and notes of every operation of the benchmark's
  ``bnb``, ``nuclear`` and ``rpca`` workloads at seeds 1 and 2 (the inputs of
  ``perfbench.workloads.build``, judged by each operation's own check);
* on 200 seeded tensors (``default_rng(1000 + i)``, the shapes cycling
  through ``SHAPES``): ``float.hex`` of ``nuclear_sandwich``'s ends with its
  flags, of ``spectral_enclosure(T, tol=1e-6)`` with its method, and of
  ``spectral_hopm``'s value with its iterations;
* on 600 seeded vectors and matrices (indices 200 to 799, the same seeds,
  the shapes cycling through ``MATRIX_SHAPES``): the sandwich and enclosure
  lines alone;
* per stretch probe of ``TAU_PROBES``: ``float.hex`` of ``probe_tau``'s
  ``feasible_max`` and ``infeasible_min``, its trials and its notes;
* last, the number of lines above and their sha256.

``--out FILE`` also writes every line but the last as a JSON record, one a
line: its ``kind`` (the workload, ``sandwich``, ``enclosure`` or ``hopm``)
and ``key`` (seed and operation, or tensor index), its interval's ``ends``
as ``float.hex`` (HOPM's value alone, a lower end), and what does not
scale: a workload operation's ``verdict`` (its status) and ``record`` and
``notes`` as strings, a sandwich's ``flags``, an enclosure's ``method`` and
HOPM's ``iterations``; a probe's record (kind ``tau``) keeps its two values
as ``float.hex`` strings, not as ``ends``: they come from different
directions and form no interval.

Every BLAS thread variable is set to 1, as the benchmark sets them.  The
whole script, the ``rpca`` workload's 16x16x17 ``certify`` included, ran in
4.6-8.0 s with a 42 MB peak resident set on a shared 2-core Xeon.
"""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import tnn  # noqa: E402
from perfbench.workloads import build  # noqa: E402

SEEDS = (1, 2)
SHAPES = ((2, 2, 2), (2, 3, 2), (2, 2, 4), (3, 3, 3), (2, 2, 2, 2),
          (2, 3, 4))
TENSORS = 200
# Square, rectangular and vector inputs: the order-<=2 engines.
MATRIX_SHAPES = ((2, 2), (3, 3), (4, 4), (6, 6), (2, 5), (5, 3), (4,), (7,))
MATRICES = 600
# Stretch probes: (name, selector, shape, trials, seed).
TAU_PROBES = (
    *((f"upperU{name}", tnn.upper_u(frozenset(I)), (2, 2, 2), 3, seed)
      for name, I in (("01", {0, 1}), ("12", {1, 2}))
      for seed in (0, 1, 2026)),
    *(("ge2", tnn.order_ge2_sum(3), (2, 2, 2), 3, seed)
      for seed in (0, 1, 2026)),
    ("ge2", tnn.order_ge2_sum(3), (2, 2, 3), 3, 0),
    ("ge2", tnn.order_ge2_sum(4), (2, 2, 2, 2), 3, 1),
    ("upperU01", tnn.upper_u(frozenset({0, 1})), (5, 5, 6), 1, 0),
    ("ge2", tnn.order_ge2_sum(3), (5, 5, 5), 2, 0),
)


def hexes(*values):
    return " ".join(float(v).hex() for v in values)


def lines():
    """``(line, record)`` per output: the printed line and its record."""
    for workload in ("bnb", "nuclear", "rpca"):
        for seed in SEEDS:
            for op in build(workload, seed):
                out = op.check(op.call())
                yield (f"{workload} {seed} {op.name} {out.status} "
                       f"{out.record!r} {out.notes!r}",
                       {"kind": workload, "key": f"{seed} {op.name}",
                        "verdict": out.status, "record": repr(out.record),
                        "notes": repr(out.notes)})
    for i in range(TENSORS):
        T = np.random.default_rng(1000 + i).standard_normal(
            SHAPES[i % len(SHAPES)])
        yield from intervals(i, T)
        res = tnn.spectral_hopm(T)
        yield (f"hopm {i} {hexes(res.value)} {res.iterations}",
               {"kind": "hopm", "key": str(i), "ends": [hexes(res.value)],
                "iterations": res.iterations})
    for i in range(TENSORS, TENSORS + MATRICES):
        T = np.random.default_rng(1000 + i).standard_normal(
            MATRIX_SHAPES[i % len(MATRIX_SHAPES)])
        yield from intervals(i, T)
    for name, selector, shape, trials, seed in TAU_PROBES:
        est = tnn.probe_tau(selector, shape, trials=trials, seed=seed)
        key = f"{name} {'x'.join(map(str, shape))} t{trials} s{seed}"
        fm, im = est.feasible_max.hex(), est.infeasible_min.hex()
        yield (f"tau {key} {fm} {im} {est.trials} {est.notes!r}",
               {"kind": "tau", "key": key, "feasible_max": fm,
                "infeasible_min": im, "trials": est.trials,
                "notes": list(est.notes)})


def intervals(i, T):
    """The sandwich and enclosure lines of input ``i``, the tensor ``T``."""
    sw = tnn.nuclear_sandwich(T)
    lo, up, method = tnn.spectral_enclosure(T, tol=1e-6)
    yield (f"sandwich {i} {hexes(sw.lower, sw.upper)} {sw.flags!r}",
           {"kind": "sandwich", "key": str(i),
            "ends": hexes(sw.lower, sw.upper).split(),
            "flags": list(sw.flags)})
    yield (f"enclosure {i} {hexes(lo, up)} {method}",
           {"kind": "enclosure", "key": str(i),
            "ends": hexes(lo, up).split(), "method": method})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path,
                        help="also write the outputs as JSON records here")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    count = 0
    records = open(args.out, "w", encoding="utf-8") if args.out else None
    try:
        for line, record in lines():
            print(line, flush=True)
            digest.update(line.encode() + b"\n")
            count += 1
            if records:
                records.write(json.dumps(record, sort_keys=True) + "\n")
    finally:
        if records:
            records.close()
    print(f"{count} lines sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
