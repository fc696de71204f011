"""Compare the output records of two checkouts, for a change that moves floats.

    python3 scripts/dump_outputs.py --out base.jsonl     # in the parent
    python3 scripts/dump_outputs.py --out change.jsonl   # in the change
    python3 scripts/compare_outputs.py base.jsonl change.jsonl

Records are matched on their ``kind`` and ``key``.  Per kind, the report
gives the number of inputs, the largest relative movement of each end
(``|change - base| / |base|``), how many lower ends rose and fell and how
many upper ends rose and fell, and how many records changed each field that
does not scale (verdict, flags, method, ...).  It then lists every lower
end that fell and every upper end that rose, the base's inverted intervals
(lower end above the upper) and the inputs found in one file only.

The exit status is 1 when a verdict changed, when the change has an
inverted interval, or when the two certified intervals of one input are
disjoint: both enclose the same number, so one of them is false.  An
inverted interval is no interval, so it is not tested for disjointness.
It is 2 on a malformed line (not a JSON object with a string ``kind`` and
``key`` and at most two ``float.hex`` ends) or a repeated input, and 0
otherwise.
"""

import argparse
import json
import sys


# The directions an end can move in, counted per kind: (side, direction).
MOVES = (("lower", "rose"), ("lower", "fell"), ("upper", "rose"),
         ("upper", "fell"))


class Malformed(Exception):
    """A line that is not an output record."""


def load(path):
    """The records of a ``dump_outputs.py --out`` file by ``(kind, key)``,
    their ends parsed to floats."""
    records = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            try:
                record = json.loads(line)
                name = (record["kind"], record["key"])
                ends = [float.fromhex(v) for v in record.get("ends", [])]
                if not all(isinstance(v, str) for v in name) or len(ends) > 2:
                    raise ValueError
            except (ValueError, KeyError, TypeError) as exc:
                raise Malformed(f"{path}:{number}: not an output record: "
                                f"{line.strip()[:80]!r}") from exc
            if name in records:
                raise Malformed(f"{path}:{number}: repeated input {name}")
            records[name] = dict(record, ends=ends)
    return records


def movement(base, change):
    """``|change - base| / |base|``, or ``|change|`` where ``base`` is 0."""
    if base == change:
        return 0.0
    return abs(change - base) / abs(base) if base else abs(change)


def inverted(records):
    """``{name: "kind key: lower > upper"}`` for the records whose lower end
    is above their upper end, in name order."""
    return {name: f"{' '.join(name)}: {r['ends'][0].hex()} > "
                  f"{r['ends'][1].hex()}"
            for name, r in sorted(records.items())
            if len(r["ends"]) == 2 and r["ends"][0] > r["ends"][1]}


def compare(base, change):
    """``(report lines, failures)`` for two loaded record sets."""
    kinds, fell, rose = {}, [], []
    base_inverted, change_inverted = inverted(base), inverted(change)
    failures = [f"inverted interval: {line}"
                for line in change_inverted.values()]
    for name in sorted(base.keys() & change.keys()):
        b, c = base[name], change[name]
        kind = kinds.setdefault(name[0], {
            "inputs": 0, "lower": 0.0, "upper": 0.0, "changed": {},
            "moves": dict.fromkeys(MOVES, 0)})
        kind["inputs"] += 1
        label = " ".join(name)
        for field in sorted((b.keys() | c.keys()) - {"kind", "key", "ends"}):
            if b.get(field) != c.get(field):
                kind["changed"][field] = kind["changed"].get(field, 0) + 1
                if field == "verdict":
                    failures.append(f"verdict changed: {label}: "
                                    f"{b.get(field)} -> {c.get(field)}")
        for side, x, y in zip(("lower", "upper"), b["ends"], c["ends"]):
            kind[side] = max(kind[side], movement(x, y))
            if y != x:
                kind["moves"][side, "rose" if y > x else "fell"] += 1
            if (y < x) if side == "lower" else (y > x):
                (fell if side == "lower" else rose).append(
                    f"  {label}: {x.hex()} -> {y.hex()} "
                    f"({movement(x, y):.3g})")
        # An inverted pair of ends is no interval to test for disjointness.
        intervals = len(b["ends"]) == len(c["ends"]) == 2 and not (
            name in base_inverted or name in change_inverted)
        if intervals and (
                c["ends"][1] < b["ends"][0] or b["ends"][1] < c["ends"][0]):
            failures.append(f"disjoint intervals: {label}: {b['ends']} and "
                            f"{c['ends']}")

    lines = [f"{'kind':<10} {'inputs':>6} {'lower moved':>11} "
             f"{'upper moved':>11} "
             + " ".join(f"{s[:2] + ' ' + d:>7}" for s, d in MOVES)
             + "  changed"]
    for name, kind in sorted(kinds.items()):
        changed = ", ".join(f"{f} {n}" for f, n in sorted(
            kind["changed"].items())) or "-"
        lines.append(f"{name:<10} {kind['inputs']:>6} {kind['lower']:>11.3g} "
                     f"{kind['upper']:>11.3g} "
                     + " ".join(f"{kind['moves'][m]:>7}" for m in MOVES)
                     + f"  {changed}")
    lines.append(f"lower ends that fell: {len(fell)}")
    lines += fell
    lines.append(f"upper ends that rose: {len(rose)}")
    lines += rose
    lines.append(f"inverted in base: {len(base_inverted)}")
    lines += [f"  {line}" for line in base_inverted.values()]
    for side, only in (("base", base.keys() - change.keys()),
                       ("change", change.keys() - base.keys())):
        if only:
            lines.append(f"only in {side}: {len(only)}")
            lines += [f"  {' '.join(name)}" for name in sorted(only)]
    return lines, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    try:
        base, change = load(args.base), load(args.change)
    except Malformed as exc:
        print(f"malformed: {exc}")
        return 2
    lines, failures = compare(base, change)
    print("\n".join(lines + failures))
    print("FAIL" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
