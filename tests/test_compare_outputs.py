"""``scripts/compare_outputs.py``: the gate for changes that move floats."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = (Path(__file__).resolve().parent.parent / "scripts"
          / "compare_outputs.py")
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

RECORDS = [
    {"kind": "nuclear", "key": "1 weak_pair_0", "verdict": "ok",
     "record": "('pass', '1.5')", "notes": "()"},
    {"kind": "sandwich", "key": "0", "ends": [(2.0).hex(), (3.0).hex()],
     "flags": ["witness_bound_flattening"]},
    {"kind": "enclosure", "key": "0", "ends": [(1.0).hex(), (1.5).hex()],
     "method": "bnb"},
    {"kind": "hopm", "key": "0", "ends": [(1.0).hex()], "iterations": 4},
]


def write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def run(tmp_path, change, capsys):
    base = write(tmp_path / "base.jsonl", RECORDS)
    status = compare_outputs.main([base, write(tmp_path / "change.jsonl",
                                               change)])
    return status, capsys.readouterr().out


def test_identical_files_pass(tmp_path, capsys):
    status, out = run(tmp_path, RECORDS, capsys)
    assert status == 0
    assert out.splitlines()[-1] == "OK"
    assert "lower ends that fell: 0" in out
    assert "upper ends that rose: 0" in out


def test_moved_ends_are_reported_not_failed(tmp_path, capsys):
    change = [dict(r) for r in RECORDS]
    change[1]["ends"] = [(2.0).hex(), (3.0 * (1 + 2 ** -20)).hex()]
    change[2]["ends"] = [(1.0 - 2 ** -30).hex(), (1.5).hex()]
    change[2]["method"] = "flattening"
    status, out = run(tmp_path, change, capsys)
    assert status == 0
    assert "upper ends that rose: 1\n  sandwich 0:" in out
    assert "lower ends that fell: 1\n  enclosure 0:" in out
    assert "method 1" in out


def counts(out, kind):
    """A kind's row of the report as ``{(side, direction): count}``."""
    row = next(line.split() for line in out.splitlines()
               if line.split()[:1] == [kind])
    return dict(zip(compare_outputs.MOVES, map(int, row[4:8])))


def test_moves_are_counted_per_direction(tmp_path, capsys):
    change = [dict(r) for r in RECORDS]
    change[1]["ends"] = [(2.0 + 2 ** -40).hex(), (3.0 - 2 ** -40).hex()]
    change[2]["ends"] = [(1.0 - 2 ** -30).hex(), (1.5 + 2 ** -30).hex()]
    change[3]["ends"] = [(1.0 + 2 ** -50).hex()]
    status, out = run(tmp_path, change, capsys)
    assert status == 0
    assert "lo rose lo fell up rose up fell" in " ".join(out.split())
    assert counts(out, "sandwich") == {
        ("lower", "rose"): 1, ("lower", "fell"): 0,
        ("upper", "rose"): 0, ("upper", "fell"): 1}
    assert counts(out, "enclosure") == {
        ("lower", "rose"): 0, ("lower", "fell"): 1,
        ("upper", "rose"): 1, ("upper", "fell"): 0}
    assert counts(out, "hopm") == {
        ("lower", "rose"): 1, ("lower", "fell"): 0,
        ("upper", "rose"): 0, ("upper", "fell"): 0}
    assert set(counts(out, "nuclear").values()) == {0}


@pytest.mark.parametrize("kind", ["workload", "sandwich"])
def test_a_flipped_verdict_fails(tmp_path, capsys, kind):
    change = [dict(r) for r in RECORDS]
    if kind == "workload":
        change[0]["verdict"] = "wrong"
    else:
        change[1]["verdict"] = "fail"
    status, out = run(tmp_path, change, capsys)
    assert status == 1
    assert "verdict changed" in out and out.splitlines()[-1] == "FAIL"


def test_disjoint_intervals_fail(tmp_path, capsys):
    change = [dict(r) for r in RECORDS]
    change[1]["ends"] = [(3.5).hex(), (4.0).hex()]
    status, out = run(tmp_path, change, capsys)
    assert status == 1
    assert "disjoint intervals: sandwich 0" in out


def test_an_inverted_interval_in_the_change_fails(tmp_path, capsys):
    # [1.25, 1.2] meets the base's [1, 1.5]: only the inversion fails.
    change = [dict(r) for r in RECORDS]
    change[2]["ends"] = [(1.25).hex(), (1.2).hex()]
    status, out = run(tmp_path, change, capsys)
    assert status == 1
    assert "inverted interval: enclosure 0: 0x1.4" in out
    assert "disjoint" not in out
    assert "inverted in base: 0\n" in out


def test_an_inverted_interval_in_the_base_is_listed_not_compared(
        tmp_path, capsys):
    # The base's lower end is one ulp above its upper end, which the
    # change's interval ends at: listed, and not called disjoint.
    base = [dict(r) for r in RECORDS]
    base[2]["ends"] = [(1.5 + 2 ** -52).hex(), (1.5).hex()]
    change = [dict(r) for r in RECORDS]
    change[2]["ends"] = [(1.5 - 2 ** -40).hex(), (1.5).hex()]
    status = compare_outputs.main([write(tmp_path / "base.jsonl", base),
                                   write(tmp_path / "change.jsonl", change)])
    out = capsys.readouterr().out
    assert status == 0
    assert ("inverted in base: 1\n  enclosure 0: 0x1.8000000000001p+0 > "
            "0x1.8000000000000p+0\n") in out
    assert "disjoint" not in out and out.splitlines()[-1] == "OK"


@pytest.mark.parametrize("line", [
    "sandwich 0 0x1p+1 0x1.8p+1\n",  # a printed line, not a record
    '{"kind": "sandwich", "ends": ["0x1p+1"]}\n',  # no key
    '{"kind": "hopm", "key": "0", "ends": ["2.0e0"]}\n',  # not float.hex
    '{"kind": "hopm", "key": "1", "ends": ["0x1p+0", "0x1p+0", "0x1p+0"]}\n',
    '{"kind": "hopm", "key": "0", "ends": ["0x1p+0"]}\n',  # repeated input
])
def test_a_malformed_line_fails(tmp_path, capsys, line):
    base = write(tmp_path / "base.jsonl", RECORDS)
    path = tmp_path / "change.jsonl"
    write(path, RECORDS)
    path.write_text(path.read_text() + line)
    assert compare_outputs.main([base, str(path)]) == 2
    assert capsys.readouterr().out.startswith("malformed:")
