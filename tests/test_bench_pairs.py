"""``scripts/bench_pairs.py``: the summary of alternating benchmark pairs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def runs(digests, walls):
    """Two runs per pair, the seeds alternating 1 and 2: ``digests`` and
    ``walls`` give each pair's ``(base, change)`` output digest and
    ``wall_rel``."""
    out = []
    for pair, (digest, wall) in enumerate(zip(digests, walls)):
        for side, d, w in zip(("base", "change"), digest, wall):
            out.append({"workload": "rpca", "seed": 1 + pair % 2,
                        "pair": pair, "side": side,
                        "metrics": {"wall_rel": w},
                        "op_median_s": {"op": 0.01 * w},
                        "ref_median_s": 0.01, "digest": {"outputs": d}})
    return out


def test_outputs_equal_compares_each_seed_alone():
    # The outputs depend on the seed; base and change agree at each one.
    walls = [(3.0, 2.5)] * 4
    same = bench_pairs.summarise(
        runs([("a", "a"), ("b", "b")] * 2, walls), {})
    assert same["rpca"]["outputs_equal"]
    assert same["rpca/seed1"]["outputs_equal"]
    assert same["rpca/seed2"]["outputs_equal"]
    moved = bench_pairs.summarise(
        runs([("a", "a"), ("b", "b"), ("a", "a"), ("b", "c")], walls), {})
    assert not moved["rpca"]["outputs_equal"]
    assert moved["rpca/seed1"]["outputs_equal"]
    assert not moved["rpca/seed2"]["outputs_equal"]


def test_summary_counts_wins_and_the_gain_rule():
    walls = [(3.0, 2.5), (3.1, 2.6), (3.2, 2.7), (2.9, 3.0)]
    entry = bench_pairs.summarise(runs([("a", "a"), ("b", "b")] * 2, walls),
                                  {"wall_rel": "lower"})["rpca"]
    wall = entry["metrics"]["wall_rel"]
    assert entry["pairs"] == 4 and entry["seeds"] == [1, 2]
    assert wall["change_wins"] == 3
    assert wall["base"]["median"] == pytest.approx(3.05)
    assert wall["change"]["median"] == pytest.approx(2.65)
    # Three wins of four fall short of nine tenths.
    assert not wall["gain_shown"]
    assert entry["op_median_rel"]["op"] == pytest.approx(
        {"base": 3.05, "change": 2.65})
