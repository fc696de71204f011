"""The norm engines at any scale.

``spectral_hopm``, ``spectral_certified_upper``, ``spectral_enclosure`` and
``nuclear_sandwich`` run on the tensor over the power of two at or below its
largest entry (``tensor_core._unit_scale``) and multiply their results back.
A power of two scales every float exactly, so scaling the input by ``2^j``
scales every result by ``2^j`` bit for bit; scaling it by ``10^e`` moves the
results by the rounding of the input only, from ``10^-300`` to ``10^300``,
on subnormal entries and next to the largest float.  The decision checks
reach the engines through these calls; their verdicts use an absolute
``tol`` and are not compared across scales.

Their subspace preconditions are one relative rule,
``subspace.residual``, computed on the tensor over its power of two: a
non-member is refused, and ``z_membership`` reports the same residual,
from ``10^-300`` to ``10^300`` and on subnormal entries.
"""

import math
import sys

import numpy as np
import pytest

from tnn import (
    PreconditionError,
    basic,
    build_inclusion_member,
    check_nuclear_decomp,
    check_weak_decomp,
    family_from_tensor,
    find_z_witness,
    nuclear_sandwich,
    outer_atom,
    project,
    restricted_norm_check,
    sample_pair,
    sample_weak_pair,
    spectral_certified_upper,
    spectral_enclosure,
    spectral_hopm,
    z_membership,
)
from tnn.tensor_core import basis_vector


def _draw(shape, seed=0):
    return np.random.default_rng([seed, *shape]).standard_normal(shape)


def _rank(r, n=3, seed=0):
    """A sum of ``r`` seeded Gaussian rank-one ``n x n x n`` tensors."""
    rng = np.random.default_rng([seed, r, n])
    return sum(outer_atom([rng.standard_normal(n) for _ in range(3)])
               for _ in range(r))


# Full-rank (the 3x3x3 one greedy), rank-deficient, 2x2xn and flattening
# shapes, and a square matrix, a rectangular one and a vector.  `_scales`
# divides 1.7e308 by the largest entry, which overflows below 0.946, so each
# draw's is at least 0.95.
TENSORS = {
    "full-3x3x3": _draw((3, 3, 3)),
    "rank-1-3x3x3": _rank(1),
    "rank-2-3x3x3": _rank(2),
    "2x3x2": _draw((2, 3, 2)),
    "2x2x2x2": _draw((2, 2, 2, 2)),
    "flattening-5x5x6": _draw((5, 5, 6)),
    "3x3": _draw((3, 3)),
    "4x2": _draw((4, 2)),
    "5": _draw((5,)),
}
TOL = 1e-6  # absolute at unit scale; scaled with the tensor below


# Each engine returns its floats, an interval first (HOPM's value twice),
# and what does not scale.
def _hopm(T, scale):
    res = spectral_hopm(T)
    return (res.value, res.value), res.maximizers


def _bnb(T, scale):
    return spectral_certified_upper(T, tol=TOL * scale), ()


def _enclosure(T, scale):
    lo, up, method = spectral_enclosure(T, tol=TOL * scale)
    return (lo, up), (method,)


def _sandwich(T, scale):
    sw = nuclear_sandwich(T)
    weights = tuple(a.weight for a in sw.decomposition.atoms)
    return ((sw.lower, sw.upper) + weights,
            (sw.dual_witness, sw.witness_spectral_upper, sw.flags)
            + tuple(a.factors for a in sw.decomposition.atoms))


ENGINES = {"hopm": _hopm, "bnb": _bnb, "enclosure": _enclosure,
           "sandwich": _sandwich}
# The branch and bound refuses fixed modes above 4.  Greedy sandwiches take
# 40-70 ms each: the 3x3x3 one stands for them.
SKIP = {("bnb", "flattening-5x5x6"), ("sandwich", "flattening-5x5x6"),
        ("sandwich", "2x2x2x2")}


def _same(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return np.array_equal(a, b)


@pytest.mark.parametrize("engine, name", [
    (engine, name) for engine in ENGINES for name in TENSORS
    if (engine, name) not in SKIP])
def test_power_of_two_is_bit_exact(engine, name):
    T = TENSORS[name]
    ends, rest = ENGINES[engine](T, 1.0)
    for j in (-1000, 3, 1000):
        X = np.ldexp(T, j)
        # Every entry of 2^j T is exact, so its results are 2^j times T's.
        assert np.array_equal(np.ldexp(X, -j), T)
        got, got_rest = ENGINES[engine](X, math.ldexp(1.0, j))
        assert got == tuple(math.ldexp(v, j) for v in ends), j
        assert _same(got_rest, rest), j


def _check(name, kind, got, want, scale):
    """``got`` is an ordered interval within 1e-6 relative of ``want``
    scaled; past the float range an upper end is ``inf`` and a lower one at
    most the largest finite float."""
    lo, up = got
    assert lo <= up and lo <= sys.float_info.max, (name, kind, got)
    for end, ref in zip(got, want):
        target = ref * scale
        if math.isinf(target):
            assert end > 0.99 * sys.float_info.max, (name, kind, got)
        else:
            assert end == pytest.approx(target, rel=1e-6), (name, kind, got)


SWEEP = [10.0 ** e for e in range(-300, 301, 10)]


def _scales(T):
    """``SWEEP``, then the scales that put ``max |T|`` at 1e-310 (every
    entry subnormal) and at 1.7e308."""
    peak = float(np.abs(T).max())
    return SWEEP + [1e-310 / peak, 1.7e308 / peak]


# The cheap shapes: the rank-deficient ones go through their cores, whose
# enclosures and sandwiches take under 2 ms (the branch and bound on the
# whole tensor, 6 ms, is left to the power-of-two test).
SWEPT = {"rank-1-3x3x3": ("hopm", "enclosure", "sandwich"),
         "rank-2-3x3x3": ("hopm", "enclosure", "sandwich"),
         "2x3x2": tuple(ENGINES),
         "3x3": tuple(ENGINES),
         "4x2": tuple(ENGINES),
         "5": tuple(ENGINES)}


@pytest.mark.parametrize("name", list(SWEPT))
def test_engines_sweep_the_float_range(name):
    T = TENSORS[name]
    want = {engine: ENGINES[engine](T, 1.0)[0] for engine in SWEPT[name]}
    for scale in _scales(T):
        X = T * scale
        if scale < 1e-300:
            assert np.abs(X).max() < 2.0 ** -1022
        for engine, ends in want.items():
            got = ENGINES[engine](X, scale)[0]
            _check(name, (engine, scale), got[:2], ends[:2], scale)


@pytest.mark.parametrize("check", ["nuclear", "weak"])
def test_decision_checks_sweep_the_float_range(check):
    if check == "nuclear":
        family, T, S = sample_pair((2, 2, 2), (1, 1, 2), (0, 1), 0)

        def run(f):
            return check_nuclear_decomp(T * f, S * f, family, (0, 1))
    else:
        family, T, S = sample_weak_pair((2, 2, 2), 0)

        def run(f):
            return check_weak_decomp(T * f, S * f, family)
    ref = run(1.0)
    for scale in SWEEP:
        report = run(scale)
        for side in ("lhs", "rhs"):
            _check(check, (side, scale), getattr(report, side),
                   getattr(ref, side), scale)


def _refusals():
    """Per check, ``(run, tensors, message)``: ``run(f)`` calls the check on
    ``tensors`` scaled by ``f``, one of which lies outside its subspace, and
    must raise ``PreconditionError`` matching ``message``."""
    family, T, _ = sample_weak_pair((2, 2, 2), 0)
    R = _draw((2, 2, 2), seed=7)  # outside the order->=2 sum
    pair_family, T2, S2 = sample_pair((2, 2, 2), (1, 1, 2), (0, 1), 0)
    e0, e1 = basis_vector(2, 0), basis_vector(2, 1)
    atom = outer_atom([e0] * 3)
    off = outer_atom([e1, e0, e0], weight=0.1)  # order 1
    G = _draw((2, 2, 2), seed=8)
    return {
        "weak": (lambda f: check_weak_decomp(T * f, R * f, family),
                 (T, R), "S is not in the required subspace"),
        # Swapped: S is not in U_I and T is not in U^I.
        "nuclear": (lambda f: check_nuclear_decomp(S2 * f, T2 * f,
                                                   pair_family, (0, 1)),
                    (S2, T2), "T is not in the required subspace"),
        "inclusion": (lambda f: build_inclusion_member(atom, "D1", atom,
                                                       off * f),
                      (off,), "D1: direction leaves its subspace"),
        "restricted": (lambda f: restricted_norm_check(G * f,
                                                       family_from_tensor(atom)),
                       (G,), "T does not lie in"),
    }


@pytest.mark.parametrize("check", ["weak", "nuclear", "inclusion",
                                   "restricted"])
def test_non_member_is_refused_at_every_scale(check):
    run, tensors, message = _refusals()[check]
    peak = max(float(np.abs(X).max()) for X in tensors)
    for scale in SWEEP + [1e-310 / peak]:
        with pytest.raises(PreconditionError, match=message):
            run(scale)


def test_z_membership_residual_is_scale_free():
    """A dual certificate plus an order-1 component fails at every scale,
    with the same relative subspace residual."""
    T = _rank(2)
    family = family_from_tensor(T)
    sandwich = nuclear_sandwich(T)
    order1 = project(basic({0}), family, _draw((3, 3, 3), seed=9))
    Z = find_z_witness(T, sandwich) + 0.1 * order1
    ref = z_membership(Z, T, sandwich=sandwich)["subspace_residual"]
    assert ref == pytest.approx(
        0.1 * np.linalg.norm(order1) / np.linalg.norm(Z), rel=1e-9)
    for scale in SWEEP + [1e-310 / float(np.abs(Z).max())]:
        report = z_membership(Z * scale, T, sandwich=sandwich)
        assert report["verdict"] == "fail", scale
        assert report["subspace_residual"] == pytest.approx(ref, rel=1e-9), \
            scale
