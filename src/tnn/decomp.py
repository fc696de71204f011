"""Decomposability checks across complementary subspace pairs.

For a family of mode subspaces ``(V_k)`` and an index set ``I`` with
``|I| >= 2``, splitting a tensor into its components on the pair
``U_I`` (inside ``V_k`` on every mode of ``I``, free elsewhere) and
``U^I`` (orthogonal to ``V_k`` on every mode of ``I``, free elsewhere)
is exact for both norms:

* spectral: ``||T + S||_sigma = max(||T||_sigma, ||S||_sigma)``,
* nuclear:  ``||T + S||_* = ||T||_* + ||S||_*``,

and for arbitrary tensors the one-sided bound
``||T||_* >= ||p_{U_I} T||_* + ||p_{U^I} T||_*`` still holds.  When ``S``
merely has mode spans orthogonal to the ``V_k`` on every mode, additivity
fails in general but a weak form survives:
``||T + S||_* >= ||T||_* + alpha ||S||_*`` with ``alpha = 2/(d(d-1))``.

Nuclear norms are only available as certified sandwiches, so nuclear
verdicts are three-way: ``pass``, ``fail``, or ``inconclusive`` when the
sandwich gaps are too wide to decide.  An inconclusive result is never
silently reported as a pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PreconditionError
from .norms import nuclear_sandwich, spectral_enclosure
from .subspace import (
    ModeFamily,
    ModeSubspace,
    basic,
    family_from_tensor,
    lower_u,
    order_ge2_sum,
    project,
    residual,
    upper_u,
)
from .tensor_core import asarray, holder_norm, outer_atom

__all__ = [
    "DecompReport",
    "weak_decomposability_constant",
    "sample_pair",
    "sample_weak_pair",
    "check_spectral_decomp",
    "check_nuclear_decomp",
    "check_nuclear_lower_bound",
    "check_weak_decomp",
]


@dataclass(frozen=True)
class DecompReport:
    """Outcome of one decomposability check."""

    mode: str             # "spectral" | "nuclear" | "lower_bound" | "weak"
    verdict: str          # "pass" | "fail" | "inconclusive"
    lhs: tuple            # certified interval for the left-hand side
    rhs: tuple            # certified interval for the right-hand side
    discrepancy: float
    tolerance: float
    details: dict

    @property
    def ok(self):
        return self.verdict == "pass"


def weak_decomposability_constant(d):
    """The constant ``2 / (d (d - 1))`` in the weak additivity bound."""
    if d < 2:
        raise ParameterError("weak decomposability needs order >= 2")
    return 2.0 / (d * (d - 1))


def _normalize_index_set(index_set, d, minimum=1):
    I = frozenset(int(i) for i in index_set)
    if len(I) < minimum:
        raise ParameterError(f"index set must contain at least {minimum} modes")
    if any(not 0 <= i < d for i in I):
        raise ParameterError("index set out of range")
    return I


def _require_membership(name, T, selector, family, tol=1e-10):
    """``T`` as an array, after checking that its relative residual
    (``subspace.residual``) is at most ``tol``."""
    A = asarray(T)
    resid = residual(selector, family, A)
    if resid > tol:
        raise PreconditionError(
            f"{name} is not in the required subspace "
            f"(relative residual {resid:.3e})"
        )
    return A


def sample_pair(shape, ranks, index_set, seed):
    """Random instance for the decomposability checks.

    Builds a mode-subspace family from seeded Gaussian bases with the given
    per-mode ranks, then projects two independent Gaussian tensors onto
    ``U_I`` and ``U^I``.  Returns ``(family, T, S)`` with ``T`` in ``U_I``
    and ``S`` in ``U^I``, both nonzero; identical seeds reproduce the
    instance bit for bit.
    """
    shape = tuple(int(n) for n in shape)
    ranks = tuple(int(r) for r in ranks)
    d = len(shape)
    if len(ranks) != d:
        raise ParameterError("need one rank per mode")
    I = _normalize_index_set(index_set, d, minimum=1)
    for k, (n, r) in enumerate(zip(shape, ranks)):
        if not 1 <= r <= n:
            raise ParameterError(f"rank {r} impossible for mode {k} of size {n}")
        if k in I and r == n:
            raise ParameterError(
                f"mode {k} in I has full rank {r}; its complement is trivial"
            )
    ss = np.random.SeedSequence([int(seed), d, *shape, *sorted(I)])
    rng = np.random.default_rng(ss)
    subs = []
    for n, r in zip(shape, ranks):
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :r]
        subs.append(ModeSubspace(n, basis))
    family = ModeFamily(tuple(subs))
    for attempt in range(64):
        T = project(lower_u(I), family, rng.standard_normal(shape))
        S = project(upper_u(I), family, rng.standard_normal(shape))
        if holder_norm(T, 2) > 1e-8 and holder_norm(S, 2) > 1e-8:
            return family, T, S
    raise ParameterError("could not draw a nonzero pair for this family")


def sample_weak_pair(shape, seed):
    """Random instance for the weak check.

    One seeded stream draws a Gaussian base tensor and a random unit
    rank-one atom, whose mode spans make the family; ``T`` is the base
    projected onto the atom's span subspace and ``S`` a fresh Gaussian
    tensor projected onto ``order_ge2_sum(d)``.  Returns ``(family, T, S)``;
    identical seeds reproduce the instance bit for bit.
    """
    shape = tuple(int(n) for n in shape)
    if len(shape) < 2:
        raise ParameterError("weak decomposability needs order >= 2")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), *shape]))
    base = rng.standard_normal(shape)
    atom = outer_atom([v / np.linalg.norm(v)
                       for v in (rng.standard_normal(n) for n in shape)])
    family = family_from_tensor(atom)
    T = project(basic(()), family, base)
    S = project(order_ge2_sum(len(shape)), family, rng.standard_normal(shape))
    return family, T, S


def _split_pair(T, S, family, index_set):
    """``(I, T, S)`` after checking ``|I| >= 2``, ``T in U_I``, ``S in U^I``."""
    I = _normalize_index_set(index_set, family.order, minimum=2)
    return (I, _require_membership("T", T, lower_u(I), family),
            _require_membership("S", S, upper_u(I), family))


def check_spectral_decomp(T, S, family, index_set, tol=1e-6):
    """Check ``||T + S||_sigma = max(||T||_sigma, ||S||_sigma)``.

    ``lhs`` and ``rhs`` are certified intervals from
    ``spectral_enclosure``, at every size, and the discrepancy compares
    their lower ends, which are attained values: the branch and bound's
    finished best point, or past its limit the multi-start HOPM value.
    """
    I, T, S = _split_pair(T, S, family, index_set)
    (v_sum, up_sum), (v_t, up_t), (v_s, up_s) = (
        spectral_enclosure(A, tol=1e-4)[:2] for A in (T + S, T, S))
    disc = abs(v_sum - max(v_t, v_s))
    verdict = "pass" if disc <= tol else "fail"
    return DecompReport(
        "spectral", verdict, (v_sum, up_sum),
        (max(v_t, v_s), max(up_t, up_s)), disc, tol,
        {"sigma_sum": v_sum, "sigma_T": v_t, "sigma_S": v_s, "I": sorted(I)},
    )


def _nuclear_sides(whole, part, other, alpha):
    """Sandwiches of ``whole``, ``part`` and ``other``, taken in that order,
    with the intervals ``lhs`` for ``||whole||_*`` and ``rhs`` for
    ``||part||_* + alpha ||other||_*`` and the midpoint discrepancy
    ``mid(lhs) - mid(rhs)``."""
    s_w, s_p, s_o = (nuclear_sandwich(A) for A in (whole, part, other))
    lhs = (s_w.lower, s_w.upper)
    rhs = (s_p.lower + alpha * s_o.lower, s_p.upper + alpha * s_o.upper)
    disc = s_w.mid - (s_p.mid + alpha * s_o.mid)
    return s_w, s_p, s_o, lhs, rhs, disc


def _one_sided(lhs, rhs, tol):
    """Verdict on ``lhs >= rhs``: ``fail`` only when
    ``upper(lhs) < lower(rhs) - tol`` refutes it; ``pass`` means the
    sandwiches do not refute it, not that they prove it."""
    return "pass" if lhs[1] >= rhs[0] - tol else "fail"


def _nuclear_three_way(lhs, rhs, disc, tol):
    """Gap-aware equality verdict on two nuclear-norm intervals; intervals
    whose widths add up to more than 1e-2 never pass."""
    gap_total = (lhs[1] - lhs[0]) + (rhs[1] - rhs[0])
    if lhs[0] > rhs[1] + tol or rhs[0] > lhs[1] + tol:
        return "fail", gap_total
    if gap_total <= 1e-2 and disc <= gap_total + tol:
        return "pass", gap_total
    return "inconclusive", gap_total


def check_nuclear_decomp(T, S, family, index_set, tol=1e-3):
    """Check ``||T + S||_* = ||T||_* + ||S||_*`` on the sandwiches.

    ``fail`` when the two intervals are more than ``tol`` apart.  ``pass``
    needs the widths to add up to ``gap_total <= 1e-2`` and the midpoint
    discrepancy ``disc <= gap_total + tol``, so it holds up to sandwich
    width; anything else is ``inconclusive``.
    """
    I, T, S = _split_pair(T, S, family, index_set)
    _, s_t, s_s, lhs, rhs, disc = _nuclear_sides(T + S, T, S, 1.0)
    disc = abs(disc)
    verdict, gap_total = _nuclear_three_way(lhs, rhs, disc, tol)
    return DecompReport(
        "nuclear", verdict, lhs, rhs, disc, tol,
        {"nuc_T": (s_t.lower, s_t.upper), "nuc_S": (s_s.lower, s_s.upper),
         "gap_total": gap_total, "I": sorted(I)},
    )


def check_nuclear_lower_bound(T, family, index_set, tol=1e-6):
    """Check the one-sided bound
    ``||T||_* >= ||p_{U_I} T||_* + ||p_{U^I} T||_*`` for arbitrary ``T``
    through its consequence
    ``upper(T) >= lower(p_{U_I} T) + lower(p_{U^I} T) - tol``, which only
    fails to refute the bound."""
    A = family.check_shape(T)
    I = _normalize_index_set(index_set, family.order, minimum=2)
    PA = project(lower_u(I), family, A)
    PB = project(upper_u(I), family, A)
    _, s_a, s_b, lhs, rhs, disc = _nuclear_sides(A, PA, PB, 1.0)
    return DecompReport(
        "lower_bound", _one_sided(lhs, rhs, tol), lhs, rhs, disc, tol,
        {"nuc_lower_part": (s_a.lower, s_a.upper),
         "nuc_upper_part": (s_b.lower, s_b.upper),
         "slack": lhs[1] - rhs[0], "I": sorted(I)},
    )


def check_weak_decomp(T, S, family, alpha=None, tol=1e-6):
    """Check the weak additivity
    ``||T + S||_* >= ||T||_* + alpha ||S||_*`` for ``T`` inside the family's
    subspaces and ``S`` in the direct sum of the order->=2 basic subspaces,
    through ``upper(T + S) >= lower(T) + alpha lower(S) - tol``, which only
    fails to refute the bound.  ``alpha`` defaults to ``2/(d(d-1))`` but may
    be overridden to probe sharper constants."""
    d = family.order
    T = _require_membership("T", T, basic(()), family)
    S = _require_membership("S", S, order_ge2_sum(d), family)
    if alpha is None:
        alpha = weak_decomposability_constant(d)
    alpha = float(alpha)
    s_sum, s_t, s_s, lhs, rhs, disc = _nuclear_sides(T + S, T, S, alpha)
    return DecompReport(
        "weak", _one_sided(lhs, rhs, tol), lhs, rhs, disc, tol,
        {"alpha": alpha, "nuc_T": (s_t.lower, s_t.upper),
         "nuc_S": (s_s.lower, s_s.upper),
         "mid_sum": s_sum.mid, "mid_T": s_t.mid, "mid_S": s_s.mid},
    )
