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
from .norms import _raised_enclosure, nuclear_sandwich
from .subspace import (
    ModeFamily,
    ModeSubspace,
    basic,
    lower_u,
    order_ge2_sum,
    project,
    upper_u,
)
from .tensor_core import asarray, holder_norm

__all__ = [
    "DecompReport",
    "weak_decomposability_constant",
    "sample_pair",
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
    A = asarray(T)
    resid = holder_norm(A - project(selector, family, A), 2)
    scale = max(1.0, holder_norm(A, 2))
    if resid > tol * scale:
        raise PreconditionError(
            f"{name} is not in the required subspace (residual {resid:.3e})"
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


def _spectral_value(T):
    """Best-of-starts spectral value (raised to the enclosure's attained
    lower end if that is larger) and the certified interval from
    ``spectral_enclosure``."""
    A = asarray(T)
    v, up, _ = _raised_enclosure(A, 1e-4)
    return v, (v, up)


def check_spectral_decomp(T, S, family, index_set, tol=1e-6):
    """Check ``||T + S||_sigma = max(||T||_sigma, ||S||_sigma)``.

    The discrepancy compares best-of-starts values, each raised to the
    attained lower end of its enclosure; ``lhs`` and ``rhs`` are certified
    intervals from ``spectral_enclosure``, at every size.
    """
    d = family.order
    I = _normalize_index_set(index_set, d, minimum=2)
    T = _require_membership("T", T, lower_u(I), family)
    S = _require_membership("S", S, upper_u(I), family)
    v_sum, i_sum = _spectral_value(T + S)
    v_t, i_t = _spectral_value(T)
    v_s, i_s = _spectral_value(S)
    rhs_val = max(v_t, v_s)
    disc = abs(v_sum - rhs_val)
    verdict = "pass" if disc <= tol else "fail"
    return DecompReport(
        "spectral", verdict, i_sum,
        (max(i_t[0], i_s[0]), max(i_t[1], i_s[1])), disc, tol,
        {"sigma_sum": v_sum, "sigma_T": v_t, "sigma_S": v_s, "I": sorted(I)},
    )


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
    """Certify ``||T + S||_* = ||T||_* + ||S||_*`` up to sandwich width."""
    d = family.order
    I = _normalize_index_set(index_set, d, minimum=2)
    T = _require_membership("T", T, lower_u(I), family)
    S = _require_membership("S", S, upper_u(I), family)
    s_sum = nuclear_sandwich(T + S)
    s_t = nuclear_sandwich(T)
    s_s = nuclear_sandwich(S)
    lhs = (s_sum.lower, s_sum.upper)
    rhs = (s_t.lower + s_s.lower, s_t.upper + s_s.upper)
    disc = abs(s_sum.mid - (s_t.mid + s_s.mid))
    verdict, gap_total = _nuclear_three_way(lhs, rhs, disc, tol)
    return DecompReport(
        "nuclear", verdict, lhs, rhs, disc, tol,
        {"nuc_T": (s_t.lower, s_t.upper), "nuc_S": (s_s.lower, s_s.upper),
         "gap_total": gap_total, "I": sorted(I)},
    )


def check_nuclear_lower_bound(T, family, index_set, tol=1e-6):
    """Check the one-sided bound
    ``||T||_* >= ||p_{U_I} T||_* + ||p_{U^I} T||_*`` for arbitrary ``T``
    through its certifiable consequence
    ``upper(T) >= lower(p_{U_I} T) + lower(p_{U^I} T) - tol``."""
    A = family.check_shape(T)
    I = _normalize_index_set(index_set, family.order, minimum=2)
    PA = project(lower_u(I), family, A)
    PB = project(upper_u(I), family, A)
    s_t = nuclear_sandwich(A)
    s_a = nuclear_sandwich(PA)
    s_b = nuclear_sandwich(PB)
    lhs = (s_t.lower, s_t.upper)
    rhs = (s_a.lower + s_b.lower, s_a.upper + s_b.upper)
    disc = s_t.mid - (s_a.mid + s_b.mid)
    verdict = "pass" if s_t.upper >= rhs[0] - tol else "fail"
    return DecompReport(
        "lower_bound", verdict, lhs, rhs, disc, tol,
        {"nuc_lower_part": (s_a.lower, s_a.upper),
         "nuc_upper_part": (s_b.lower, s_b.upper),
         "slack": s_t.upper - rhs[0], "I": sorted(I)},
    )


def check_weak_decomp(T, S, family, alpha=None, tol=1e-6):
    """Certify the weak additivity
    ``||T + S||_* >= ||T||_* + alpha ||S||_*`` for ``T`` inside the family's
    subspaces and ``S`` in the direct sum of the order->=2 basic subspaces.
    ``alpha`` defaults to ``2/(d(d-1))`` but may be overridden to probe
    sharper constants."""
    d = family.order
    T = _require_membership("T", T, basic(()), family)
    S = _require_membership("S", S, order_ge2_sum(d), family)
    if alpha is None:
        alpha = weak_decomposability_constant(d)
    alpha = float(alpha)
    s_sum = nuclear_sandwich(T + S)
    s_t = nuclear_sandwich(T)
    s_s = nuclear_sandwich(S)
    lhs = (s_sum.lower, s_sum.upper)
    rhs = (s_t.lower + alpha * s_s.lower, s_t.upper + alpha * s_s.upper)
    disc = s_sum.mid - (s_t.mid + alpha * s_s.mid)
    verdict = "pass" if s_sum.upper >= rhs[0] - tol else "fail"
    return DecompReport(
        "weak", verdict, lhs, rhs, disc, tol,
        {"alpha": alpha, "nuc_T": (s_t.lower, s_t.upper),
         "nuc_S": (s_s.lower, s_s.upper),
         "mid_sum": s_sum.mid, "mid_T": s_t.mid, "mid_S": s_s.mid},
    )
