"""Subdifferential of the tensor nuclear norm: membership checks, dual
witnesses, inclusion families, stretch-constant probing, a closed-form
example gallery, and the low-dimensional sphere programs behind the
stretch bounds.

The subdifferential of any norm at ``T`` is
``{G : <G, T> = ||T||, ||G||_dual <= 1}``; for the nuclear norm the dual
norm is the spectral norm.  Every subgradient splits as ``Z + X`` where
``Z`` lives in the span subspace ``T(T)`` (the tensors whose mode-k spans
lie inside those of ``T``) and ``X`` in its orthogonal complement, the
direct sum of the remaining basic subspaces.  The admissible stretch
``||X||_sigma`` depends on which basic subspaces ``X`` occupies; the
``tau`` probes below collect numerical evidence for those stretch
constants.  Both norms involved are NP-hard, so every verdict here is
three-way (pass / fail / inconclusive) and is backed by certified bounds;
spectral bounds come from ``norms.spectral_enclosure``, at every size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import LookupError_, ParameterError, PreconditionError
from .norms import nuclear_sandwich, spectral_enclosure, spectral_hopm
from .subspace import (
    Selector,
    basic,
    family_from_tensor,
    order_ge2_sum,
    project,
    residual,
    upper_u,
)
from .tensor_core import (
    asarray,
    basis_vector,
    holder_norm,
    inner,
    normalize,
    outer_atom,
)

__all__ = [
    "SubgradientReport",
    "TauEstimate",
    "SphereProgram",
    "SPHERE_PROGRAMS",
    "GALLERY_NAMES",
    "is_subgradient",
    "find_z_witness",
    "z_membership",
    "build_inclusion_member",
    "probe_tau",
    "solve_sphere_program",
    "sphere_program",
    "gallery",
]


# ---------------------------------------------------------------------------
# Subgradient membership.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubgradientReport:
    """Evidence for or against ``G`` being a subgradient at ``T``."""

    verdict: str                 # "pass" | "fail" | "inconclusive"
    pairing: float               # <G, T>
    nuclear_interval: tuple      # certified sandwich for ||T||_*
    spectral_interval: tuple     # bounds for ||G||_sigma
    tol: float
    notes: tuple = ()

    @property
    def ok(self):
        return self.verdict == "pass"


def _spectral_decision(G, threshold, tol):
    """Bounds for ||G||_sigma sharp enough to compare against
    ``threshold + tol``, and the method of the certified upper bound
    ("exact", "bnb" or "flattening"): ``spectral_enclosure`` in threshold
    mode, whose lower end is an attained value at every size."""
    return spectral_enclosure(G, tol=tol / 2, max_evals=600_000,
                              threshold=threshold + tol / 2)


def is_subgradient(G, T, tol=1e-3, sandwich=None):
    """Three-way check of ``G`` being a subgradient of the nuclear norm at
    ``T``: requires ``<G, T> = ||T||_*`` and ``||G||_sigma <= 1`` within
    certified bounds.  The pairing fails below ``lower - tol``, which proves
    ``<G, T> < ||T||_* - tol``; it cannot exceed ``||T||_*`` when
    ``||G||_sigma <= 1``, so only its lower side is tested.  The note
    ``spectral_upper_flattening`` marks a ``G`` whose multilinear rank the
    branch and bound refuses, where the upper bound on ``||G||_sigma`` is
    the flattening bound."""
    G, T = asarray(G), asarray(T)
    if G.shape != T.shape:
        raise ParameterError("shape mismatch between candidate and base point")
    if not T.any():
        raise ParameterError("base point must be nonzero")
    if sandwich is None:
        sandwich = nuclear_sandwich(T)
    pairing = inner(G, T)
    sig_lo, sig_up, method = _spectral_decision(G, 1.0, tol)
    notes = ["spectral_upper_flattening"] if method == "flattening" else []

    pairing_bad = pairing < sandwich.lower - tol
    sigma_ok = sig_up <= 1.0 + tol
    sigma_bad = sig_lo > 1.0 + tol

    if pairing_bad or sigma_bad:
        verdict = "fail"
    elif sigma_ok:
        verdict = "pass"
    else:
        verdict = "inconclusive"
    return SubgradientReport(
        verdict, pairing, (sandwich.lower, sandwich.upper),
        (sig_lo, sig_up), tol, tuple(notes),
    )


def find_z_witness(T, sandwich=None):
    """Dual certificate in the span subspace of ``T``: a tensor ``Z`` with
    ``sp_k(Z) <= sp_k(T)``, certified ``||Z||_sigma <= 1``, and ``<Z, T>``
    equal to the nuclear sandwich's lower end (up to rounding).  It is the
    sandwich's dual witness divided by its certified spectral bound; the
    sandwich certifies that witness inside the span subspace."""
    A = asarray(T)
    if not A.any():
        raise ParameterError("base point must be nonzero")
    if sandwich is None:
        sandwich = nuclear_sandwich(A)
    return sandwich.dual_witness / sandwich.witness_spectral_upper


def z_membership(Z, T, tol=1e-3, sandwich=None):
    """Check that ``Z`` is an extreme dual certificate for ``T``: it lies in
    the span subspace, pairs to the nuclear norm, and has unit spectral norm
    (all within ``tol`` and certified bounds).  The pairing fails outside
    ``[lower - tol, upper + tol]`` of the nuclear sandwich, which proves it
    is more than ``tol`` away from ``||T||_*``.  Returns a report dict with
    a three-way verdict; ``subspace_residual`` is ``Z``'s relative distance
    from the span subspace (``subspace.residual``, the same at every scale
    of ``Z``), compared with ``tol``; ``spectral_method`` names how the
    spectral upper bound was certified ("exact", "bnb" or "flattening")."""
    Z, T = asarray(Z), asarray(T)
    if Z.shape != T.shape:
        raise ParameterError("shape mismatch")
    resid = residual(basic(()), family_from_tensor(T), Z)
    subspace_ok = resid <= tol

    if sandwich is None:
        sandwich = nuclear_sandwich(T)
    pairing = inner(Z, T)
    pairing_bad = not sandwich.lower - tol <= pairing <= sandwich.upper + tol

    sig_lo, sig_up, method = _spectral_decision(Z, 1.0, tol)
    sigma_ok = sig_up <= 1.0 + tol and sig_lo >= 1.0 - tol
    sigma_bad = sig_lo > 1.0 + tol or sig_up < 1.0 - tol

    if not subspace_ok or pairing_bad or sigma_bad:
        verdict = "fail"
    elif sigma_ok:
        verdict = "pass"
    else:
        verdict = "inconclusive"
    return {
        "verdict": verdict,
        "subspace_residual": resid,
        "pairing": pairing,
        "nuclear_interval": (sandwich.lower, sandwich.upper),
        "spectral_interval": (sig_lo, sig_up),
        "spectral_method": method,
        "tol": tol,
    }


# ---------------------------------------------------------------------------
# Inclusion families.
# ---------------------------------------------------------------------------

def _family_radius(kind, d, index_set):
    if kind == "D1":
        if d != 3:
            raise ParameterError("the half-radius family is specific to d=3")
        return 0.5
    if kind == "D2":
        return 2.0 / (d * (d - 1))
    if kind == "DI":
        if len(index_set) < 2:
            raise ParameterError("DI needs an index set with at least 2 modes")
        return 1.0
    raise ParameterError(f"unknown family kind {kind!r}")


def build_inclusion_member(T, family_kind, Z, X, index_set=None, tol=1e-3):
    """Assemble ``G = Z + X`` for one of the subdifferential inclusion
    families and verify it.

    Families: ``D1`` (d=3, X in the direct sum of the order->=2 basic
    subspaces, ``||X||_sigma <= 1/2``), ``D2`` (same subspace, radius
    ``2/(d(d-1))``), ``DI`` (X in ``U^I`` for ``|I| >= 2``, a full spectral
    ball), and ``Dfull`` (a convex combination of ``DI`` members: pass ``X``
    as a list of ``(index_set, weight, tensor)`` triples).  Radius or
    subspace violations raise a precondition error naming the rule.
    """
    A = asarray(T)
    d = A.ndim
    family = family_from_tensor(A)

    def check_piece(Xp, selector, radius, rule):
        Xp = asarray(Xp)
        resid = residual(selector, family, Xp)
        if resid > 1e-10:
            raise PreconditionError(
                f"{rule}: direction leaves its subspace "
                f"(relative residual {resid:.3e})"
            )
        lo, _, _ = _spectral_decision(Xp, radius, tol)
        if lo > radius + tol:
            raise PreconditionError(
                f"{rule}: spectral norm at least {lo:.6f} exceeds radius {radius}"
            )
        return Xp

    if family_kind == "Dfull":
        pieces = list(X)
        total = sum(w for _, w, _ in pieces)
        if abs(total - 1.0) > 1e-10 or any(w < -1e-12 for _, w, _ in pieces):
            raise PreconditionError(
                "Dfull: weights must be a convex combination"
            )
        Xsum = np.zeros(A.shape)
        for I, w, Xp in pieces:
            I = frozenset(int(i) for i in I)
            if len(I) < 2:
                raise PreconditionError("Dfull: each piece needs |I| >= 2")
            Xsum = Xsum + w * check_piece(
                Xp, upper_u(I), 1.0, f"Dfull piece I={sorted(I)}"
            )
        Xd = Xsum
    elif family_kind == "DI":
        I = frozenset(int(i) for i in index_set or ())
        radius = _family_radius("DI", d, I)
        Xd = check_piece(X, upper_u(I), radius, f"DI I={sorted(I)}")
    else:
        radius = _family_radius(family_kind, d, index_set)
        Xd = check_piece(X, order_ge2_sum(d), radius, family_kind)

    G = asarray(Z) + Xd
    report = is_subgradient(G, A, tol=tol)
    return G, report


# ---------------------------------------------------------------------------
# Stretch-constant probing.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauEstimate:
    """Empirical evidence for the admissible stretch over a subspace.

    ``feasible_max`` is the largest certified-feasible ``||X||_sigma``
    observed (a lower witness for the upper stretch constant);
    ``infeasible_min`` is the smallest ``||X||_sigma`` that already broke
    feasibility for some direction (an upper witness for the lower
    constant).  Each is backed by a stored ``(T, Z, X)`` triple."""

    selector: Selector
    shape: tuple
    feasible_max: float
    infeasible_min: float
    trials: int
    feasible_witness: tuple | None
    infeasible_witness: tuple | None
    notes: tuple = ()


# The probe's decision: ``||Z + sU||_sigma <= 1 + _FEASIBLE_SLACK``.
_FEASIBLE_SLACK = 5e-4
# The relative accuracy to which an enclosure end is read as a value of the
# exact line ``s -> ||Z + sU||_sigma`` (``_line_decision``).
_LINE_TRUST = 1e-12


def _line_decision(line, s, level):
    """Decide ``f(s) <= level`` for the convex ``f(s) = ||Z + sU||_sigma``
    from the enclosures ``line`` of ``(s_i, lower_i, upper_i)`` already
    computed on the same line; ``None`` when convexity settles nothing.

    Feasible: the chord through the upper ends of the nearest points on
    either side of ``s`` is at most ``level``, since a convex ``f`` lies
    below its chords.  Infeasible: the secant through the two nearest
    points on one side, extended to ``s``, is above ``level``.  With ``n``
    the nearer of the two and ``r`` the farther, convexity gives
    ``f(s) >= (1 - w) f(n) + w f(r)`` for ``w = (s - n) / (r - n) < 0``, a
    bound that rises with ``f(n)`` and falls with ``f(r)``, so it is taken
    at ``lower_n`` and ``upper_r``.

    Each combination ``(1 - w) y_1 + w y_2`` must clear ``level`` by the
    margin ``_LINE_TRUST (|1 - w| |y_1| + |w| |y_2| + level)``.  An end
    stands for the exact line's value at its point only to a few units of
    roundoff ``u`` of the values involved: the tensor enclosed is
    ``fl(Z + s_i U)``, whose distance from ``Z + s_i U`` is at most
    ``u (||Z||_F + 2 s_i ||U||_F)`` in the Frobenius norm, which bounds the
    spectral norm; an attained lower end can sit an ulp or two above the
    norm of that tensor and an upper end capped by LAPACK's top singular
    value a few ulps below it.  These errors enter with the weights
    ``|1 - w|`` and ``|w|``, the combination adds a few roundings of its
    terms, and the direct enclosure at ``s`` the decision stands in for is
    off from ``f(s)`` by one such error again.  ``probe_tau``'s ``Z`` has
    unit Frobenius norm, ``s_i <= 2``, ``||U||_sigma`` is near 1 (``U`` is
    divided by its HOPM value), and
    ``||U||_F <= sqrt(N / max_k n_k) ||U||_sigma`` for ``N`` entries, so the
    forming error stays below ``1e-13`` of a unit level until
    ``N / max_k n_k`` passes ``5e4``; every error above is well inside the
    ``1e-12`` relative margin at the sizes the enclosure decides."""
    below = sorted((p for p in line if p[0] < s), reverse=True)[:2]
    above = sorted(p for p in line if p[0] > s)[:2]

    def weighted(y1, y2, w):
        """``(1 - w) y1 + w y2`` and its margin."""
        return ((1.0 - w) * y1 + w * y2,
                _LINE_TRUST * (abs(1.0 - w) * abs(y1) + abs(w) * abs(y2)
                               + level))

    if below and above:
        (a, _, up_a), (b, _, up_b) = below[0], above[0]
        chord, margin = weighted(up_a, up_b, (s - a) / (b - a))
        if chord + margin <= level:
            return True
    for side in (below, above):
        if len(side) == 2:
            (n, lo_n, _), (r, _, up_r) = side
            secant, margin = weighted(lo_n, up_r, (s - n) / (r - n))
            if secant - margin > level:
                return False
    return None


def _feasible(Z, U, s, line):
    """Certified decision of ``||Z + sU||_sigma <= 1`` within a slack of
    ``_FEASIBLE_SLACK``.  The enclosures already computed on the line
    ``line`` decide ``s`` where convexity allows (``_line_decision``);
    otherwise ``spectral_enclosure`` in threshold mode, at any size, decides
    ``Z + sU``, and its ends join ``line``.  ``None`` when its bounds
    straddle ``1 + slack``."""
    level = 1.0 + _FEASIBLE_SLACK
    decision = _line_decision(line, s, level)
    if decision is not None:
        return decision
    lo, up, _ = spectral_enclosure(
        Z + s * U, tol=_FEASIBLE_SLACK / 2, threshold=level,
        max_evals=120_000
    )
    line.append((s, lo, up))
    if up <= level:
        return True
    if lo > level:
        return False
    return None


def _gallery_directions(selector, shape):
    """Known extreme directions, included alongside the random trials."""
    out = []
    d = len(shape)
    name = {3: "yuan3", 4: "yuan4"}.get(d)
    if (name and selector.kind == "sum" and all(n == 2 for n in shape)
            and set(selector.sets) == set(order_ge2_sum(d).sets)):
        g = gallery(name, t=1.0)
        for sgn in (-1.0, 1.0):
            out.append((g["T"], g["Z"], sgn * g["X"]))
    if selector.kind == "upperU" and len(selector.sets) == 1:
        I = selector.sets[0]
        vecs = []
        for k, n in enumerate(shape):
            v = np.zeros(n)
            v[1 if (k in I and n > 1) else 0] = 1.0
            vecs.append(v)
        T = outer_atom([basis_vector(n) for n in shape])
        out.append((T, T, outer_atom(vecs)))
    return out


def probe_tau(selector, shape, trials=8, seed=0, bisect_tol=1e-3):
    """Per-direction bisection for the largest stretch ``s`` in ``[0, 2]``
    keeping ``||Z + s U||_sigma <= 1``, over random instances plus the known
    extreme gallery directions.  Each random instance is a unit rank-one
    atom ``T`` with its own certificate ``Z = T`` (``||T||_sigma = ||T||_* =
    <T, T> = 1``) and a random ``U`` in the selected subspace of its mode
    spans.  ``U`` is divided by its HOPM value, so it has unit spectral norm
    where HOPM is exact (``2 x 2 x n`` shapes) and a norm of at least 1
    elsewhere: each recorded radius is at most the spectral norm of the
    additive part it stands for.  Each bisection step is a certified
    decision (``_feasible``).  ``||Z + sU||_sigma`` is convex in ``s``, so a
    midpoint is decided from the enclosures already computed on its line
    when their chord or secant settles it (``_line_decision``), and by a
    direct ``spectral_enclosure`` in threshold mode otherwise; a stored
    feasible witness may rest on a chord bound.  Every shape of positive
    mode sizes is accepted; where the branch and bound refuses the shape, an
    enclosure rests on the flattening bound above and the multi-start HOPM
    value below.  A selector that picks ``{0}`` at a rank-one base point (no
    index set, or a mode of size 1 in each of its sets) is refused.
    ``bisect_tol`` must be positive: a bisection to zero width never ends
    once its ends are adjacent floats."""
    shape = tuple(int(n) for n in shape)
    if any(n < 1 for n in shape):
        raise ParameterError("mode sizes must be positive")
    if trials < 1:
        raise ParameterError("need at least one trial")
    if not bisect_tol > 0:
        raise ParameterError("bisect_tol must be > 0")
    if any(len(I) == 0 for I in selector.sets):
        raise ParameterError("selector must be orthogonal to the span part")
    selector.validate(len(shape))
    # At a rank-one T a mode of size 1 has no complement, so a set holding
    # one selects {0}; no U could ever be drawn.
    if selector.kind != "lowerU" and all(
            any(shape[k] == 1 for k in I) for I in selector.sets):
        raise ParameterError(
            "selector picks {0} at a rank-one base point: it has no index "
            "set, or each of its sets holds a mode of size 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), *shape]))
    candidates = _gallery_directions(selector, shape)
    wanted = len(candidates) + trials
    notes = []
    while len(candidates) < wanted:
        T = outer_atom([normalize(rng.standard_normal(n)) for n in shape])
        family = family_from_tensor(T)
        U = project(selector, family, rng.standard_normal(shape))
        if holder_norm(U, 2) < 1e-9:
            continue
        candidates.append((T, T, U))

    feasible_max = 0.0
    infeasible_min = np.inf
    feas_wit = None
    infeas_wit = None
    for T, Z, U in candidates:
        sig_u = spectral_hopm(U).value
        if sig_u <= 0:
            continue
        U = U / sig_u
        lo, hi = 0.0, 2.0
        line = []
        top = _feasible(Z, U, hi, line)
        if top is None:
            notes.append("ambiguous_at_smax")
            continue
        if top:
            feasible = hi
            first_bad = None
        else:
            # An undecidable midpoint (true value within the certification
            # slack of the boundary) is treated as not provably feasible:
            # the bisection keeps shrinking toward the last certain point.
            certain_bad = hi
            while hi - lo > bisect_tol:
                mid = 0.5 * (lo + hi)
                dec = _feasible(Z, U, mid, line)
                if dec is None:
                    notes.append("ambiguous_midpoint")
                    hi = mid
                elif dec:
                    lo = mid
                else:
                    hi = mid
                    certain_bad = mid
            feasible = lo
            first_bad = certain_bad
        if feasible > feasible_max:
            feasible_max = feasible
            feas_wit = (T, Z, feasible * U)
        if first_bad is not None and first_bad < infeasible_min:
            infeasible_min = first_bad
            infeas_wit = (T, Z, first_bad * U)
    return TauEstimate(selector, shape, float(feasible_max),
                       float(infeasible_min), len(candidates), feas_wit,
                       infeas_wit, tuple(notes))


# ---------------------------------------------------------------------------
# Sphere programs.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereProgram:
    """Maximize a sum of monomials over quarter-circle variables subject to
    ``objective <= 1 + coupling``.

    Each variable is a pair ``(a_1, a_2)`` with ``a_1^2 + a_2^2 = 1`` and
    ``a >= 0``.  Monomials are tuples of ``(variable, component)`` index
    pairs; components are 0-based."""

    n_vars: int
    objective: tuple   # tuple of monomials; each monomial: ((var, comp), ...)
    coupling: tuple    # a single monomial

    def __post_init__(self):
        for mono in self.objective + (self.coupling,):
            for var, comp in mono:
                if not (0 <= var < self.n_vars and comp in (0, 1)):
                    raise ParameterError(
                        f"monomial index ({var}, {comp}) out of range"
                    )


SPHERE_PROGRAMS = {
    # max x1*y2*z2 + x2  s.t.  obj <= 1 + x1*y1*z1   -> (1+sqrt(2))/2
    "opt-b1": SphereProgram(
        3,
        (((0, 0), (1, 1), (2, 1)), ((0, 1),)),
        ((0, 0), (1, 0), (2, 0)),
    ),
    # max x1*y1*z2 + x1*y2 + x2  s.t.  obj <= 1 + x1*y1*z1   -> 3/2
    "opt-b2": SphereProgram(
        3,
        (((0, 0), (1, 0), (2, 1)), ((0, 0), (1, 1)), ((0, 1),)),
        ((0, 0), (1, 0), (2, 0)),
    ),
    # max x1*y1*z2*w2 + x1*y2 + x2  s.t.  obj <= 1 + x1*y1*z1*w1
    #   -> (1+sqrt(3))/2
    "opt-d4-a": SphereProgram(
        4,
        (((0, 0), (1, 0), (2, 1), (3, 1)), ((0, 0), (1, 1)), ((0, 1),)),
        ((0, 0), (1, 0), (2, 0), (3, 0)),
    ),
    # max x1*y1*z1*w2 + x1*y1*z2 + x1*y2 + x2  s.t.  obj <= 1 + x1*y1*z1*w1
    #   -> 8/5
    "opt-d4-b": SphereProgram(
        4,
        (((0, 0), (1, 0), (2, 0), (3, 1)), ((0, 0), (1, 0), (2, 1)),
         ((0, 0), (1, 1)), ((0, 1),)),
        ((0, 0), (1, 0), (2, 0), (3, 0)),
    ),
}


def sphere_program(name):
    try:
        return SPHERE_PROGRAMS[name]
    except KeyError:
        raise LookupError_(f"unknown sphere program {name!r}") from None


def _program_values(P, angles):
    """Objective and coupling values for a batch of angle vectors."""
    comps = np.stack([np.cos(angles), np.sin(angles)], axis=-1)  # (B, v, 2)

    def mono(m):
        out = np.ones(angles.shape[0])
        for var, comp in m:
            out = out * comps[:, var, comp]
        return out

    obj = np.zeros(angles.shape[0])
    for m in P.objective:
        obj += mono(m)
    return obj, mono(P.coupling)


# Angles per variable in the lattice that seeds the sphere programs' polish.
_SPHERE_LATTICE = 16


def solve_sphere_program(P):
    """Global maximum of the program: SLSQP polish from the eight best
    feasible points of a fixed angular lattice, ``_SPHERE_LATTICE`` angles
    in ``[0, pi/2]`` per variable, or the best lattice value if no polish
    ends feasible higher."""
    from scipy.optimize import minimize

    v = P.n_vars
    axes = [np.linspace(0.0, np.pi / 2.0, _SPHERE_LATTICE)] * v
    grids = np.meshgrid(*axes, indexing="ij")
    angles = np.stack([g.ravel() for g in grids], axis=1)
    obj, coup = _program_values(P, angles)
    feas = obj <= 1.0 + coup + 1e-12
    obj_feas = np.where(feas, obj, -np.inf)
    order = np.argsort(-obj_feas)[:8]
    best = float(obj_feas[order[0]])

    def neg_obj(x):
        o, _ = _program_values(P, x[None])
        return -float(o[0])

    def constraint(x):
        o, c = _program_values(P, x[None])
        return 1.0 + float(c[0]) - float(o[0])

    for idx in order:
        if not np.isfinite(obj_feas[idx]):
            continue
        res = minimize(
            neg_obj, angles[idx], method="SLSQP",
            constraints=[{"type": "ineq", "fun": constraint}],
            bounds=[(0.0, np.pi / 2.0)] * v,
            options={"maxiter": 200, "ftol": 1e-14},
        )
        if res.success and constraint(res.x) >= -1e-9:
            best = max(best, -float(res.fun))
    return best


# ---------------------------------------------------------------------------
# Gallery of closed-form examples.
# ---------------------------------------------------------------------------

GALLERY_NAMES = ("notsingle", "oneperp", "yuan3", "yuan33", "yuan4",
                 "limitation")


def _diag_tensor(n_diag, shape):
    T = np.zeros(shape)
    for i in range(n_diag):
        T[(i,) * len(shape)] = 1.0
    return T


def _binary(*patterns):
    """The sum of the basis atoms ``e_{p_1} (x) ... (x) e_{p_d}`` on
    ``2 x ... x 2``, one per pattern ``p``."""
    A = np.zeros((2,) * len(patterns[0]))
    for p in patterns:
        A[p] += 1.0
    return A


def gallery(name, t=None):
    """Closed-form example tensors with their oracle values.

    Returns a dict with the base point ``T``, the certificate ``Z``, the
    directions ``X``/``Y`` (when the example has them, evaluated at ``t``),
    and ``oracles`` mapping value names to exact closed forms.
    """
    tval = 0.0 if t is None else float(t)
    s2 = np.sqrt(2.0)
    s3 = np.sqrt(3.0)
    if name == "notsingle":
        T = _diag_tensor(3, (3, 3, 3))
        X = outer_atom([basis_vector(3, 0), basis_vector(3, 1),
                        basis_vector(3, 2)])
        Z = T + tval * X
        return {
            "T": T, "Z": Z, "X": X, "t": tval,
            "oracles": {
                "sigma_Z": max(1.0, abs(tval)),
                "nuclear_T": 3.0,
                "member_range": (-1.0, 1.0),
            },
        }
    if name == "oneperp":
        T = _diag_tensor(2, (2, 2, 3))
        X = tval * outer_atom([basis_vector(2, 0), basis_vector(2, 1),
                               basis_vector(3, 2)])
        Y = tval * outer_atom([basis_vector(2, 0), basis_vector(2, 0),
                               basis_vector(3, 2)])
        return {
            "T": T, "Z": T, "X": X, "Y": Y, "t": tval,
            "oracles": {
                "sigma_Z_plus_X": 1.0 if abs(tval) <= 1.0 else None,
                "sigma_Z_plus_Y": float(np.sqrt(1.0 + tval * tval)),
                "nuclear_T": 2.0,
                "member_range": (-1.0, 1.0),
            },
        }
    if name in ("yuan3", "yuan33"):
        T = _binary((0, 0, 0))
        X = tval * _binary((0, 1, 1), (1, 0, 1), (1, 1, 0))
        if -1.0 <= tval <= 0.5:
            szx = 1.0
        else:
            szx = float(2.0 * np.sqrt(tval ** 3 / (3.0 * tval - 1.0)))
        out = {
            "T": T, "Z": T, "X": X, "t": tval,
            "oracles": {
                "sigma_X": 2.0 * abs(tval) / s3,
                "sigma_Z_plus_X": szx,
                "nuclear_T": 1.0,
                "member_range": (-1.0, 0.5),
            },
        }
        if name == "yuan33":
            out["Y"] = -tval * T
            out["oracles"]["sigma_X_plus_Y"] = abs(tval)
        return out
    if name == "yuan4":
        T = _binary((0, 0, 0, 0))
        X = tval * _binary(*set(itertools.permutations((0, 0, 1, 1))))
        return {
            "T": T, "Z": T, "X": X, "t": tval,
            "oracles": {
                "sigma_X": 3.0 * abs(tval) / 2.0,
                "nuclear_T": 1.0,
                "member_range": (-(1.0 + s2) / 3.0, 1.0 / 3.0),
            },
        }
    if name == "limitation":
        T = _binary((0, 0, 0))
        S = _binary((0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1))
        return {
            "T": T, "S": S,
            "oracles": {
                "nuclear_T": 1.0,
                "nuclear_S_approx": 3.162,
                "nuclear_sum_approx": 3.078,
            },
        }
    raise LookupError_(f"unknown gallery entry {name!r}")
