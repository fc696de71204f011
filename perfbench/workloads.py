"""The benchmark's workloads: seeded inputs, the fixed operation list of each
workload, and the oracle check of every operation.

Inputs come from the workload seed.  Where the benchmark draws them, the
seed moves fixed random inputs only in ways that keep the library's work the
same, so the spread between seeds stays near the spread between repeated
runs: the tol-mode tensors of ``bnb`` are rotated on the two modes the
branch-and-bound contracts exactly, and ``rpca`` permutes the indices of
instances its dense path and ADMM treat alike.  Where the library draws its
own (``probe_tau`` in ``bnb``, ``concentration_trial`` in ``rpca``), the
seed is theirs, and their share of the workload is kept small.  ``nuclear``
keeps fixed inputs (see ``_nuclear``).

Each check returns an ``Outcome``.  ``wrong`` means an output contradicts a
known value or verdict (the run is then not correct); ``fail`` means an
operation raised, stopped short of its requested tolerance, or returned
``inconclusive`` where the oracle decides.  Both count as failed operations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

import tnn

WORKLOADS = ("bnb", "nuclear", "rpca")

BASE_SEED = 0          # the fixed draw each seeded orbit starts from
SPECTRAL_TOL = 1e-3
# The 4x4x4 case stops on its evaluation budget at any budget the library can
# afford (the default 2 M evaluations take about 33 s on a 2-core Xeon); this
# smaller budget keeps that stop, and its failure, inside one run.
BUDGET_4X4X4 = 100_000
SLACK = 1e-9           # rounding allowance when comparing with exact values
S2, S3 = np.sqrt(2.0), np.sqrt(3.0)

# Relative gaps (upper - lower) / upper of the fixed gallery sandwiches as the
# library first returned them; a wider gap is a loosened bound.
GALLERY_GAP_REL = {
    "notsingle_T": 4.4346e-3,
    "limitation_S": 5.5190e-4,
    "limitation_TS": 9.9566e-4,
}


@dataclass(frozen=True)
class Outcome:
    status: str                 # "ok" | "fail" | "wrong"
    notes: tuple                # what failed, in words
    record: tuple               # deterministic outputs, for the digest
    spectral_width: float | None = None
    nuclear_gap_rel: float | None = None


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def _f(x):
    """A float as it enters the digest: nine significant digits."""
    return f"{float(x):.9g}"


class _Judge:
    def __init__(self):
        self.wrong, self.fail = [], []

    def must(self, ok, note):
        if not ok:
            self.wrong.append(note)

    def should(self, ok, note):
        if not ok:
            self.fail.append(note)

    def outcome(self, record, **quality):
        status = "wrong" if self.wrong else "fail" if self.fail else "ok"
        return Outcome(status, tuple(self.wrong + self.fail), tuple(record),
                       **quality)


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def _haar(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _rotate(A, Qs):
    for k, Q in enumerate(Qs):
        if Q is not None:
            A = tnn.mode_product(A, k, Q)
    return np.asarray(A)


# ---------------------------------------------------------------------------
# bnb, tol mode: certified enclosures at tol 1e-3, the BnB in long runs.
# ---------------------------------------------------------------------------

def _spectral(seed):
    ops = []

    def add(name, T, known, exact, **bnb):
        def call():
            return (tnn.spectral_certified_upper(T, tol=SPECTRAL_TOL, **bnb),
                    tnn.spectral_hopm(T).value)

        def check(result):
            (lo, up), hopm = result
            j = _Judge()
            j.must(lo <= up + SLACK, f"lower {lo:.6g} > upper {up:.6g}")
            j.must(hopm <= up + SLACK, f"HOPM value {hopm:.9g} above upper {up:.9g}")
            if exact:
                j.must(lo - SLACK <= known <= up + SLACK,
                       f"known value {known:.9g} outside [{lo:.9g}, {up:.9g}]")
            else:
                j.must(known <= up + SLACK,
                       f"attained value {known:.9g} above upper {up:.9g}")
            j.should(up - lo <= SPECTRAL_TOL,
                     f"width {up - lo:.3e} > tol {SPECTRAL_TOL:g}"
                     + (" (evaluation budget)" if bnb else ""))
            return j.outcome((_f(lo), _f(up), _f(hopm)), spectral_width=up - lo)

        ops.append(Op(name, call, check))

    g = tnn.gallery("yuan3", t=0.5)
    add("yuan3_ZX_t0.5", np.asarray(g["Z"] + g["X"]),
        g["oracles"]["sigma_Z_plus_X"], True)
    g = tnn.gallery("notsingle", t=0.5)
    add("notsingle_Z_t0.5", np.asarray(g["Z"]), g["oracles"]["sigma_Z"], True)

    rng = _rng(seed, 1)
    for shape, bnb in (((2, 2, 2, 2), {}), ((3, 5, 6), {}),
                       ((4, 4, 4), {"max_evals": BUDGET_4X4X4})):
        B = _rng(BASE_SEED, *shape).standard_normal(shape)
        B /= np.linalg.norm(B)
        # The BnB searches the smaller modes and takes an exact matrix norm
        # over the two largest, so rotating those two keeps its work fixed.
        free = set(np.argsort(shape, kind="stable")[-2:])
        T = _rotate(B, [_haar(rng, n) if k in free else None
                        for k, n in enumerate(shape)])
        attained = tnn.spectral_hopm(B, starts=64).value
        add("random_" + "x".join(map(str, shape)), T, attained, False, **bnb)
    return ops


# ---------------------------------------------------------------------------
# bnb, threshold mode: the acceptance gallery decisions.
# ---------------------------------------------------------------------------

SUBGRADIENT_CASES = (  # (gallery entry, t, direction, tol, expected verdict)
    ("yuan3", -1.0, "X", 1e-3, "pass"),
    ("yuan3", 0.5, "X", 1e-3, "pass"),
    ("yuan3", -1.05, "X", 1e-3, "fail"),
    ("yuan3", 0.55, "X", 1e-3, "fail"),
    ("yuan4", -(1.0 + S2) / 3.0 + 1e-3, "X", 1e-3, "pass"),
    ("yuan4", 1.0 / 3.0 - 1e-3, "X", 1e-3, "pass"),
    ("yuan4", 0.35, "X", 1e-3, "fail"),
    ("oneperp", 0.8, "X", 1e-2, "pass"),
    ("oneperp", 0.3, "Y", 1e-2, "fail"),
)
Z_MEMBERSHIP_TS = (-1.0, -0.5, 0.0, 0.5, 1.0)
# Random probe directions change the bisection's work with the seed; three
# per probe (the acceptance suite uses six) keep that within the run-to-run
# spread, next to the fixed gallery directions.
PROBE_TRIALS = 3


def _verdict_check(expected, verdict, note):
    j = _Judge()
    if verdict != expected:
        (j.should if verdict == "inconclusive" else j.must)(
            False, f"{note}: {verdict}, expected {expected}")
    return j


def _ge2_selector(d):
    return tnn.direct_sum([frozenset(c) for r in range(2, d + 1)
                           for c in itertools.combinations(range(d), r)])


def _verdicts(seed):
    ops = []
    for name, t, part, tol, expected in SUBGRADIENT_CASES:
        g = tnn.gallery(name, t=t)
        G, T = np.asarray(g["Z"]) + np.asarray(g[part]), np.asarray(g["T"])

        def call(G=G, T=T, tol=tol):
            return tnn.is_subgradient(G, T, tol=tol)

        def check(r, expected=expected):
            record = (r.verdict, *map(_f, r.spectral_interval),
                      *map(_f, r.nuclear_interval))
            j = _verdict_check(expected, r.verdict, "is_subgradient")
            return j.outcome(record)

        ops.append(Op(f"is_subgradient_{name}_Z+{part}_t{t:.4g}", call, check))

    g = tnn.gallery("notsingle")
    T = np.asarray(g["T"])
    shared = {}

    def sandwich():
        shared["notsingle_T"] = tnn.nuclear_sandwich(T)
        return shared["notsingle_T"]

    ops.append(Op("nuclear_sandwich_notsingle_T", sandwich,
                  _sandwich_check("notsingle_T", g["oracles"]["nuclear_T"], 0.0)))
    for t in Z_MEMBERSHIP_TS:
        Z = np.asarray(tnn.gallery("notsingle", t=t)["Z"])

        def call(Z=Z):
            return tnn.z_membership(Z, T, tol=0.05,
                                    sandwich=shared.get("notsingle_T"))

        def check(r):
            record = (r["verdict"], *map(_f, r["spectral_interval"]))
            return _verdict_check("pass", r["verdict"], "z_membership").outcome(record)

        ops.append(Op(f"z_membership_notsingle_t{t:g}", call, check))

    for label, selector, shape, lo, hi in (
        ("upperU01_2x2x2", tnn.upper_u(frozenset({0, 1})), (2, 2, 2),
         1.0, 1.0),
        ("ge2_2x2x2", _ge2_selector(3), (2, 2, 2), 2.0 / S3, None),
    ):
        def call(selector=selector, shape=shape):
            return tnn.probe_tau(selector, shape, trials=PROBE_TRIALS, seed=seed)

        def check(est, lo=lo, hi=hi):
            j = _Judge()
            fm = est.feasible_max
            if hi is not None:
                j.must(fm <= hi + 1e-3,
                       f"feasible stretch {fm:.6g} above the known {hi:.6g}")
            j.should(fm >= lo - 1e-3,
                     f"feasible stretch {fm:.6g} below the known {lo:.6g}")
            return j.outcome((_f(fm), _f(est.infeasible_min),
                              *sorted(set(est.notes))))

        ops.append(Op(f"probe_tau_{label}", call, check))
    return ops


# ---------------------------------------------------------------------------
# nuclear: sandwiches inside the decomposability checks.
# ---------------------------------------------------------------------------

WEAK_BASES = (0, 1)
DECOMP_BASES = (0, 1, 2, 3, 4, 5)


def _sandwich_check(key, known, within):
    def check(s):
        j = _Judge()
        j.must(s.lower - within - SLACK <= known <= s.upper + within + SLACK,
               f"{key}: oracle {known:g} outside [{s.lower:.9g}, {s.upper:.9g}]"
               + (f" +- {within:g}" if within else ""))
        gap_rel = (s.upper - s.lower) / s.upper
        ref = GALLERY_GAP_REL[key]
        j.should(gap_rel <= ref * 1.001 + SLACK,
                 f"{key}: relative gap {gap_rel:.4e} wider than {ref:.4e}")
        return j.outcome((_f(s.lower), _f(s.upper), *s.flags),
                         nuclear_gap_rel=gap_rel)

    return check


def _report_check(kind):
    def check(r):
        record = (r.verdict, *map(_f, r.lhs), *map(_f, r.rhs))
        j = _verdict_check("pass", r.verdict, kind)
        if kind == "check_weak_decomp":
            d = r.details
            j.should(d["mid_sum"] >= d["mid_T"] + 0.5 * d["mid_S"] - 1e-3,
                     "weak inequality missed at the midpoints")
        return j.outcome(record)

    return check


def _nuclear(seed):
    # Fixed inputs: the sandwich's work moves with every input it is given
    # (its greedy pursuit starts HOPM from fixed random points, and its LP
    # samples a fixed grid, so not even a rotation or sign flip keeps it), by
    # 16-43% per draw on 2x2x2.  Seeded draws would bury a change in the
    # library under that spread, so this workload does not use the seed.
    del seed
    ops = []
    dims = (2, 2, 2)
    sets = [frozenset(c) for r in (2, 3) for c in itertools.combinations(range(3), r)]
    for base in WEAK_BASES:
        # The acceptance suite's recipe and seeds.
        draw = _rng(base, *dims)
        raw = draw.standard_normal(dims)
        atom = tnn.outer_atom([v / np.linalg.norm(v)
                               for v in (draw.standard_normal(n) for n in dims)])
        family = tnn.family_from_tensor(atom)
        T = tnn.project(tnn.basic(()), family, raw)
        S = tnn.project(tnn.direct_sum(sets), family, draw.standard_normal(dims))

        def call(T=T, S=S, family=family):
            return tnn.check_weak_decomp(T, S, family, alpha=0.5, tol=1e-3)

        ops.append(Op(f"check_weak_decomp_seed{base}", call,
                      _report_check("check_weak_decomp")))
    for base in DECOMP_BASES:
        family, T, S = tnn.sample_pair(dims, (1, 1, 2), (0, 1), seed=base)

        def call(T=T, S=S, family=family):
            return tnn.check_nuclear_decomp(T, S, family, (0, 1))

        ops.append(Op(f"check_nuclear_decomp_seed{base}", call,
                      _report_check("check_nuclear_decomp")))

    g = tnn.gallery("limitation")
    TS = np.asarray(g["T"] + g["S"])
    family = tnn.family_from_tensor(TS)
    ops.append(Op("check_nuclear_lower_bound_limitation",
                  lambda: tnn.check_nuclear_lower_bound(TS, family, (0, 1)),
                  _report_check("check_nuclear_lower_bound")))
    for key, A, known, within in (
        ("notsingle_T", tnn.gallery("notsingle")["T"], 3.0, 0.0),
        ("limitation_S", g["S"], g["oracles"]["nuclear_S_approx"], 0.02),
        ("limitation_TS", TS, g["oracles"]["nuclear_sum_approx"], 0.02),
    ):
        ops.append(Op(f"nuclear_sandwich_{key}",
                      lambda A=np.asarray(A): tnn.nuclear_sandwich(A),
                      _sandwich_check(key, known, within)))
    return ops


# ---------------------------------------------------------------------------
# rpca: dual certificates on both sides of the dense/power-iteration switch.
# ---------------------------------------------------------------------------

def _permute(A, perms):
    return np.ascontiguousarray(np.asarray(A)[np.ix_(*perms)])


def _permuted_instance(inst, perms):
    def support(s):
        return tnn.EntrySupport(s.shape, _permute(s.mask, perms))

    return tnn.RpcaInstance(
        _permute(inst.L, perms), _permute(inst.S, perms),
        _permute(inst.E, perms), support(inst.support), inst.rho,
        tuple(support(b) for b in inst.batch_masks), inst.seed)


def _certify_check(inst, lam):
    def check(result):
        report, cert, state = result
        j = _Judge()
        on_support = np.asarray(tnn.support_project(inst.support, cert.D1))
        j.must(float(np.max(np.abs(on_support))) == 0.0,
               "D1 is not zero on the corruption support")
        d2 = (np.asarray(tnn.support_project(inst.support, cert.D2))
              - lam * np.asarray(tnn.support_project(inst.support, inst.E)))
        j.must(float(np.max(np.abs(d2))) <= 1e-8,
               f"D2 support residual {np.max(np.abs(d2)):.3e} > 1e-8")
        res = state.residuals_2
        j.should(all(b < a for a, b in zip(res, res[1:])),
                 "golfing residuals do not decrease")
        record = [report.overall, cert.neumann_terms, _f(cert.delta)]
        for name in sorted(report.conditions):
            c = report.conditions[name]
            record += [name, c["ok"], c["certified"], _f(c["value"])]
        return j.outcome(record)

    return check


def _rpca(seed):
    ops = []
    rng = _rng(seed, 4)
    # 12^3 = 1728 entries takes operator_norm_chain's dense path and
    # 16x16x17 = 4352 its power iteration (the switch is at 4096).  Past the
    # switch, nuclear_sandwich's dense l1-refit LP grows with the square of
    # the entry count (about 1 GB here, 3 GB at 20^3), so the larger case
    # stays just past it.  Power iteration and HOPM start from fixed random
    # points, so a permutation would change their work; the larger case is
    # not permuted.
    for shape, permute in (((12, 12, 12), True), ((16, 16, 17), False)):
        inst = tnn.generate_instance(shape, 1, 0.02, m=3, seed=1)
        if permute:
            inst = _permuted_instance(inst, [rng.permutation(n) for n in shape])
        lam = tnn.default_lambda(shape)

        def call(inst=inst, lam=lam):
            return tnn.certify(inst, lam=lam)

        ops.append(Op("certify_" + "x".join(map(str, shape)), call,
                      _certify_check(inst, lam)))

    L = _permute(tnn.generate_instance((8, 8, 8), 1, 0.02, seed=1).L,
                 [rng.permutation(8) for _ in range(3)])

    def concentration_check(out):
        j = _Judge()
        for rec in out["records"]:
            j.must(0.0 <= rec["leakage"] <= 1.0 + SLACK,
                   f"leakage {rec['leakage']:.6g} outside [0, 1]")
            j.must(rec["deviation"] >= 0.0, "negative deviation norm")
        return j.outcome(tuple(_f(v) for q in sorted(out["quantiles"])
                               for v in out["quantiles"][q]))

    ops.append(Op("concentration_trial_8x8x8",
                  lambda: tnn.concentration_trial(L, 0.9, trials=3, seed=seed),
                  concentration_check))

    for s in (1, 2, 3):
        inst = tnn.generate_instance((40, 40), 2, 0.05, factor_style="gaussian",
                                     seed=s)
        perms = [rng.permutation(40) for _ in range(2)]
        M, L0 = _permute(inst.M, perms), _permute(inst.L, perms)

        def call(M=M):
            return tnn.solve_matrix_rpca(M, lam=1.0 / np.sqrt(40))

        def check(out, L0=L0):
            rel = np.linalg.norm(out[0] - L0) / np.linalg.norm(L0)
            j = _Judge()
            j.should(rel <= 1e-4, f"ADMM relative error {rel:.3e} > 1e-4")
            return j.outcome((_f(rel), len(out[2])))

        ops.append(Op(f"solve_matrix_rpca_40_seed{s}", call, check))
    return ops


def _bnb(seed):
    # One workload for both uses of the branch-and-bound: long tol-mode runs
    # and many short threshold-mode calls.  Apart, each was too small for a
    # run to average out this machine's noise; the per-layer tol and
    # threshold counts and times still tell them apart.
    return _spectral(seed) + _verdicts(seed)


_BUILDERS = {"bnb": _bnb, "nuclear": _nuclear, "rpca": _rpca}

# The smoke check's reduced lists: cheap operations of each workload.
SMOKE_OPS = {
    "bnb": ("yuan3_ZX_t0.5", "is_subgradient_oneperp_Z+Y_t0.3"),
    "nuclear": ("nuclear_sandwich_limitation_TS",),
    "rpca": ("solve_matrix_rpca_40_seed1",),
}


def build(workload, seed, reduced=False):
    """The workload's operations on inputs drawn from ``seed``."""
    ops = _BUILDERS[workload](seed)
    if reduced:
        ops = [op for op in ops if op.name in SMOKE_OPS[workload]]
    return ops
