"""End-to-end acceptance checks.

Each test pins one headline capability of the package with explicit
tolerances and, where relevant, a runtime budget.  Random suites use fixed
seeds so every run is reproducible.
"""

import time

import numpy as np
import pytest

from tnn import (
    asarray,
    basic,
    basic_split,
    check_nuclear_decomp,
    check_spectral_decomp,
    check_weak_decomp,
    direct_sum,
    gallery,
    generate_instance,
    golfing_certificate,
    find_z_witness,
    holder_norm,
    inner,
    is_subgradient,
    certify,
    neumann_certificate,
    nuclear_sandwich,
    probe_tau,
    project,
    sample_pair,
    sample_weak_pair,
    solve_matrix_rpca,
    solve_sphere_program,
    spectral_hopm,
    sphere_program,
    support_project,
    upper_u,
    z_membership,
)

S2 = np.sqrt(2.0)
S3 = np.sqrt(3.0)


class TestClosedFormSpectralNorms:
    """Known spectral-norm values of the example tensors, to 1e-6, under a
    five-second budget."""

    def test_values_and_runtime(self):
        start = time.perf_counter()

        g = gallery("yuan3", t=1.0)
        assert spectral_hopm(asarray(g["X"])).value == pytest.approx(
            2.0 / S3, abs=1e-6)
        g = gallery("yuan3", t=1.0 / 3.0)
        assert spectral_hopm(asarray(g["X"])).value == pytest.approx(
            2.0 / (3.0 * S3), abs=1e-6)

        for t in (-1.0, -0.5, 0.0, 0.5):
            g = gallery("yuan3", t=t)
            assert spectral_hopm(asarray(g["Z"] + g["X"])).value \
                == pytest.approx(1.0, abs=1e-6)
        for t in (0.6, -1.1):
            g = gallery("yuan3", t=t)
            expected = 2.0 * np.sqrt(t ** 3 / (3.0 * t - 1.0))
            assert spectral_hopm(asarray(g["Z"] + g["X"])).value \
                == pytest.approx(expected, abs=1e-6)

        for t in (0.0, 0.5, 1.0, 1.5):
            g = gallery("notsingle", t=t)
            assert spectral_hopm(asarray(g["Z"])).value == pytest.approx(
                max(1.0, abs(t)), abs=1e-6)

        assert time.perf_counter() - start < 5.0


class TestSphereProgramValues:
    """The four coupled sphere maximization programs hit their closed-form
    optima to 1e-6 within ten seconds."""

    def test_values_and_runtime(self):
        start = time.perf_counter()
        expected = {
            "opt-b1": (1.0 + S2) / 2.0,
            "opt-b2": 1.5,
            "opt-d4-a": (1.0 + S3) / 2.0,
            "opt-d4-b": 1.6,
        }
        for name, value in expected.items():
            got = solve_sphere_program(sphere_program(name))
            assert got == pytest.approx(value, abs=1e-6), name
        assert time.perf_counter() - start < 10.0


class TestSparseBlockNuclearAnomaly:
    """The rank-one atom plus the four-entry block: the nuclear norm of the
    sum undershoots both plain additivity and the larger summand alone."""

    def test_sandwich_midpoints(self):
        start = time.perf_counter()
        g = gallery("limitation")
        sw_sum = nuclear_sandwich(asarray(g["T"] + g["S"]))
        sw_s = nuclear_sandwich(asarray(g["S"]))
        sw_t = nuclear_sandwich(asarray(g["T"]))
        assert sw_t.lower == pytest.approx(1.0, abs=1e-8)
        assert sw_t.upper == pytest.approx(1.0, abs=1e-8)
        assert sw_sum.mid == pytest.approx(3.078, abs=0.02)
        assert sw_s.mid == pytest.approx(3.162, abs=0.02)
        assert sw_sum.mid < sw_t.mid + sw_s.mid
        assert sw_sum.mid < sw_s.mid
        assert time.perf_counter() - start < 60.0


class TestSpectralDecomposabilitySuite:
    """Max-rule for the spectral norm across complementary pairs: zero
    discrepancy (to 1e-6) on 100 seeded random instances at orders 3, 4."""

    @pytest.mark.parametrize("shape,ranks", [
        ((2, 2, 2), (1, 1, 2)),
        ((2, 2, 2, 2), (1, 1, 2, 2)),
    ])
    def test_fifty_trials_each(self, shape, ranks):
        for seed in range(50):
            family, T, S = sample_pair(shape, ranks, (0, 1), seed=seed)
            report = check_spectral_decomp(T, S, family, (0, 1), tol=1e-6)
            assert report.ok, (shape, seed)
            assert report.discrepancy <= 1e-6


class TestNuclearDecomposabilitySuite:
    """Additivity of the nuclear norm across complementary pairs: at least
    48 of 50 seeded instances pass the gap-aware check and none fails."""

    def test_fifty_trials(self):
        verdicts = []
        for seed in range(50):
            family, T, S = sample_pair((2, 2, 2), (1, 1, 2), (0, 1),
                                       seed=seed)
            verdicts.append(
                check_nuclear_decomp(T, S, family, (0, 1)).verdict
            )
        assert verdicts.count("fail") == 0
        assert verdicts.count("pass") >= 48


class TestWeakDecomposabilitySuite:
    """The half-constant lower bound for order-3 span/complement pairs
    holds on 100 seeded instances (midpoint slack at most 1e-3)."""

    def test_hundred_trials(self):
        for seed in range(100):
            family, T, S = sample_weak_pair((2, 2, 2), seed)
            report = check_weak_decomp(T, S, family, alpha=0.5, tol=1e-3)
            assert report.ok, seed
            assert (report.details["mid_sum"]
                    >= report.details["mid_T"]
                    + 0.5 * report.details["mid_S"] - 1e-3)


class TestSubdifferentialMembership:
    """Boundary-sharp membership verdicts on all gallery families with zero
    false verdicts."""

    @pytest.mark.parametrize("t", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_diag_corner_certificates_pass(self, t):
        g = gallery("notsingle", t=t)
        assert z_membership(g["Z"], g["T"], tol=0.05)["verdict"] == "pass"

    def test_one_orthogonal_mode(self):
        g = gallery("oneperp", t=0.8)
        r = is_subgradient(np.asarray(g["Z"]) + np.asarray(g["X"]), g["T"],
                           tol=1e-2)
        assert r.verdict == "pass"
        g = gallery("oneperp", t=0.3)
        r = is_subgradient(np.asarray(g["Z"]) + np.asarray(g["Y"]), g["T"],
                           tol=1e-2)
        assert r.verdict == "fail"

    @pytest.mark.parametrize("t,expect", [
        (-1.0, "pass"), (0.5, "pass"), (-1.05, "fail"), (0.55, "fail"),
    ])
    def test_symmetric_order_three(self, t, expect):
        g = gallery("yuan3", t=t)
        r = is_subgradient(np.asarray(g["Z"]) + np.asarray(g["X"]), g["T"],
                           tol=1e-3)
        assert r.verdict == expect

    @pytest.mark.parametrize("t,expect", [
        (-(1.0 + S2) / 3.0 + 1e-3, "pass"),
        (1.0 / 3.0 - 1e-3, "pass"),
        (0.35, "fail"),
    ])
    def test_symmetric_order_four(self, t, expect):
        g = gallery("yuan4", t=t)
        r = is_subgradient(np.asarray(g["Z"]) + np.asarray(g["X"]), g["T"],
                           tol=1e-3)
        assert r.verdict == expect


class TestStretchProbing:
    """Certified bisection recovers the known admissible stretch radii."""

    @staticmethod
    def _ge2_selector(d):
        import itertools

        return direct_sum(
            [frozenset(c) for r in range(2, d + 1)
             for c in itertools.combinations(range(d), r)]
        )

    def test_order_three_direct_sum(self):
        est = probe_tau(self._ge2_selector(3), (2, 2, 2), trials=6, seed=1)
        assert est.feasible_max >= 2.0 / S3 - 1e-3

    def test_order_four_direct_sum(self):
        est = probe_tau(self._ge2_selector(4), (2, 2, 2, 2), trials=3,
                        seed=1)
        assert est.feasible_max >= (1.0 + S2) / 2.0 - 1e-3

    def test_two_orthogonal_modes_is_exactly_one(self):
        est = probe_tau(upper_u(frozenset({0, 1})), (2, 2, 2), trials=6,
                        seed=1)
        assert 1.0 - 1e-3 <= est.feasible_max <= 1.0 + 1e-3


class TestMatrixRobustPca:
    """Principal component pursuit at n=40, r=2, 5% corruption: relative
    recovery error at most 1e-4 on at least 9 of seeds 1-10, in under a
    minute."""

    def test_ten_seeds(self):
        start = time.perf_counter()
        hits = 0
        for seed in range(1, 11):
            inst = generate_instance((40, 40), 2, 0.05,
                                     factor_style="gaussian", seed=seed)
            L, S, _ = solve_matrix_rpca(inst.M, lam=1.0 / np.sqrt(40))
            rel = np.linalg.norm(L - inst.L) / np.linalg.norm(inst.L)
            hits += rel <= 1e-4
        assert hits >= 9
        assert time.perf_counter() - start < 60.0


class TestTensorCertificatePipeline:
    """Dual certificate construction at (12,12,12), rank 1, 2% corruption,
    3 batches, seeds 1-10: the construction-exact identities hold on every
    seed; the spectral and contraction conditions on most."""

    # The full five-condition pass count at this desk scale is dominated by
    # the off-span spectral condition, whose threshold is not size-adaptive;
    # the observed rate is frozen here after a calibration run so that any
    # regression (or silent improvement) in the pipeline shows up.
    FROZEN_OVERALL_PASSES = 3

    def test_ten_seeds(self):
        lam = 1.0 / np.sqrt(12)
        support_exact = 0
        neumann_ok = 0
        monotone = 0
        angle_ok = 0
        overall = 0
        for seed in range(1, 11):
            inst = generate_instance((12, 12, 12), 1, 0.02, m=3, seed=seed)
            report, cert, state = certify(inst, lam=lam)

            on_support = np.asarray(support_project(inst.support, cert.D1))
            support_exact += float(np.max(np.abs(on_support))) == 0.0

            d2_resid = np.asarray(
                support_project(inst.support, cert.D2)
            ) - lam * np.asarray(support_project(inst.support, inst.E))
            neumann_ok += float(np.max(np.abs(d2_resid))) <= 1e-8

            res = state.residuals_2
            monotone += all(res[j + 1] < res[j] for j in range(len(res) - 1))
            angle_ok += report.conditions["span_support_angle"]["ok"]
            overall += report.overall
        assert support_exact == 10
        assert neumann_ok == 10
        assert monotone == 10
        assert angle_ok >= 8
        assert overall == self.FROZEN_OVERALL_PASSES


class TestProjectionAlgebra:
    """The 2^d-way split is an orthogonal decomposition and its projectors
    behave like projectors, on 50 random instances."""

    def test_fifty_instances(self):
        from tnn import ModeFamily, ModeSubspace

        rng = np.random.default_rng(20240817)
        for trial in range(50):
            d = 3 if trial % 2 == 0 else 4
            shape = tuple(rng.integers(2, 4, size=d))
            subs = []
            for n in shape:
                r = int(rng.integers(1, n))
                basis = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :r]
                subs.append(ModeSubspace(n, basis))
            family = ModeFamily(tuple(subs))
            A = asarray(rng.standard_normal(shape))

            parts = basic_split(family, A)
            keys = list(parts)
            for i, I in enumerate(keys):
                for J in keys[i + 1:]:
                    assert abs(inner(parts[I], parts[J])) <= 1e-10
            assert holder_norm(asarray(sum(np.asarray(p)
                                           for p in parts.values()) - A),
                               np.inf) <= 1e-12

            sel = basic(keys[int(rng.integers(len(keys)))])
            B = rng.standard_normal(shape)
            once = project(sel, family, A)
            twice = project(sel, family, once)
            assert holder_norm(asarray(np.asarray(twice)
                                       - np.asarray(once)), np.inf) <= 1e-10
            lhs = inner(project(sel, family, A), asarray(B))
            rhs = inner(A, project(sel, family, B))
            assert abs(lhs - rhs) <= 1e-10
