import dataclasses
import tracemalloc

import numpy as np
import pytest

import tnn.norms
from tnn import (
    LookupError_,
    ParameterError,
    PreconditionError,
    SPHERE_PROGRAMS,
    SpectralResult,
    asarray,
    build_inclusion_member,
    find_z_witness,
    gallery,
    generate_instance,
    holder_norm,
    inner,
    is_subgradient,
    nuclear_sandwich,
    outer_atom,
    probe_tau,
    solve_sphere_program,
    spectral_hopm,
    sphere_program,
    upper_u,
    z_membership,
)
from conftest import e, rank_one

S2 = np.sqrt(2.0)
S3 = np.sqrt(3.0)


def odeco_555(rng):
    """``(T, Z)``: a 5x5x5 tensor ``T = sum_i w_i u_i (x) v_i (x) x_i`` over
    three orthonormal bases, of full multilinear rank, and its dual
    certificate ``Z = sum_i u_i (x) v_i (x) x_i``.  The branch and bound
    refuses the shape; the flattening bound of ``Z`` (1) is exact."""
    Q = [np.linalg.qr(rng.standard_normal((5, 5)))[0] for _ in range(3)]
    atoms = [[q[:, i] for q in Q] for i in range(5)]
    T = sum(outer_atom(a, 1.0 - 0.1 * i) for i, a in enumerate(atoms))
    return T, sum(outer_atom(a) for a in atoms)


class TestGallery:
    def test_perm_sum_spectral_values(self):
        g = gallery("yuan3", t=1.0)
        assert spectral_hopm(g["X"]).value == pytest.approx(2.0 / S3,
                                                            abs=1e-8)
        g = gallery("yuan3", t=1.0 / 3.0)
        assert spectral_hopm(g["X"]).value == pytest.approx(2.0 / (3.0 * S3),
                                                            abs=1e-8)

    @pytest.mark.parametrize("t", [-1.0, -0.5, 0.0, 0.5])
    def test_perturbed_atom_unit_regime(self, t):
        g = gallery("yuan3", t=t)
        assert g["oracles"]["sigma_Z_plus_X"] == 1.0
        assert spectral_hopm(asarray(g["Z"] + g["X"])).value == pytest.approx(
            1.0, abs=1e-6
        )

    @pytest.mark.parametrize("t", [0.6, -1.1])
    def test_perturbed_atom_growth_regime(self, t):
        g = gallery("yuan3", t=t)
        expected = 2.0 * np.sqrt(t ** 3 / (3.0 * t - 1.0))
        assert g["oracles"]["sigma_Z_plus_X"] == pytest.approx(expected)
        assert spectral_hopm(asarray(g["Z"] + g["X"])).value == pytest.approx(
            expected, abs=1e-8
        )

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 1.5])
    def test_diag_plus_corner_spectral(self, t):
        g = gallery("notsingle", t=t)
        assert spectral_hopm(asarray(g["Z"])).value == pytest.approx(
            max(1.0, abs(t)), abs=1e-8
        )

    def test_order_four_direction_norm(self):
        g = gallery("yuan4", t=0.4)
        assert spectral_hopm(g["X"]).value == pytest.approx(0.6, abs=1e-8)

    def test_limitation_entries(self):
        g = gallery("limitation")
        total = np.asarray(g["T"]) + np.asarray(g["S"])
        assert total.sum() == pytest.approx(5.0)
        assert holder_norm(g["S"], 1) == pytest.approx(4.0)

    def test_unknown_name(self):
        with pytest.raises(LookupError_):
            gallery("nope")


class TestIsSubgradient:
    def test_base_certificate_passes(self):
        T = outer_atom([e(2, 0)] * 3)
        assert is_subgradient(T, T).ok

    def test_scaled_up_candidate_fails(self):
        T = outer_atom([e(2, 0)] * 3)
        report = is_subgradient(1.5 * np.asarray(T), T)
        assert report.verdict == "fail"

    def test_orthogonal_candidate_fails_pairing(self):
        T = outer_atom([e(2, 0)] * 3)
        G = outer_atom([e(2, 1)] * 3)
        report = is_subgradient(G, T)
        assert report.verdict == "fail"
        assert report.pairing == pytest.approx(0.0)

    def test_definitional_inequality_on_random_directions(self, rng):
        # A subgradient G at T must satisfy, for every Y,
        #   ||Y||_* >= ||T||_* + <G, Y - T>,
        # checked here through the certified sandwiches.
        T = outer_atom([e(2, 0)] * 3)
        G = np.asarray(find_z_witness(T))
        assert is_subgradient(G, T).ok
        s_t = nuclear_sandwich(T)
        for _ in range(20):
            Y = asarray(rng.standard_normal((2, 2, 2)))
            s_y = nuclear_sandwich(Y)
            lhs = s_y.upper
            rhs = s_t.lower + inner(asarray(G), Y) - inner(asarray(G), T)
            assert lhs >= rhs - 1e-6

    def test_large_modes_pass_with_flattening_bound(self, rng):
        T, Z = odeco_555(rng)
        report = is_subgradient(Z, T)
        assert report.verdict == "pass"
        assert report.spectral_interval[1] <= 1.0 + 1e-12
        assert report.notes == ("spectral_upper_flattening",)

    def test_rank_one_large_modes_pass_on_core(self, rng):
        T = rank_one(rng, (5, 5, 6))
        report = is_subgradient(T, T)
        assert report.verdict == "pass"
        assert abs(report.spectral_interval[1] - 1.0) <= 1e-12
        assert report.notes == ()

    def test_zero_base_rejected(self):
        with pytest.raises(ParameterError):
            is_subgradient(np.ones((2, 2, 2)), np.zeros((2, 2, 2)))


@pytest.mark.parametrize("check", [is_subgradient, z_membership],
                         ids=["is_subgradient", "z_membership"])
def test_pairing_below_the_certified_lower_end_fails(check):
    # ||T||_* = 1.5 and G = e0 (x) e0 (x) e0 pairs to 1 with ||G||_sigma = 1.
    # A sandwich widened to [1.5, 2.1] puts the pairing inside
    # (lower - gap - tol, lower - tol): below lower - tol, it already proves
    # <G, T> < ||T||_* - tol.
    T = outer_atom([e(2, 0)] * 3) + 0.5 * outer_atom([e(2, 1)] * 3)
    G = outer_atom([e(2, 0)] * 3)
    sw = nuclear_sandwich(T)
    sw = dataclasses.replace(sw, upper=sw.upper + 0.6)
    tol = 1e-3
    pairing = inner(G, T)
    assert sw.lower - sw.gap - tol < pairing < sw.lower - tol
    report = check(G, T, tol=tol, sandwich=sw)
    verdict = report["verdict"] if isinstance(report, dict) else report.verdict
    assert verdict == "fail"


class TestZMembership:
    @pytest.mark.parametrize("t", [-1.0, -0.5, 0.0, 0.5])
    def test_diag_plus_corner_passes(self, t):
        g = gallery("notsingle", t=t)
        report = z_membership(g["Z"], g["T"], tol=0.05)
        assert report["verdict"] == "pass"

    @pytest.mark.parametrize("t", [-1.2, 1.5])
    def test_diag_plus_corner_fails_outside(self, t):
        g = gallery("notsingle", t=t)
        report = z_membership(g["Z"], g["T"], tol=0.05)
        assert report["verdict"] == "fail"

    def test_convex_combination_stays_inside(self):
        ga = gallery("notsingle", t=-1.0)
        gb = gallery("notsingle", t=1.0)
        Z = 0.5 * np.asarray(ga["Z"]) + 0.5 * np.asarray(gb["Z"])
        report = z_membership(Z, ga["T"], tol=0.05)
        assert report["verdict"] == "pass"

    # Z + X with X off the span subspace is a subgradient without being an
    # extreme certificate, so the boundary cases go through is_subgradient.
    def test_one_orthogonal_mode_pass_and_fail(self):
        g = gallery("oneperp", t=0.8)
        report = is_subgradient(np.asarray(g["Z"]) + np.asarray(g["X"]),
                                g["T"], tol=1e-2)
        assert report.verdict == "pass"
        g = gallery("oneperp", t=0.3)
        report = is_subgradient(np.asarray(g["Z"]) + np.asarray(g["Y"]),
                                g["T"], tol=1e-2)
        assert report.verdict == "fail"

    @pytest.mark.parametrize("t,expect", [
        (-1.0, "pass"), (0.5, "pass"), (-1.05, "fail"), (0.55, "fail"),
    ])
    def test_symmetric_perturbation_boundary(self, t, expect):
        g = gallery("yuan3", t=t)
        report = is_subgradient(np.asarray(g["Z"]) + np.asarray(g["X"]),
                                g["T"], tol=1e-3)
        assert report.verdict == expect

    @pytest.mark.parametrize("t,expect", [
        (-(1.0 + S2) / 3.0 + 1e-3, "pass"),
        (1.0 / 3.0 - 1e-3, "pass"),
        (0.35, "fail"),
    ])
    def test_order_four_boundary(self, t, expect):
        g = gallery("yuan4", t=t)
        report = is_subgradient(np.asarray(g["Z"]) + np.asarray(g["X"]),
                                g["T"], tol=1e-3)
        assert report.verdict == expect

    def test_large_modes_pass_with_flattening_bound(self, rng):
        T, Z = odeco_555(rng)
        report = z_membership(Z, T)
        assert report["verdict"] == "pass"
        assert report["spectral_interval"][1] <= 1.0 + 1e-12
        assert report["spectral_method"] == "flattening"

    def test_rank_one_large_modes_pass_on_core(self, rng):
        T = rank_one(rng, (5, 5, 6))
        report = z_membership(T, T)
        assert report["verdict"] == "pass"
        assert abs(report["spectral_interval"][1] - 1.0) <= 1e-12
        assert report["spectral_method"] == "bnb"

    def test_subspace_violation_fails(self):
        T = outer_atom([e(2, 0)] * 3)
        Z = outer_atom([e(2, 1)] * 3)
        assert z_membership(Z, T)["verdict"] == "fail"


class TestFindZWitness:
    def test_matrix_polar_factor(self, rng):
        A = rng.standard_normal((4, 4))
        U, s, Vt = np.linalg.svd(A)
        Z = np.asarray(find_z_witness(asarray(A)))
        assert np.allclose(Z, U @ Vt, atol=1e-6)

    def test_rank_one_returns_base(self):
        T = outer_atom([e(2, 0)] * 3)
        Z = np.asarray(find_z_witness(T))
        assert np.allclose(Z, T, atol=1e-6)

    def test_certificate_properties(self, rng):
        T = asarray(rng.standard_normal((2, 2, 2)))
        sw = nuclear_sandwich(T)
        Z = asarray(find_z_witness(T, sandwich=sw))
        assert spectral_hopm(Z).value <= 1.0 + 1e-6
        assert inner(Z, T) >= sw.lower - 2.0 * sw.gap - 1e-6

    @pytest.mark.parametrize("case", [0, 1, 2, "rpca_L_12"])
    def test_pairs_to_sandwich_lower_end(self, case, rank_deficient_sandwiches):
        if case == "rpca_L_12":
            T = generate_instance((12, 12, 12), 1, 0.02, m=3, seed=1).L
            sw = nuclear_sandwich(T)
        else:
            T, sw = rank_deficient_sandwiches[case]
        Z = find_z_witness(T, sandwich=sw)
        assert inner(Z, T) == pytest.approx(sw.lower, rel=1e-12)

    def test_larger_shape_keeps_unit_ball(self, rng):
        L = sum(
            outer_atom([rng.standard_normal(8) for _ in range(3)])
            for _ in range(2)
        )
        Z = asarray(find_z_witness(asarray(L)))
        assert spectral_hopm(Z).value <= 1.0 + 1e-6


class TestBuildInclusionMember:
    def test_half_radius_family_passes(self):
        g = gallery("yuan3", t=0.25)
        # sigma of X at t=0.25 is 2*0.25/sqrt(3) < 1/2.
        G, report = build_inclusion_member(g["T"], "D1", g["Z"], g["X"])
        assert report.ok

    def test_weak_constant_family_passes(self):
        g = gallery("yuan3", t=0.4)
        X = np.asarray(g["X"]) * (0.3 / (0.8 / S3))
        G, report = build_inclusion_member(g["T"], "D2", g["Z"], X)
        assert report.ok

    def test_single_index_family_passes(self):
        T = outer_atom([e(2, 0)] * 3)
        X = outer_atom([e(2, 0), e(2, 1), e(2, 1)], weight=0.9)
        G, report = build_inclusion_member(T, "DI", T, X, index_set=(1, 2))
        assert report.ok

    def test_convex_combination_family(self):
        T = outer_atom([e(2, 0)] * 3)
        Xa = outer_atom([e(2, 0), e(2, 1), e(2, 1)], weight=0.8)
        Xb = outer_atom([e(2, 1), e(2, 1), e(2, 0)], weight=0.8)
        G, report = build_inclusion_member(
            T, "Dfull", T,
            [((1, 2), 0.5, Xa), ((0, 1), 0.5, Xb)],
        )
        assert report.ok

    def test_radius_violation_named(self):
        g = gallery("yuan3", t=0.5)   # sigma X = 1/sqrt(3) > 1/2
        with pytest.raises(PreconditionError, match="D1"):
            build_inclusion_member(g["T"], "D1", g["Z"], g["X"])

    def test_radius_decided_without_hopm(self, monkeypatch):
        # sigma X = 2t/sqrt(3) = 0.50299 at t = 0.4356, over the radius 1/2
        # by more than tol; only the enclosure, run against the radius, can
        # refute it once HOPM reads 0.
        monkeypatch.setattr(tnn.norms, "spectral_hopm",
                            lambda G: SpectralResult(0.0, (), 0, 0))
        g = gallery("yuan3", t=0.4356)
        with pytest.raises(PreconditionError,
                           match="D1: spectral norm at least .* exceeds"):
            build_inclusion_member(g["T"], "D1", g["Z"], g["X"])

    def test_subspace_violation_named(self):
        T = outer_atom([e(2, 0)] * 3)
        bad = outer_atom([e(2, 1), e(2, 0), e(2, 0)], weight=0.1)
        with pytest.raises(PreconditionError, match="subspace"):
            build_inclusion_member(T, "D1", T, bad)

    def test_d1_requires_order_three(self):
        T = outer_atom([e(2, 0)] * 4)
        with pytest.raises(ParameterError):
            build_inclusion_member(T, "D1", T, np.zeros((2, 2, 2, 2)))

    def test_dfull_weights_checked(self):
        T = outer_atom([e(2, 0)] * 3)
        X = outer_atom([e(2, 0), e(2, 1), e(2, 1)], weight=0.5)
        with pytest.raises(PreconditionError, match="convex"):
            build_inclusion_member(T, "Dfull", T, [((1, 2), 0.7, X)])


class TestProbeTau:
    def test_single_pair_orthogonal_modes_is_unit(self):
        est = probe_tau(upper_u(frozenset({1, 2})), (2, 2, 2), trials=2,
                        seed=0)
        assert est.feasible_max == pytest.approx(1.0, abs=1e-3)
        assert est.infeasible_min <= 1.0 + 5e-3
        assert est.infeasible_min >= est.feasible_max - 1e-9

    def test_witnesses_are_consistent(self):
        est = probe_tau(upper_u(frozenset({0, 1})), (2, 2, 2), trials=2,
                        seed=1)
        T, Z, X = est.feasible_witness
        val = spectral_hopm(asarray(np.asarray(Z) + np.asarray(X))).value
        assert val <= 1.0 + 5e-3
        assert spectral_hopm(asarray(X)).value == pytest.approx(
            est.feasible_max, abs=1e-6
        )

    def test_past_branch_and_bound_limit(self):
        est = probe_tau(upper_u(frozenset({0, 1})), (5, 5, 6), trials=1)
        assert est.feasible_max == pytest.approx(1.0, abs=1e-3)
        assert est.infeasible_min >= est.feasible_max - 1e-9

    def test_selector_must_avoid_span(self):
        from tnn import basic

        with pytest.raises(ParameterError):
            probe_tau(basic(()), (2, 2, 2), trials=1)


class TestSphereParagraphs:
    @pytest.mark.parametrize("name,expected", [
        ("opt-b1", (1.0 + S2) / 2.0),
        ("opt-b2", 1.5),
        ("opt-d4-a", (1.0 + S3) / 2.0),
        ("opt-d4-b", 1.6),
    ])
    def test_closed_form_values(self, name, expected):
        val = solve_sphere_program(sphere_program(name))
        assert val == pytest.approx(expected, abs=1e-12)

    def test_memory_stays_small(self):
        # The solver is loaded first, so that the peak counts the program.
        import scipy.optimize  # noqa: F401

        tracemalloc.start()
        try:
            solve_sphere_program(sphere_program("opt-d4-b"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_registry_and_lookup(self):
        assert set(SPHERE_PROGRAMS) == {
            "opt-b1", "opt-b2", "opt-d4-a", "opt-d4-b"
        }
        with pytest.raises(LookupError_):
            sphere_program("opt-z9")

    def test_invalid_monomial_rejected(self):
        from tnn import SphereProgram

        with pytest.raises(ParameterError):
            SphereProgram(2, (((2, 0),),), ((0, 0),))
