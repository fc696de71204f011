import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tnn.norms
import tnn.subdiff
from tnn import (
    LookupError_,
    ParameterError,
    PreconditionError,
    SPHERE_PROGRAMS,
    SpectralResult,
    asarray,
    basic,
    build_inclusion_member,
    direct_sum,
    find_z_witness,
    gallery,
    generate_instance,
    holder_norm,
    inner,
    is_subgradient,
    nuclear_sandwich,
    order_ge2_sum,
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

    def test_rank_one_large_modes_interval_not_inverted(self):
        # The core's enclosure is closed to rounding: a HOPM value on T
        # lands above its upper end in 8 of these 40, the enclosure's own
        # lower end in none.
        for seed in range(40):
            T = rank_one(np.random.default_rng(seed), (5, 5, 6))
            lo, up = is_subgradient(T, T).spectral_interval
            assert lo <= up

    def test_zero_base_rejected(self):
        with pytest.raises(ParameterError):
            is_subgradient(np.ones((2, 2, 2)), np.zeros((2, 2, 2)))

    def test_unit_hopm_value_under_flattening_is_inconclusive(self):
        # The pairing is the atom's nuclear norm, 1, and HOPM reads
        # ||G||_sigma = 1, but the flattening bound cannot confirm it.
        G, T = unit_hopm_full_rank_555()
        report = is_subgradient(G, T)
        assert report.verdict == "inconclusive"
        assert report.pairing >= report.nuclear_interval[0] - 1e-3
        sig_lo, sig_up = report.spectral_interval
        assert sig_lo <= 1.0 + 1e-3 < sig_up
        assert report.notes == ("spectral_upper_flattening",)


def unit_hopm_full_rank_555():
    """A full-rank 5 x 5 x 6 Gaussian tensor over its HOPM value, and the
    unit atom at its HOPM maximizer, which it pairs to 1.  The branch and
    bound refuses the shape, so its spectral upper end is the flattening
    bound, above 1 + 1e-3."""
    G = np.random.default_rng(0).standard_normal((5, 5, 6))
    G = G / spectral_hopm(G).value
    return G, outer_atom(list(spectral_hopm(G).maximizers))


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


def count_hopm(monkeypatch):
    """Patch ``spectral_hopm`` in ``tnn.norms`` to count its calls."""
    calls = []
    hopm = tnn.norms.spectral_hopm

    def counting(*args, **kwargs):
        calls.append(1)
        return hopm(*args, **kwargs)

    monkeypatch.setattr(tnn.norms, "spectral_hopm", counting)
    return calls


class TestDecisionHopm:
    """The spectral decisions run HOPM on flattening enclosures only: the
    branch and bound finishes its own lower end."""

    def test_none_where_the_branch_and_bound_runs(self, monkeypatch):
        g4 = gallery("yuan4", t=0.35)
        G4, T4 = np.asarray(g4["Z"]) + np.asarray(g4["X"]), g4["T"]
        g3 = gallery("notsingle", t=0.5)
        sw4, sw3 = nuclear_sandwich(T4), nuclear_sandwich(g3["T"])
        calls = count_hopm(monkeypatch)
        assert is_subgradient(G4, T4, sandwich=sw4).verdict == "fail"
        report = z_membership(g3["Z"], g3["T"], tol=0.05, sandwich=sw3)
        assert report["verdict"] == "pass"
        assert report["spectral_method"] == "bnb"
        assert calls == []

    def test_one_on_a_flattening_enclosure(self, rng, monkeypatch):
        G = rng.standard_normal((5, 6, 7))
        T = rank_one(rng, (5, 6, 7))
        sw = nuclear_sandwich(T)
        calls = count_hopm(monkeypatch)
        report = is_subgradient(G, T, sandwich=sw)
        assert report.notes == ("spectral_upper_flattening",)
        assert len(calls) == 1


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
        assert report["spectral_method"] == "exact"

    def test_subspace_violation_fails(self):
        T = outer_atom([e(2, 0)] * 3)
        Z = outer_atom([e(2, 1)] * 3)
        assert z_membership(Z, T)["verdict"] == "fail"

    def test_unit_hopm_value_under_flattening_is_inconclusive(self):
        # G has full multilinear rank, so it lies in its own span subspace
        # and <G, G> falls inside G's wide greedy sandwich; HOPM reads
        # ||G||_sigma = 1, but the flattening bound cannot confirm it.
        G, _ = unit_hopm_full_rank_555()
        report = z_membership(G, G)
        assert report["verdict"] == "inconclusive"
        lower, upper = report["nuclear_interval"]
        assert lower - 1e-3 <= report["pairing"] <= upper + 1e-3
        sig_lo, sig_up = report["spectral_interval"]
        assert 1.0 - 1e-3 <= sig_lo <= 1.0 + 1e-3 < sig_up
        assert report["spectral_method"] == "flattening"


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

    def test_base_point_whose_frobenius_norm_underflows(self):
        # ||T||_F underflows to zero below about 1e-162: a nonzero base
        # point is told from zero by its entries, and its sandwich, witness
        # and verdict are those of T at unit scale.
        T = gallery("notsingle")["T"]
        tiny = T * 1e-170
        sw, unit = nuclear_sandwich(tiny), nuclear_sandwich(T)
        assert sw.lower == pytest.approx(1e-170 * unit.lower, rel=1e-6)
        assert sw.upper == pytest.approx(1e-170 * unit.upper, rel=1e-6)
        Z = find_z_witness(tiny)
        np.testing.assert_allclose(Z, find_z_witness(T, sandwich=unit),
                                   atol=1e-6)
        assert is_subgradient(Z, tiny, sandwich=sw).verdict == "pass"

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

    @pytest.mark.parametrize("index_set", [None, (), (1,), (2, 2)])
    def test_di_needs_two_modes(self, index_set):
        T = outer_atom([e(2, 0)] * 3)
        X = outer_atom([e(2, 0), e(2, 1), e(2, 1)], weight=0.5)
        with pytest.raises(ParameterError, match="at least 2 modes"):
            build_inclusion_member(T, "DI", T, X, index_set=index_set)

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
        with pytest.raises(ParameterError):
            probe_tau(basic(()), (2, 2, 2), trials=1)

    @pytest.mark.parametrize("selector, shape", [
        (direct_sum([]), (2, 2, 2)),
        (upper_u(frozenset({0})), (1, 2, 2)),
        (order_ge2_sum(1), (3,)),
        (basic(frozenset({0, 1})), (2, 1, 2)),
        (direct_sum([{0}, {1, 2}]), (1, 2, 1)),
    ], ids=["no-set", "upperU-size1", "ge2-order1", "basic-size1",
            "sum-size1-each"])
    def test_zero_subspace_is_refused_before_any_draw(
            self, monkeypatch, selector, shape):
        # At a rank-one T such a selector picks {0}, where every drawn U is
        # zero: the draw loop would never end.
        def no_draw(*args):
            raise AssertionError("drew a direction")

        monkeypatch.setattr(tnn.subdiff, "project", no_draw)
        with pytest.raises(ParameterError, match="picks"):
            probe_tau(selector, shape, trials=1)

    def test_one_set_free_of_size_one_modes_still_runs(self):
        est = probe_tau(direct_sum([{0}, {1}]), (1, 2, 2), trials=1)
        assert est.trials == 1

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, -1, 2)], ids=str)
    def test_mode_sizes_must_be_positive(self, shape):
        with pytest.raises(ParameterError, match="positive"):
            probe_tau(upper_u(frozenset({1})), shape, trials=1)

    @pytest.mark.parametrize("bisect_tol", [0.0, -1e-3, float("nan")],
                             ids=str)
    def test_bisect_tol_must_be_positive(self, bisect_tol):
        # A zero-width bisection never ends: its midpoint rounds onto an
        # end once the two are adjacent floats.
        with pytest.raises(ParameterError):
            probe_tau(upper_u(frozenset({0, 1})), (2, 2, 2), trials=1,
                      bisect_tol=bisect_tol)

    def test_refutes_below_the_top_past_branch_and_bound_limit(self):
        # The HOPM lower end of a flattening enclosure proves a stretch
        # infeasible below the top of the range, where the largest entry
        # alone decided nothing.
        est = probe_tau(order_ge2_sum(3), (5, 5, 5), trials=2, seed=0)
        assert est.infeasible_min < 2.0
        assert est.infeasible_min >= est.feasible_max - 1e-9


def _probe_tau_reference(selector, shape, trials=8, seed=0,
                         bisect_tol=1e-3):
    """``probe_tau`` as a plain bisection, the form the convexity decisions
    replace: a threshold-mode enclosure of ``Z + mid U`` at every midpoint."""
    sd = tnn.subdiff
    slack = sd._FEASIBLE_SLACK

    def feasible(Zs):
        lo, up, _ = sd.spectral_enclosure(
            Zs, tol=slack / 2, threshold=1.0 + slack, max_evals=120_000)
        if up <= 1.0 + slack:
            return True
        if lo > 1.0 + slack:
            return False
        return None

    shape = tuple(int(n) for n in shape)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), *shape]))
    candidates = sd._gallery_directions(selector, shape)
    wanted = len(candidates) + trials
    notes = []
    while len(candidates) < wanted:
        T = outer_atom([sd.normalize(rng.standard_normal(n)) for n in shape])
        family = sd.family_from_tensor(T)
        U = sd.project(selector, family, rng.standard_normal(shape))
        if holder_norm(U, 2) < 1e-9:
            continue
        candidates.append((T, T, U))

    feasible_max, infeasible_min = 0.0, np.inf
    feas_wit = infeas_wit = None
    for T, Z, U in candidates:
        sig_u = spectral_hopm(U).value
        if sig_u <= 0:
            continue
        U = U / sig_u
        lo, hi = 0.0, 2.0
        top = feasible(Z + hi * U)
        if top is None:
            notes.append("ambiguous_at_smax")
            continue
        if top:
            found, first_bad = hi, None
        else:
            certain_bad = hi
            while hi - lo > bisect_tol:
                mid = 0.5 * (lo + hi)
                dec = feasible(Z + mid * U)
                if dec is None:
                    notes.append("ambiguous_midpoint")
                    hi = mid
                elif dec:
                    lo = mid
                else:
                    hi = mid
                    certain_bad = mid
            found, first_bad = lo, certain_bad
        if found > feasible_max:
            feasible_max, feas_wit = found, (T, Z, found * U)
        if first_bad is not None and first_bad < infeasible_min:
            infeasible_min, infeas_wit = first_bad, (T, Z, first_bad * U)
    return sd.TauEstimate(selector, shape, float(feasible_max),
                          float(infeasible_min), len(candidates), feas_wit,
                          infeas_wit, tuple(notes))


_U01, _U12 = upper_u(frozenset({0, 1})), upper_u(frozenset({1, 2}))
# (selector, shape, trials, seed): the probes pinned to the plain bisection.
REFERENCE_PROBES = [
    *((sel, (2, 2, 2), 3, seed)
      for sel in (_U01, _U12, order_ge2_sum(3)) for seed in (0, 1, 2026)),
    (order_ge2_sum(3), (2, 2, 3), 3, 0),
    # Four ambiguous midpoints.
    (order_ge2_sum(4), (2, 2, 2, 2), 3, 1),
    # Past the branch and bound's limit: flattening enclosures.
    (_U01, (5, 5, 6), 1, 0),
    (order_ge2_sum(3), (5, 5, 5), 2, 0),
]


def _probe_id(case):
    sel, shape, trials, seed = case
    name = ("ge2" if sel == order_ge2_sum(len(shape))
            else "upperU" + "".join(map(str, sorted(sel.sets[0]))))
    return f"{name}-{'x'.join(map(str, shape))}-t{trials}-s{seed}"


# A convex piecewise-linear f on [0, 2]: the max of affine pieces a + b s.
_PIECES = st.lists(st.tuples(st.floats(-1.0, 2.0), st.floats(-2.0, 2.0)),
                   min_size=1, max_size=4)


class TestProbeTauByConvexity:
    @pytest.mark.parametrize("case", REFERENCE_PROBES, ids=_probe_id)
    def test_bitwise_equal_to_plain_bisection(self, case):
        sel, shape, trials, seed = case
        got = probe_tau(sel, shape, trials=trials, seed=seed)
        ref = _probe_tau_reference(sel, shape, trials=trials, seed=seed)
        assert got.feasible_max.hex() == ref.feasible_max.hex()
        assert got.infeasible_min.hex() == ref.infeasible_min.hex()
        assert (got.trials, got.notes) == (ref.trials, ref.notes)
        for mine, theirs in ((got.feasible_witness, ref.feasible_witness),
                             (got.infeasible_witness,
                              ref.infeasible_witness)):
            assert (mine is None) == (theirs is None)
            for a, b in zip(mine or (), theirs or ()):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @given(pieces=_PIECES,
           points=st.lists(st.integers(1, 2 ** 10), min_size=1, max_size=6,
                           unique=True),
           widths=st.lists(st.sampled_from([0.0, 1e-15, 1e-9, 1e-4, 0.3]),
                           min_size=12, max_size=12),
           query=st.integers(1, 2 ** 10 - 1))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_line_decision_never_contradicts_the_function(
            self, pieces, points, widths, query):
        level = 1.0 + tnn.subdiff._FEASIBLE_SLACK

        def f(s):
            return max(a + b * s for a, b in pieces)

        def exact(s):
            return max(Fraction(a) + Fraction(b) * Fraction(s)
                       for a, b in pieces)

        # Dyadic points in (0, 2], as the bisection visits them.
        line = [(k / 2 ** 9, f(k / 2 ** 9) - widths[2 * i],
                 f(k / 2 ** 9) + widths[2 * i + 1])
                for i, k in enumerate(points)]
        s = query / 2 ** 9
        decision = tnn.subdiff._line_decision(line, s, level)
        if decision is True:
            assert exact(s) <= level
        elif decision is False:
            assert exact(s) > level

    @pytest.mark.parametrize("selector", [_U01, order_ge2_sum(3)],
                             ids=["upperU01", "ge2"])
    def test_direct_enclosure_never_contradicts_a_line_decision(
            self, selector, monkeypatch):
        # The benchmark's two 2x2x2 probes, at both of its seeds.
        sd = tnn.subdiff
        level = 1.0 + sd._FEASIBLE_SLACK
        original, decided = sd._feasible, []

        def spy(Z, U, s, line):
            decision = sd._line_decision(list(line), s, level)
            out = original(Z, U, s, line)
            if decision is not None:
                assert out is decision
                decided.append((Z + s * U, decision))
            return out

        monkeypatch.setattr(sd, "_feasible", spy)
        for seed in (1, 2026):
            probe_tau(selector, (2, 2, 2), trials=3, seed=seed)
        assert decided
        for Zs, decision in decided:
            lo, up, _ = sd.spectral_enclosure(
                Zs, tol=sd._FEASIBLE_SLACK / 2, threshold=level,
                max_evals=120_000)
            assert not (lo > level if decision else up <= level)

    @pytest.mark.parametrize("selector,most", [(_U01, 12),
                                               (order_ge2_sum(3), 44)],
                             ids=["upperU01", "ge2"])
    def test_enclosure_calls(self, selector, most, monkeypatch):
        # The plain bisection makes 48 and 60.
        calls = []
        original = tnn.subdiff.spectral_enclosure

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(tnn.subdiff, "spectral_enclosure", counting)
        probe_tau(selector, (2, 2, 2), trials=3, seed=1)
        assert 0 < len(calls) <= most


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
