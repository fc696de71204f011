import numpy as np
import pytest

from tnn import (
    ModeFamily,
    ModeSubspace,
    ParameterError,
    PreconditionError,
    asarray,
    check_nuclear_decomp,
    check_nuclear_lower_bound,
    check_spectral_decomp,
    check_weak_decomp,
    holder_norm,
    inner,
    nuclear_sandwich,
    outer_atom,
    sample_pair,
    sample_weak_pair,
    weak_decomposability_constant,
)
from tnn.decomp import _nuclear_three_way
from conftest import e


def span_e1_family(d=3, n=2):
    V = ModeSubspace.span([e(n, 0)])
    return ModeFamily((V,) * d)


def four_corner_tensor():
    S = np.zeros((2, 2, 2))
    for p in [(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]:
        S[p] = 1.0
    return asarray(S)


class TestConstant:
    def test_values(self):
        assert weak_decomposability_constant(3) == pytest.approx(1.0 / 3.0)
        assert weak_decomposability_constant(4) == pytest.approx(1.0 / 6.0)

    def test_rejects_small_order(self):
        with pytest.raises(ParameterError):
            weak_decomposability_constant(1)


class TestSamplePair:
    def test_reproducible_bit_for_bit(self):
        _, T1, S1 = sample_pair((2, 2, 2), (1, 1, 1), (0, 1), seed=5)
        _, T2, S2 = sample_pair((2, 2, 2), (1, 1, 1), (0, 1), seed=5)
        assert np.array_equal(asarray(T1), asarray(T2))
        assert np.array_equal(asarray(S1), asarray(S2))

    def test_distinct_seeds_differ(self):
        _, T1, _ = sample_pair((2, 2, 2), (1, 1, 1), (0, 1), seed=5)
        _, T2, _ = sample_pair((2, 2, 2), (1, 1, 1), (0, 1), seed=6)
        assert not np.allclose(asarray(T1), asarray(T2))

    def test_components_orthogonal_and_nonzero(self):
        for seed in range(5):
            _, T, S = sample_pair((2, 2, 2), (1, 1, 1), (1, 2), seed=seed)
            assert abs(inner(T, S)) < 1e-12
            assert holder_norm(T, 2) > 1e-8
            assert holder_norm(S, 2) > 1e-8

    def test_membership_by_construction(self):
        from tnn import lower_u, project, upper_u

        family, T, S = sample_pair((2, 3, 2), (1, 2, 1), (0, 2), seed=3)
        assert np.allclose(project(lower_u((0, 2)), family, T), T, atol=1e-12)
        assert np.allclose(project(upper_u((0, 2)), family, S), S, atol=1e-12)

    def test_impossible_rank(self):
        with pytest.raises(ParameterError):
            sample_pair((2, 2, 2), (3, 1, 1), (0, 1), seed=0)

    def test_full_rank_inside_index_set(self):
        with pytest.raises(ParameterError):
            sample_pair((2, 2, 2), (2, 1, 1), (0, 1), seed=0)


def weak_recipe(shape, seed):
    """The weak suite's instance, drawn step by step: a Gaussian base, then
    a unit atom's factors, then the Gaussian behind ``S``, all from one
    stream."""
    from tnn import basic, family_from_tensor, order_ge2_sum, project

    rng = np.random.default_rng(np.random.SeedSequence([seed, *shape]))
    base = rng.standard_normal(shape)
    atom = outer_atom([v / np.linalg.norm(v)
                       for v in (rng.standard_normal(n) for n in shape)])
    family = family_from_tensor(atom)
    T = project(basic(()), family, base)
    S = project(order_ge2_sum(len(shape)), family, rng.standard_normal(shape))
    return family, T, S


class TestSampleWeakPair:
    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 2, 2, 2)], ids=str)
    def test_equals_the_recipe_bit_for_bit(self, shape):
        for seed in range(10):
            family, T, S = sample_weak_pair(shape, seed)
            ref_family, ref_T, ref_S = weak_recipe(shape, seed)
            assert np.array_equal(T, ref_T), seed
            assert np.array_equal(S, ref_S), seed
            for V, W in zip(family.subspaces, ref_family.subspaces):
                assert np.array_equal(V.basis, W.basis), seed

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 3, 4)], ids=str)
    def test_parts_lie_in_their_subspaces(self, shape):
        from tnn import basic, order_ge2_sum, project

        for seed in range(5):
            family, T, S = sample_weak_pair(shape, seed)
            for part, selector in ((T, basic(())),
                                   (S, order_ge2_sum(len(shape)))):
                resid = holder_norm(part - project(selector, family, part), 2)
                assert resid <= 1e-12, seed
                assert holder_norm(part, 2) > 1e-8, seed

    def test_distinct_seeds_differ(self):
        _, T1, S1 = sample_weak_pair((2, 2, 2), 5)
        _, T2, S2 = sample_weak_pair((2, 2, 2), 6)
        assert not np.allclose(T1, T2)
        assert not np.allclose(S1, S2)

    def test_rejects_order_one(self):
        with pytest.raises(ParameterError):
            sample_weak_pair((3,), 0)


class TestSpectralDecomp:
    def test_diagonal_atoms(self):
        family = span_e1_family()
        T = outer_atom([e(2, 0)] * 3)
        S = outer_atom([e(2, 1)] * 3)
        report = check_spectral_decomp(T, S, family, (0, 1, 2))
        assert report.ok
        assert report.details["sigma_sum"] == pytest.approx(1.0, abs=1e-8)

    def test_scaled_pair(self):
        family = span_e1_family()
        T = 2.0 * outer_atom([e(2, 0)] * 3)
        S = outer_atom([e(2, 1)] * 3)
        report = check_spectral_decomp(T, S, family, (0, 1, 2))
        assert report.ok
        assert report.details["sigma_sum"] == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_pairs_pass(self, seed):
        family, T, S = sample_pair((2, 2, 2), (1, 1, 1), (0, 1), seed=seed)
        report = check_spectral_decomp(T, S, family, (0, 1))
        assert report.ok
        assert report.discrepancy <= 1e-6

    @pytest.mark.parametrize("shape", [(3, 5, 6), (5, 5, 6)])
    def test_certified_intervals_at_any_size(self, shape):
        family, T, S = sample_pair(shape, (1, 1, 2), (0, 1), seed=0)
        report = check_spectral_decomp(T, S, family, (0, 1))
        assert report.ok
        for lo, up in (report.lhs, report.rhs):
            assert np.isfinite(up)
            assert lo <= up + 1e-12

    def test_membership_enforced(self):
        family, T, S = sample_pair((2, 2, 2), (1, 1, 1), (0, 1), seed=0)
        with pytest.raises(PreconditionError):
            check_spectral_decomp(S, T, family, (0, 1))

    def test_small_index_set_rejected(self):
        family, T, S = sample_pair((2, 2, 2), (1, 1, 1), (0, 1), seed=0)
        with pytest.raises(ParameterError):
            check_spectral_decomp(T, S, family, (0,))

    def test_monotone_in_index_set(self):
        family, T, S = sample_pair((2, 2, 2), (1, 1, 1), (0, 1, 2), seed=4)
        small = check_spectral_decomp(T, S, family, (0, 1))
        large = check_spectral_decomp(T, S, family, (0, 1, 2))
        assert small.ok and large.ok


class TestNuclearDecomp:
    def test_diagonal_atoms_additive(self):
        family = span_e1_family()
        T = outer_atom([e(2, 0)] * 3)
        S = outer_atom([e(2, 1)] * 3)
        report = check_nuclear_decomp(T, S, family, (0, 1, 2))
        assert report.ok
        assert report.lhs[0] - 1e-6 <= 2.0 <= report.lhs[1] + 1e-6

    def test_matrix_block_diagonal_exact(self):
        V = ModeSubspace.span([e(4, 0), e(4, 1)])
        family = ModeFamily((V, V))
        rng = np.random.default_rng(11)
        T = np.zeros((4, 4))
        S = np.zeros((4, 4))
        T[:2, :2] = rng.standard_normal((2, 2))
        S[2:, 2:] = rng.standard_normal((2, 2))
        report = check_nuclear_decomp(asarray(T), asarray(S), family, (0, 1))
        assert report.ok
        assert report.discrepancy <= 1e-10

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sampled_pairs_never_fail(self, seed):
        family, T, S = sample_pair((2, 2, 2), (1, 1, 1), (1, 2), seed=seed)
        report = check_nuclear_decomp(T, S, family, (1, 2))
        assert report.verdict in ("pass", "inconclusive")

    def test_inconclusive_requires_wide_gap(self):
        # Greedy sandwiches off 2 x 2 x n: gap totals 1.26 to 3.35.
        for seed in range(4):
            family, T, S = sample_pair((2, 3, 3), (2, 2, 2), (1, 2),
                                       seed=seed)
            report = check_nuclear_decomp(T, S, family, (1, 2))
            assert report.verdict == "inconclusive"
            assert report.details["gap_total"] > 0.0

    def test_wide_greedy_sandwiches_are_inconclusive(self):
        # Off 2 x 2 x n the sum's greedy sandwich is wide: the intervals
        # overlap but their widths add up to more than 1e-2.
        family, T, S = sample_pair((3, 3, 3), (2, 2, 2), (0, 1), seed=0)
        report = check_nuclear_decomp(T, S, family, (0, 1))
        assert report.verdict == "inconclusive"
        assert report.details["gap_total"] > 1e-2
        assert report.lhs[0] <= report.rhs[1]
        assert report.rhs[0] <= report.lhs[1]

    @pytest.mark.parametrize("lhs, rhs", [((1.0, 1.0), (1.5, 1.5)),
                                          ((2.0, 2.1), (1.0, 1.05))])
    def test_intervals_apart_by_more_than_tol_fail(self, lhs, rhs):
        disc = abs(sum(lhs) - sum(rhs)) / 2
        verdict, gap_total = _nuclear_three_way(lhs, rhs, disc, 1e-3)
        assert verdict == "fail"
        assert gap_total == pytest.approx((lhs[1] - lhs[0])
                                          + (rhs[1] - rhs[0]))


class TestNuclearLowerBound:
    def test_arbitrary_tensor_holds(self, rng):
        family, _, _ = sample_pair((2, 2, 2), (1, 1, 1), (0, 1), seed=0)
        for _ in range(3):
            T = asarray(rng.standard_normal((2, 2, 2)))
            report = check_nuclear_lower_bound(T, family, (0, 1))
            assert report.ok

    def test_pure_pair_reduces_to_equality(self):
        family, T, S = sample_pair((2, 2, 2), (1, 1, 1), (0, 1), seed=7)
        report = check_nuclear_lower_bound(asarray(T) + asarray(S),
                                           family, (0, 1))
        assert report.ok

    def test_third_component_gives_slack(self, rng):
        from tnn import lower_u, project, upper_u

        family, T, S = sample_pair((2, 2, 2), (1, 1, 1), (0, 1), seed=9)
        G = rng.standard_normal((2, 2, 2))
        rest = (G - np.asarray(project(lower_u((0, 1)), family, G))
                - np.asarray(project(upper_u((0, 1)), family, G)))
        full = asarray(np.asarray(T) + np.asarray(S) + rest)
        report = check_nuclear_lower_bound(full, family, (0, 1))
        assert report.ok
        assert report.details["slack"] > 0.0

    def test_matrix_instance_exact(self, rng):
        basis = np.linalg.qr(rng.standard_normal((4, 4)))[0][:, :2]
        V = ModeSubspace(4, basis)
        family = ModeFamily((V, V))
        T = asarray(rng.standard_normal((4, 4)))
        report = check_nuclear_lower_bound(T, family, (0, 1))
        assert report.ok


class TestWeakDecomp:
    def test_sparse_anomaly_instance(self):
        family = span_e1_family()
        T = outer_atom([e(2, 0)] * 3)
        S = four_corner_tensor()
        # At order three the sharper half constant is known to hold.
        report = check_weak_decomp(T, S, family, alpha=0.5)
        assert report.ok
        assert report.details["alpha"] == pytest.approx(0.5)
        # The sum's norm undershoots plain additivity, and even the larger
        # summand alone, yet the weak half-constant bound still holds.
        assert (report.details["mid_sum"]
                < report.details["mid_T"] + report.details["mid_S"])
        assert report.details["mid_sum"] < report.details["mid_S"]
        assert (report.details["mid_sum"]
                >= report.details["mid_T"]
                + 0.5 * report.details["mid_S"] - 1e-3)

    def test_zero_s_is_equality(self):
        family = span_e1_family()
        T = outer_atom([e(2, 0)] * 3)
        report = check_weak_decomp(T, np.zeros((2, 2, 2)), family)
        assert report.ok
        assert report.discrepancy == pytest.approx(0.0, abs=1e-6)

    def test_membership_enforced(self):
        family = span_e1_family()
        bad = outer_atom([e(2, 1), e(2, 0), e(2, 0)])  # order-1 component
        with pytest.raises(PreconditionError):
            check_weak_decomp(outer_atom([e(2, 0)] * 3), bad, family)

    def test_alpha_override(self):
        family = span_e1_family()
        T = outer_atom([e(2, 0)] * 3)
        S = four_corner_tensor()
        report = check_weak_decomp(T, S, family, alpha=0.05)
        assert report.details["alpha"] == pytest.approx(0.05)
        assert report.ok


class TestSingleModeCounterexample:
    """Orthogonality on a single mode is not enough for any additive
    constant: the excess norm of the sum vanishes faster than the norm of
    the perturbation."""

    @staticmethod
    def _ratio(eps):
        T = np.outer(e(2, 0), e(2, 0))
        S = eps * np.outer(e(2, 0), e(2, 1))
        mid_sum = nuclear_sandwich(asarray(T + S)).mid
        mid_t = nuclear_sandwich(asarray(T)).mid
        mid_s = nuclear_sandwich(asarray(S)).mid
        assert mid_sum == pytest.approx(np.sqrt(1.0 + eps * eps), abs=1e-10)
        return (mid_sum - mid_t) / mid_s

    def test_no_uniform_constant(self):
        r_big = self._ratio(0.1)
        r_small = self._ratio(0.01)
        assert r_big < 0.5
        assert r_small < r_big
        assert r_small < 0.01
