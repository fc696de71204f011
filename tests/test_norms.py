import itertools
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import tnn.norms
from tnn import (
    ParameterError,
    PreconditionError,
    asarray,
    basic,
    decomposition_sum,
    duality_gap_check,
    family_from_tensor,
    gallery,
    generate_instance,
    holder_norm,
    inner,
    mode_matricize,
    multilinear_contract,
    nuclear_sandwich,
    outer_atom,
    project,
    restricted_norm_check,
    sample_pair,
    sample_weak_pair,
    spectral_certified_upper,
    spectral_enclosure,
    spectral_flattening_upper,
    spectral_hopm,
)
from tnn.norms import (
    _FINISH_FLOOR,
    _HOPM_SWEEPS,
    SpectralResult,
    _dictionary_lp,
    _greedy_atoms,
    _hopm_finish,
    _hopm_update_strings,
    _l1_refit,
    _lp_grid,
    _mode_symmetries,
    _polish_objective,
    _sign_witnesses,
)
from tnn.tensor_core import normalize
from conftest import e, rank_one

SQ3 = np.sqrt(3.0)
SLACK = 1e-12  # rounding allowance when two bounds are compared


def perm_sum_tensor(t):
    """t * (e1 (x) e2 (x) e2 + e2 (x) e1 (x) e2 + e2 (x) e2 (x) e1)."""
    return t * (
        outer_atom([e(2, 0), e(2, 1), e(2, 1)])
        + outer_atom([e(2, 1), e(2, 0), e(2, 1)])
        + outer_atom([e(2, 1), e(2, 1), e(2, 0)])
    )


def diag_plus_corner(t):
    """Diagonal 3x3x3 identity plus t at the (1,2,3) corner."""
    T = sum(outer_atom([e(3, i)] * 3) for i in range(3))
    return asarray(T + t * outer_atom([e(3, 0), e(3, 1), e(3, 2)]))


class TestSpectralHopm:
    def test_rank_one_atom(self, rng):
        factors = [v / np.linalg.norm(v)
                   for v in (rng.standard_normal(3) for _ in range(3))]
        res = spectral_hopm(outer_atom(factors))
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_perm_sum_closed_form(self):
        res = spectral_hopm(asarray(perm_sum_tensor(1.0)))
        assert res.value == pytest.approx(2.0 / SQ3, abs=1e-8)

    def test_diag_corner_half(self):
        res = spectral_hopm(diag_plus_corner(0.5))
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_maximizer_consistency(self, rng):
        T = asarray(rng.standard_normal((2, 3, 2)))
        res = spectral_hopm(T)
        val = multilinear_contract(T, list(res.maximizers))
        assert abs(val) == pytest.approx(res.value, abs=1e-10)

    def test_zero_tensor(self):
        res = spectral_hopm(np.zeros((2, 2)))
        assert res.value == 0.0

    def test_matrix_matches_svd(self, rng):
        A = rng.standard_normal((4, 5))
        res = spectral_hopm(asarray(A))
        assert res.value == pytest.approx(np.linalg.norm(A, 2), abs=1e-10)

    def test_scale_equivariance(self, rng):
        T = rng.standard_normal((2, 2, 2))
        v1 = spectral_hopm(asarray(T)).value
        v2 = spectral_hopm(asarray(3.0 * T)).value
        assert v2 == pytest.approx(3.0 * v1, rel=1e-10)

    def test_lower_bounds_holder_inf(self, rng):
        for _ in range(10):
            T = asarray(rng.standard_normal((2, 2, 2)))
            assert spectral_hopm(T).value >= holder_norm(T, np.inf) - 1e-10

    def test_converged_when_stop_rule_fires(self, rng):
        factors = [v / np.linalg.norm(v)
                   for v in (rng.standard_normal(n) for n in (2, 3, 2))]
        res = spectral_hopm(outer_atom(factors))
        assert res.converged
        assert res.iterations < 2000

    def test_converged_is_keyword_only(self):
        res = spectral_hopm(asarray(perm_sum_tensor(1.0)))
        with pytest.raises(TypeError):
            SpectralResult(res.value, res.maximizers, res.starts_used,
                           res.iterations, False)

    def test_finish_converges_where_sweeps_stall(self):
        # Z + X of the yuan3 family at t = 1/2 has norm exactly 1, which the
        # sweeps approach sublinearly (2000 of them reach 0.99999998); the
        # second-order finish reaches it in a few dozen steps.
        res = spectral_hopm(_yuan3_zx(0.5))
        assert res.converged
        assert _HOPM_SWEEPS < res.iterations < 200
        assert abs(res.value - 1.0) <= 1e-12

    def test_not_converged_on_sweep_budget(self):
        # A budget below the sweep stage's ends the run before any finish.
        res = spectral_hopm(_yuan3_zx(0.5), max_iter=_HOPM_SWEEPS // 2)
        assert res.iterations == _HOPM_SWEEPS // 2
        assert not res.converged
        assert res.value <= 1.0 + SLACK


def _yuan3_zx(t):
    g = gallery("yuan3", t=t)
    return asarray(np.asarray(g["Z"]) + np.asarray(g["X"]))


def _einsum_hopm(A, starts, tol, max_iter=2000):
    """The multi-start HOPM iteration written with one einsum per mode update
    and per value sweep: the reference the unfolding kernel must reproduce.

    Returns the result, every start's final vectors and values, and each
    sweep's stop statistic with its threshold."""
    d = A.ndim
    value_str, update_strs = _hopm_update_strings(d)
    rng = np.random.default_rng(np.random.SeedSequence([0, d]))
    X = [
        np.apply_along_axis(normalize, 1, rng.standard_normal((starts, n)))
        for n in A.shape
    ]
    vals = np.abs(np.einsum(value_str, A, *X))
    total_iters, stops, converged = 0, [], False
    for _ in range(max_iter):
        total_iters += 1
        for k in range(d):
            others = [X[j] for j in range(d) if j != k]
            V = np.einsum(update_strs[k], A, *others)
            norms = np.linalg.norm(V, axis=1)
            norms[norms == 0] = 1.0
            X[k] = V / norms[:, None]
        new_vals = np.abs(np.einsum(value_str, A, *X))
        stops.append((np.max(np.abs(new_vals - vals)),
                      tol * max(1.0, np.max(new_vals))))
        if stops[-1][0] < stops[-1][1]:
            vals, converged = new_vals, True
            break
        vals = new_vals
    best = int(np.argmax(vals))
    signed = float(np.einsum(value_str, A, *[x[best][None] for x in X]).item())
    vecs = [np.array(x[best]) for x in X]
    if signed < 0:
        vecs[0] = -vecs[0]
    res = SpectralResult(float(abs(signed)), tuple(vecs), starts, total_iters,
                         converged=converged)
    return res, X, vals, stops


_KERNEL_SHAPES = [(3, 4, 5), (2, 1, 3), (1, 4, 4), (6, 2, 7), (2, 3, 2, 3),
                  (3, 3, 3, 3), (2, 2, 2, 2, 2)]


@pytest.fixture(scope="module")
def off_span_12():
    """The off-span tensor ``D - p_L(D)`` whose spectral norm ``certify``
    bounds at 12^3."""
    import tnn.rpca
    seen = []
    original = tnn.rpca._raised_enclosure
    tnn.rpca._raised_enclosure = lambda T, *a, **k: seen.append(T) or original(
        T, *a, **k)
    try:
        tnn.rpca.certify(generate_instance((12, 12, 12), 1, 0.02, m=3, seed=1))
    finally:
        tnn.rpca._raised_enclosure = original
    return asarray(seen[0])


class TestHopmKernel:
    """The BLAS unfolding kernel yields the einsum iteration's iterates for
    the sweep stage; a run the sweeps do not settle is then finished at
    least as high as the reference's sweeps go."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-13])
    @pytest.mark.parametrize("starts", [1, 16, 64])
    @pytest.mark.parametrize("case", [*_KERNEL_SHAPES, "off_span_12"],
                             ids=str)
    def test_matches_einsum_iteration(self, case, starts, tol, request):
        if case == "off_span_12":
            A = request.getfixturevalue("off_span_12")
        else:
            A = asarray(np.random.default_rng(
                _KERNEL_SHAPES.index(case)).standard_normal(case))
        res = spectral_hopm(A, starts=starts, tol=tol)
        ref, X, vals, stops = _einsum_hopm(A, starts, tol)
        if ref.iterations > _HOPM_SWEEPS:
            assert res.converged
            assert res.value >= ref.value * (1.0 - 1e-14)
            assert res.value == pytest.approx(
                abs(multilinear_contract(A, list(res.maximizers))), rel=1e-14)
            # The sweep stage alone is the reference's first sweeps.
            res = spectral_hopm(A, starts=starts, tol=tol,
                                max_iter=_HOPM_SWEEPS)
            ref, X, vals, stops = _einsum_hopm(A, starts, tol,
                                               max_iter=_HOPM_SWEEPS)
        if res.iterations != ref.iterations:
            # Only a rounding tie of the stop rule may end the two one sweep
            # apart: the reference's statistic at the earlier sweep lies
            # within a few dozen ulps of its threshold.  Compare the
            # iterates after the kernel's number of sweeps.
            assert abs(res.iterations - ref.iterations) == 1
            stat, bound = stops[min(res.iterations, ref.iterations) - 1]
            assert abs(stat - bound) <= 1e-14 * max(1.0, res.value)
            ref, X, vals, _ = _einsum_hopm(A, starts, 0.0,
                                           max_iter=res.iterations)
        assert res.iterations == ref.iterations
        assert res.starts_used == ref.starts_used
        assert res.value == pytest.approx(ref.value, rel=1e-12)
        # Starts that reach the same maximum tie to rounding, so the best
        # one may differ; the maximizers must be one reference start's
        # vectors, up to sign, at a best value.
        match = [
            b for b in range(starts)
            if all(min(np.max(np.abs(x - v[b])), np.max(np.abs(x + v[b])))
                   < 1e-10 for x, v in zip(res.maximizers, X))
        ]
        assert match
        assert vals[match[0]] == pytest.approx(np.max(vals), rel=1e-12)
        # The loop's values are update norms; the reported value is still
        # the form at the returned maximizers.
        assert res.value == pytest.approx(
            abs(multilinear_contract(A, list(res.maximizers))), rel=1e-12)


class TestHopmFinish:
    """The second-order finish of the runs the sweeps do not settle."""

    @given(shape=st.sampled_from([(2, 2, 2), (3, 3, 3), (2, 3, 4),
                                  (2, 2, 2, 2), (2, 3, 2, 3), (5, 5, 6)]),
           seed=st.integers(0, 2 ** 32 - 1),
           signs=st.booleans())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_never_below_sweep_stage(self, shape, seed, signs):
        T = np.random.default_rng(seed).standard_normal(shape)
        if signs:
            T = np.sign(T)
        res = spectral_hopm(T)
        sweeps = spectral_hopm(T, max_iter=_HOPM_SWEEPS)
        assert res.converged
        # Finished vectors are kept within rounding of the sweeps' value.
        assert res.value >= sweeps.value * (1.0 - _FINISH_FLOOR)
        assert res.value == pytest.approx(
            abs(multilinear_contract(T, list(res.maximizers))), rel=1e-14)

    @pytest.mark.parametrize("shape, seed", [((2, 2, 2, 2), 15),
                                             ((2, 3, 2, 3), 22),
                                             ((3, 3, 3, 3), 6),
                                             ((5, 5, 6), 7)])
    def test_order_four_and_large_fixed_mode(self, shape, seed):
        # (5, 5, 6) charts a fixed mode of dimension 5, past the branch and
        # bound's limit.
        T = asarray(np.random.default_rng(seed).standard_normal(shape))
        res = spectral_hopm(T)
        ref = _einsum_hopm(T, 32, 1e-12)[0]
        assert res.iterations > _HOPM_SWEEPS
        assert res.converged
        assert res.value >= ref.value * (1.0 - 1e-14)
        assert res.value <= spectral_enclosure(T, tol=1e-6)[1] + SLACK
        # The finish settles the vectors, not only the value: runs from
        # other starts return the same maximizer up to sign.
        for start_seed in (1, 2):
            other = spectral_hopm(T, seed=start_seed)
            for x, y in zip(res.maximizers, other.maximizers):
                assert min(np.abs(x - y).max(), np.abs(x + y).max()) < 1e-10

    def test_order_four_gallery_boundary(self):
        # yuan4 Z + X just inside its range: norm 1, 1025 sweeps before.
        g = gallery("yuan4", t=1.0 / 3.0 - 1e-3)
        res = spectral_hopm(asarray(g["Z"] + g["X"]))
        assert _HOPM_SWEEPS < res.iterations < 200
        assert res.converged
        assert abs(res.value - 1.0) <= 1e-12

    @pytest.mark.parametrize("t", [1.0, -1.0])
    def test_degenerate_maximum_keeps_value(self, t):
        # notsingle Z has norm 1 along a curve of maximizers, which ends at
        # x_1 = e_1, where T x_1 = e_1 e_1^T + t e_2 e_3^T has its top
        # singular value 1 twice.
        Z = asarray(gallery("notsingle", t=t)["Z"])
        res = spectral_hopm(Z)
        assert res.iterations > _HOPM_SWEEPS
        assert res.converged
        assert abs(res.value - 1.0) <= 1e-12
        e = np.eye(3)
        for start in ([e[0], e[0], e[0]], [e[0], e[1], e[2]]):
            assert np.linalg.svd(np.tensordot(start[0], Z, 1),
                                 compute_uv=False)[1] == 1.0
            vecs, steps, converged = _hopm_finish(Z, start, 100)
            assert converged
            assert abs(multilinear_contract(Z, vecs)) >= 1.0 - 1e-15


class TestSpectralCertified:
    def test_encloses_closed_form(self):
        T = asarray(perm_sum_tensor(1.0))
        lo, up = spectral_certified_upper(T, tol=1e-6)
        assert lo <= 2.0 / SQ3 + 1e-8
        assert up >= 2.0 / SQ3 - 1e-8
        assert up - lo <= 1e-6 + 1e-12

    def test_threshold_mode_feasible(self):
        lo, up = spectral_certified_upper(
            diag_plus_corner(0.5), tol=5e-4, threshold=1.001
        )
        assert up <= 1.001

    def test_threshold_mode_infeasible(self):
        lo, up = spectral_certified_upper(
            diag_plus_corner(1.5), tol=5e-4, threshold=1.001
        )
        assert lo > 1.001

    def test_refuses_large_fixed_modes(self):
        with pytest.raises(ParameterError):
            spectral_certified_upper(np.ones((5, 6, 7)), tol=1e-3)

    def test_matrix_exact(self, rng):
        A = rng.standard_normal((3, 3))
        lo, up = spectral_certified_upper(asarray(A), tol=1e-9)
        s = np.linalg.norm(A, 2)
        assert lo <= s <= up
        assert up - lo <= 1e-8

    @pytest.mark.parametrize("T, expected", [
        (np.zeros((2, 2, 2)), 0.0),
        (outer_atom([e(2, 0)] * 3) + outer_atom([e(2, 1)] * 3), 1.0),
        (outer_atom([e(2, 0)] * 3) + perm_sum_tensor(-1.0), 1.0),
        (outer_atom([e(2, 0)] * 3) + perm_sum_tensor(0.6),
         2.0 * np.sqrt(0.6 ** 3 / (3.0 * 0.6 - 1.0))),
    ], ids=["zero_tensor", "diag_identity", "perm_sum_plus_corner_at_boundary",
            "supercritical_closed_form"])
    def test_encloses_known_values(self, T, expected):
        lo, up = spectral_certified_upper(asarray(T), tol=1e-8)
        assert lo - 1e-12 <= expected <= up + 1e-12
        assert up - lo <= 1e-8

    def test_random_444_meets_tolerance_within_default_budget(self):
        T = np.random.default_rng(0).standard_normal((4, 4, 4))
        lo, up = spectral_certified_upper(T / np.linalg.norm(T), tol=1e-4)
        assert up - lo <= 1e-4

    def test_tiny_budget_still_bounds_hopm(self, rng):
        T = asarray(rng.standard_normal((3, 4, 4)))
        lo, up = spectral_certified_upper(T, tol=1e-9, max_evals=1)
        assert lo <= spectral_hopm(T).value <= up + 1e-12

    @given(shape=st.sampled_from([(2, 2, 2), (1, 3, 2), (3, 3, 3), (2, 3, 4),
                                  (2, 1, 3, 2), (2, 2, 2, 2)]),
           seed=st.integers(0, 2 ** 32 - 1),
           tol=st.sampled_from([1e-3, 1e-5, 1e-7]))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_enclosure_property(self, shape, seed, tol):
        T = np.random.default_rng(seed).standard_normal(shape)
        lo, up = spectral_certified_upper(T, tol=tol)
        hopm = spectral_hopm(T, starts=64).value
        assert lo <= hopm <= up + 1e-12
        assert up - lo <= tol


def count_svds(monkeypatch):
    """Patch ``np.linalg.svd`` to count its calls; the branch and bound makes
    one per batch of cells."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def two_peak_witness():
    """The weak recipe's seed-26 ``T + S`` sandwich witness: its two local
    maxima over the first mode's circle, 1.0024102 and 1.0023841, are closer
    than a 64-point grid resolves them."""
    _, T, S = sample_weak_pair((2, 2, 2), 26)
    return asarray(nuclear_sandwich(T + S).dual_witness)


class TestPartialTransposeBound:
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("position", range(3))
    def test_closes_every_2x2xn_enclosure(self, n, position):
        shape = [2, 2]
        shape.insert(position, n)
        for seed in range(30):
            T = np.random.default_rng(seed).standard_normal(shape)
            lo, up = spectral_certified_upper(T)
            assert lo <= up
            assert up >= spectral_hopm(T, starts=64).value
            assert up - lo <= 1e-12 * up

    @pytest.mark.parametrize("threshold, decided", [(1.01, "upper"),
                                                    (0.99, "lower")])
    def test_decided_threshold_call_evaluates_no_cell(
            self, rng, monkeypatch, threshold, decided):
        T = rng.standard_normal((2, 3, 2))
        T /= spectral_hopm(T, starts=64).value
        calls = count_svds(monkeypatch)
        lo, up = spectral_certified_upper(T, tol=1e-9, threshold=threshold)
        assert calls == []
        assert up <= threshold if decided == "upper" else lo > threshold

    def test_several_maximizers_close_on_the_higher_one(self, monkeypatch):
        Z = two_peak_witness()
        hopm = spectral_hopm(Z, starts=64).value
        calls = count_svds(monkeypatch)
        lo, up = spectral_certified_upper(Z, tol=1e-5)
        assert calls == []
        assert lo <= hopm + SLACK and hopm <= up
        assert up - lo <= 1e-12 * up

    @pytest.mark.parametrize("missed", ["cap", "attained"])
    def test_fallback_encloses_within_tol(self, monkeypatch, missed):
        # An open cap: the branch and bound runs, with the cap in its stop
        # tests only.
        Z = two_peak_witness()
        hopm = spectral_hopm(Z, starts=64).value
        cap, attained = tnn.norms._partial_transpose_bound(Z)
        loose = (cap + 1e-3, attained) if missed == "cap" else (
            cap, attained - 1e-3)
        monkeypatch.setattr(tnn.norms, "_partial_transpose_bound",
                            lambda A: loose)
        calls = count_svds(monkeypatch)
        lo, up = spectral_certified_upper(Z, tol=1e-5)
        assert calls
        assert lo <= hopm + SLACK and hopm <= up <= loose[0]
        assert up - lo <= 1e-5

    def test_limitation_sandwich_gap(self):
        sw = nuclear_sandwich(gallery("limitation")["S"])
        assert sw.gap <= 3e-6 * sw.upper


class TestSpectralEnclosure:
    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 5, 6)])
    def test_branch_and_bound_capped_by_flattening(self, rng, shape):
        T = asarray(rng.standard_normal(shape))
        lo, up, method = spectral_enclosure(T, tol=1e-3)
        b_lo, b_up = spectral_certified_upper(T, tol=1e-3)
        assert method == "bnb"
        assert lo == b_lo
        assert abs(up - min(b_up, spectral_flattening_upper(T))) <= SLACK
        assert lo <= up + SLACK

    def test_flattening_tightens_a_loose_branch_and_bound(self, rng):
        T = outer_atom([v / np.linalg.norm(v)
                        for v in (rng.standard_normal(3) for _ in range(3))])
        _, b_up = spectral_certified_upper(T, tol=1e-9, max_evals=1)
        lo, up, method = spectral_enclosure(T, tol=1e-9, max_evals=1)
        assert method == "bnb"
        assert b_up > 1.0 + 1e-3
        assert abs(up - 1.0) <= SLACK
        assert lo <= 1.0 + SLACK

    def test_flattening_past_branch_and_bound_limit(self, rng):
        T = asarray(rng.standard_normal((5, 6, 7)))
        lo, up, method = spectral_enclosure(T)
        assert method == "flattening"
        assert lo == holder_norm(T, np.inf)
        assert up == spectral_flattening_upper(T)
        hopm = spectral_hopm(T).value
        assert lo <= hopm + SLACK
        assert hopm <= up + SLACK

    @pytest.mark.parametrize("shape", [(5, 5, 6), (12, 12, 12)], ids=str)
    def test_rank_one_large_modes_enclosed_on_core(self, shape):
        T = rank_one(np.random.default_rng(1), shape)
        lo, up, method = spectral_enclosure(T, tol=1e-5)
        assert method == "bnb"
        assert up - lo <= 1e-5
        assert lo - SLACK <= 1.0 <= up + SLACK

    @pytest.mark.parametrize("shape, method", [((2, 2, 2), "bnb"),
                                               ((5, 6, 7), "flattening")],
                             ids=["shape0", "shape1"])
    def test_zero_tensor(self, shape, method):
        assert spectral_enclosure(np.zeros(shape)) == (0.0, 0.0, method)


class TestNuclearSandwich:
    @pytest.mark.parametrize("case", range(3))
    def test_witness_in_span_subspace_sets_lower_end(
            self, case, rank_deficient_sandwiches):
        T, sw = rank_deficient_sandwiches[case]
        W = sw.dual_witness
        resid = holder_norm(W - project(basic(()), family_from_tensor(T), W), 2)
        assert resid <= 1e-12 * holder_norm(W, 2)
        assert sw.lower == pytest.approx(
            min(inner(T, W) / sw.witness_spectral_upper, sw.upper), rel=1e-12)

    def test_rank_one_atom(self, rng, monkeypatch):
        def refuse(A):
            raise AssertionError("dictionary LP reached")

        monkeypatch.setattr(tnn.norms, "_dictionary_lp", refuse)
        factors = [v / np.linalg.norm(v)
                   for v in (rng.standard_normal(2) for _ in range(3))]
        sw = nuclear_sandwich(outer_atom(factors))
        assert sw.lower == pytest.approx(1.0, abs=1e-8)
        assert sw.upper == pytest.approx(1.0, abs=1e-8)

    def test_diagonal_three(self):
        T = asarray(sum(outer_atom([e(3, i)] * 3) for i in range(3)))
        sw = nuclear_sandwich(T)
        assert sw.lower - 1e-8 <= 3.0 <= sw.upper + 1e-8
        assert sw.gap <= 0.05

    def test_matrix_matches_trace_norm(self, rng):
        A = rng.standard_normal((3, 4))
        sw = nuclear_sandwich(asarray(A))
        tn = np.linalg.svd(A, compute_uv=False).sum()
        assert sw.lower - 1e-8 <= tn <= sw.upper + 1e-8
        assert sw.gap <= 1e-8

    def test_upper_at_most_l1(self, rng):
        for _ in range(5):
            T = asarray(rng.standard_normal((2, 2, 2)))
            sw = nuclear_sandwich(T)
            assert sw.upper <= holder_norm(T, 1) + 1e-10
            assert sw.lower >= holder_norm(T, 2) - 1e-10

    def test_decomposition_plus_residual_consistent(self, rng):
        T = asarray(rng.standard_normal((2, 2, 2)))
        sw = nuclear_sandwich(T)
        resid = T - decomposition_sum(sw.decomposition)
        reconstructed = sw.decomposition.weight_sum + holder_norm(resid, 1)
        assert sw.upper <= reconstructed + 1e-9

    def test_witness_ratio_supports_lower(self, rng):
        T = asarray(rng.standard_normal((2, 2, 2)))
        sw = nuclear_sandwich(T)
        ratio = inner(T, sw.dual_witness) / sw.witness_spectral_upper
        assert sw.lower >= ratio - 1e-10

    def test_scale_equivariance(self, rng):
        T = rng.standard_normal((2, 2, 2))
        s1 = nuclear_sandwich(asarray(T))
        s2 = nuclear_sandwich(asarray(2.0 * T))
        assert s2.lower == pytest.approx(2.0 * s1.lower, rel=1e-3)
        assert s2.upper == pytest.approx(2.0 * s1.upper, rel=1e-3)


    def test_lower_dominates_every_certified_candidate(self, rng, monkeypatch):
        bounds = []
        original = tnn.norms._witness_bound

        def recording(Z):
            out = original(Z)
            bounds.append((Z, out[0]))
            return out

        monkeypatch.setattr(tnn.norms, "_witness_bound", recording)
        T = asarray(rng.standard_normal((2, 2, 2)))
        sw = nuclear_sandwich(T)
        assert len(bounds) >= 2  # the greedy, polished and LP witnesses
        for i, (Z, ub) in enumerate(bounds):
            assert sw.lower >= inner(T, Z) / ub - 1e-12
            # Each candidate is certified once.
            assert not any(np.array_equal(Z, W) for W, _ in bounds[:i])

    def test_large_modes_certify_with_flattening_bound(self):
        # Full multilinear rank with modes above 4: no core to compress and
        # no branch and bound, so every witness bound is a flattening bound.
        T = np.random.default_rng(0).standard_normal((5, 5, 6))
        sw = nuclear_sandwich(T)
        assert "witness_bound_flattening" in sw.flags
        assert sw.witness_spectral_upper == spectral_flattening_upper(
            sw.dual_witness)
        assert holder_norm(T, 2) - 1e-9 <= sw.lower <= sw.upper

    @pytest.mark.parametrize("shape, ranks", [
        ((5, 5, 6), (1, 1, 1)), ((12, 12, 12), (1, 1, 1)),
        ((3, 3, 3), (1, 2, 1)), ((3, 3, 3), (2, 2, 1))], ids=str)
    def test_squeezed_core_certifies_exactly(self, shape, ranks):
        # A core with at most two modes above size 1 is a matrix: it is
        # sandwiched exactly, and the lifted witness is still bounded by the
        # enclosure and says so.
        rng = np.random.default_rng(3)
        Q = [np.linalg.qr(rng.standard_normal((n, r)))[0]
             for n, r in zip(shape, ranks)]
        core = rng.standard_normal(ranks)
        T = np.einsum("abc,ia,jb,kc->ijk", core, *Q)
        sw = nuclear_sandwich(T)
        assert [f for f in sw.flags if f.startswith("witness_bound_")] == [
            "witness_bound_bnb"]
        nuc = np.linalg.svd(core.reshape(ranks[0], -1),
                            compute_uv=False).sum()
        assert sw.lower - 1e-12 * nuc <= nuc <= sw.upper + 1e-12 * nuc
        assert sw.gap <= 1e-12 * nuc
        np.testing.assert_allclose(decomposition_sum(sw.decomposition), T,
                                   rtol=0, atol=1e-14 * nuc)

    @pytest.mark.parametrize("n", [3, 5])
    def test_low_rank_plus_noise_below_rank_tol(self, n):
        # Orthogonally decomposable with weights 2 and 1.5, so its nuclear
        # norm is 3.5 and its spectral norm 2.  The noise is dropped with the
        # core; the residual terms keep both ends certified for T + E.
        rng = np.random.default_rng(n)
        Q = [np.linalg.qr(rng.standard_normal((n, 2)))[0] for _ in range(3)]
        T = (outer_atom([q[:, 0] for q in Q], 2.0)
             + outer_atom([q[:, 1] for q in Q], 1.5))
        E = 1e-12 * rng.standard_normal(T.shape)
        fro, l1 = holder_norm(E, 2), holder_norm(E, 1)
        sw = nuclear_sandwich(T + E)
        assert sw.lower <= 3.5 + l1 and 3.5 - l1 <= sw.upper
        assert sw.gap <= 1e-9
        lo, up, method = spectral_enclosure(T + E, tol=1e-6)
        assert method == "bnb"
        assert lo <= spectral_hopm(T + E).value <= up
        assert lo <= 2.0 + fro and 2.0 - fro <= up

    # Relative gaps of the fixture's sandwiches when each witness was
    # projected onto T's span subspace instead of sandwiching the core.
    PROJECTED_GAPS = (2.32e-2, 1.45e-2, 8.27e-4)

    @pytest.mark.parametrize("case", range(3))
    def test_rank_deficient_gap_tighter_than_projected(
            self, case, rank_deficient_sandwiches):
        _, sw = rank_deficient_sandwiches[case]
        assert sw.gap / sw.upper <= self.PROJECTED_GAPS[case] / 10

    def test_hopm_runs_only_in_the_greedy_pursuit(self, rng, monkeypatch):
        callers = []
        original = tnn.norms.spectral_hopm

        def recording(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(*args, **kwargs)

        monkeypatch.setattr(tnn.norms, "spectral_hopm", recording)
        sw = nuclear_sandwich(asarray(rng.standard_normal((2, 2, 2))))
        assert "escalated" in sw.flags
        assert callers and set(callers) == {"_greedy_atoms"}

    def test_greedy_takes_one_atom_per_hopm_call(self, monkeypatch):
        calls = []
        original = tnn.norms.spectral_hopm

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(tnn.norms, "spectral_hopm", counting)
        _, T, S = sample_pair((2, 2, 2), (1, 1, 2), frozenset({0, 1}), seed=4)
        atoms = _greedy_atoms(asarray(T + S), 1e-8, 64, 0)
        assert atoms
        assert len(atoms) <= len(calls)

    def test_sign_witnesses_leave_out_the_lightest_atom(self, rng):
        atoms = [tuple(normalize(rng.standard_normal(2)) for _ in range(3))
                 for _ in range(5)]
        weights = np.array([1.0, -0.5, 0.01, 0.8, -0.3])
        full, partial = _sign_witnesses(atoms, weights, (2, 2, 2), [])
        for Z, kept in ((full, (0, 1, 2, 3, 4)), (partial, (0, 1, 3, 4))):
            pairings = [inner(Z, outer_atom(atoms[i])) for i in kept]
            np.testing.assert_allclose(pairings, np.sign(weights[list(kept)]),
                                       atol=1e-9)
        assert abs(inner(partial, outer_atom(atoms[2])) - 1.0) > 1e-3
        assert len(_sign_witnesses(atoms[:1], weights[:1], (2, 2, 2), [])) == 1

    def test_mode_symmetries(self, rng):
        B = rng.standard_normal((2, 2, 3))
        A = B + B.transpose(1, 0, 2)
        assert _mode_symmetries(A) == [(0, 1, 2), (1, 0, 2)]
        assert _mode_symmetries(B) == [(0, 1, 2)]

    def test_symmetric_tensor_gets_a_symmetric_witness(self):
        # The `limitation` S is unchanged by every mode permutation and its
        # sandwich escalates, so the kept witness is averaged over all six.
        S = asarray(gallery("limitation")["S"])
        sw = nuclear_sandwich(S)
        assert "escalated" in sw.flags
        for p in itertools.permutations(range(3)):
            np.testing.assert_allclose(np.transpose(sw.dual_witness, p),
                                       sw.dual_witness, rtol=0, atol=1e-14)
        # The unaveraged candidates reach a relative gap of 2.2e-5 at best.
        assert sw.gap / sw.upper <= 2e-5

    @pytest.mark.parametrize("error, caught", [(ValueError, True),
                                               (FloatingPointError, True),
                                               (KeyError, False)])
    def test_polish_failure_handling(self, rng, monkeypatch, error, caught):
        def failing(*args):
            raise error("polish")

        monkeypatch.setattr(tnn.norms, "_polish_atoms", failing)
        T = asarray(rng.standard_normal((2, 2, 2)))
        if caught:
            sw = nuclear_sandwich(T)
            assert "polish_failed" in sw.flags
            assert sw.lower <= sw.upper
        else:
            with pytest.raises(error):
                nuclear_sandwich(T)


class TestPolishObjective:
    @pytest.mark.parametrize("shape, na", [((2, 3, 4), 3), ((2, 3, 2, 4), 2)])
    def test_gradient_matches_finite_differences(self, rng, shape, na):
        A = rng.standard_normal(shape)
        value_grad = _polish_objective(A, na, 1e-12)
        x = rng.standard_normal(na + na * sum(shape))
        x[:na] = np.abs(x[:na]) + 0.5  # keep the weights away from the kink
        val, grad = value_grad(x, 10.0)
        h = 1e-6
        fd = np.array([(value_grad(x + h * ei, 10.0)[0]
                        - value_grad(x - h * ei, 10.0)[0]) / (2 * h)
                       for ei in np.eye(x.size)])
        np.testing.assert_allclose(grad, fd, rtol=1e-6,
                                   atol=1e-6 * np.max(np.abs(fd)))

    def test_value_matches_atom_sum(self, rng):
        shape, na = (3, 2, 4), 2
        A = rng.standard_normal(shape)
        x = rng.standard_normal(na + na * sum(shape))
        w, rows = x[:na], x[na:].reshape(na, sum(shape))
        atoms = [np.split(r, np.cumsum(shape)[:-1]) for r in rows]
        R = sum(wi * outer_atom([f / np.linalg.norm(f) for f in fs])
                for wi, fs in zip(w, atoms)) - A
        expected = np.sum(np.sqrt(w * w + 1e-12)) + 3.0 * np.sum(R * R)
        val, _ = _polish_objective(A, na, 1e-12)(x, 3.0)
        assert val == pytest.approx(expected, rel=1e-12)


def _dense_l1_refit_value(columns, target):
    """Reference: the inequality-form LP over (w free, u >= |w|, v >= |r|)."""
    N, m = columns.shape
    I_m, I_N = np.eye(m), np.eye(N)
    Z = np.zeros
    A_ub = np.block([
        [I_m, -I_m, Z((m, N))],
        [-I_m, -I_m, Z((m, N))],
        [columns, Z((N, m)), -I_N],
        [-columns, Z((N, m)), -I_N],
    ])
    b_ub = np.concatenate([Z(2 * m), target, -target])
    c = np.concatenate([Z(m), np.ones(m + N)])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub,
                  bounds=[(None, None)] * m + [(0, None)] * (m + N),
                  method="highs")
    assert res.success
    return res.fun


def _l1_value(columns, target, w):
    return np.sum(np.abs(w)) + np.sum(np.abs(target - columns @ w))


class TestL1Refit:
    @pytest.mark.parametrize("N, m", [(8, 1), (8, 3), (27, 5), (64, 12)])
    def test_matches_dense_reference(self, rng, N, m):
        for _ in range(3):
            C = rng.standard_normal((N, m))
            t = C @ rng.standard_normal(m) + 0.3 * rng.standard_normal(N)
            w = _l1_refit(C, t)
            assert _l1_value(C, t, w) == pytest.approx(
                _dense_l1_refit_value(C, t), abs=1e-9)

    def test_memory_stays_linear_in_entries(self, rng):
        shape = (16, 16, 17)  # N = 4352
        C = np.column_stack([
            outer_atom([v / np.linalg.norm(v)
                        for v in map(rng.standard_normal, shape)]).ravel()
            for _ in range(3)])
        t = C @ np.array([3.0, -1.0, 0.5])
        t[rng.choice(t.size, 80, replace=False)] += rng.standard_normal(80)
        tracemalloc.start()
        try:
            w = _l1_refit(C, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        planted = _l1_value(C, t, np.array([3.0, -1.0, 0.5]))
        assert _l1_value(C, t, w) <= planted + 1e-9


def _dense_dictionary(shape):
    """Every grid atom of the dictionary LP as a row, in grid order (the
    first mode's sample index varying slowest)."""
    cols = None
    for F in _lp_grid(shape):
        cols = F if cols is None else np.einsum(
            "ax,by->abxy", cols, F).reshape(len(cols) * len(F), -1)
    return cols


def _dense_dictionary_lp(A):
    """Reference: the grid LP over the whole dense dictionary, as one
    equality-form LP ``[C, -C] x = A`` with ``x >= 0``; returns the optimum
    and the dense dictionary."""
    cols = _dense_dictionary(A.shape)
    res = linprog(np.ones(2 * len(cols)), A_eq=np.hstack([cols.T, -cols.T]),
                  b_eq=A.ravel(), bounds=(0, None), method="highs")
    assert res.success
    return res.fun, cols


def _lp_case(case):
    kind, seed = case
    if kind in ("T+S", "S"):
        _, T, S = sample_weak_pair((2, 2, 2), seed)
        return asarray(T + S if kind == "T+S" else S)
    return asarray(np.random.default_rng(seed).standard_normal(kind))


class TestDictionaryLp:
    """Column generation solves the LP over the whole grid."""

    @pytest.mark.parametrize("case", [("T+S", 0), ("S", 0), ("T+S", 7),
                                      ("S", 7), ((2, 2, 3), 1),
                                      ((2, 2, 2, 2), 2)], ids=str)
    def test_matches_dense_grid_lp(self, case):
        A = _lp_case(case)
        optimum, cols = _dense_dictionary_lp(A)
        atoms, w, y = _dictionary_lp(A)
        assert np.sum(np.abs(w)) == pytest.approx(optimum, rel=1e-9)
        assert inner(A, y) == pytest.approx(optimum, rel=1e-9)
        # y is feasible for the dual of the whole grid's LP.
        assert np.max(np.abs(cols @ y.ravel())) <= 1.0 + 1e-7
        factor_sets = _lp_grid(A.shape)
        for atom in atoms:
            for F, f in zip(factor_sets, atom):
                assert np.any(np.all(F == f, axis=1))
        rebuilt = sum(wi * outer_atom(atom) for wi, atom in zip(w, atoms))
        np.testing.assert_allclose(rebuilt, A, atol=1e-9)

    def test_failed_restricted_lp_brings_in_the_whole_grid(self, monkeypatch):
        A = _lp_case(("S", 0))
        optimum, cols = _dense_dictionary_lp(A)
        original = linprog
        solved = []

        def failing_short_of_the_grid(c, **kwargs):
            res = original(c, **kwargs)
            solved.append(len(c) // 2)
            res.success = res.success and len(c) == 2 * len(cols)
            return res

        monkeypatch.setattr(scipy.optimize, "linprog",
                            failing_short_of_the_grid)
        atoms, w, y = _dictionary_lp(A)
        assert len(solved) == 2 and solved[0] < len(cols) == solved[1]
        assert np.sum(np.abs(w)) == pytest.approx(optimum, rel=1e-9)

    def test_memory_stays_small_at_444(self):
        # The dense 4x4x4 grid has 262 144 atoms of 64 entries.
        A = asarray(np.random.default_rng(3).standard_normal((4, 4, 4)))
        tracemalloc.start()
        try:
            atoms, w, y = _dictionary_lp(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        assert inner(A, y) == pytest.approx(np.sum(np.abs(w)), rel=1e-9)


class TestDualityGap:
    def test_rank_one_equality(self):
        T = outer_atom([e(2, 0)] * 3)
        report = duality_gap_check(T, T)
        assert report["holds"]
        assert report["slack"] == pytest.approx(0.0, abs=1e-4)

    def test_orthogonal_pair(self):
        T = outer_atom([e(2, 0)] * 3)
        S = outer_atom([e(2, 1)] * 3)
        assert duality_gap_check(T, S)["holds"]

    def test_random_pair(self, rng):
        T = asarray(rng.standard_normal((2, 2, 2)))
        S = asarray(rng.standard_normal((2, 2, 2)))
        report = duality_gap_check(T, S)
        assert report["holds"]
        assert report["slack"] >= -1e-10

    def test_large_modes_use_flattening_bound(self, rng):
        T = asarray(rng.standard_normal((5, 6, 7)))
        S = outer_atom([e(n, 0) for n in (5, 6, 7)])
        flattening = min(np.linalg.norm(mode_matricize(T, k), 2)
                         for k in range(3))
        report = duality_gap_check(T, S)
        assert report["spectral_upper"] == flattening
        assert report["holds"]


class TestRestrictedNorm:
    def test_rank_one_span(self):
        T = outer_atom([e(2, 0)] * 3)
        report = restricted_norm_check(T, family_from_tensor(T))
        assert report["ok"]

    def test_projection_never_increases_sigma(self, rng):
        for _ in range(5):
            T = asarray(rng.standard_normal((2, 2, 2)))
            family = family_from_tensor(
                outer_atom(
                    [v / np.linalg.norm(v)
                     for v in (rng.standard_normal(2) for _ in range(3))]
                )
            )
            proj = project(basic(()), family, T)
            assert (spectral_hopm(asarray(proj)).value
                    <= spectral_hopm(T).value + 1e-8)

    def test_rank_deficient_witness_sets_lower_end(
            self, rank_deficient_sandwiches):
        T, _ = rank_deficient_sandwiches[0]
        report = restricted_norm_check(T, family_from_tensor(T))
        assert report["witness_ok"] and report["ok"]
        assert "witness_bound_ok" not in report

    def test_precondition_enforced(self, rng):
        T = asarray(rng.standard_normal((2, 2, 2)))
        family = family_from_tensor(outer_atom([e(2, 0)] * 3))
        with pytest.raises(PreconditionError):
            restricted_norm_check(T, family)

    def test_maximizer_outside_the_span_fails(self, monkeypatch):
        # HOPM's own maximizers are measured: one 0.1 rad outside
        # V_0 = span(e_0) fails the check.
        T = outer_atom([e(2, 0)] * 3)
        tilted = np.array([np.cos(0.1), np.sin(0.1)])
        monkeypatch.setattr(
            tnn.norms, "spectral_hopm",
            lambda A, **kw: SpectralResult(np.cos(0.1),
                                           (tilted, e(2, 0), e(2, 0)), 1, 1))
        report = restricted_norm_check(T, family_from_tensor(T))
        assert not report["maximizer_ok"] and not report["ok"]
        assert report["maximizer_residuals"] == pytest.approx(
            [np.sin(0.1), 0.0, 0.0], abs=1e-15)
        assert report["witness_ok"]
