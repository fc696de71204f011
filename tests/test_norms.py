import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tnn._partial_transpose import PartialTranspose
from tnn.norms import (
    _FINISH_FLOOR,
    _HOPM_SWEEPS,
    SpectralResult,
    _greedy_atoms,
    _hopm_finish,
    _hopm_stack,
    _sign_witness,
)
from tnn.tensor_core import _unit_scale, normalize
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

    def test_vector_is_its_euclidean_norm(self):
        res = spectral_hopm(np.array([3.0, -4.0]))
        assert res.value == 5.0
        np.testing.assert_array_equal(res.maximizers[0], [0.6, -0.8])
        assert (res.starts_used, res.iterations) == (1, 1)

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
        # second-order finish reaches it in a few dozen steps.  A trailing
        # size-1 mode keeps the tensor off the 2 x 2 x n early return.
        res = spectral_hopm(_yuan3_zx(0.5)[..., None])
        assert res.converged
        assert _HOPM_SWEEPS < res.iterations < 200
        assert abs(res.value - 1.0) <= 1e-12

    def test_not_converged_on_sweep_budget(self):
        # A budget below the sweep stage's ends the run before any finish.
        res = spectral_hopm(_yuan3_zx(0.5)[..., None],
                            max_iter=_HOPM_SWEEPS // 2)
        assert res.iterations == _HOPM_SWEEPS // 2
        assert not res.converged
        assert res.value <= 1.0 + SLACK

    @pytest.mark.parametrize("T", [np.ones((2, 2, 3)), np.ones((2, 3)),
                                   np.ones(3), np.zeros((2, 2, 2))],
                             ids=["2x2x3", "matrix", "vector", "zero"])
    def test_starts_checked_where_no_sweep_runs(self, T):
        with pytest.raises(ParameterError):
            spectral_hopm(T, starts=0)


class TestHopmTwoByTwo:
    """On ``2 x 2 x n`` HOPM is the partial-transpose primal step, exact
    where the cap meets it."""

    @given(n=st.integers(2, 7), position=st.integers(0, 2),
           seed=st.integers(0, 2 ** 32 - 1),
           exponent=st.sampled_from([-8, 0, 8]))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_exact_and_tied_to_the_enclosure(self, n, position, seed,
                                             exponent):
        shape = [2, 2]
        shape.insert(position, n)
        A = np.random.default_rng(seed).standard_normal(shape)
        A *= 10.0 ** exponent
        res = spectral_hopm(A)
        assert res.value == spectral_certified_upper(A)[0]
        for x in res.maximizers:
            assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-15)
        assert res.value == pytest.approx(
            multilinear_contract(A, list(res.maximizers)), rel=1e-14)
        assert res.iterations == 1
        sweeps = spectral_hopm(A[..., None]).value
        assert res.value >= sweeps * (1.0 - 1e-15)


def _yuan3_zx(t):
    g = gallery("yuan3", t=t)
    return asarray(np.asarray(g["Z"]) + np.asarray(g["X"]))


def _hopm_value_string(d):
    """einsum string for the form's values at a batch of starts."""
    modes = "abcdefgh"[:d]
    return modes + "," + ",".join("z" + m for m in modes) + "->z"


def _einsum_hopm(A, starts, tol, max_iter=2000):
    """The multi-start HOPM iteration written with one einsum per mode update
    and per value sweep: the reference the unfolding kernel must reproduce.

    Returns the result, every start's final vectors and values, and each
    sweep's stop statistic with its threshold."""
    d = A.ndim
    value_str = _hopm_value_string(d)
    modes = value_str[:d]
    update_strs = [
        modes + "," + ",".join("z" + m for j, m in enumerate(modes) if j != k)
        + "->z" + modes[k] for k in range(d)]
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
    original = tnn.rpca.spectral_enclosure
    tnn.rpca.spectral_enclosure = lambda T, *a, **k: seen.append(T) or original(
        T, *a, **k)
    try:
        tnn.rpca.certify(generate_instance((12, 12, 12), 1, 0.02, m=3, seed=1))
    finally:
        tnn.rpca.spectral_enclosure = original
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
        # The kernel runs on A over the power of two at or below its largest
        # entry, where its stop is relative; so does the reference.
        A = _unit_scale(A)[0]
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


class TestHopmStack:
    """``_hopm_stack`` sweeps a stack of same-shape tensors together, each to
    its own stop, and gives each one ``spectral_hopm``'s result on it
    alone."""

    @given(shape=st.lists(st.integers(2, 6), min_size=3, max_size=4)
           .map(tuple),
           size=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1),
           signs=st.booleans())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_each_tensor_as_alone(self, shape, size, seed, signs):
        rng = np.random.default_rng(seed)
        # Tensors of different scales stop at different sweeps.
        stack = (rng.standard_normal((size, *shape))
                 * 10.0 ** rng.integers(-2, 3, size=size)[
                     (slice(None),) + (None,) * len(shape)])
        if signs:
            stack = np.sign(stack)
        results = _hopm_stack(stack)
        assert len(results) == size
        for A, res in zip(stack, results):
            alone = spectral_hopm(A)
            assert res.value == pytest.approx(alone.value, rel=1e-14)
            assert res.starts_used == alone.starts_used
            assert res.converged == alone.converged
            assert res.iterations == alone.iterations

    def test_exact_two_by_two_path_per_tensor(self, monkeypatch):
        seen = []
        original = PartialTranspose.primal

        def recording(pt):
            attained, vectors, cap = original(pt)
            seen.append(tuple(len(v) for v in vectors))
            return attained, vectors, cap

        monkeypatch.setattr(PartialTranspose, "primal", recording)
        stack = np.random.default_rng(3).standard_normal((3, 2, 5, 2))
        results = _hopm_stack(stack)
        assert seen == [(2, 5, 2)] * 3
        for A, res in zip(stack, results):
            assert res.iterations == 1
            assert res.value == spectral_certified_upper(A)[0]

    def test_direct_and_swept_tensors_mix(self):
        rng = np.random.default_rng(4)
        stack = np.stack([rng.standard_normal((3, 4, 5)), np.zeros((3, 4, 5)),
                          rng.standard_normal((3, 4, 5))])
        first, zero, last = _hopm_stack(stack, max_iter=7)
        assert zero.value == 0.0 and zero.iterations == 0
        for A, res in zip(stack[[0, 2]], (first, last)):
            alone = spectral_hopm(A, max_iter=7)
            assert res.value == alone.value
            assert (res.iterations, res.converged) == (7, False)


def _sign_draw(shape, seed):
    return np.random.default_rng(seed).choice([-1.0, 1.0], shape)


# Sign tensors whose sweeps do not settle within the budget.  At 10 sweeps
# the first two fall to a lower maximum (6^3 by 5.4e-4 relative, 12^3 by
# 2.8e-3); the last settles within 50 sweeps but not within the budget.
BUDGET_DRAWS = [((6, 6, 6), 29), ((12, 12, 12), 46), ((12, 12, 12), 56),
                ((8, 8, 8), 0), ((3, 3, 3), 2), ((3, 3, 3), 0)]


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

    @pytest.mark.parametrize("shape, seed", BUDGET_DRAWS)
    def test_budget_keeps_fifty_sweep_value(self, monkeypatch, shape, seed):
        # The sweeps only pick the basin and the finish converges it, so
        # the shipped budget returns the value that 50 sweeps reach.
        T = _sign_draw(shape, seed)
        res = spectral_hopm(T)
        assert res.iterations > _HOPM_SWEEPS
        monkeypatch.setattr(tnn.norms, "_HOPM_SWEEPS", 50)
        ref = spectral_hopm(T)
        assert abs(res.value - ref.value) <= 1e-12 * ref.value

    @pytest.mark.parametrize("shape, seed", BUDGET_DRAWS[:2])
    def test_ten_sweeps_pick_a_lower_maximum(self, monkeypatch, shape,
                                             seed):
        # These draws keep the test above able to fail: at 10 sweeps the
        # best start still sits in a lower basin when it is handed over.
        T = _sign_draw(shape, seed)
        monkeypatch.setattr(tnn.norms, "_HOPM_SWEEPS", 50)
        ref = spectral_hopm(T).value
        monkeypatch.setattr(tnn.norms, "_HOPM_SWEEPS", 10)
        assert spectral_hopm(T).value < ref * (1.0 - 1e-5)

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


# spectral_certified_upper's (lower, upper) as float.hex on default_rng(0)
# draws of D = 1 to 4 cell coordinates in 1 to 3 fixed modes, and on yuan4's
# Z + X at t = 1/3, whose symmetric cells tie in bound so that ties break by
# push order.  The thresholds lie near 0.99 and 1.01 times the HOPM value.
# Any change to the search order or to the arithmetic of a cell moves them.
PINNED_THRESHOLDS = {
    (2, 3, 4): (2.7538, 2.80943),
    (3, 3, 3): (3.39986, 3.46854),
    (2, 2, 2, 2): (2.99683, 3.05737),
    (4, 4, 4): (3.66494, 3.73898),
    (2, 2, 2, 2, 2): (3.11324, 3.17614),
    (3, 3, 3, 3): (4.26004, 4.3461),
    "yuan4": (0.99, 1.01),
}
PINNED_ENDS = {
    ((2, 3, 4), "tol"):
        ("0x1.640bf2e315bd4p+1", "0x1.6411e8fcf04b5p+1"),
    ((2, 3, 4), "below"):
        ("0x1.640bf2e315bd2p+1", "0x1.b4cb92a9ff84bp+1"),
    ((2, 3, 4), "above"):
        ("0x1.640bf2e315bd3p+1", "0x1.652ba1df13922p+1"),
    ((2, 3, 4), "one_eval"):
        ("0x1.640bf2e315bd2p+1", "0x1.b4cb92a9ff84bp+1"),
    ((2, 3, 4), "budget"):
        ("0x1.640bf2e315bd2p+1", "0x1.640e033c38c2bp+1"),
    ((3, 3, 3), "tol"):
        ("0x1.b793f2dad058cp+1", "0x1.b7a6b8dc08c39p+1"),
    ((3, 3, 3), "below"):
        ("0x1.b793f2dad058ep+1", "0x1.c0b84c0d69e8fp+1"),
    ((3, 3, 3), "above"):
        ("0x1.b793f2dad058cp+1", "0x1.baf6ba67c4188p+1"),
    ((3, 3, 3), "one_eval"):
        ("0x1.b793f2dad058fp+1", "0x1.519a1d12fbda5p+2"),
    ((3, 3, 3), "budget"):
        ("0x1.b793f2dad058dp+1", "0x1.b79573844b718p+1"),
    ((2, 2, 2, 2), "tol"):
        ("0x1.837813ff84293p+1", "0x1.838f359293385p+1"),
    ((2, 2, 2, 2), "below"):
        ("0x1.837813ff84295p+1", "0x1.8d7a6cc935262p+1"),
    ((2, 2, 2, 2), "above"):
        ("0x1.837813ff84293p+1", "0x1.8729e65c1967cp+1"),
    ((2, 2, 2, 2), "one_eval"):
        ("0x1.837813ff84293p+1", "0x1.4dfd85dd6e578p+2"),
    ((2, 2, 2, 2), "budget"):
        ("0x1.837813ff84292p+1", "0x1.8379f40ffbdc2p+1"),
    ((4, 4, 4), "tol"):
        ("0x1.d9d9e15703d8bp+1", "0x1.d9f2920045c12p+1"),
    ((4, 4, 4), "below"):
        ("0x1.d9d9e15703d8fp+1", "0x1.f54a8286d04cap+1"),
    ((4, 4, 4), "above"):
        ("0x1.d9d9e15703d8ep+1", "0x1.de8fd6b102599p+1"),
    ((4, 4, 4), "one_eval"):
        ("0x1.d9d9e15703d8ap+1", "0x1.b193b0d8c1413p+2"),
    ((4, 4, 4), "budget"):
        ("0x1.d9d9e15703d89p+1", "0x1.e210670054239p+1"),
    ((2, 2, 2, 2, 2), "tol"):
        ("0x1.928525eb57e29p+1", "0x1.929fce485f4ddp+1"),
    ((2, 2, 2, 2, 2), "below"):
        ("0x1.928525eb57e2ep+1", "0x1.cdaac9db3cf08p+1"),
    ((2, 2, 2, 2, 2), "above"):
        ("0x1.928525eb57e2ep+1", "0x1.967f18e0b2d07p+1"),
    ((2, 2, 2, 2, 2), "one_eval"):
        ("0x1.928525eb57e2ap+1", "0x1.d5cc70b41a524p+2"),
    ((2, 2, 2, 2, 2), "budget"):
        ("0x1.928525eb57e2bp+1", "0x1.937f03c1d07cep+1"),
    ((3, 3, 3, 3), "tol"):
        ("0x1.13657f921e7dep+2", "0x1.13738e3fb7b79p+2"),
    ((3, 3, 3, 3), "below"):
        ("0x1.13657f921e7e3p+2", "0x1.2d63365e325f4p+2"),
    ((3, 3, 3, 3), "above"):
        ("0x1.13657f921e7e2p+2", "0x1.162581543150fp+2"),
    ((3, 3, 3, 3), "one_eval"):
        ("0x1.13657f921e7e3p+2", "0x1.8344a7ed25466p+3"),
    ((3, 3, 3, 3), "budget"):
        ("0x1.13657f921e7e1p+2", "0x1.43f6a842dced0p+2"),
    ("yuan4", "tol"):
        ("0x1.fffffffffffb8p-1", "0x1.0040000000000p+0"),
    ("yuan4", "below"):
        ("0x1.fffffffffffb8p-1", "0x1.aaaaaaaaaaaaap+0"),
    ("yuan4", "above"):
        ("0x1.fffffffffffbap-1", "0x1.0283f19769bc8p+0"),
    ("yuan4", "one_eval"):
        ("0x1.fffffffffffb8p-1", "0x1.aaaaaaaaaaaaap+0"),
    ("yuan4", "budget"):
        ("0x1.fffffffffffb8p-1", "0x1.0004f0b0edce0p+0"),
}

PINNED_MODES = {
    "tol": lambda name: {"tol": 1e-3},
    "below": lambda name: {"threshold": PINNED_THRESHOLDS[name][0]},
    "above": lambda name: {"threshold": PINNED_THRESHOLDS[name][1]},
    "one_eval": lambda name: {"max_evals": 1},
    "budget": lambda name: {"max_evals": 5000},
}


def pinned_tensor(name):
    if name == "yuan4":
        g = gallery("yuan4", t=1 / 3)
        return g["Z"] + g["X"]
    return np.random.default_rng(0).standard_normal(name)


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

    @pytest.mark.parametrize("shape", [(4, 4, 4), (3, 5, 6), (2, 2, 2, 2),
                                       (3, 3, 3)])
    def test_branch_and_bound_at_any_scale(self, shape):
        # The cells' sigma_max squares the entries; the loop's scaling keeps
        # both ends from overflowing or underflowing.
        T = np.random.default_rng(0).standard_normal(shape)
        T /= np.linalg.norm(T)
        tol = 1e-3
        ref = spectral_certified_upper(T, tol=tol)
        for exponent in range(-200, 201, 40):
            f = 10.0 ** exponent
            ends = spectral_certified_upper(f * T, tol=tol * f)
            for end, want in zip(ends, ref):
                assert end / f == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 3, 3), (3, 4, 5),
                                       (4, 4, 4), (2, 3, 4), (2, 2, 2, 3),
                                       (3, 3, 3, 3)], ids=str)
    def test_lower_end_is_a_finished_maximum(self, shape):
        # The lower end is the cells' best point finished by BFGS, and the
        # top open cell's centre finished too where its bound leaves more
        # than tol: (3, 4, 5) seed 2 at 1.01x reaches HOPM's maximum only
        # from that cell.
        for seed in range(3):
            T = np.random.default_rng([seed, *shape]).standard_normal(shape)
            hopm = spectral_hopm(T, starts=64).value
            for threshold in (None, 0.99 * hopm, 1.01 * hopm):
                lo, _ = spectral_certified_upper(T, tol=1e-3,
                                                 threshold=threshold)
                assert lo >= hopm * (1.0 - 1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_top_cell_centre_where_the_form_vanishes(self, seed):
        # e0 (x) e1 (x) M + e1 (x) e0 (x) N: the four first cells tie, the
        # top one is face (0, 0), and the form is zero at its centre.  Its
        # finish must not start there; the norm is max(|M|, |N|), attained
        # at the centres of faces (0, 1) and (1, 0).
        rng = np.random.default_rng(seed)
        M, N = rng.standard_normal((2, 3, 3))
        T = (np.einsum("i,j,kl->ijkl", e(2, 0), e(2, 1), M)
             + np.einsum("i,j,kl->ijkl", e(2, 1), e(2, 0), N))
        norm = max(np.linalg.norm(M, 2), np.linalg.norm(N, 2))
        for kw in ({"max_evals": 1}, {"threshold": 0.5 * norm}):
            lo, up = spectral_certified_upper(T, **kw)
            assert lo == pytest.approx(norm, rel=1e-12)
            assert up >= lo

    @pytest.mark.parametrize("name, mode", list(PINNED_ENDS),
                             ids=[f"{n}-{m}" for n, m in PINNED_ENDS])
    def test_pinned_ends(self, name, mode):
        lo, up = spectral_certified_upper(pinned_tensor(name),
                                          **PINNED_MODES[mode](name))
        assert (lo.hex(), up.hex()) == PINNED_ENDS[name, mode]

    def test_prices_each_cell_point_once(self, monkeypatch):
        # The first batch prices each face's centre and 2^D corners; a later
        # one only its parents' two child centres and the 2^(D-1) corners on
        # each split plane, which the children share.
        T = np.random.default_rng(0).standard_normal((4, 4, 4))
        D, faces, batch = 3, 4, tnn.norms._BNB_BATCH
        calls = count_cell_batches(monkeypatch)
        spectral_certified_upper(T, tol=1e-3)
        assert calls[0] == faces * (1 + 2 ** D)
        parents = [c // (2 + 2 ** (D - 1)) for c in calls[1:]]
        assert [p * (2 + 2 ** (D - 1)) for p in parents] == calls[1:]
        assert all(1 <= p <= batch for p in parents)
        # max_evals still counts 1 + 2^D per cell: a budget of the nominal
        # count after k batches stops after batch k.
        nominal = np.cumsum([faces] + [2 * p for p in parents]) * (1 + 2 ** D)
        assert sum(calls) <= 0.4 * nominal[-1]
        for k in (1, 2, len(calls) // 2):
            calls.clear()
            spectral_certified_upper(T, tol=1e-3,
                                     max_evals=int(nominal[k - 1]))
            assert len(calls) == k

    def test_cached_tables_hold_no_cell_points(self):
        # The cache keeps what depends on the fixed-mode sizes only.  The
        # first batch's lifted points grow with faces x 2^D (about 134 MB
        # for six fixed modes of 4): each call lifts its own and drops them.
        T = np.random.default_rng(1).standard_normal((3, 2, 3, 4))
        spectral_certified_upper(T, tol=1e-3)
        offsets, scatter, signs, moves, gather, faces, cols = \
            tnn.norms._cell_tables((3, 2))
        assert signs.shape == (1 + 2 ** 3, 3) and faces.shape == (6, 2)
        tables = [offsets, *scatter, signs, moves, gather, faces]
        assert not any(t.flags.writeable for t in tables)
        assert all(t.shape[:2] != (len(faces), len(signs)) for t in tables)

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


def count_cell_batches(monkeypatch):
    """Patch the branch and bound's ``sigma_max`` kernel to record the
    number of matrices it is passed at each call; it makes one call per
    batch of cells (on inputs of up to 32 MB)."""
    calls = []
    kernel = tnn.norms._sigma_max

    def counting(X):
        calls.append(len(X))
        return kernel(X)

    monkeypatch.setattr(tnn.norms, "_sigma_max", counting)
    return calls


def two_peak_witness():
    """A 2 x 2 x 2 dual witness of the weak recipe's seed-26 ``T + S``, as an
    earlier sandwich returned it: its two local maxima over the first mode's
    circle, 1.0024102 and 1.0023841, are closer than a 64-point grid
    resolves them."""
    return np.array([-0.5788825307023878, -0.7651821946919759,
                     -0.4601132015365259, 0.5980758448927118,
                     0.3749110180051184, -0.47899575001196454,
                     -0.8756725710711599, -0.4379087452835284]).reshape(2, 2, 2)


class TestSigmaMaxKernel:
    @pytest.mark.parametrize("p, q", [(2, 2), (3, 3), (4, 4), (5, 6), (6, 5)])
    def test_matches_lapack(self, p, q):
        rng = np.random.default_rng(p * 10 + q)
        X = rng.standard_normal((200, p, q))
        # Rank-one and all-zero blocks ride along.
        X[0] = np.outer(rng.standard_normal(p), rng.standard_normal(q))
        X[1] = 0.0
        X[2] = np.outer(np.eye(p)[0], np.eye(q)[-1])
        want = np.linalg.svd(X, compute_uv=False)[:, 0]
        got = tnn.norms._sigma_max(X)
        assert got[1] == 0.0
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


class TestModeSingularValues:
    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 3, 3), (4, 4, 4),
                                       (2, 2, 5), (2, 3, 4), (5, 2, 2),
                                       (2, 2, 2, 2), (3, 2, 3, 2),
                                       (2, 3, 4, 5)], ids=str)
    def test_equal_the_per_flattening_svd(self, shape):
        # Bit for bit: the flattenings of one shape are factored in one
        # stacked SVD, which must give each the floats it gets alone.
        for seed in range(4):
            rng = np.random.default_rng([seed, *shape])
            A = rng.standard_normal(shape)
            if seed % 2:
                A = outer_atom([rng.standard_normal(n) for n in shape])
            got = tnn.norms._flattening_svds(A)
            assert len(got) == len(shape)
            for k in range(len(shape)):
                want = np.linalg.svd(mode_matricize(A, k), compute_uv=False)
                assert got[k].tobytes() == want.tobytes()


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
        calls = count_cell_batches(monkeypatch)
        lo, up = spectral_certified_upper(T, tol=1e-9, threshold=threshold)
        assert calls == []
        assert up <= threshold if decided == "upper" else lo > threshold

    def test_several_maximizers_close_on_the_higher_one(self, monkeypatch):
        Z = two_peak_witness()
        hopm = spectral_hopm(Z, starts=64).value
        calls = count_cell_batches(monkeypatch)
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
        # The branch and bound runs on Z over a power of two near its
        # largest entry; the stub returns the primal step's values there.
        scaled, scale = _unit_scale(Z)
        attained, vectors, cap = PartialTranspose(scaled).primal()
        loose = (attained, vectors, cap + 1e-3) if missed == "cap" else (
            attained - 1e-3, vectors, cap)
        monkeypatch.setattr(PartialTranspose, "primal", lambda pt: loose)
        calls = count_cell_batches(monkeypatch)
        lo, up = spectral_certified_upper(Z, tol=1e-5)
        assert calls
        assert lo <= hopm + SLACK and hopm <= up <= loose[2] * scale
        assert up - lo <= 1e-5

    def test_limitation_sandwich_gap(self):
        g = gallery("limitation")
        for A in (g["S"], g["T"] + g["S"]):
            sw = nuclear_sandwich(A)
            assert sw.gap <= 1e-8 * sw.upper


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
        hopm = spectral_hopm(T).value
        assert lo == max(holder_norm(T, np.inf), hopm)
        assert up == spectral_flattening_upper(T)
        assert hopm <= up + SLACK

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", [(5, 5, 6), (5, 6, 7), (6, 6, 6)],
                             ids=str)
    def test_flattening_lower_end_is_the_hopm_value(self, shape, seed):
        # Past the branch and bound's limit the largest entry is raised to
        # the multi-start HOPM value, at every caller.
        T = np.random.default_rng(seed).standard_normal(shape)
        lo, up, method = spectral_enclosure(T)
        assert method == "flattening"
        assert lo == max(holder_norm(T, np.inf), spectral_hopm(T).value)
        assert lo <= up

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

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_square_matrix_is_not_inverted(self, n):
        # The lower end is LAPACK's sigma_1 of A, the flattening cap sigma_1
        # of A^T, which can be one ulp lower; the rounding slack covers it.
        for seed in range(50):
            A = np.random.default_rng(seed).standard_normal((n, n))
            lo, up, method = spectral_enclosure(A)
            assert method == "bnb"
            assert lo <= up, (seed, lo, up)


# nuclear_sandwich's (lower, upper) as float.hex: default_rng(0) draws on
# the exact 2 x 2 x n program (the size-n mode last or in the middle) and the
# greedy 3 x 3 x 3 path, and sample_pair's T and S, rank one and sandwiched
# through their core, and T + S, on the program.
PINNED_SANDWICHES = {
    "(2, 2, 2)": ("0x1.4dfd2393c1291p+1", "0x1.4dfd2393c140fp+1"),
    "(2, 2, 3)": ("0x1.bff47fc2fefd4p+1", "0x1.bff47fc2ff015p+1"),
    "(2, 2, 4)": ("0x1.8cfeefbbb0af5p+2", "0x1.8cfeefbbb0b3bp+2"),
    "(2, 4, 2)": ("0x1.8d83185bcacf1p+2", "0x1.8d83185bcad7cp+2"),
    "(3, 3, 3)": ("0x1.594d4aac66ab8p+2", "0x1.2198448edf3a8p+3"),
    "pair0-T": ("0x1.ff7f6e1fbcb85p+0", "0x1.ff7f6e1fbcb97p+0"),
    "pair0-S": ("0x1.490b6321ee3e3p-2", "0x1.490b6321ee3ecp-2"),
    "pair0-T+S": ("0x1.28e123741c23bp+1", "0x1.28e123741c246p+1"),
    "pair1-T": ("0x1.6906e9458da78p+1", "0x1.6906e9458da7ap+1"),
    "pair1-S": ("0x1.24e1fe92b62a8p+0", "0x1.24e1fe92b62b1p+0"),
    "pair1-T+S": ("0x1.fb77e88ee8bc8p+1", "0x1.fb77e88ee8bf2p+1"),
    "pair2-T": ("0x1.602164d7ba2dbp-1", "0x1.602164d7ba2dcp-1"),
    "pair2-S": ("0x1.b7dc325b0ee98p+0", "0x1.b7dc325b0eea0p+0"),
    "pair2-T+S": ("0x1.33f6726376001p+1", "0x1.33f6726376006p+1"),
}


def pinned_sandwich_tensor(name):
    if name.startswith("pair"):
        seed, part = int(name[4]), name[6:]
        _, T, S = sample_pair((2, 2, 2), (1, 1, 2), (0, 1), seed)
        return {"T": T, "S": S, "T+S": T + S}[part]
    shape = tuple(int(n) for n in name.strip("()").split(","))
    return np.random.default_rng(0).standard_normal(shape)


class TestNuclearSandwich:
    @pytest.mark.parametrize("name", list(PINNED_SANDWICHES))
    def test_pinned_sandwich_ends(self, name):
        # Bit for bit: a change meant to keep every float keeps these.
        sw = nuclear_sandwich(pinned_sandwich_tensor(name))
        assert (sw.lower.hex(), sw.upper.hex()) == PINNED_SANDWICHES[name]

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
        # A rank-one tensor is sandwiched exactly on its core, before any
        # program of full multilinear rank.
        def refuse(pt):
            raise AssertionError("exact 2x2xn program reached")

        monkeypatch.setattr(PartialTranspose, "program", refuse)
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

    @pytest.mark.parametrize("tail", [[9e-15] * 49, [1e-15]],
                             ids=["50x50", "2x2"])
    def test_matrix_upper_counts_every_singular_value(self, tail):
        # The nuclear norm of diag(1, tail) is 1 + sum(tail), exactly in
        # rationals; the upper end may not drop the small values.
        sw = nuclear_sandwich(np.diag([1.0] + tail))
        exact = 1 + sum(map(Fraction, tail))
        assert sw.upper >= float(exact)
        assert sw.lower <= sw.upper

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
        # The enclosure certifies one witness: the exact program's on
        # 2 x 2 x n, the greedy sign witness elsewhere.  The scaled base is
        # certified by the flattening bound.
        for shape in ((2, 2, 2), (3, 3, 3)):
            bounds.clear()
            T = asarray(rng.standard_normal(shape))
            sw = nuclear_sandwich(T)
            assert len(bounds) == 1, shape
            bounds.append((T, spectral_flattening_upper(T)))
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

    @staticmethod
    def _hopm_callers(monkeypatch):
        callers = []
        original = tnn.norms.spectral_hopm

        def recording(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(*args, **kwargs)

        monkeypatch.setattr(tnn.norms, "spectral_hopm", recording)
        return callers

    def test_hopm_runs_only_in_the_greedy_pursuit(self, rng, monkeypatch):
        callers = self._hopm_callers(monkeypatch)
        nuclear_sandwich(asarray(rng.standard_normal((3, 3, 3))))
        assert callers and set(callers) == {"_greedy_atoms"}

    def test_two_by_two_sandwich_runs_no_greedy_pursuit(self, rng,
                                                        monkeypatch):
        # Both ends and the atoms come from the exact program.
        callers = self._hopm_callers(monkeypatch)

        def refuse(*args):
            raise AssertionError("greedy pursuit reached")

        monkeypatch.setattr(tnn.norms, "_greedy_atoms", refuse)
        sw = nuclear_sandwich(asarray(rng.standard_normal((2, 2, 3))))
        assert callers == []
        assert sw.decomposition.atoms

    def test_greedy_takes_one_atom_per_hopm_call(self, monkeypatch):
        calls = []
        original = tnn.norms.spectral_hopm

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(tnn.norms, "spectral_hopm", counting)
        _, T, S = sample_pair((2, 2, 2), (1, 1, 2), frozenset({0, 1}), seed=4)
        atoms, _, _ = _greedy_atoms(asarray(T + S))
        assert atoms
        assert len(atoms) <= len(calls)

    @pytest.mark.parametrize("shape", [(3, 3, 3), (2, 2, 2), (2, 3, 4),
                                       (2, 2, 2, 2)], ids=str)
    def test_greedy_keeps_its_last_least_squares_refit(self, shape):
        # The columns are the atoms' outer products and the weights the
        # least-squares fit to T over them, bit for bit.
        for seed in range(5):
            A = np.random.default_rng(seed).standard_normal(shape)
            atoms, C, weights = _greedy_atoms(A)
            assert C.shape == (A.size, len(atoms))
            for column, factors in zip(C.T, atoms):
                np.testing.assert_array_equal(column,
                                              outer_atom(factors).ravel())
            refit, *_ = np.linalg.lstsq(C, A.ravel(), rcond=None)
            np.testing.assert_array_equal(weights, refit)

    def test_greedy_sandwich_at_any_scale(self):
        # The cut of negligible weights is relative: at 1e-13 an absolute
        # cut of 1e-12 dropped every atom.  The pursuit runs at unit scale,
        # so HOPM's stop rule, absolute below 1, does not move the upper end
        # with the scale.
        T = np.random.default_rng(0).standard_normal((3, 3, 3))
        unit = nuclear_sandwich(T).upper
        for exponent in range(-100, 101):
            A = 10.0 ** exponent * T
            sw = nuclear_sandwich(A)
            dec = sw.decomposition
            assert dec.atoms, exponent
            assert sw.upper <= (dec.weight_sum
                                + holder_norm(A - decomposition_sum(dec), 1)
                                + 1e-9 * sw.upper), exponent
            assert sw.upper / 10.0 ** exponent == pytest.approx(
                unit, rel=1e-8), exponent

    def test_sign_witness_ridges_a_singular_gram(self):
        # Two equal columns make the Gram matrix singular: the ridge takes
        # over and says so.
        column = outer_atom([e(2, 0), e(2, 1), normalize(np.ones(2))]).ravel()
        C = np.column_stack([column, column])
        flags = []
        Z = _sign_witness(C, np.array([1.0, 2.0]), (2, 2, 2), flags)
        assert flags == ["witness_gram_ridged"]
        assert Z.shape == (2, 2, 2) and np.all(np.isfinite(Z))


def _random_2x2xn(seed, n, perm):
    """A seeded Gaussian ``2 x 2 x n`` tensor with its modes permuted."""
    return np.random.default_rng(seed).standard_normal((2, 2, n)).transpose(
        perm)


def _two_by_two_draw(kind, seed, n, perm, exponent):
    """A seeded ``2 x 2 x n`` tensor of one of three kinds, its modes
    permuted and scaled by ``10^exponent``: Gaussian, orthogonally
    decomposable (two atoms with orthonormal factors in every mode) or the
    sum of three Gaussian rank-one atoms."""
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        T = rng.standard_normal((2, 2, n))
    elif kind == "odeco":
        Q = [np.linalg.qr(rng.standard_normal((m, 2)))[0] for m in (2, 2, n)]
        T = sum(outer_atom([q[:, i] for q in Q], w)
                for i, w in enumerate(rng.standard_normal(2)))
    else:
        T = sum(outer_atom([rng.standard_normal(m) for m in (2, 2, n)])
                for _ in range(3))
    return 10.0 ** exponent * T.transpose(perm)


_two_by_two_draws = st.builds(
    _two_by_two_draw, kind=st.sampled_from(["gaussian", "odeco", "rank3"]),
    seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 7),
    perm=st.permutations(range(3)), exponent=st.floats(-8.0, 8.0))


class TestExactTwoByTwoSandwich:
    """The exact program for 2 x 2 x n sandwiches
    (``PartialTranspose.program``)."""

    @given(T=_two_by_two_draws)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_program_atoms_attain_the_upper_end(self, T):
        # The atoms come from the program's own dual point: they rebuild T,
        # weigh no more than the upper end, and with their residual bound it.
        sw = nuclear_sandwich(T)
        dec = sw.decomposition
        residual = T - decomposition_sum(dec)
        assert holder_norm(residual, 2) <= 1e-12 * holder_norm(T, 2)
        assert dec.weight_sum <= sw.upper * (1.0 + 1e-12)
        assert sw.upper <= (dec.weight_sum
                            + holder_norm(residual, 1)) * (1.0 + SLACK)

    @given(T=_two_by_two_draws)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_search_takes_at_most_twenty_steps(self, T):
        # Each step of the search is one SVD of a 4 x n matrix.
        shapes = []
        original = np.linalg.svd

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        program = PartialTranspose.program

        def counted(pt):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(np.linalg, "svd", recording)
                return program(pt)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PartialTranspose, "program", counted)
            nuclear_sandwich(T)
        steps = [s for s in shapes if s[0] == 4]
        assert steps and len(steps) <= 20

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 7),
           perm=st.permutations(range(3)), exponent=st.floats(-8.0, 8.0))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_closes_and_stays_in_the_norm_bounds(self, seed, n, perm,
                                                 exponent):
        # n above 4 leaves a mode rank-deficient: the program runs on the
        # 2 x 2 x 4 core.
        T = 10.0 ** exponent * _random_2x2xn(seed, n, perm)
        sw = nuclear_sandwich(T)
        assert sw.lower <= sw.upper
        assert sw.gap <= 1e-8 * sw.upper
        assert holder_norm(T, 2) <= sw.lower * (1.0 + SLACK)
        assert sw.upper <= holder_norm(T, 1) * (1.0 + SLACK)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 7),
           perm=st.permutations(range(3)))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_brackets_an_orthogonally_decomposable_norm(self, seed, n, perm):
        # Orthonormal factors in every mode: the nuclear norm is the sum of
        # the weights' magnitudes.
        rng = np.random.default_rng(seed)
        Q = [np.linalg.qr(rng.standard_normal((m, 2)))[0] for m in (2, 2, n)]
        weights = rng.standard_normal(2)
        T = sum(outer_atom([q[:, i] for q in Q], w)
                for i, w in enumerate(weights)).transpose(perm)
        nuc = float(np.sum(np.abs(weights)))
        sw = nuclear_sandwich(T)
        assert sw.lower <= nuc * (1.0 + SLACK)
        assert nuc <= sw.upper * (1.0 + SLACK)

    @pytest.mark.parametrize("seed", [26, 60])
    def test_two_peak_witnesses_close_on_the_program_cap(self, seed,
                                                         monkeypatch):
        # A witness with two maxima equal to about 1e-10 can leave the
        # partial-transpose cap's primal step with its multiplier off, and
        # the enclosure 1e-10 to 4e-10 loose.  The program's own multiplier
        # closes such a witness: here the enclosure is widened by 1e-10.
        _, T, S = sample_weak_pair((2, 2, 2), seed)
        sw = nuclear_sandwich(T + S)
        assert sw.gap <= 1e-12 * sw.upper
        original = tnn.norms._witness_bound

        def loose(Z):
            bound, how = original(Z)
            return bound * (1.0 + 1e-10), how

        monkeypatch.setattr(tnn.norms, "_witness_bound", loose)
        sw = nuclear_sandwich(T + S)
        assert sw.gap <= 1e-12 * sw.upper
        assert "witness_bound_pt_dual" in sw.flags

    def test_program_cap_bounds_its_witness(self):
        for seed in range(10):
            A = _random_2x2xn(seed, 3, (2, 0, 1))
            Z, cap, *_ = PartialTranspose(A).program()
            assert spectral_hopm(Z, starts=64).value <= cap
            assert cap <= 1.0 + 1e-12

    @pytest.mark.parametrize("exponent", range(-150, 151, 10))
    def test_any_scale(self, exponent):
        # A tolerance relative to the tensor: the enclosure's is absolute.
        T = 10.0 ** exponent * _random_2x2xn(0, 3, (0, 1, 2))
        lo, up, method = spectral_enclosure(
            T, tol=1e-10 * holder_norm(T, 2))
        assert method == "bnb"
        assert lo <= up and up - lo <= 1e-8 * up
        sw = nuclear_sandwich(T)
        assert sw.lower <= sw.upper and sw.gap <= 1e-8 * sw.upper


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
