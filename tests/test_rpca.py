from functools import reduce

import numpy as np
import pytest

import tnn
import tnn.rpca
import tnn.subspace
from tnn import (
    CertificateInfeasibleError,
    ConvergenceError,
    EntrySupport,
    ModeFamily,
    ModeSubspace,
    ParameterError,
    RpcaInstance,
    asarray,
    basic,
    certify,
    concentration_trial,
    default_batches,
    default_lambda,
    family_from_tensor,
    generate_instance,
    golfing_certificate,
    holder_norm,
    incoherence_profile,
    neumann_certificate,
    operator_norm_chain,
    outer_atom,
    solve_matrix_rpca,
    spectral_hopm,
    support_project,
)
from tnn.rpca import _factor_rows, _sampling_norms, _sigma_max, _svt
from conftest import e


class TestDefaults:
    def test_lambda(self):
        assert default_lambda((12, 12, 12)) == pytest.approx(1.0 / np.sqrt(12))
        assert default_lambda((40, 40)) == pytest.approx(1.0 / np.sqrt(40))

    def test_batches(self):
        assert default_batches((12, 12, 12)) == int(np.ceil(2 * np.log(12)))
        assert default_batches((2, 2)) >= 1


class TestGenerateInstance:
    def test_reproducible(self):
        a = generate_instance((8, 8, 8), 1, 0.05, m=3, seed=4)
        b = generate_instance((8, 8, 8), 1, 0.05, m=3, seed=4)
        assert np.array_equal(a.L, b.L)
        assert np.array_equal(a.S, b.S)
        assert np.array_equal(a.support.mask, b.support.mask)

    def test_support_is_mask_intersection(self):
        inst = generate_instance((8, 8, 8), 1, 0.1, m=3, seed=2)
        combined = np.ones(inst.shape, dtype=bool)
        for b in inst.batch_masks:
            combined &= b.mask
        assert np.array_equal(inst.support.mask, combined)

    def test_single_batch_support_equals_mask(self):
        inst = generate_instance((8, 8, 8), 1, 0.1, m=1, seed=2)
        assert len(inst.batch_masks) == 1
        assert np.array_equal(inst.support.mask, inst.batch_masks[0].mask)

    def test_corruption_rate_matches_rho(self):
        rates = []
        for seed in range(1, 11):
            inst = generate_instance((10, 10, 10), 1, 0.05, m=3, seed=seed)
            rates.append(inst.support.count / inst.support.mask.size)
        assert np.mean(rates) == pytest.approx(0.05, abs=0.015)

    def test_sign_tensor(self):
        inst = generate_instance((8, 8, 8), 1, 0.1, m=2, seed=0)
        assert set(np.unique(inst.E)) <= {-1.0, 0.0, 1.0}
        assert np.array_equal(inst.E, np.sign(inst.S))
        assert np.array_equal(inst.E != 0, inst.support.mask)

    def test_rank_and_observation(self):
        inst = generate_instance((8, 8, 8), 2, 0.05, seed=1)
        fam = family_from_tensor(asarray(inst.L))
        assert all(s.dim == 2 for s in fam.subspaces)
        assert np.allclose(inst.M, inst.L + inst.S)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            generate_instance((4, 4, 4), 5, 0.1)
        with pytest.raises(ParameterError):
            generate_instance((4, 4, 4), 1, 1.0)
        with pytest.raises(ParameterError):
            generate_instance((4, 4, 4), 1, 0.1, factor_style="cauchy")
        with pytest.raises(ParameterError):
            generate_instance((4, 4, 4), 1, 0.1, magnitude_range=(2.0, 0.5))


class TestIncoherenceProfile:
    def test_spiky_rank_one_is_maximally_coherent(self):
        L = outer_atom([e(4, 0)] * 3)
        prof = incoherence_profile(asarray(L))
        assert prof.r0 == 1
        assert prof.u0 == pytest.approx(4.0)

    def test_spread_rank_one_is_flat(self):
        inst = generate_instance((8, 8, 8), 1, 0.0, seed=0)
        prof = incoherence_profile(asarray(inst.L))
        assert prof.u0 == pytest.approx(1.0, abs=1e-10)

    def test_slack_structure(self):
        inst = generate_instance((12, 12, 12), 1, 0.0, seed=1)
        prof = incoherence_profile(asarray(inst.L), rho=0.02)
        assert set(prof.assumption_slacks) == {"rank", "witness_inf"}
        lhs, rhs = prof.assumption_slacks["rank"]
        assert lhs == 1
        assert rhs > 0

    def test_zero_input_rejected(self):
        from tnn import PreconditionError

        with pytest.raises(PreconditionError):
            incoherence_profile(np.zeros((3, 3, 3)))


class TestGolfing:
    def test_support_entries_never_touched(self):
        inst = generate_instance((12, 12, 12), 1, 0.02, m=3, seed=1)
        from tnn import find_z_witness

        Z = find_z_witness(asarray(inst.L))
        D1, state = golfing_certificate(inst, Z)
        on_support = support_project(inst.support, D1)
        assert np.max(np.abs(np.asarray(on_support))) == 0.0

    def test_residuals_strictly_decreasing(self):
        from tnn import find_z_witness

        for seed in (1, 2, 3):
            inst = generate_instance((10, 10, 10), 1, 0.02, m=3, seed=seed)
            Z = find_z_witness(asarray(inst.L))
            _, state = golfing_certificate(inst, Z)
            res = state.residuals_2
            assert all(res[j + 1] < res[j] for j in range(len(res) - 1))

    def test_first_step_closed_form(self):
        from tnn import find_z_witness

        inst = generate_instance((8, 8, 8), 1, 0.05, m=2, seed=5)
        Z = np.asarray(find_z_witness(asarray(inst.L)))
        _, state = golfing_certificate(inst, Z)
        scale = 1.0 / (1.0 - state.phi)
        expected = scale * np.asarray(
            support_project(inst.batch_masks[0].complemented(), Z)
        )
        assert np.allclose(np.asarray(state.Z_seq[1]), expected, atol=1e-14)

    def test_empty_support_converges_fast(self):
        from tnn import find_z_witness

        inst = generate_instance((8, 8, 8), 1, 0.0, m=2, seed=3)
        Z = np.asarray(find_z_witness(asarray(inst.L)))
        D1, state = golfing_certificate(inst, Z)
        # With no corruption every batch complement is the full space, so one
        # step already reproduces Z on the span subspace.
        assert state.residuals_2[0] == pytest.approx(0.0, abs=1e-10)


class TestNeumann:
    def test_support_identity(self):
        inst = generate_instance((12, 12, 12), 1, 0.02, m=3, seed=1)
        lam = default_lambda(inst.shape)
        D2, delta, terms = neumann_certificate(inst, lam=lam)
        resid = support_project(inst.support, D2) - lam * np.asarray(
            support_project(inst.support, inst.E)
        )
        assert holder_norm(asarray(np.asarray(resid)), np.inf) <= 1e-8
        assert delta < 1.0
        assert terms <= 200

    def test_orthogonal_to_span(self):
        from tnn import basic, project

        inst = generate_instance((10, 10, 10), 1, 0.02, m=3, seed=2)
        D2, _, _ = neumann_certificate(inst)
        fam = family_from_tensor(asarray(inst.L))
        inside = project(basic(()), fam, asarray(D2))
        assert holder_norm(asarray(np.asarray(inside)), 2) <= 1e-10

    def test_empty_support_gives_zero(self):
        inst = generate_instance((8, 8, 8), 1, 0.0, m=2, seed=0)
        D2, delta, _ = neumann_certificate(inst)
        assert np.allclose(D2, 0.0)
        assert delta == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("shape", [(8, 8, 8), (10, 9, 8), (2, 2, 2)])
    def test_one_projection_per_term_matches_two(self, shape):
        # The series' terms stay zero off I(S), so projecting them onto I(S)
        # before p_L as well changes nothing.
        inst = generate_instance(shape, 1, 0.1, m=2, seed=1)
        D2, delta, terms = neumann_certificate(inst)
        lam = default_lambda(inst.shape)
        p_L, angle = inst._span
        sup = inst.support
        w = support_project(sup, inst.E)
        acc, ref_terms = w.copy(), 1
        cutoff = 1e-12 * (1.0 - delta) / lam
        for _ in range(200):
            w = support_project(sup, p_L(support_project(sup, w)))
            acc = acc + w
            ref_terms += 1
            if holder_norm(w, 2) <= cutoff:
                break
        assert np.array_equal(D2, lam * (acc - p_L(acc)))
        assert delta == angle ** 2
        assert terms == ref_terms

    def test_divergent_contraction_detected(self):
        L = outer_atom([e(2, 0)] * 3)
        support = EntrySupport.from_indices((2, 2, 2), [(0, 0, 0)])
        S = np.asarray(support_project(support, np.ones((2, 2, 2))))
        inst = RpcaInstance(np.asarray(L), S, np.sign(S), support, 0.5,
                            (support,), 0)
        with pytest.raises(CertificateInfeasibleError):
            neumann_certificate(inst)


def _random_family(rng, shape, ranks):
    return ModeFamily(tuple(
        ModeSubspace(n, np.linalg.qr(rng.standard_normal((n, r)))[0])
        for n, r in zip(shape, ranks)
    ))


def _tensor_with_family(family, rng):
    """A generic tensor whose mode spans are exactly the family's."""
    out = rng.standard_normal(tuple(s.dim for s in family.subspaces))
    for k, sub in enumerate(family.subspaces):
        out = np.moveaxis(np.tensordot(sub.basis, out, axes=(1, k)), 0, k)
    return out


RANKED_FAMILIES = [((3, 4, 5), (2, 1, 2)), ((2, 3, 2, 3), (1, 2, 2, 2))]


class TestKroneckerRowNorms:
    """The closed forms from row gathers of ``Q = U_1 (x) ... (x) U_d``
    against ``operator_norm_chain``'s dense path."""

    @pytest.mark.parametrize("shape,ranks", RANKED_FAMILIES)
    def test_rows_are_rows_of_the_kronecker_factor(self, shape, ranks):
        rng = np.random.default_rng(11)
        family = _random_family(rng, shape, ranks)
        mask = rng.random(shape) < 0.4
        Q = reduce(np.kron, [s.basis for s in family.subspaces])
        rows = _factor_rows(family, mask)
        assert rows.shape == (int(mask.sum()), int(np.prod(ranks)))
        assert np.allclose(rows, Q[np.flatnonzero(mask)], atol=1e-15)

    @pytest.mark.parametrize("shape,ranks", RANKED_FAMILIES)
    @pytest.mark.parametrize("q", [0.3, 0.8])
    def test_closed_forms_match_dense_chains(self, shape, ranks, q):
        rng = np.random.default_rng(12)
        family = _random_family(rng, shape, ranks)
        span = (basic(()), family)
        mask = rng.random(shape) < q
        sup = EntrySupport(shape, mask)

        angle = _sigma_max(_factor_rows(family, mask))
        assert angle == pytest.approx(
            operator_norm_chain([span, sup], shape), abs=1e-12)
        assert angle ** 2 == pytest.approx(
            operator_norm_chain([sup, span, sup], shape), abs=1e-12)

        def centered(X):
            return X - support_project(sup, X) / q

        dev, leak = _sampling_norms(family, mask, q)
        assert dev == pytest.approx(
            operator_norm_chain([span, centered, span], shape), abs=1e-12)
        assert leak == pytest.approx(
            operator_norm_chain([sup.complemented(), span], shape), abs=1e-12)

    def test_neumann_delta_matches_dense_chain(self):
        rng = np.random.default_rng(13)
        shape = (3, 4, 5)
        family = _random_family(rng, shape, (2, 1, 2))
        L = _tensor_with_family(family, rng)
        support = EntrySupport(shape, rng.random(shape) < 0.1)
        S = np.where(support.mask, 1.0, 0.0)
        inst = RpcaInstance(L, S, S, support, 0.1, (support,), 0)
        _, delta, _ = neumann_certificate(inst)
        dense = operator_norm_chain(
            [support, (basic(()), family_from_tensor(L)), support], shape)
        assert 0.0 < delta < 1.0
        assert delta == pytest.approx(dense, rel=1e-12)

    def test_empty_support(self):
        rng = np.random.default_rng(14)
        shape = (3, 4, 5)
        family = _random_family(rng, shape, (2, 1, 2))
        empty = np.zeros(shape, dtype=bool)
        assert _factor_rows(family, empty).shape == (0, 4)
        assert _sigma_max(_factor_rows(family, empty)) == 0.0
        support = EntrySupport.empty(shape)
        inst = RpcaInstance(_tensor_with_family(family, rng),
                            np.zeros(shape), np.zeros(shape), support, 0.0,
                            (support,), 0)
        D2, delta, _ = neumann_certificate(inst)
        assert delta == 0.0
        assert np.array_equal(D2, np.zeros(shape))

    def test_full_support(self):
        rng = np.random.default_rng(15)
        shape = (3, 4, 5)
        family = _random_family(rng, shape, (2, 1, 2))
        full = np.ones(shape, dtype=bool)
        dev, leak = _sampling_norms(family, full, 1.0)
        assert dev == pytest.approx(0.0, abs=1e-14)
        assert leak == 0.0
        # p_I p_L p_I = p_L on the full support: the series diverges.
        support = EntrySupport.full(shape)
        S = np.ones(shape)
        inst = RpcaInstance(_tensor_with_family(family, rng), S, S, support,
                            0.5, (support,), 0)
        with pytest.raises(CertificateInfeasibleError):
            neumann_certificate(inst)

    def test_single_spiky_entry_has_unit_contraction(self):
        L = outer_atom([e(2, 0)] * 3)
        family = family_from_tensor(L)
        mask = EntrySupport.from_indices((2, 2, 2), [(0, 0, 0)]).mask
        assert _sigma_max(_factor_rows(family, mask)) == 1.0

    def test_certify_and_concentration_use_no_dense_operator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("operator_norm_chain was called")

        assert not hasattr(tnn.rpca, "operator_norm_chain")
        monkeypatch.setattr(tnn.subspace, "operator_norm_chain", refuse)
        monkeypatch.setattr(tnn, "operator_norm_chain", refuse)

        inst = generate_instance((12, 12, 12), 1, 0.02, m=3, seed=1)
        report, cert, _ = certify(inst)
        # The dense path's value on this instance.
        assert cert.delta == pytest.approx(0.02141203703703706, rel=1e-12)
        angle = report.conditions["span_support_angle"]
        assert angle["value"] == pytest.approx(np.sqrt(cert.delta), rel=1e-12)

        L = generate_instance((6, 6, 6), 1, 0.0, seed=0).L
        out = concentration_trial(L, q=0.8, trials=2, seed=0)
        assert len(out["records"]) == 2


class TestCertify:
    def test_incoherent_instance_construction_conditions(self):
        inst = generate_instance((12, 12, 12), 1, 0.02, m=3, seed=1)
        report, cert, state = certify(inst)
        assert report.lam == pytest.approx(1.0 / np.sqrt(12))
        conds = report.conditions
        assert conds["span_distance"]["ok"]
        assert conds["support_match"]["ok"]
        assert conds["span_support_angle"]["ok"]
        assert report.overall == all(c["ok"] for c in conds.values())
        on_support = support_project(inst.support, cert.D1)
        assert np.max(np.abs(np.asarray(on_support))) == 0.0

    def test_clean_instance_passes(self):
        inst = generate_instance((8, 8, 8), 1, 0.0, m=2, seed=0)
        report, cert, _ = certify(inst)
        assert report.overall
        assert np.allclose(cert.D2, 0.0)

    def test_angle_condition_compares_the_norm_with_one_half(self):
        # Flat rank one on 2x2x2: every row of Q is 8^{-1/2}, so three
        # corrupted entries give ||p_L p_I|| = sqrt(3/8) > 1/2 while the
        # contraction 3/8 stays below both 1/2 and 1.
        L = outer_atom([np.ones(2) / np.sqrt(2)] * 3)
        support = EntrySupport.from_indices(
            (2, 2, 2), [(0, 0, 0), (0, 1, 1), (1, 1, 0)])
        S = np.asarray(support_project(support, np.ones((2, 2, 2))))
        inst = RpcaInstance(np.asarray(L), S, np.sign(S), support, 0.375,
                            (support,), 0)
        report, cert, _ = certify(inst)
        angle = report.conditions["span_support_angle"]
        assert cert.delta == pytest.approx(3.0 / 8.0, rel=1e-12)
        assert angle["value"] == pytest.approx(np.sqrt(3.0 / 8.0), rel=1e-12)
        assert angle["threshold"] == 0.5
        assert not angle["ok"]
        assert not report.overall

    def test_coherent_instance_fails_loudly(self):
        L = outer_atom([e(2, 0)] * 3)
        support = EntrySupport.from_indices((2, 2, 2), [(0, 0, 0)])
        S = np.asarray(support_project(support, np.ones((2, 2, 2))))
        inst = RpcaInstance(np.asarray(L), S, np.sign(S), support, 0.5,
                            (support,), 0)
        with pytest.raises(CertificateInfeasibleError):
            certify(inst)


def _svt_reference(X, tau):
    """Singular-value thresholding by the SVD, the form ``_svt`` replaces:
    ``U diag(max(s - tau, 0)) V^T``."""
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    return (U * np.maximum(s - tau, 0.0)) @ Vt


def _with_singular_values(rng, m, n, s):
    """An ``m x n`` matrix with the singular values ``s`` (padded with
    zeros) and seeded Haar singular vectors."""
    U = np.linalg.qr(rng.standard_normal((m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    S = np.zeros((m, n))
    S[np.arange(len(s)), np.arange(len(s))] = s
    return U @ S @ V.T


def _svt_cases():
    rng = np.random.default_rng(11)
    G = rng.standard_normal((40, 25))
    spike = rng.standard_normal((20, 20))
    spike[3, 7] += 1e4
    lone = 1e-3 * rng.standard_normal((20, 20))
    lone[5, 2] = 1e8
    at_tau = [1.0, 1.0 + 1e-15, 1.0 - 1e-15, 1.0 + 1e-9, 1.0 - 1e-9, 2.0,
              0.5]
    return {
        "square": (rng.standard_normal((30, 30)), 2.0),
        "tall": (G, 2.5),
        "wide": (G.T, 2.5),
        "rank_deficient": (_with_singular_values(rng, 20, 30, [5, 3, 0.7]),
                           1.0),
        "repeated": (_with_singular_values(rng, 25, 18,
                                           [3, 3, 3, 2, 2, 0.5, 0.5]), 1.0),
        "at_threshold": (_with_singular_values(rng, 12, 15, at_tau), 1.0),
        "zero": (np.zeros((6, 9)), 0.3),
        "spike_kept_with_noise": (spike, 0.5),
        "lone_spike": (lone, 1.0),
        "scale_up": (1e150 * G, 1e150 * 2.5),
        "scale_down": (1e-150 * G.T, 1e-150 * 2.5),
    }


class TestSvt:
    """The Gram-eigendecomposition thresholding against the SVD form, to
    1e-12 of the largest singular value.  Its error is about
    ``eps sigma_max^2 / tau`` (the spike case keeps ``sigma_max / tau`` at
    2e4 with singular values near ``tau`` kept)."""

    @pytest.mark.parametrize("name", sorted(_svt_cases()))
    def test_matches_svd_form(self, name):
        X, tau = _svt_cases()[name]
        ref = _svt_reference(X, tau)
        got = _svt(X, tau)
        assert got.shape == X.shape
        scale = np.linalg.norm(X, 2) if X.any() else 1.0
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale

    def test_solver_runs_no_svd(self, monkeypatch):
        calls = []
        original = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        inst = generate_instance((40, 40), 2, 0.05, factor_style="gaussian",
                                 seed=1)
        solve_matrix_rpca(inst.M, lam=1.0 / np.sqrt(40))
        assert calls == []


class TestMatrixSolver:
    def test_low_rank_only(self, rng):
        u = rng.standard_normal(20)
        v = rng.standard_normal(20)
        M = np.outer(u, v)
        L, S, residuals = solve_matrix_rpca(M)
        assert np.linalg.norm(S) <= 1e-6 * np.linalg.norm(M)
        assert np.linalg.norm(M - L) <= 1e-6 * np.linalg.norm(M)
        assert residuals[-1] <= 1e-9

    def test_sparse_only(self, rng):
        # Spikes on disjoint rows and columns: any two entries sharing a
        # line would form rank-one structure that belongs in L.
        M = np.zeros((20, 20))
        for i in range(8):
            M[i, (i + 7) % 20] = 5.0 * rng.standard_normal()
        L, S, _ = solve_matrix_rpca(M)
        assert np.linalg.norm(L) <= 1e-6 * np.linalg.norm(M)
        assert np.allclose(S, M, atol=1e-7)

    def test_recovery_small_instance(self):
        inst = generate_instance((20, 20), 1, 0.05, m=1, seed=3)
        L, S, _ = solve_matrix_rpca(inst.M)
        rel = np.linalg.norm(L - inst.L) / np.linalg.norm(inst.L)
        assert rel <= 1e-4

    def test_zero_matrix(self):
        L, S, res = solve_matrix_rpca(np.zeros((5, 5)))
        assert np.allclose(L, 0.0) and np.allclose(S, 0.0)

    def test_convergence_failure_carries_best_iterate(self):
        inst = generate_instance((20, 20), 2, 0.05, m=1, seed=1)
        with pytest.raises(ConvergenceError) as exc:
            solve_matrix_rpca(inst.M, max_iter=2)
        L, S, residuals = exc.value.best
        assert L.shape == (20, 20)
        assert len(residuals) == 2

    def test_rejects_tensor_input(self):
        with pytest.raises(ParameterError):
            solve_matrix_rpca(np.zeros((2, 2, 2)))

    def test_any_scale(self):
        # The iteration runs on M over a power of two near max|M|, so the
        # dual stop test, which is not dimensionless, sees one scale.
        inst = generate_instance((40, 40), 2, 0.05, factor_style="gaussian",
                                 seed=1)
        lam = 1.0 / np.sqrt(40)
        L0, S0, res0 = solve_matrix_rpca(inst.M, lam=lam)
        for exp in range(-300, 301, 50):
            L, S, res = solve_matrix_rpca(inst.M * 10.0 ** exp, lam=lam)
            assert len(res) == len(res0)
            assert (np.linalg.norm(L / 10.0 ** exp - L0)
                    <= 1e-12 * np.linalg.norm(L0))
            assert (np.linalg.norm(S / 10.0 ** exp - S0)
                    <= 1e-12 * np.linalg.norm(S0))


class TestConcentration:
    def test_full_support_probability_is_exact(self):
        inst = generate_instance((6, 6, 6), 1, 0.0, seed=0)
        out = concentration_trial(asarray(inst.L), q=1.0, trials=3, seed=0)
        dev_med, _, dev_max = out["quantiles"]["deviation"]
        leak_med, _, leak_max = out["quantiles"]["leakage"]
        assert dev_max == pytest.approx(0.0, abs=1e-8)
        assert leak_max == pytest.approx(0.0, abs=1e-8)

    def test_partial_support_records(self):
        inst = generate_instance((6, 6, 6), 1, 0.0, seed=1)
        out = concentration_trial(asarray(inst.L), q=0.5, trials=5, seed=2)
        assert len(out["records"]) == 5
        for rec in out["records"]:
            assert rec["deviation"] >= 0.0
            assert 0.0 <= rec["leakage"] <= 1.0 + 1e-9
        assert set(out["envelopes"]) == {
            "leakage_half_eps", "sign_spectral_shape"
        }

    @pytest.mark.parametrize("shape, q, trials, seed", [
        ((8, 8, 8), 0.9, 3, 1), ((6, 6, 6), 0.5, 5, 2),
        ((3, 3, 3), 0.1, 20, 0), ((2, 2, 2), 0.3, 12, 5),
        ((2, 3, 4), 0.6, 7, 3)])
    def test_records_as_one_hopm_per_trial(self, shape, q, trials, seed):
        # The stacked sign tensors give each trial the value spectral_hopm
        # gives it alone; the small shapes mix zero tensors and 2x2x2
        # tensors, which take HOPM's direct paths, into the stack.
        L = generate_instance(shape, 1, 0.0, seed=1).L
        family = family_from_tensor(L)
        expected = []
        for child in np.random.SeedSequence([seed, *shape]).spawn(trials):
            rng = np.random.default_rng(child)
            dev, leak = _sampling_norms(family, rng.random(shape) < q, q)
            E = np.where(rng.random(shape) < 0.5, -1.0, 1.0) * (
                rng.random(shape) < q)
            expected.append((dev, leak, spectral_hopm(E).value))
        out = concentration_trial(L, q, trials=trials, seed=seed)
        for rec, (dev, leak, sig) in zip(out["records"], expected,
                                         strict=True):
            assert rec["deviation"] == dev and rec["leakage"] == leak
            assert rec["sign_spectral"] == pytest.approx(sig, rel=1e-14)

    def test_bad_probability(self):
        with pytest.raises(ParameterError):
            concentration_trial(np.ones((3, 3, 3)), q=0.0)
