import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnn import (
    DenseTensor,
    DimensionError,
    IndexRangeError,
    NuclearDecomposition,
    ParameterError,
    RankOneAtom,
    asarray,
    decomposition_sum,
    holder_norm,
    inner,
    mode_dematricize,
    mode_matricize,
    mode_product,
    multilinear_contract,
    outer_atom,
    read_tensor_file,
    write_tensor_file,
)
from conftest import e


class TestDenseTensor:
    def test_shape_data_roundtrip(self):
        T = DenseTensor.from_lists((2, 3), [1, 2, 3, 4, 5, 6])
        assert T.array.shape == (2, 3)
        assert T.array[1, 2] == 6.0

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionError):
            DenseTensor.from_lists((2, 2), [1.0, 2.0, 3.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            DenseTensor.from_lists((2,), [np.nan, 1.0])

    def test_immutable(self):
        T = DenseTensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            T.array[0, 0] = 5.0


class TestRankOneAtom:
    def test_unit_factor_enforced(self):
        with pytest.raises(ParameterError):
            RankOneAtom(1.0, (np.array([2.0, 0.0]), np.array([1.0, 0.0])))

    def test_from_unnormalized_folds_norms(self):
        atom = RankOneAtom.from_unnormalized(
            (np.array([3.0, 4.0]), np.array([0.0, 2.0])), weight=2.0
        )
        assert atom.weight == pytest.approx(20.0)
        for f in atom.factors:
            assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)


class TestInner:
    def test_unit_atom_self(self):
        T = outer_atom([e(2, 0)] * 3)
        assert inner(T, T) == 1.0

    def test_disjoint_supports(self):
        T = outer_atom([e(2, 0)] * 3)
        S = outer_atom([e(2, 1)] * 3)
        assert inner(T, S) == 0.0

    @pytest.mark.parametrize("t", [-1.0, 0.0, 0.7, 1.0])
    def test_diagonal_pairing_constant_in_t(self, t):
        T = sum(outer_atom([e(3, i)] * 3) for i in range(3))
        Z = T + t * outer_atom([e(3, 0), e(3, 1), e(3, 2)])
        assert inner(asarray(Z), asarray(T)) == pytest.approx(3.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            inner(np.ones((2, 2)), np.ones((2, 3)))


class TestHolderNorm:
    def test_zero_tensor(self):
        Z = np.zeros((2, 2, 2))
        for p in (1, 2, np.inf):
            assert holder_norm(Z, p) == 0.0

    def test_two_unit_entries(self):
        T = outer_atom([e(2, 0)] * 3) + outer_atom([e(2, 1)] * 3)
        assert holder_norm(T, 1) == pytest.approx(2.0)
        assert holder_norm(T, 2) == pytest.approx(math.sqrt(2.0))
        assert holder_norm(T, np.inf) == pytest.approx(1.0)

    def test_against_summation_oracle(self, rng):
        A = rng.standard_normal((3, 3))
        assert holder_norm(A, 1) == pytest.approx(
            math.fsum(abs(x) for x in A.ravel()), rel=1e-14
        )
        assert holder_norm(A, 2) == pytest.approx(
            math.sqrt(math.fsum(x * x for x in A.ravel())), rel=1e-14
        )

    def test_bad_exponent(self):
        with pytest.raises(ParameterError):
            holder_norm(np.ones((2,)), 3)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=24))
    @settings(max_examples=50, deadline=None)
    def test_chain_inf_le_2_le_1(self, data):
        A = np.array(data)
        assert holder_norm(A, np.inf) <= holder_norm(A, 2) + 1e-9
        assert holder_norm(A, 2) <= holder_norm(A, 1) + 1e-9


class TestOuterAtom:
    def test_single_entry(self):
        T = outer_atom([e(2, 0)] * 3)
        assert T[0, 0, 0] == 1.0
        assert holder_norm(T, 1) == 1.0

    def test_frobenius_is_weight(self, rng):
        factors = [v / np.linalg.norm(v)
                   for v in (rng.standard_normal(3) for _ in range(3))]
        T = outer_atom(factors, weight=-2.5)
        assert holder_norm(T, 2) == pytest.approx(2.5, rel=1e-12)

    def test_matrix_case_entries(self):
        v = np.array([3.0, 4.0]) / 5.0
        w = np.array([1.0, 0.0])
        M = outer_atom([v, w])
        assert np.allclose(M, np.outer(v, w))

    def test_inner_of_atoms_is_product_of_dots(self, rng):
        us = [rng.standard_normal(3) for _ in range(3)]
        vs = [rng.standard_normal(3) for _ in range(3)]
        lhs = inner(outer_atom(us), outer_atom(vs))
        rhs = np.prod([u @ v for u, v in zip(us, vs)])
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestMatricize:
    def test_matrix_mode0_identity(self, rng):
        A = rng.standard_normal((3, 4))
        assert np.array_equal(mode_matricize(asarray(A), 0), A)

    def test_e1_outer_e2_mode1(self):
        T = outer_atom([e(2, 0), e(2, 1)])
        M = mode_matricize(T, 1)
        assert M[1, 0] == 1.0

    def test_roundtrip_bit_exact(self, rng):
        T = asarray(rng.standard_normal((2, 3, 4)))
        for k in range(3):
            M = mode_matricize(T, k)
            assert M.shape == (T.shape[k], T.size // T.shape[k])
            back = mode_dematricize(M, T.shape, k)
            assert np.array_equal(back, T)

    def test_mode_out_of_range(self):
        with pytest.raises(IndexRangeError):
            mode_matricize(np.ones((2, 2)), 2)


class TestModeProduct:
    def test_identity(self, rng):
        T = asarray(rng.standard_normal((2, 3, 4)))
        assert np.allclose(mode_product(T, 1, np.eye(3)), T)

    def test_composition(self, rng):
        T = asarray(rng.standard_normal((2, 2, 2)))
        M = rng.standard_normal((2, 2))
        N = rng.standard_normal((2, 2))
        once = mode_product(mode_product(T, 0, M), 0, N)
        direct = mode_product(T, 0, N @ M)
        assert np.allclose(once, direct, atol=1e-12)

    def test_matricization_rule(self, rng):
        T = asarray(rng.standard_normal((2, 3, 4)))
        M = rng.standard_normal((5, 3))
        out = mode_product(T, 1, M)
        assert out.shape == (2, 5, 4)
        assert np.allclose(
            mode_matricize(out, 1), M @ mode_matricize(T, 1), atol=1e-12
        )

    def test_distinct_modes_commute(self, rng):
        T = asarray(rng.standard_normal((2, 3, 4)))
        M = rng.standard_normal((2, 2))
        N = rng.standard_normal((4, 4))
        ab = mode_product(mode_product(T, 0, M), 2, N)
        ba = mode_product(mode_product(T, 2, N), 0, M)
        assert np.allclose(ab, ba, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mode_product(np.ones((2, 2)), 0, np.ones((2, 3)))

    @pytest.mark.parametrize("shape", [(4,), (3, 5), (2, 2, 2), (3, 3, 3),
                                       (2, 3, 4), (4, 1, 3), (2, 2, 2, 2),
                                       (2, 3, 2, 4)], ids=str)
    def test_equals_the_moveaxis_form(self, shape):
        # Bit for bit: the cached transpositions must give the floats of
        # moving mode k last with np.moveaxis, multiplying and moving back.
        rng = np.random.default_rng(list(shape))
        T = rng.standard_normal(shape)
        for k, n in enumerate(shape):
            for rows in (1, n, n + 2):
                M = rng.standard_normal((rows, n))
                want = np.moveaxis(np.moveaxis(T, k, -1) @ M.T, -1, k)
                got = mode_product(T, k, M)
                assert got.flags.c_contiguous and got.shape == want.shape
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestMultilinearContract:
    def test_full_contraction_unit(self):
        T = outer_atom([e(2, 0)] * 3)
        assert multilinear_contract(T, [e(2, 0)] * 3) == pytest.approx(1.0)

    def test_scalar_slot_matches_inner(self, rng):
        T = asarray(rng.standard_normal((2, 2, 2)))
        xs = [rng.standard_normal(2) for _ in range(3)]
        val = multilinear_contract(T, xs)
        assert val == pytest.approx(inner(T, outer_atom(xs)), rel=1e-12)

    def test_hole_returns_fiber_vector(self, rng):
        T = asarray(rng.standard_normal((2, 3, 4)))
        x, y = rng.standard_normal(2), rng.standard_normal(3)
        v = multilinear_contract(T, [x, y, None])
        assert v.shape == (4,)
        assert np.allclose(v, np.einsum("ijk,i,j->k", T, x, y), atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            multilinear_contract(np.ones((2, 2)), [np.ones(3), np.ones(2)])


class TestDecompositionSum:
    def test_single_atom(self):
        atom = RankOneAtom(1.0, (e(2, 0), e(2, 0)))
        D = NuclearDecomposition((atom,), (2, 2))
        assert np.allclose(decomposition_sum(D), outer_atom([e(2, 0)] * 2))

    def test_cancellation(self):
        a = RankOneAtom(1.0, (e(2, 0), e(2, 0)))
        b = RankOneAtom(-1.0, (e(2, 0), e(2, 0)))
        D = NuclearDecomposition((a, b), (2, 2))
        assert np.allclose(decomposition_sum(D), 0.0)
        assert D.weight_sum == pytest.approx(2.0)

    def test_four_atom_sparse_example(self):
        pieces = [(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
        atoms = tuple(
            RankOneAtom(1.0, tuple(e(2, i) for i in p)) for p in pieces
        )
        D = NuclearDecomposition(atoms, (2, 2, 2))
        S = decomposition_sum(D)
        expected = np.zeros((2, 2, 2))
        for p in pieces:
            expected[p] = 1.0
        assert np.array_equal(S, expected)


class TestTensorFiles:
    def test_roundtrip(self, tmp_path, rng):
        T = asarray(rng.standard_normal((2, 3, 2)))
        path = tmp_path / "t.tensor"
        write_tensor_file(path, T)
        back = read_tensor_file(path)
        assert np.array_equal(asarray(back), T)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.tensor"
        path.write_text("shape: 2 2\ndata: 1 2 3\n")
        with pytest.raises(DimensionError):
            read_tensor_file(path)
