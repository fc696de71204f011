import itertools

import numpy as np
import pytest

from tnn import (
    DimensionError,
    EntrySupport,
    IndexRangeError,
    ModeFamily,
    ModeSubspace,
    ParameterError,
    asarray,
    basic,
    basic_split,
    complement,
    direct_sum,
    family_from_tensor,
    format_selector,
    inner,
    lower_u,
    mode_matricize,
    operator_norm_chain,
    outer_atom,
    parse_selector,
    project,
    support_project,
    upper_u,
)
from tnn.subspace import RANK_TOL
from conftest import e


def random_family(rng, shape, ranks):
    subs = []
    for n, r in zip(shape, ranks):
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :r]
        subs.append(ModeSubspace(n, basis))
    return ModeFamily(tuple(subs))


class TestModeSubspace:
    def test_orthonormality_enforced(self):
        with pytest.raises(ParameterError):
            ModeSubspace(2, np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_zero_subspace(self):
        V = ModeSubspace.zero(3)
        assert V.dim == 0
        assert np.allclose(V.projector(), 0.0)

    def test_span_constructor(self):
        V = ModeSubspace.span([np.array([2.0, 0.0, 0.0])])
        assert V.dim == 1
        assert np.allclose(V.projector() @ e(3, 0), e(3, 0))

    def test_span_rank_is_relative(self):
        # Directions count at any scale; zero vectors span nothing.
        V = ModeSubspace.span([1e-12 * e(3, 0), 1e-12 * e(3, 1)])
        assert V.dim == 2
        assert np.allclose(V.projector(), np.diag([1.0, 1.0, 0.0]))
        assert ModeSubspace.span([np.zeros(3), np.zeros(3)]).dim == 0


class TestComplement:
    def test_e1_in_r2(self):
        V = ModeSubspace.span([e(2, 0)])
        W = complement(V)
        assert W.dim == 1
        assert abs(W.basis[:, 0] @ e(2, 0)) < 1e-12

    def test_full_space(self):
        W = complement(ModeSubspace.full(3))
        assert W.dim == 0

    def test_projector_sum_identity(self, rng):
        basis = np.linalg.qr(rng.standard_normal((5, 5)))[0][:, :3]
        V = ModeSubspace(5, basis)
        W = complement(V)
        assert np.allclose(V.projector() + W.projector(), np.eye(5),
                           atol=1e-12)


class TestFamilyFromTensor:
    def test_rank_one(self):
        T = outer_atom([e(2, 0)] * 3)
        family = family_from_tensor(T)
        for sub in family.subspaces:
            assert sub.dim == 1
            assert np.allclose(np.abs(sub.basis[:, 0]), e(2, 0))

    def test_two_term_diagonal(self):
        T = sum(outer_atom([e(2, i), e(2, i), e(3, i)]) for i in range(2))
        family = family_from_tensor(asarray(T))
        assert [s.dim for s in family.subspaces] == [2, 2, 2]

    def test_rank_two_random(self, rng):
        T = sum(
            outer_atom([rng.standard_normal(4) for _ in range(3)])
            for _ in range(2)
        )
        family = family_from_tensor(asarray(T))
        assert all(s.dim == 2 for s in family.subspaces)

    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 3, 3), (4, 4, 4),
                                       (2, 2, 5), (2, 3, 4), (3, 2, 3),
                                       (2, 2, 2, 2), (3, 2, 3, 2)], ids=str)
    def test_bases_are_the_per_flattening_thin_svd(self, shape):
        # Bit for bit: the flattenings of one shape are factored in one
        # stacked SVD, which must give each the floats it gets alone.
        for seed in range(4):
            rng = np.random.default_rng([seed, *shape])
            T = rng.standard_normal(shape)
            if seed % 2:
                T = sum(outer_atom([rng.standard_normal(n) for n in shape])
                        for _ in range(2))
            family = family_from_tensor(T)
            for k, sub in enumerate(family.subspaces):
                U, s, _ = np.linalg.svd(mode_matricize(T, k),
                                        full_matrices=False)
                r = int(np.sum(s > RANK_TOL * s[0]))
                want = np.ascontiguousarray(U[:, :r])
                assert sub.basis.tobytes() == want.tobytes()


class TestProject:
    def test_basic_empty_fixes_member(self, rng):
        T = asarray(rng.standard_normal((2, 3, 2)))
        family = family_from_tensor(T)
        assert np.allclose(project(basic(()), family, T), T, atol=1e-12)

    def test_basic_full_annihilates(self, rng):
        T = asarray(rng.standard_normal((2, 3, 2)))
        family = family_from_tensor(T)
        out = project(basic(range(3)), family, T)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_all_basics_sum_to_identity(self, rng):
        shape = (2, 3, 2)
        family = random_family(rng, shape, (1, 2, 1))
        A = rng.standard_normal(shape)
        total = sum(
            project(basic(I), family, A)
            for r in range(4)
            for I in itertools.combinations(range(3), r)
        )
        assert np.allclose(total, A, atol=1e-12)

    def test_self_adjoint(self, rng):
        shape = (2, 2, 3)
        family = random_family(rng, shape, (1, 1, 2))
        A, B = rng.standard_normal(shape), rng.standard_normal(shape)
        for sel in (basic((0, 1)), upper_u((0, 2)), lower_u((1,)),
                    direct_sum([(0, 1), (1, 2)])):
            lhs = inner(project(sel, family, A), asarray(B))
            rhs = inner(asarray(A), project(sel, family, B))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_idempotent(self, rng):
        shape = (2, 2, 2)
        family = random_family(rng, shape, (1, 1, 1))
        A = rng.standard_normal(shape)
        for sel in (basic((0,)), upper_u((0, 1)), lower_u((0, 2)),
                    direct_sum([(0, 1), (0, 1, 2)])):
            once = project(sel, family, A)
            twice = project(sel, family, once)
            assert np.allclose(once, twice, atol=1e-12)

    def test_lower_u_contains_span_subspace(self, rng):
        shape = (2, 2, 2)
        family = random_family(rng, shape, (1, 1, 1))
        A = rng.standard_normal(shape)
        inside = project(basic(()), family, A)
        assert np.allclose(
            project(lower_u((0, 1)), family, inside), inside, atol=1e-12
        )

    def test_shape_mismatch(self, rng):
        family = random_family(rng, (2, 2), (1, 1))
        with pytest.raises(DimensionError):
            project(basic(()), family, np.ones((3, 3)))


class TestBasicSplit:
    def test_member_concentrates_on_empty_set(self, rng):
        family = random_family(rng, (2, 2, 2), (1, 1, 1))
        A = project(basic(()), family, rng.standard_normal((2, 2, 2)))
        parts = basic_split(family, A)
        for I, piece in parts.items():
            if I:
                assert np.allclose(piece, 0.0, atol=1e-12)
        assert np.allclose(parts[frozenset()], A, atol=1e-12)

    def test_pairwise_orthogonal_and_reconstructs(self, rng):
        family = random_family(rng, (2, 3, 2), (1, 2, 1))
        A = asarray(rng.standard_normal((2, 3, 2)))
        parts = basic_split(family, A)
        keys = list(parts)
        for i, I in enumerate(keys):
            for J in keys[i + 1:]:
                assert abs(inner(parts[I], parts[J])) < 1e-10
        assert np.allclose(sum(parts.values()), A, atol=1e-12)
        sq = sum(np.sum(np.asarray(p) ** 2) for p in parts.values())
        assert sq == pytest.approx(float(np.sum(np.asarray(A) ** 2)),
                                   abs=1e-10)

    def test_sparse_example_splits_into_span_and_rest(self):
        T = outer_atom([e(2, 0)] * 3)
        S = np.zeros((2, 2, 2))
        for p in [(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]:
            S[p] = 1.0
        V = ModeSubspace.span([e(2, 0)])
        family = ModeFamily((V, V, V))
        parts = basic_split(family, asarray(T + S))
        assert np.allclose(parts[frozenset()], T, atol=1e-12)
        high = sum(p for I, p in parts.items() if len(I) >= 2)
        assert np.allclose(high, S, atol=1e-12)


class TestEntrySupport:
    def test_empty_projects_to_zero(self, rng):
        sup = EntrySupport.empty((2, 2))
        assert np.allclose(support_project(sup, rng.standard_normal((2, 2))),
                           0.0)

    def test_full_is_identity(self, rng):
        sup = EntrySupport.full((2, 2))
        A = rng.standard_normal((2, 2))
        assert np.array_equal(support_project(sup, A), A)

    def test_single_index(self):
        T = outer_atom([e(2, 0)] * 3) + outer_atom([e(2, 1)] * 3)
        sup = EntrySupport.from_indices((2, 2, 2), [(0, 0, 0)])
        out = support_project(sup, T)
        assert np.allclose(out, outer_atom([e(2, 0)] * 3))

    def test_out_of_range_index(self):
        with pytest.raises(IndexRangeError):
            EntrySupport.from_indices((2, 2), [(0, 2)])

    def test_complement_partition(self, rng):
        mask = rng.random((3, 3)) < 0.5
        sup = EntrySupport((3, 3), mask)
        A = rng.standard_normal((3, 3))
        assert np.array_equal(
            support_project(sup, A)
            + support_project(sup.complemented(), A), A
        )


class TestOperatorNormChain:
    def test_single_projector_is_one(self, rng):
        family = random_family(rng, (2, 2, 2), (1, 1, 1))
        val = operator_norm_chain([(basic(()), family)], (2, 2, 2))
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_ranges_give_zero(self):
        T = outer_atom([e(2, 0)] * 3)
        family = family_from_tensor(T)
        sup = EntrySupport.from_indices((2, 2, 2), [(1, 1, 1)])
        val = operator_norm_chain([(basic(()), family), sup], (2, 2, 2))
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_matches_dense_materialization(self, rng):
        family = random_family(rng, (2, 2, 2), (1, 1, 1))
        sup = EntrySupport((2, 2, 2), rng.random((2, 2, 2)) < 0.4)
        chain = [(basic(()), family), sup]
        val = operator_norm_chain(chain, (2, 2, 2))
        cols = np.zeros((8, 8))
        for j in range(8):
            E = np.zeros(8)
            E[j] = 1.0
            out = support_project(
                sup, project(basic(()), family, E.reshape(2, 2, 2))
            )
            cols[:, j] = np.asarray(out).ravel()
        assert val == pytest.approx(np.linalg.norm(cols, 2), abs=1e-8)

    def test_refuses_past_dense_limit(self, rng):
        shape = (8, 8, 8, 8, 2)  # 8192 > 4096 entries
        family = random_family(rng, shape, (1,) * 5)
        with pytest.raises(ParameterError):
            operator_norm_chain([(basic(()), family)], shape)


class TestSelectorParsing:
    @pytest.mark.parametrize("text", [
        "basic:1,3", "upperU:1,2", "lowerU:2", "sum:[1,2;1,3;2,3]",
    ])
    def test_roundtrip(self, text):
        assert format_selector(parse_selector(text)) == text

    def test_one_based_conversion(self):
        sel = parse_selector("upperU:1,2")
        assert sel.sets[0] == frozenset({0, 1})

    def test_bad_input(self):
        with pytest.raises(ParameterError):
            parse_selector("frobnicate:1")
        with pytest.raises(ParameterError):
            parse_selector("sum:1,2")

    def test_membership_characterization(self, rng):
        family = random_family(rng, (2, 2, 2), (1, 1, 1))
        member = project(basic(()), family, rng.standard_normal((2, 2, 2)))
        member_family = family_from_tensor(asarray(member))
        for k in range(3):
            B = member_family.subspaces[k].basis
            P = family.subspaces[k].projector()
            assert np.allclose(P @ B, B, atol=1e-10)
