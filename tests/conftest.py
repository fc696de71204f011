import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def e(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


@pytest.fixture(scope="session")
def rank_deficient_sandwiches():
    """``(T, nuclear_sandwich(T))`` for three seeded 3x3x3 tensors of
    multilinear rank (2, 2, 2); each is sandwiched on its 2x2x2 core by the
    exact program, and the core's witness is lifted into ``T``'s span
    subspace."""
    from tnn import nuclear_sandwich

    rng = np.random.default_rng(7)
    out = []
    for _ in range(3):
        U = [np.linalg.qr(rng.standard_normal((3, 2)))[0] for _ in range(3)]
        G = rng.standard_normal((2, 2, 2))
        T = np.einsum("abc,ia,jb,kc->ijk", G, *U)
        out.append((T, nuclear_sandwich(T)))
    return out


def rank_one(rng, shape):
    """A unit rank-one tensor with seeded Gaussian unit factors."""
    from tnn import outer_atom

    return outer_atom([v / np.linalg.norm(v)
                       for v in (rng.standard_normal(n) for n in shape)])
