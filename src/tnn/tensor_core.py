"""Dense tensor storage and the multilinear primitives used everywhere else.

Tensors are stored as row-major (C-order) ``numpy`` arrays of ``float64``;
the last index varies fastest.  All operations are pure functions of their
inputs and never mutate arguments.  Mode indices are 0-based throughout the
library (the CLI converts from the 1-based convention used in selector
strings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, IndexRangeError, ParameterError

__all__ = [
    "DenseTensor",
    "RankOneAtom",
    "NuclearDecomposition",
    "asarray",
    "inner",
    "holder_norm",
    "outer_atom",
    "mode_matricize",
    "mode_dematricize",
    "mode_product",
    "multilinear_contract",
    "decomposition_sum",
    "read_tensor_file",
    "write_tensor_file",
]


def asarray(t):
    """Coerce a DenseTensor or array-like to a float64 C-order ndarray."""
    if isinstance(t, DenseTensor):
        return t.array
    return np.ascontiguousarray(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class DenseTensor:
    """A d-mode real tensor; the universal operand of the library."""

    array: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.array, dtype=float))
        if arr.ndim < 1:
            arr = arr.reshape(1)
        if not np.all(np.isfinite(arr)):
            raise ParameterError("tensor entries must be finite")
        if any(n < 1 for n in arr.shape):
            raise ParameterError("mode dimensions must be positive")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def shape(self):
        return self.array.shape

    @property
    def order(self):
        return self.array.ndim

    @classmethod
    def from_lists(cls, shape, data):
        shape = tuple(int(n) for n in shape)
        data = np.asarray(list(data), dtype=float)
        if data.size != int(np.prod(shape)):
            raise DimensionError(
                f"data length {data.size} does not match shape {shape}"
            )
        return cls(data.reshape(shape))


@dataclass(frozen=True)
class RankOneAtom:
    """A weighted rank-one (simple) tensor: weight * f_1 (x) ... (x) f_d."""

    weight: float
    factors: tuple

    def __post_init__(self):
        factors = tuple(np.asarray(f, dtype=float) for f in self.factors)
        for f in factors:
            if f.ndim != 1 or f.size == 0:
                raise ParameterError("factors must be nonempty vectors")
            if abs(math.sqrt(f @ f) - 1.0) > 1e-12:
                raise ParameterError("atom factors must be unit vectors")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "weight", float(self.weight))

    @classmethod
    def from_unnormalized(cls, factors, weight=1.0):
        """Fold factor norms into the weight so stored factors are unit."""
        factors = [np.asarray(f, dtype=float) for f in factors]
        w = float(weight)
        unit = []
        for f in factors:
            nrm = np.linalg.norm(f)
            if nrm == 0.0:
                return cls(0.0, tuple(basis_vector(f.size) for f in factors))
            w *= nrm
            unit.append(f / nrm)
        return cls(w, tuple(unit))

    @property
    def shape(self):
        return tuple(f.size for f in self.factors)

    def dense(self):
        return outer_atom(self.factors, self.weight)


def basis_vector(n, i=0):
    """The standard basis vector ``e_i`` of ``R^n``."""
    e = np.zeros(n)
    e[i] = 1.0
    return e


def normalize(v):
    """``v / ||v||``, or ``v`` unchanged when it is zero."""
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


_EPS = np.finfo(float).eps


def _size_order(shape):
    """The modes in increasing size, ties in mode order (a stable argsort of
    ``shape``), and the inverse permutation, as lists."""
    order = sorted(range(len(shape)), key=shape.__getitem__)
    return order, sorted(range(len(shape)), key=order.__getitem__)


def _unit_scale(A):
    """``(A / scale, scale)``, ``scale`` the power of two at or below
    ``max |A|`` (1 if ``A`` is 0): the norm engines' one scale policy, exact
    wherever nothing over- or underflows."""
    peak = float(np.abs(A).max(initial=0.0))
    if not math.isfinite(peak):
        raise ParameterError("tensor entries must be finite")
    scale = math.ldexp(1.0, math.frexp(peak)[1] - 1) if peak else 1.0
    return A / scale, scale


def _khatri_rao_rows(factors):
    """Row-wise Khatri-Rao product of matrices with a common row count: row
    ``z`` is the Kronecker product of the factors' rows ``z``, the first
    factor's column index varying slowest.  Leading axes, common to all
    factors, index stacks of such matrices."""
    P = factors[0]
    for F in factors[1:]:
        P = (P[..., :, None] * F[..., None, :]).reshape(
            P.shape[:-1] + (P.shape[-1] * F.shape[-1],))
    return P


@dataclass(frozen=True)
class NuclearDecomposition:
    """A list of rank-one atoms targeting a common tensor shape."""

    atoms: tuple
    shape: tuple

    def __post_init__(self):
        atoms = tuple(self.atoms)
        shape = tuple(int(n) for n in self.shape)
        for a in atoms:
            if a.shape != shape:
                raise DimensionError(
                    f"atom shape {a.shape} does not match target {shape}"
                )
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "shape", shape)

    @property
    def weight_sum(self):
        return float(sum(abs(a.weight) for a in self.atoms))


def inner(T, S):
    """Frobenius inner product of two tensors of identical shape."""
    A, B = asarray(T), asarray(S)
    if A.shape != B.shape:
        raise DimensionError(f"shape mismatch: {A.shape} vs {B.shape}")
    # np.dot on the raveled arrays uses pairwise-accumulated BLAS sums.
    return float(np.dot(A.ravel(), B.ravel()))


def holder_norm(T, p):
    """Entrywise l_p norm for p in {1, 2, inf}."""
    A = asarray(T)
    if p == 1:
        return float(np.abs(A).sum())
    if p == 2:
        return float(np.linalg.norm(A.ravel()))
    if p in (np.inf, float("inf"), "inf"):
        return float(np.abs(A).max()) if A.size else 0.0
    raise ParameterError(f"unsupported Hoelder exponent: {p!r}")


def outer_atom(factors, weight=1.0):
    """Dense tensor of weight * f_1 (x) f_2 (x) ... (x) f_d."""
    factors = [np.asarray(f, dtype=float) for f in factors]
    if not factors or any(f.size == 0 for f in factors):
        raise ParameterError("need at least one nonempty factor")
    out = np.array(float(weight))
    for f in factors:
        out = np.multiply.outer(out, f)
    return np.ascontiguousarray(out)


def _check_mode(T, k):
    if not 0 <= k < T.ndim:
        raise IndexRangeError(f"mode {k} out of range for order-{T.ndim} tensor")


def mode_matricize(T, k):
    """Mode-k matricization: an n_k x (prod of other dims) matrix.

    Columns are the mode-k fibers, ordered by the row-major order of the
    remaining indices.  Inverted bit-exactly by :func:`mode_dematricize`.
    """
    A = asarray(T)
    _check_mode(A, k)
    perm = (k,) + tuple(j for j in range(A.ndim) if j != k)
    return np.ascontiguousarray(A.transpose(perm).reshape(A.shape[k], -1))


def _flattening_svds(A, compute_uv=False):
    """``np.linalg.svd(mode_matricize(A, k), full_matrices=False,
    compute_uv=compute_uv)`` for every mode ``k`` of the array ``A``: the
    singular values, or ``(U, s, Vt)``, one entry per mode.

    The flattenings of one shape (the modes of one size) are factored in one
    stacked call.  LAPACK factors each matrix of a stack on its own, by the
    routine it would run on that matrix alone, so the floats are the same
    and only the per-call overhead is shared.  A mode whose size no other
    mode shares is a stack of one."""
    out = [None] * A.ndim
    for n in dict.fromkeys(A.shape):
        modes = [k for k, m in enumerate(A.shape) if m == n]
        res = np.linalg.svd(np.array([mode_matricize(A, k) for k in modes]),
                            full_matrices=False, compute_uv=compute_uv)
        for i, k in enumerate(modes):
            out[k] = tuple(r[i] for r in res) if compute_uv else res[i]
    return out


def mode_dematricize(M, shape, k):
    """Inverse of :func:`mode_matricize` for the given target shape."""
    shape = tuple(shape)
    if not 0 <= k < len(shape):
        raise IndexRangeError(f"mode {k} out of range for shape {shape}")
    M = np.asarray(M, dtype=float)
    rest = tuple(shape[j] for j in range(len(shape)) if j != k)
    if M.shape != (shape[k], int(np.prod(rest, dtype=np.int64))):
        raise DimensionError(f"matrix shape {M.shape} incompatible with {shape}")
    perm = (k,) + tuple(j for j in range(len(shape)) if j != k)
    inv = np.argsort(perm)
    return np.ascontiguousarray(M.reshape((shape[k],) + rest).transpose(inv))


@lru_cache(maxsize=None)
def _axis_moves(d, k):
    """The transpositions that move axis ``k`` of an order-``d`` array to the
    end and back: ``np.moveaxis(X, k, -1)`` and ``np.moveaxis(Y, -1, k)``."""
    rest = tuple(j for j in range(d) if j != k)
    return rest + (k,), tuple(range(k)) + (d - 1,) + tuple(range(k, d - 1))


def mode_product(T, k, M):
    """Mode-k product: result_(k) = M . T_(k).

    Mode ``k`` is moved last by one cached transposition, every mode-k fiber
    is multiplied by ``M`` in one batched ``matmul``, and the result is
    transposed back: the floats of the ``np.moveaxis`` form at a fraction of
    its call overhead, which dominates on the small tensors the sandwiches
    and projectors pass here."""
    A = asarray(T)
    _check_mode(A, k)
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[1] != A.shape[k]:
        raise DimensionError(
            f"matrix {M.shape} cannot multiply mode {k} of size {A.shape[k]}"
        )
    to_end, back = _axis_moves(A.ndim, k)
    return np.ascontiguousarray((A.transpose(to_end) @ M.T).transpose(back))


def multilinear_contract(T, slots):
    """Contract T with one vector per mode; ``None`` marks a free mode.

    All slots filled gives the scalar multilinear form
    ``<T, x_1 (x) ... (x) x_d>``; each ``None`` leaves that mode free, so the
    result is a tensor over the free modes (a vector if one hole, etc.).
    """
    A = asarray(T)
    if len(slots) != A.ndim:
        raise DimensionError(
            f"need {A.ndim} slots for an order-{A.ndim} tensor, got {len(slots)}"
        )
    out = A
    # Contract from the last mode down so remaining axes keep their meaning.
    for k in reversed(range(A.ndim)):
        x = slots[k]
        if x is None:
            continue
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size != A.shape[k]:
            raise DimensionError(
                f"slot {k} has length {x.size}, expected {A.shape[k]}"
            )
        out = np.tensordot(out, x, axes=([k], [0]))
    if out.ndim == 0:
        return float(out)
    return np.ascontiguousarray(out)


def decomposition_sum(D):
    """Dense tensor equal to the weighted sum of the decomposition's atoms."""
    out = np.zeros(D.shape)
    for atom in D.atoms:
        out += atom.dense()
    return out


# ---------------------------------------------------------------------------
# Tensor file format: a small text document with `shape` and `data` fields.
# ---------------------------------------------------------------------------

def write_tensor_file(path, T):
    """Write a tensor as a two-line text document (17 significant digits)."""
    A = asarray(T)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("shape: " + " ".join(str(n) for n in A.shape) + "\n")
        fh.write("data: " + " ".join(f"{v:.17g}" for v in A.ravel()) + "\n")


def read_tensor_file(path):
    """Read a tensor written by :func:`write_tensor_file`."""
    shape = None
    data = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("shape:"):
                shape = [int(v) for v in line[len("shape:"):].split()]
            elif line.startswith("data:"):
                data = [float(v) for v in line[len("data:"):].split()]
    if shape is None or data is None:
        raise ParameterError(f"{path}: not a tensor file (missing shape/data)")
    return DenseTensor.from_lists(shape, data).array
