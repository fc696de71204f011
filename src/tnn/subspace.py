"""Mode subspaces, the 2^d basic subspaces, their projectors, and a dense
reference for operator norms of projector compositions.

For a tensor T and per-mode subspaces (V_1, ..., V_d):

* ``Basic(I)`` projects onto the span of outer products drawing mode-k
  vectors from the complement of V_k for k in I and from V_k otherwise.
* ``UpperU(I)`` constrains only the modes in I to the complements and leaves
  the other modes free; ``LowerU(I)`` constrains only the modes in I to the
  V_k themselves.
* ``DirectSum(J)`` is the orthogonal direct sum of basic projections over a
  collection J of index sets.

Entry supports give the coordinate projectors used by the robust-PCA module.

``operator_norm_chain`` materializes a composition of these projectors
densely, up to 4096 entries; the library's certificates use closed forms
instead, so it serves as their reference in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, IndexRangeError, ParameterError
from .tensor_core import _flattening_svds, _unit_scale, asarray, mode_product

__all__ = [
    "ModeSubspace",
    "ModeFamily",
    "Selector",
    "EntrySupport",
    "basic",
    "upper_u",
    "lower_u",
    "direct_sum",
    "order_ge2_sum",
    "parse_selector",
    "format_selector",
    "family_from_tensor",
    "complement",
    "project",
    "residual",
    "basic_split",
    "support_project",
    "operator_norm_chain",
]

RANK_TOL = 1e-10


@dataclass(frozen=True)
class ModeSubspace:
    """A subspace of R^n stored as an orthonormal basis (n x r matrix)."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.basis, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        if B.size == 0:
            B = B.reshape(self.ambient_dim, 0)
        if B.shape[0] != self.ambient_dim:
            raise DimensionError(
                f"basis rows {B.shape[0]} != ambient dim {self.ambient_dim}"
            )
        if B.shape[1] > self.ambient_dim:
            raise DimensionError("more basis vectors than ambient dimension")
        if B.shape[1] and np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) > 1e-10:
            raise ParameterError("basis columns are not orthonormal")
        B = np.ascontiguousarray(B)
        B.flags.writeable = False
        object.__setattr__(self, "basis", B)

    @property
    def dim(self):
        return self.basis.shape[1]

    def projector(self):
        """The n x n orthogonal projector B B^T."""
        return self.basis @ self.basis.T

    @classmethod
    def span(cls, vectors, ambient_dim=None):
        """Subspace spanned by the given vectors (orthonormalized); a
        direction whose ``|R_ii|`` in their QR is at most ``RANK_TOL`` times
        the largest ``|R|`` counts as dependent, at any scale."""
        V = np.atleast_2d(np.asarray(vectors, dtype=float))  # rows are vectors
        n = ambient_dim if ambient_dim is not None else V.shape[1]
        if V.size == 0:
            return cls(n, np.zeros((n, 0)))
        Q, R = np.linalg.qr(V.T)
        keep = np.abs(np.diag(R)) > RANK_TOL * np.max(np.abs(R))
        return cls(n, Q[:, keep])

    @classmethod
    def full(cls, n):
        return cls(n, np.eye(n))

    @classmethod
    def zero(cls, n):
        return cls(n, np.zeros((n, 0)))


@dataclass(frozen=True)
class ModeFamily:
    """One subspace per mode of a declared tensor shape."""

    subspaces: tuple

    def __post_init__(self):
        object.__setattr__(self, "subspaces", tuple(self.subspaces))

    @property
    def order(self):
        return len(self.subspaces)

    @property
    def shape(self):
        return tuple(s.ambient_dim for s in self.subspaces)

    def check_shape(self, T):
        A = asarray(T)
        if A.shape != self.shape:
            raise DimensionError(
                f"tensor shape {A.shape} does not match family {self.shape}"
            )
        return A


@dataclass(frozen=True)
class Selector:
    """Which combination of mode subspaces to project onto.

    kind is one of ``basic``, ``upperU``, ``lowerU``, ``sum``; ``sets`` is a
    tuple of frozensets of 0-based mode indices (a single set except for
    ``sum``).
    """

    kind: str
    sets: tuple

    def __post_init__(self):
        if self.kind not in ("basic", "upperU", "lowerU", "sum"):
            raise ParameterError(f"unknown selector kind {self.kind!r}")
        sets = tuple(frozenset(int(i) for i in s) for s in self.sets)
        if self.kind != "sum" and len(sets) != 1:
            raise ParameterError(f"{self.kind} selector needs exactly one index set")
        if self.kind == "sum" and len(set(sets)) != len(sets):
            raise ParameterError("sum selector sets must be pairwise distinct")
        object.__setattr__(self, "sets", sets)

    def validate(self, order):
        for s in self.sets:
            for i in s:
                if not 0 <= i < order:
                    raise IndexRangeError(f"mode index {i} out of range [0,{order})")


def basic(I):
    return Selector("basic", (frozenset(I),))


def upper_u(I):
    return Selector("upperU", (frozenset(I),))


def lower_u(I):
    return Selector("lowerU", (frozenset(I),))


def direct_sum(sets):
    return Selector("sum", tuple(frozenset(s) for s in sets))


def order_ge2_sum(d):
    """Direct sum of the basic subspaces of every index set of size >= 2."""
    return direct_sum(c for r in range(2, d + 1)
                      for c in itertools.combinations(range(d), r))


def parse_selector(text):
    """Parse CLI selector strings like ``basic:1,3`` or ``sum:[1,2;1,3]``.

    Mode indices in the textual form are 1-based; the returned Selector uses
    0-based indices.
    """
    try:
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        if kind == "sum":
            rest = rest.strip()
            if not (rest.startswith("[") and rest.endswith("]")):
                raise ValueError("sum selector must use [I1;I2;...]")
            groups = [g for g in rest[1:-1].split(";") if g.strip()]
            sets = [[int(i) - 1 for i in g.split(",") if i.strip()] for g in groups]
            return direct_sum(sets)
        indices = [int(i) - 1 for i in rest.split(",") if i.strip()]
        return Selector(kind, (frozenset(indices),))
    except (ValueError, ParameterError) as exc:
        raise ParameterError(f"bad selector {text!r}: {exc}") from exc


def format_selector(sel):
    """Inverse of :func:`parse_selector` (1-based output)."""
    def fmt(s):
        return ",".join(str(i + 1) for i in sorted(s))

    if sel.kind == "sum":
        return "sum:[" + ";".join(fmt(s) for s in sel.sets) + "]"
    return f"{sel.kind}:{fmt(sel.sets[0])}"


def family_from_tensor(T):
    """Per-mode column spaces sp_k(T) of the mode-k matricizations; singular
    values at most ``RANK_TOL`` times the largest count as zero."""
    A = asarray(T)
    subspaces = []
    for k, (U, s, _) in enumerate(_flattening_svds(A, compute_uv=True)):
        if s.size == 0 or s[0] == 0.0:
            subspaces.append(ModeSubspace.zero(A.shape[k]))
            continue
        r = int(np.sum(s > RANK_TOL * s[0]))
        subspaces.append(ModeSubspace(A.shape[k], U[:, :r]))
    return ModeFamily(tuple(subspaces))


def complement(V):
    """Orthonormal basis of the orthogonal complement of V."""
    n, r = V.ambient_dim, V.dim
    if r == 0:
        return ModeSubspace.full(n)
    if r == n:
        return ModeSubspace.zero(n)
    # Full QR of the basis; trailing columns span the complement.
    Q, _ = np.linalg.qr(V.basis, mode="complete")
    return ModeSubspace(n, Q[:, r:])


def _mode_projectors(family):
    return [s.projector() for s in family.subspaces]


def project(selector, family, T):
    """Orthogonal projection of T onto the selected subspace."""
    A = family.check_shape(T)
    selector.validate(family.order)
    Ps = _mode_projectors(family)
    # I - P_k, formed once per mode on first use: a sum selector reuses it.
    perps = {}

    def apply(masks):
        # masks[k] in {"V", "perp", "free"}
        out = A
        for k, m in enumerate(masks):
            if m == "V":
                out = mode_product(out, k, Ps[k])
            elif m == "perp":
                if k not in perps:
                    perps[k] = np.eye(len(Ps[k])) - Ps[k]
                out = mode_product(out, k, perps[k])
        return out

    if selector.kind == "basic":
        I = selector.sets[0]
        return apply(["perp" if k in I else "V" for k in range(family.order)])
    if selector.kind == "upperU":
        I = selector.sets[0]
        return apply(["perp" if k in I else "free" for k in range(family.order)])
    if selector.kind == "lowerU":
        I = selector.sets[0]
        return apply(["V" if k in I else "free" for k in range(family.order)])
    # sum: basic subspaces are mutually orthogonal, so projections add.
    out = np.zeros(A.shape)
    for I in selector.sets:
        out += apply(["perp" if k in I else "V" for k in range(family.order)])
    return out


def residual(selector, family, T):
    """``||T - p(T)||_F / ||T||_F`` for the selected subspace's projector
    ``p``, or 0 for a zero tensor: the membership rule every precondition
    compares with its tolerance.  It runs on ``T`` over its power of two
    (``_unit_scale``), so it does not depend on the input's exponent."""
    A, _ = _unit_scale(family.check_shape(T))
    if not A.any():
        return 0.0
    return float(np.linalg.norm(A - project(selector, family, A))
                 / np.linalg.norm(A))


def basic_split(family, T):
    """All 2^d basic components of T; they are orthogonal and sum to T."""
    A = family.check_shape(T)
    d = family.order
    out = {}
    for bits in range(1 << d):
        I = frozenset(k for k in range(d) if bits >> k & 1)
        out[I] = project(basic(I), family, A)
    return out


@dataclass(frozen=True)
class EntrySupport:
    """A set of entry multi-indices of a declared shape (coordinate subspace)."""

    shape: tuple
    mask: np.ndarray

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != shape:
            raise DimensionError(f"mask shape {mask.shape} != {shape}")
        mask = np.ascontiguousarray(mask)
        mask.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_indices(cls, shape, indices):
        shape = tuple(int(n) for n in shape)
        mask = np.zeros(shape, dtype=bool)
        for idx in indices:
            idx = tuple(int(i) for i in idx)
            if len(idx) != len(shape) or any(
                not 0 <= i < n for i, n in zip(idx, shape)
            ):
                raise IndexRangeError(f"multi-index {idx} out of range for {shape}")
            mask[idx] = True
        return cls(shape, mask)

    @classmethod
    def empty(cls, shape):
        return cls(tuple(shape), np.zeros(tuple(shape), dtype=bool))

    @classmethod
    def full(cls, shape):
        return cls(tuple(shape), np.ones(tuple(shape), dtype=bool))

    def complemented(self):
        return EntrySupport(self.shape, ~self.mask)

    def intersect(self, other):
        if self.shape != other.shape:
            raise DimensionError("support shapes differ")
        return EntrySupport(self.shape, self.mask & other.mask)

    @property
    def count(self):
        return int(self.mask.sum())

    def indices(self):
        return [tuple(int(i) for i in idx) for idx in np.argwhere(self.mask)]


def support_project(support, T):
    """Zero all entries outside the support."""
    A = asarray(T)
    if A.shape != support.shape:
        raise DimensionError(f"tensor {A.shape} vs support {support.shape}")
    return np.where(support.mask, A, 0.0)


def _chain_apply(chain, X):
    out = X
    for op in chain:
        if isinstance(op, EntrySupport):
            out = support_project(op, out)
        elif callable(op):
            out = op(out)
        else:
            selector, family = op
            out = project(selector, family, out)
    return out


def operator_norm_chain(chain, shape):
    """Operator (spectral) norm of a composition of projectors, by dense
    materialization: a reference for shapes of at most 4096 entries.

    ``chain`` entries may be (Selector, ModeFamily) pairs, EntrySupport
    instances, or callables mapping tensors to tensors.  The composition is
    applied to every basis tensor and the largest singular value of the
    resulting matrix returned.
    """
    if not chain:
        raise ParameterError("chain must be nonempty")
    shape = tuple(int(n) for n in shape)
    N = int(np.prod(shape, dtype=np.int64))
    if N > 4096:
        raise ParameterError(f"{N} entries exceed the dense limit of 4096")
    cols = np.empty((N, N))
    E = np.zeros(shape)
    flat = E.ravel()
    for j in range(N):
        flat[j] = 1.0
        cols[:, j] = _chain_apply(chain, E).ravel()
        flat[j] = 0.0
    return float(np.linalg.norm(cols, 2))
