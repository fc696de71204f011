"""Certified tensor spectral and nuclear norms.

The spectral norm ``max <T, x_1 (x) ... (x) x_d>`` over unit vectors is
estimated from below by multi-start alternating maximization (HOPM) and
enclosed by a second-order branch and bound: the two largest modes are
contracted into an exact matrix spectral norm, and the unit spheres of the
other modes are searched in cells on cube faces, each bounded by the values
at its corners projected onto the tangent plane at its centre.  The open
cells are the rows of one array that keeps those corner values, so a split
prices only the two child centres and the corners on the split plane.  Each
value is a top singular value (``_sigma_max``: ``2 x 2`` blocks in closed
form, larger ones from the smaller Gram matrix).  The flattening bound
``min_k sigma_max(T_(k))`` is a cruder upper bound that holds at any size.
``spectral_enclosure``, the library's only caller of the branch and bound,
sets both ends of every enclosure: the branch and bound, capped by the
flattening bound, where it accepts the shape, and the flattening bound
elsewhere.  Its lower end is an attained value near a local maximum at every
size.  The branch and bound's best point is finished by the same BFGS steps
that finish HOPM (``_hopm_finish``) before it returns; past the branch and
bound's limit the largest entry is raised to the multi-start HOPM value.
The four engines run at one scale, the tensor over a power of two
(``_unit_scale``), and multiply their results back.

For a ``2 x 2 x n`` tensor the branch and bound first takes the
partial-transpose cap and its primal step's attained value
(``_partial_transpose``, whose object is the library's one test of that
shape).  Where cap and attained value decide, no cell is evaluated;
otherwise the cap enters the branch and bound's stop tests only.

A tensor with a rank-deficient mode is first compressed to its
multilinear-SVD core ``G = T x_k U_k^T`` (``_core``; ``U_k`` the mode-span
bases), whose spectral and nuclear norms are ``T``'s by the
restricted-subspace facts.  ``spectral_enclosure`` and ``nuclear_sandwich``
both work on ``G`` and widen their ends by the part of ``T`` outside the
bases, so the choice above is made on the multilinear rank, not the shape.

HOPM runs all starts together on unfoldings: each mode update is one BLAS
product of the other modes' row-wise Khatri-Rao product with the mode's
transposed unfolding, and the starts are ranked by the form at their vectors
(``_hopm_form``); no ``einsum`` runs.  A stack of same-shape tensors sweeps
as one batched ``matmul`` per update (``_hopm_stack``), each tensor leaving
at its own stop, so its result is the one it gets alone; ``rpca``'s
concentration experiment sends all its trials through one stack.  A run the
sweeps have not settled within ``_HOPM_SWEEPS`` (20), as at a degenerate
maximum, is finished from its best start by BFGS on ``sigma_max(T x_fixed
x)``, the function the branch and bound encloses.  The sweeps only pick the
basin and the finish converges it, so a sweep past the basin is Python
overhead the finish does not need.  On a ``2 x 2 x n``
tensor HOPM first takes the partial-transpose primal step; where the cap
meets its value, that value is the norm, the same float the branch and
bound reports there, and no sweep runs.

The nuclear norm is enclosed in a sandwich ``[lower, upper]``
(``nuclear_sandwich``): the upper end is a rank-one decomposition's total
weight plus its l1 residual, the lower end a dual witness's pairing with
``T`` over a certified upper bound on its spectral norm.  A vector or
matrix, raw or a core, is sandwiched by its singular values
(``_matrix_sandwich``): the upper end is their sum, every one counted, and
the witness ``U V^T`` is bounded like every other witness.  A ``2 x 2 x n``
tensor of full multilinear rank is sandwiched by the partial-transpose
bound's exact one-variable program.  Other shapes of full multilinear
rank get a greedy rank-one pursuit and the sign witness of its atoms.  The
witnesses are built on a tensor of full multilinear rank, whose span
subspace ``T(T)`` (the tensors whose mode-k spans lie inside those of
``T``) is the whole space; the witness of a compressed tensor is the core's
lifted by ``x_k U_k``, which lies in ``T(T)`` and keeps its spectral norm.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from ._partial_transpose import PartialTranspose
from .errors import DimensionError, ParameterError, PreconditionError
from .subspace import _rank, basic, family_from_tensor, residual
from .tensor_core import (
    _EPS,
    NuclearDecomposition,
    RankOneAtom,
    _flattening_svds,
    _khatri_rao_rows,
    _size_order,
    _unit_scale,
    asarray,
    basis_vector,
    decomposition_sum,
    holder_norm,
    inner,
    mode_product,
)

__all__ = [
    "SpectralResult",
    "NuclearSandwich",
    "spectral_hopm",
    "spectral_certified_upper",
    "spectral_flattening_upper",
    "spectral_enclosure",
    "nuclear_sandwich",
    "duality_gap_check",
    "restricted_norm_check",
]

_LETTERS = "abcdefgh"


@dataclass(frozen=True)
class SpectralResult:
    """Best value found for the spectral norm, with its one maximizer.

    ``value`` is a lower bound of the true norm, attained by the returned
    unit vectors ``maximizers`` (exact for vectors and matrices).
    ``converged`` is false when the iteration stopped on its sweep budget
    rather than its stop rule; it is keyword-only, so a stray positional
    argument raises ``TypeError`` instead of setting it.
    """

    value: float
    maximizers: tuple
    starts_used: int
    iterations: int
    converged: bool = field(default=True, kw_only=True)


def spectral_hopm(T, starts=32, tol=1e-12, max_iter=2000, seed=0):
    """Multi-start alternating (higher-order power) maximization of the
    multilinear form; returns the best local maximizer found, one vector
    per mode.

    All starts iterate together.  Each mode update is one BLAS product: the
    row-wise Khatri-Rao product of the other modes' current vectors
    (``starts x N/n_k``) times the mode's transposed unfolding
    (``N/n_k x n_k``, built once per call).  After a sweep the value at each
    start is the norm of its last update ``V``, since
    ``<A, x_1 (x) ... (x) V/||V||> = ||V||``; the sweeps stop when no value
    moves by more than ``tol`` (relative to the largest, when above 1, as
    on ``_unit_scale``'s tensor) since the sweep before, so the first sweep
    never stops them.  The starts are ranked, and the best one's value
    reported, by one formula: the row-wise
    ``<KR(x_1, ..., x_{d-1}) T_(d)^T, x_d>``, the form at each start's final
    vectors, whose first factor is the last sweep's last update.

    A run whose sweeps have not stopped after ``_HOPM_SWEEPS`` (20) is
    finished from its best start by ``_hopm_finish``; its vectors replace the
    best start's when the form there is at least as large, up to rounding
    (``_FINISH_FLOOR`` relative), so ``value`` is always the form at the
    returned unit vectors.  The sweeps only have to pick the start's basin:
    20 did on every draw tried, 10 not on all (``_HOPM_SWEEPS``).
    ``iterations`` counts sweeps plus finishing steps, both drawn from
    ``max_iter``, and ``converged`` is false only when that budget runs out
    first.

    An order-3 tensor whose two smallest modes have size 2 gets the
    partial-transpose primal step first, with its cap
    (``PartialTranspose.primal``).  Where ``cap - value <= tol * cap`` the
    value is the norm to rounding, and it is returned with its vectors as
    ``SpectralResult(value, vectors, 1, 1)``: ``seed`` and ``max_iter``
    have no effect there, and ``starts`` none but its check (``>= 1``,
    at every shape).  ``value`` is then the float that
    ``spectral_certified_upper`` reports as its lower end wherever the cap
    decides its enclosure too.  Otherwise the sweeps run as above.

    This is ``_hopm_stack`` on a stack of one tensor."""
    return _hopm_stack(asarray(T)[None], starts, tol, max_iter, seed)[0]


def _hopm_direct(A, tol, scale):
    """``spectral_hopm``'s result on ``A scale`` where it needs no sweep:
    a zero tensor, a vector, a matrix (its SVD), or a ``2 x 2 x n`` tensor
    whose partial-transpose cap meets the primal step's value to ``tol``
    relative; ``None`` otherwise."""
    d = A.ndim
    if not A.any():
        maxim = tuple(basis_vector(n) for n in A.shape)
        return SpectralResult(0.0, maxim, 0, 0)
    if d == 1:
        val = float(np.linalg.norm(A))
        return SpectralResult(min(val * scale, _MAX), (A / val,), 1, 1)
    if d == 2:
        U, s, Vt = np.linalg.svd(A)
        return SpectralResult(min(float(s[0]) * scale, _MAX),
                              (U[:, 0], Vt[0]), 1, 1)
    pt = PartialTranspose(A)
    if pt is not None:
        # The partial-transpose primal step, exact where its cap meets it.
        attained, vectors, cap = pt.primal()
        if cap - attained <= tol * cap:
            return SpectralResult(min(attained * scale, _MAX), vectors, 1, 1)
    return None


def _hopm_form(X, unfolded):
    """The form at each row of the vectors ``X`` (one ``rows x n_k`` array
    per mode): ``<KR(x_1, ..., x_{d-1}) T_(d)^T, x_d>`` row by row, with
    ``unfolded`` the last mode's transposed unfolding ``T_(d)^T``."""
    return ((_khatri_rao_rows(X[:-1]) @ unfolded) * X[-1]).sum(axis=-1)


def _as_stack(X):
    """``X`` with a leading stack axis: a view, of length one for a matrix."""
    return X.reshape((-1,) + X.shape[-2:])


def _hopm_stack(stack, starts=32, tol=1e-12, max_iter=2000, seed=0):
    """``spectral_hopm`` on every tensor ``stack[i]`` of a stack of tensors
    of one shape; returns one ``SpectralResult`` per tensor, each equal to
    ``spectral_hopm(stack[i], ...)``.

    Tensors that need no sweep (``_hopm_direct``) are settled one at a
    time.  The others sweep together, from the same starts: each mode
    update is one batched ``matmul`` over the stack, and a tensor leaves
    the loop at the sweep where its own stop rule fires, or on the sweep
    budget.  Ranking and the finish then run per tensor."""
    if starts < 1:
        raise ParameterError("starts must be >= 1")
    stack, scales = zip(*map(_unit_scale, stack))
    stack = np.array(stack)
    results = [_hopm_direct(A, tol, c) for A, c in zip(stack, scales)]
    todo = [i for i, res in enumerate(results) if res is None]
    if not todo:
        return results

    shape = stack.shape[1:]
    d = len(shape)
    # A lone tensor sweeps on plain matrices and tests its stop on scalars;
    # a stack adds a leading axis and reduces over the starts per tensor.
    # The stacked path gives a lone tensor the same floats, but its extra
    # axis and per-tensor reductions cost it 5-9% (fastest of 300 calls, six
    # processes a side on a shared Xeon core: a 16-start 3x3x3 run 0.67 ->
    # 0.73 ms, a 32-start 5x5x6 run 3.10 -> 3.27 ms), and the greedy
    # pursuit calls HOPM on one tensor once per atom.
    lead, starts_axis, fired = (((len(todo),), -2, np.count_nonzero)
                                if len(todo) > 1 else ((), None, bool))
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), d]))
    X = [rng.standard_normal((starts, n)) for n in shape]
    # Each row over its norm, summed as np.linalg.norm sums one vector.
    X = [R / np.sqrt(R[:, None, :] @ R[:, :, None])[:, 0] for R in X]
    X = [R[None].repeat(len(todo), axis=0).reshape(lead + R.shape)
         for R in X]
    # Mode k's transposed unfoldings: rows run over the other modes in
    # increasing order, as the Khatri-Rao rows do.
    unfolded = [np.ascontiguousarray(np.moveaxis(stack[todo], k + 1, -1)
                                     .reshape(lead + (-1, n)))
                for k, n in enumerate(shape)]
    last = _as_stack(unfolded[-1])
    # Position in `todo` of each tensor still sweeping, and what each
    # tensor left the loop with: its vectors, last update (the last mode's
    # KR(x_1, ..., x_{d-1}) T_(d)^T, none before a sweep), sweeps and stop.
    live = np.arange(len(todo))
    stacked = [_as_stack(x) for x in X]
    left = [([x[j] for x in stacked], None, 0, False) for j in live]
    # Sign flips are absorbed: |value| is what alternating maximization
    # drives upward (flip one factor's sign to realize the positive value).
    vals = np.inf
    sweeps = min(max_iter, _HOPM_SWEEPS)
    for sweep in range(1, sweeps + 1):
        for k in range(d):
            V = _khatri_rao_rows(X[:k] + X[k + 1:]) @ unfolded[k]
            norms = np.sqrt((V * V).sum(axis=-1, keepdims=True))
            X[k] = V / np.where(norms == 0, 1.0, norms)
        stop = (np.abs(norms - vals).max(axis=starts_axis)
                < tol * norms.max(axis=starts_axis, initial=1.0))
        vals = norms
        if sweep < sweeps and not fired(stop):
            continue
        stop = stop.reshape(-1)
        out = stop | (sweep == sweeps)
        stacked = [_as_stack(x) for x in X]
        for j in np.flatnonzero(out):
            left[live[j]] = ([x[j] for x in stacked], _as_stack(V)[j], sweep,
                             bool(stop[j]))
        if out.all():
            break
        go = ~out
        live, vals = live[go], vals[go]
        X = [x[go] for x in X]
        unfolded = [u[go] for u in unfolded]

    for j, (i, (Xj, Vj, total_iters, converged)) in enumerate(zip(todo,
                                                                   left)):
        # Starts at one maximum tie to rounding; rank them by the value the
        # result reports, not by the update norms.
        values = (_hopm_form(Xj, last[j]) if Vj is None
                  else (Vj * Xj[-1]).sum(axis=-1))
        best = int(np.argmax(np.abs(values)))
        vecs = [np.array(x[best]) for x in Xj]
        signed = float(values[best])
        if not converged and max_iter > total_iters:
            finished, steps, converged = _hopm_finish(
                stack[i], vecs, max_iter - total_iters)
            total_iters += steps
            at = float(_hopm_form([v[None] for v in finished], last[j])[0])
            # Within rounding of the sweeps' value, the finished vectors
            # are the better settled ones.
            if abs(at) >= abs(signed) * (1.0 - _FINISH_FLOOR):
                vecs, signed = finished, at
        if signed < 0:
            vecs[0] = -vecs[0]
        results[i] = SpectralResult(min(abs(signed) * scales[i], _MAX),
                                    tuple(vecs), starts, total_iters,
                                    converged=bool(converged))
    return results


# Sweeps before a run that has not converged is finished by `_hopm_finish`.
# They only have to pick the basin: on 250 seeded draws (3x3x3 to 12^3 and
# 3^4; Gaussian, sign and low-rank-plus-noise; 129 past 50 sweeps) budgets
# 20 and 15 gave the 50-sweep value to 2e-15 relative.  At 10, some sign
# tensors (6^3, 12^3) are handed over in a lower basin and finish up to
# 0.3% low, so 20 keeps a 2x margin.
_HOPM_SWEEPS = 20
# Relative rounding level of the finish's values, a rise below which is
# noise: a form summed over a few thousand entries rounds to about
# sqrt(N) eps.
_FINISH_FLOOR = 1e-14
# The finish's stop: a relative gradient below _FINISH_GTOL, where f changes
# by rounding only, or _FINISH_STALL such steps in a row.
_FINISH_GTOL = 1e-12
_FINISH_STALL = 20


def _hopm_finish(A, vecs, budget):
    """Second-order finish of a stalled HOPM run.

    Maximizes ``f(x) = sigma_max(A x_fixed x)``, the function the branch and
    bound encloses: the two largest modes are contracted exactly by an SVD,
    and the other (fixed) modes range over their spheres.  Each fixed vector
    is charted around its start ``x0`` by ``x0 + B y`` normalized, with
    ``B`` an orthonormal basis of the tangent space, and ``f`` is maximized
    over the chart by BFGS with a backtracking line search.  The gradient of
    ``f`` in ``x_k`` is ``A`` contracted with the top singular pair and the
    other fixed vectors.  Steps go past rounding level in ``f``: where ``f``
    no longer rises by more than ``_FINISH_FLOOR`` relative, they stop once
    the relative gradient is below ``_FINISH_GTOL``, which settles the
    vectors too, or after ``_FINISH_STALL`` such steps; a line search that
    finds only falls beyond rounding also ends them.  (Stopping at a rise
    below HOPM's ``tol`` left values up to ``tol`` short of where the
    sweeps, which wait for every start, would have gone, and vectors good
    to about ``sqrt(tol)``.)

    Returns the vectors (the top singular pair in the two largest modes),
    the number of steps taken, at most ``budget``, and whether the steps
    stopped before the budget ran out.  A start where the form is zero to
    rounding takes no step."""
    d = A.ndim
    order = _size_order(A.shape)[0]
    fixed, free = sorted(order[:d - 2]), sorted(order[d - 2:])
    na, nb = A.shape[free[0]], A.shape[free[1]]
    flat = A.transpose(fixed + free).reshape(-1, na * nb)
    x0 = [vecs[k] for k in fixed]
    # The last right singular vectors of the row x^T span its complement.
    charts = [np.linalg.svd(x[None])[2][1:].T for x in x0]
    ends = np.cumsum([0] + [B.shape[1] for B in charts])
    cuts = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]

    def evaluate(y):
        xs, lens = [], []
        for x, B, cut in zip(x0, charts, cuts):
            p = x + B @ y[cut]
            lens.append(np.sqrt(p @ p))
            xs.append(p / lens[-1])
        M = flat
        for x in xs:
            M = x @ M.reshape(len(x), -1)
        U, s, Vt = np.linalg.svd(M.reshape(na, nb))
        # A contracted with the top singular pair, then with every fixed
        # vector but the k-th: the gradient in x_k.
        W = flat @ np.outer(U[:, 0], Vt[0]).ravel()
        grad = []
        for k, (x, B, n) in enumerate(zip(xs, charts, lens)):
            g = W
            for z in reversed(xs[k + 1:]):
                g = g.reshape(-1, len(z)) @ z
            for z in xs[:k]:
                g = z @ g.reshape(len(z), -1)
            grad.append(B.T @ (g - s[0] * x) / n)
        return s[0], np.concatenate(grad), xs + [U[:, 0], Vt[0]]

    y = np.zeros(sum(len(x) - 1 for x in x0))
    f, g, out = evaluate(y)
    if f <= _FINISH_FLOOR * np.linalg.norm(flat):
        # The contraction vanishes to rounding: sigma_max has no gradient
        # there to follow, and the start is returned as it is.
        return [out[j] for j in np.argsort(fixed + free)], 0, False
    # Inverse Hessian of -f; f is 1-homogeneous, so its curvature scales
    # with f.
    H = np.eye(y.size) / f
    steps, stalled, converged = 0, 0, False
    while steps < budget and not converged:
        steps += 1
        p = H @ g
        slope, alpha, noise = float(g @ p), 1.0, _FINISH_FLOOR * f
        f_new, g_new, out_new = evaluate(y + p)
        # Backtrack until the rise is the Armijo share of the predicted one,
        # or that prediction is below rounding.  There a step that changes f
        # by rounding only is still taken: it settles the vectors, which f
        # no longer tells apart.
        while f_new < f + 1e-4 * alpha * slope and alpha * slope > noise:
            alpha *= 0.5
            f_new, g_new, out_new = evaluate(y + alpha * p)
        if f_new < f - noise:
            converged = True
            break
        # Past rounding level in f the gradient still tells the vectors
        # apart: the finish ends when it is small too, or when steps keep
        # changing f by rounding only.
        stalled = stalled + 1 if f_new - f <= noise else 0
        converged = stalled > 0 and (
            g_new @ g_new <= (_FINISH_GTOL * f_new) ** 2
            or stalled >= _FINISH_STALL)
        s, q = alpha * p, g - g_new
        y, f, g, out = y + s, f_new, g_new, out_new
        # The BFGS update of H, the first one from H scaled to s.q / q.q
        # (Nocedal & Wright, Numerical Optimization, eq. 6.20).
        sq = float(s @ q)
        if sq > 0:
            if steps == 1:
                H = np.eye(y.size) * sq / float(q @ q)
            Hq = H @ q
            H += ((sq + q @ Hq) * np.outer(s, s) / sq
                  - np.outer(Hq, s) - np.outer(s, Hq)) / sq
    return [out[j] for j in np.argsort(fixed + free)], steps, converged


# ---------------------------------------------------------------------------
# Rigorous upper bounds: second-order branch and bound on cube faces.
# ---------------------------------------------------------------------------

_BNB_BATCH = 64  # cells split per vectorized round
_BNB_FINISH_STEPS = 2000  # steps of each _hopm_finish on the lower end

_MAX = float(np.finfo(float).max)  # the cap of a lower end scaled back


def spectral_certified_upper(T, tol=1e-4, max_evals=2_000_000, threshold=None):
    """Rigorous enclosure (lower, upper) of the spectral norm.

    The two largest modes are contracted exactly: for vectors ``x_k`` on the
    other (fixed) modes, ``f(x) = sigma_max(T x_fixed x)`` is a matrix
    spectral norm, convex, 1-homogeneous and even in each ``x_k``.  By
    evenness each fixed unit sphere is covered by the ``+1`` faces of the
    cube ``[-1, 1]^n`` (a point ``y`` of a face stands for ``y / ||y||``), and
    a cell is a product of boxes on those faces, with ``D = sum(n_k - 1)``
    coordinates.  Centrally projecting a box's corners onto the tangent plane
    at the unit vector ``u`` through its centre (``p -> p / <p, u>``) gives
    points whose convex hull contains the projection of the whole box, whose
    values dominate the sphere values, so by per-mode convexity the largest
    ``f`` over the projected corner products bounds ``f`` on the cell, with
    an overshoot of order ``theta^2`` in the cell's angular radius.  ``f`` at
    the cell centre and at the normalized corners are attained values, hence
    lower bounds.

    The open cells are one array, a row a cell in push order: its bound,
    faces, centre, half-widths and ``f`` at its ``2^D`` corners.  Each round
    splits the ``_BNB_BATCH`` live cells of largest bound (the earlier pushed
    first among equal bounds) at their widest side and prices only the new
    points: the two child centres and the ``2^(D-1)`` corners on the split
    plane, which the children share; their other corners keep the parent's
    values.  ``max_evals`` still counts ``1 + 2^D`` evaluations per cell,
    though shared corners are priced once; fixed-mode dimensions above 4 are
    refused.  Each evaluation is a top singular value (``_sigma_max``), whose
    Gram form squares the entries, in range after ``_unit_scale``.

    ``tol`` is absolute: the search stops once ``upper - lower <= tol``.
    If ``threshold`` is given, it also stops as soon as either
    ``upper <= threshold`` or ``lower > threshold`` is established.

    A vector or matrix is enclosed by its top singular value (LAPACK's),
    the lower end less the rounding slack below.

    The stop tests use the cells' best attained value.  The lower end
    returned is that value or, where larger, a finished one: the best
    attained point (a cell centre or a normalized corner) is finished by
    ``_hopm_finish`` to a local maximum, and so is the top open cell's
    centre when its bound exceeds the finished value by more than ``tol``
    (the best point can sit on a lower peak).  Neither value is exact, so
    the lower end, and the best value the stop tests and the cells' pruning
    read, is the value less the backward error
    ``(N + sum_k n_k + d) eps ||A||_F`` of the form at unit vectors
    (``_rounding``), a cell's top singular value as much as a finished
    form.  The upper end does not depend on the finish.

    An order-3 tensor whose two smallest modes have size 2 gets the
    partial-transpose cap and an attained value first
    (``PartialTranspose.primal``).
    Where they meet the stop tests, no cell is evaluated and the attained
    value is the lower end, unfinished.  Otherwise the branch and bound
    starts from the attained value and its vectors, and the cap enters only
    its stop tests and its upper end, never the cells' priorities.
    """
    A, scale = _unit_scale(asarray(T))
    tol = tol / scale
    threshold = None if threshold is None else threshold / scale
    d = A.ndim
    if d <= 2:
        v = float(np.linalg.norm(A, 2))
        return min((v - _rounding(A)) * scale, _MAX), v * scale

    dims = A.shape
    order = _size_order(dims)[0]
    fixed = sorted(order[: d - 2])
    if any(dims[k] > 4 for k in fixed):
        raise ParameterError(
            "branch-and-bound certification supports fixed-mode dims <= 4"
        )
    if not A.any():
        return 0.0, 0.0

    def decided(upper, best):
        return upper - best <= tol or (
            threshold is not None and (upper <= threshold or best > threshold))

    # Capping the cells' priorities by the partial-transpose cap would tie
    # them at the cap and turn best-first search into breadth-first search.
    cap, best, point = np.inf, 0.0, None
    pt = PartialTranspose(A)
    if pt is not None:
        best, vectors, cap = pt.primal()
        if decided(cap, best):
            return min(best * scale, _MAX), max(best, cap) * scale
        point = [vectors[k] for k in fixed]

    A = np.ascontiguousarray(A.transpose(fixed + sorted(order[d - 2:])))
    ns = tuple(dims[k] for k in fixed)
    offsets, scatter, signs, moves, gather, faces, cols = _cell_tables(ns)
    D = signs.shape[1]
    subs = _LETTERS[:d]
    m = len(ns)
    contract = (subs + "," + ",".join("z" + s for s in subs[:m])
                + "->z" + subs[m:])
    # Matrices per einsum and _sigma_max call: about 32 MB.
    chunk = max(1, 2 ** 22 // (A.shape[-2] * A.shape[-1]))

    def placed(faces, ws):
        """``ws`` with the 1 moved to each cell's face, a point a row."""
        return [np.take_along_axis(w, s[fk][:, None], 2).reshape(-1, n)
                for fk, w, s, n in zip(faces.T, ws, scatter, ns)]

    def price(faces, ws):
        """f at the cells' points ``ws`` (``_face_points``), f / lengths, and
        the points."""
        xs = placed(faces, ws)
        f = np.concatenate([
            _sigma_max(np.einsum(contract, A, *(x[r:r + chunk] for x in xs)))
            for r in range(0, len(xs[0]), chunk)]).reshape(ws[0].shape[:2])
        lengths = np.prod([np.linalg.norm(w, axis=2) for w in ws], axis=0)
        return f, (f / lengths).reshape(-1), xs

    def bound(ws, f):
        """Cell bounds from f at the centres and corners ``ws``
        (``_face_points``); f / heights is f at a corner projected onto the
        tangent plane at the centre."""
        heights = np.prod([np.einsum("bcn,bn->bc", w, w[:, 0])
                           / np.linalg.norm(w[:, 0], axis=1)[:, None]
                           for w in ws], axis=0)
        return (f[:, 1:] / heights[:, 1:]).max(axis=1)

    def finished(start):
        """The form at the unit vectors ``_hopm_finish`` reaches from the
        fixed-mode vectors ``start``, normalized."""
        start = [x / np.linalg.norm(x) for x in start]
        vecs = _hopm_finish(A, start, _BNB_FINISH_STEPS)[0]
        return float(_hopm_form([v[None] for v in vecs],
                                A.reshape(-1, A.shape[-1]))[0])

    rounding = _rounding(A)

    # The open cells, a row each in push order (columns `cols`).  The first
    # batch is every face's centre and corners, lifted once for `price` and
    # `bound`.
    cells = np.empty((0, cols[-1].stop))
    resolved, evals, caps = 0.0, 0, np.inf
    zc, zh = np.zeros((len(faces), D)), np.ones((len(faces), D))
    points = _face_points(np.tile(signs, (len(faces), 1, 1)), offsets, ns)
    f, attained, xs = price(faces, points)
    while True:
        if len(faces):
            evals += len(faces) * len(signs)
            i = int(np.argmax(attained))
            if point is None or attained[i] > best:
                best, point = float(attained[i]), [x[i] for x in xs]
            u = np.minimum(bound(points, f), caps)
            cells = np.concatenate([cells, np.concatenate(
                [u[:, None], faces, zc, zh, f[:, 1:]], 1)])
        u = cells[:, 0]
        top = float(u.max(initial=-np.inf))
        upper = min(cap, max(top, resolved))
        if not len(u) or evals >= max_evals or decided(upper, best - rounding):
            # The lower end is the best attained value finished to a local
            # maximum, and the top open cell's centre finished too where
            # its bound (or the cap) leaves more than tol above that.
            lower = finished(point)
            if len(u) and min(cap, top) - lower > tol:
                k = int(np.argmax(u))
                ws = _face_points(cells[k:k + 1, None, cols[2]], offsets, ns)
                centre = placed(cells[k:k + 1, cols[1]].astype(int), ws)
                lower = max(lower, finished([x[0] for x in centre]))
            return (min((max(best, lower) - rounding) * scale, _MAX),
                    max(best, upper) * scale)
        # Dead cells are a down-set in u: the first _BNB_BATCH live ones in
        # (-u, push) order split, or all live ones and the dead are resolved.
        dead = ((u - (best - rounding) <= tol)
                | (threshold is not None and u <= threshold))
        pick = np.argsort(-u, kind="stable")[:_BNB_BATCH]
        pick = pick[~dead[pick]]
        keep = np.full(len(u), len(pick) == _BNB_BATCH)
        if len(pick) < _BNB_BATCH:
            resolved = float(u[dead].max(initial=resolved))
        keep[pick] = False
        parents, cells = cells[pick], cells[keep]
        caps, faces, zc, zh, F = (parents[:, c] for c in cols)
        if not len(pick):
            continue
        # Split each parent at its widest side; its bound caps the children.
        j = np.argmax(zh, axis=1)
        step = 0.5 * zh * (moves[j, -1] > 0)
        zh = zh - step
        Z = (zc - step)[:, None] + moves[j] * zh[:, None]
        new, attained, xs = price(faces.astype(int),
                                  _face_points(Z, offsets, ns))
        f = np.concatenate([F, new], 1)[np.arange(len(j))[:, None], gather[j]]
        f, zc = f.reshape(-1, len(signs)), Z[:, [0, -1]].reshape(-1, D)
        faces, zh, caps = faces.repeat(2, 0), zh.repeat(2, 0), caps.repeat(2)
        points = _face_points(zc[:, None, :] + signs[None] * zh[:, None, :],
                              offsets, ns)


def _rounding(A):
    """The backward error ``(N + sum_k n_k + d) eps ||A||_F`` of the form
    ``<A, x_1 (x) ... (x) x_d>`` at unit vectors: its N-term sum, and the
    norms and divisions that made the vectors unit."""
    return float((A.size + sum(A.shape) + A.ndim) * _EPS * np.linalg.norm(A))


@lru_cache(maxsize=64)
def _cell_tables(ns):
    """``(offsets, scatter, signs, moves, gather, faces, cols)``: the branch
    and bound's tables for fixed modes of the sizes ``ns`` (a tuple), built
    once per tuple and read-only.  ``offsets`` places each mode's ``n - 1``
    coordinates among the cell's ``D``, and

    * ``scatter``: face ``i`` of a mode of size ``n`` holds the points
      ``(1, z)`` with the 1 moved to index ``i`` (``scatter[k][i]``);
    * ``signs``: row 0 picks a cell's centre, the other ``2^D`` rows its
      corners;
    * ``moves`` and ``gather``: a split at offset ``j`` prices
      ``lo + moves[j] * half``: the lower child's centre ``lo``, the split
      plane's points in its corner order (``j``-th sign ``+1``) and the
      upper child's centre.  ``gather[j]`` picks both children's centre and
      corner values from the parent's corner values and the new ones;
      centres and half-widths are dyadic, so a shared point is one float;
    * ``faces``: every product of faces, the first batch's cells;
    * ``cols``: the columns of an open cell's row: its bound, faces, box
      centre, half-widths and ``f`` at its corners."""
    offsets = np.cumsum([0] + [n - 1 for n in ns])
    D = int(offsets[-1])
    scatter = tuple(np.array([np.argsort([i] + [j for j in range(n) if j != i])
                              for i in range(n)]) for n in ns)
    signs = np.array([(0.0,) * D]
                     + list(itertools.product((-1.0, 1.0), repeat=D)))
    C, K = len(signs) - 1, (len(signs) - 1) // 2
    moves, gather = np.zeros((D, K + 2, D)), np.zeros((D, 2, C + 1), int)
    for j, up in enumerate(signs[1:].T > 0):
        moves[j, 1:-1], moves[j, -1, j] = signs[1:][up], 2.0
        plane = np.zeros(C, int)
        plane[up] = plane[~up] = C + 1 + np.arange(K)
        gather[j, :, 0] = C, C + K + 1
        gather[j, :, 1:] = np.where(up, [plane, range(C)], [range(C), plane])
    gather = gather.reshape(D, 2 * C + 2)
    faces = np.array(list(itertools.product(*map(range, ns))))
    edges = np.cumsum([0, 1, len(ns), D, D, C])
    for table in (offsets, signs, moves, gather, faces, *scatter):
        table.flags.writeable = False
    return (offsets, scatter, signs, moves, gather, faces,
            tuple(map(slice, edges[:-1], edges[1:])))


def _face_points(Z, offsets, ns):
    """Per fixed mode of size ``n`` at offset ``a``, the points ``(1, z)``
    with ``z = Z[:, :, a:a + n - 1]``."""
    ones = np.ones(Z.shape[:2] + (1,))
    return [np.concatenate([ones, Z[:, :, a:a + n - 1]], 2)
            for a, n in zip(offsets, ns)]


def _sigma_max(X):
    """The largest singular value of each matrix in the batch ``X``
    (``batch x p x q``): in closed form for ``2 x 2`` blocks, elsewhere the
    square root of the top eigenvalue of the smaller Gram matrix.  The Gram
    form squares the entries, so it needs them well inside the float range.
    """
    if X.shape[1:] == (2, 2):
        a, b, c, d = X[:, 0, 0], X[:, 0, 1], X[:, 1, 0], X[:, 1, 1]
        return 0.5 * (np.hypot(a + d, c - b) + np.hypot(a - d, b + c))
    G = (X @ X.transpose(0, 2, 1) if X.shape[1] <= X.shape[2]
         else X.transpose(0, 2, 1) @ X)
    return np.sqrt(np.maximum(np.linalg.eigvalsh(G)[:, -1], 0.0))


def spectral_flattening_upper(T):
    """Certified spectral upper bound valid at any size: the smallest
    flattening operator norm ``min_k sigma_max(T_(k))``."""
    return min(float(s[0]) for s in _flattening_svds(asarray(T)))


def _core(A, svals):
    """The multilinear-SVD core of ``A``, or ``None`` when every mode has
    full rank (or ``A`` is zero).

    The ranks are read from ``svals``, ``A``'s mode singular values
    (``_flattening_svds``), by the rule ``family_from_tensor`` reads
    (``subspace._rank``); ``family_from_tensor`` is only run for a
    rank-deficient ``A``.  Returns ``(G, bases)``: ``bases[k]`` is the
    orthonormal basis ``U_k`` of ``A``'s mode-k span and
    ``G = A x_k U_k^T``, with its size-1 modes dropped (one mode is always
    kept).  By the restricted-subspace facts ``G`` has the spectral and
    nuclear norms of ``_lift(G, bases)``, which differs from ``A`` only by
    the singular values the span bases drop."""
    ranks = tuple(map(_rank, svals))
    if ranks == A.shape or 0 in ranks:
        return None
    bases = [V.basis for V in family_from_tensor(A).subspaces]
    G = A
    for k, U in enumerate(bases):
        G = mode_product(G, k, U.T)
    kept = [U.shape[1] for U in bases if U.shape[1] > 1]
    return G.reshape(kept or [1]), bases


def _lift(X, bases):
    """``X x_k U_k`` for a tensor shaped like a core on ``bases``."""
    X = X.reshape([U.shape[1] for U in bases])
    for k, U in enumerate(bases):
        X = mode_product(X, k, U)
    return X


def _lifted_factors(factors, bases):
    """The factors ``U_k f_k`` of a core atom's lift (``f_k = [1]`` in the
    modes the core dropped)."""
    kept = [k for k, U in enumerate(bases) if U.shape[1] > 1] or [0]
    core = dict(zip(kept, factors))
    return [U @ core.get(k, np.ones(1)) for k, U in enumerate(bases)]


def spectral_enclosure(T, tol=1e-4, max_evals=2_000_000, threshold=None):
    """Certified ``(lower, upper, method)`` for the spectral norm, at any size.

    ``lower`` is an attained value near a local maximum.  Where the branch
    and bound accepts the shape (``method == "bnb"``), it is the branch and
    bound's finished best value, and ``upper`` the smaller of its bound and
    the flattening bound; ``tol``, ``max_evals`` and ``threshold`` are
    passed to ``spectral_certified_upper``, whose ``tol`` is absolute (it
    stops once ``upper - lower <= tol``).  Where it refuses the shape
    (``method == "flattening"``), ``lower`` is the larger of the largest
    entry magnitude (attained by basis vectors) and the multi-start HOPM
    value ``spectral_hopm(T).value``, and ``upper`` the flattening bound.

    A tensor with a rank-deficient mode is enclosed through its core
    (``_core``), whose shape is the multilinear rank: the core's enclosure,
    widened on each side by ``||T - lift(G)||_F``, the part of ``T`` outside
    the span bases.  HOPM runs on ``T`` itself.
    """
    A, scale = _unit_scale(asarray(T))
    tol = tol / scale
    threshold = None if threshold is None else threshold / scale
    svals = _flattening_svds(A)
    core = _core(A, svals)
    if core is None:
        G, slack, flat = A, 0.0, min(float(s[0]) for s in svals)
    else:
        G, slack = core[0], holder_norm(A - _lift(*core), 2)
        flat = spectral_flattening_upper(G)
    try:
        lo, up = spectral_certified_upper(G, tol=tol, max_evals=max_evals,
                                          threshold=threshold)
        lo, up, method = lo - slack, min(up, flat) + slack, "bnb"
    except ParameterError:
        lo = max(holder_norm(G, np.inf) - slack, spectral_hopm(A).value)
        up, method = flat + slack, "flattening"
    return min(lo * scale, _MAX), up * scale, method


# ---------------------------------------------------------------------------
# Nuclear sandwich.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NuclearSandwich:
    """Certified interval for the nuclear norm with decomposition and dual
    witness evidence: ``dual_witness`` lies in the tensor's span subspace
    (lifted from the core when a mode is rank-deficient), and
    ``lower = min(<T, dual_witness> / witness_spectral_upper, upper)``."""

    lower: float
    upper: float
    decomposition: NuclearDecomposition
    dual_witness: np.ndarray
    witness_spectral_upper: float
    flags: tuple = ()

    @property
    def gap(self):
        return self.upper - self.lower

    @property
    def mid(self):
        return 0.5 * (self.lower + self.upper)


# Tolerance and budget of every certified bound on a dual witness.  The bound
# sets the sandwich's lower end.  A witness with a 2 x 2 x n core, such as
# every witness of a 2 x 2 x n sandwich, is bounded by the partial-transpose
# cap whatever the tolerance (the exact program's witness also by the cap at
# the program's own multiplier); a larger one gives away up to the tolerance.
_WITNESS_TOL = 1e-5
_WITNESS_MAX_EVALS = 80_000


def _witness_bound(Z):
    """Certified ``(upper, method)`` for ||Z||_sigma (``spectral_enclosure``
    at the witness tolerance and budget)."""
    return spectral_enclosure(Z, tol=_WITNESS_TOL,
                              max_evals=_WITNESS_MAX_EVALS)[1:]


def _certified_witness(A, Z):
    """``(ratio, Z, bound, method)`` for a candidate dual witness ``Z``: a
    certified bound on ``||Z||_sigma`` and the lower bound ``<A, Z> / bound``
    (``-inf`` unless both are positive)."""
    w_up, how = _witness_bound(Z)
    pairing = inner(A, Z)
    ratio = pairing / w_up if w_up > 0 and pairing > 0 else -np.inf
    return ratio, Z, w_up, how


_GREEDY_STARTS = 16  # HOPM starts per greedy step
_GREEDY_ATOMS = 64  # greedy steps at most
_GREEDY_TOL = 1e-8  # l1 norm of the scaled residual that ends the pursuit


def _greedy_atoms(A):
    """Greedy rank-one pursuit with fully corrective least-squares refit;
    returns ``(atoms, C, weights)``: the atoms' unit factors, their raveled
    outer products as the columns of ``C`` and the weights of the last
    refit, which minimize ``||A.ravel() - C @ weights||_2``.

    Each step adds one atom, HOPM's maximizer on the residual (seeded
    ``1000 * step``); the pursuit stops when that atom is (up to sign) one
    it already holds, after ``_GREEDY_ATOMS`` steps, or once the residual's
    l1 norm is at most ``_GREEDY_TOL``, relative to ``A``'s largest entry
    (``nuclear_sandwich`` passes ``A`` over a power of two near it)."""
    t = A.ravel()
    atoms = []
    C, weights = np.zeros((t.size, 0)), np.zeros(0)
    rest = A
    for it in range(_GREEDY_ATOMS):
        if holder_norm(rest, 1) <= _GREEDY_TOL:
            break
        res = spectral_hopm(rest, starts=_GREEDY_STARTS, tol=1e-13,
                            seed=1000 * it)
        if res.value <= 1e-14:
            break
        # Row i is atom i's outer product raveled, bitwise
        # outer_atom(atoms[i]).ravel().
        rows = _khatri_rao_rows([np.array(f) for f in
                                 zip(*atoms, res.maximizers)])
        if any(abs(float(np.dot(rows[-1], r))) > 1.0 - 1e-10
               for r in rows[:-1]):
            break
        atoms.append(tuple(res.maximizers))
        # The atoms as columns, copied C-contiguous: BLAS sums a transposed
        # view in another order.
        C = np.ascontiguousarray(rows.T)
        weights, *_ = np.linalg.lstsq(C, t, rcond=None)
        rest = A - (C @ weights).reshape(A.shape)
    return atoms, C, weights


def _sign_witness(C, weights, shape, flags):
    """Minimum-Frobenius tensor with <Z, C[:, i]> = sign(w_i), for atoms
    raveled into the columns of ``C``."""
    G = C.T @ C
    s = np.sign(weights)
    try:
        coef = np.linalg.solve(G, s)
        if not np.all(np.isfinite(coef)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        coef = np.linalg.solve(G + 1e-12 * np.eye(G.shape[0]), s)
        flags.append("witness_gram_ridged")
    return (C @ coef).reshape(shape)


def _nonzero_atoms(atoms, C, weights):
    """The atoms, columns and weights whose weight exceeds ``1e-12`` times
    the largest in magnitude."""
    keep = np.abs(weights) > 1e-12 * np.abs(weights).max()
    return [a for a, k in zip(atoms, keep) if k], C[:, keep], weights[keep]


def nuclear_sandwich(T):
    """Certified interval ``[lower, upper]`` enclosing the nuclear norm.

    A tensor with a rank-deficient mode is sandwiched through its core
    (``_core``), whose shape is the multilinear rank: the core's dual witness
    and atoms are lifted by ``x_k U_k``, which keeps the witness's spectral
    norm and bound, the upper end adds ``||T - lift(G)||_1`` (the part of
    ``T`` outside the span bases) and the lower end is the lifted witness's
    ratio ``<T, W> / witness_spectral_upper``.

    A vector or matrix, and a core of order at most two, is sandwiched by
    ``_matrix_sandwich``: the upper end sums every singular value, and the
    witness ``U V^T`` is bounded by ``spectral_enclosure``
    (``_witness_bound``).

    A tensor of full multilinear rank has the scaled base ``T`` as one
    candidate witness (certified by the flattening bound, so its ratio is at
    least ``||T||_F``).  A ``2 x 2 x n`` tensor (modes in any order) is
    sandwiched by ``PartialTranspose.program`` alone, to rounding (about
    1e-12 relative): its witness is the other candidate, and its atoms are the
    decomposition.  The upper end is the lesser of ``||T||_1`` and the
    atoms' total weight plus their l1 residual.  Every other tensor gets a
    greedy rank-one pursuit (``_greedy_atoms``) for the decomposition and
    the upper end, the least-squares weights' total plus their l1 residual,
    and the greedy sign witness as the other candidate.  All witnesses but
    the scaled base are certified once by ``spectral_enclosure``
    (``_certified_witness``); the program's witness keeps the program's own
    cap instead where that is smaller, flagged ``witness_bound_pt_dual``.
    The best certified ratio ``<T, Z> / ||Z||_sigma``, capped by the upper
    end, is the lower end; its witness and bound are ``dual_witness`` and
    ``witness_spectral_upper``.
    """
    A, scale = _unit_scale(asarray(T))
    if not A.any():
        empty = NuclearDecomposition((), A.shape)
        return NuclearSandwich(0.0, 0.0, empty, np.zeros(A.shape), 1.0)
    if A.ndim <= 2:
        return _scaled_sandwich(_matrix_sandwich(A), scale)
    svals = _flattening_svds(A)
    core = _core(A, svals)
    if core is None:
        flat = min(float(s[0]) for s in svals)
        return _scaled_sandwich(_sandwich(A, flat), scale)

    G, bases = core
    sw = (_matrix_sandwich(G) if G.ndim <= 2
          else _sandwich(G, spectral_flattening_upper(G)))
    W = _lift(sw.dual_witness, bases)
    upper = sw.upper + holder_norm(A - _lift(G, bases), 1)
    lower = min(inner(A, W) / sw.witness_spectral_upper, upper)
    decomposition = NuclearDecomposition(
        tuple(RankOneAtom.from_unnormalized(_lifted_factors(a.factors, bases),
                                            a.weight)
              for a in sw.decomposition.atoms),
        A.shape,
    )
    return _scaled_sandwich(NuclearSandwich(
        float(lower), float(upper), decomposition, W,
        sw.witness_spectral_upper, sw.flags), scale)


def _scaled_sandwich(sw, scale):
    """The sandwich ``sw`` of ``A / scale`` as one of ``A``: its ends and
    atom weights times ``scale``, its witness and that witness's bound kept."""
    atoms = tuple(RankOneAtom(a.weight * scale, a.factors)
                  for a in sw.decomposition.atoms)
    return replace(sw, lower=min(sw.lower * scale, _MAX),
                   upper=sw.upper * scale,
                   decomposition=replace(sw.decomposition, atoms=atoms))


def _sandwich(A, flat):
    """``nuclear_sandwich`` of a nonzero tensor of order at least three and
    full multilinear rank, given its flattening bound ``flat``."""
    flags = []
    # The scaled base: flat <= ||A||_F, so its ratio is at least ||A||_F.
    cands = [(inner(A, A) / flat, A, flat, "flattening")]
    upper = holder_norm(A, 1)
    pt = PartialTranspose(A)
    if pt is not None:
        Z, z_cap, atoms = pt.program()
        cand = _certified_witness(A, Z)
        if z_cap < cand[2]:
            cand = (inner(A, Z) / z_cap, Z, z_cap, "pt_dual")
        cands.append(cand)
        decomposition = NuclearDecomposition(atoms, A.shape)
        upper = min(decomposition.weight_sum
                    + holder_norm(A - decomposition_sum(decomposition), 1),
                    upper)
    else:
        atoms, C, weights = _greedy_atoms(A)
        if atoms:
            upper = min(float(np.sum(np.abs(weights))
                              + np.sum(np.abs(A.ravel() - C @ weights))),
                        upper)
            atoms, C, weights = _nonzero_atoms(atoms, C, weights)
        if atoms:
            cands.append(_certified_witness(
                A, _sign_witness(C, weights, A.shape, flags)))
        decomposition = NuclearDecomposition(
            tuple(RankOneAtom.from_unnormalized(f, w)
                  for w, f in zip(weights, atoms)),
            A.shape,
        )
    ratio, Z, w_up, how = max(cands, key=lambda c: c[0])
    flags.append(f"witness_bound_{how}")
    lower = min(ratio, upper)
    return NuclearSandwich(float(lower), float(upper), decomposition, Z,
                           float(w_up), tuple(flags))


def _matrix_sandwich(A):
    """``nuclear_sandwich`` of a nonzero vector or matrix, whose nuclear norm
    is the sum of its singular values: the upper end sums every one of them,
    the atoms are the nonzero singular triplets (a vector is its one atom)
    and the witness ``U V^T`` over all ``min(m, n)`` pairs, whose pairing
    with ``A`` is that sum, is bounded by ``_witness_bound``."""
    if A.ndim == 1:
        v = float(np.linalg.norm(A))
        atoms, Z = (RankOneAtom(v, (A / v,)),), A / v
    else:
        U, s, Vt = np.linalg.svd(A)
        atoms = tuple(RankOneAtom(float(w), (U[:, i], Vt[i]))
                      for i, w in enumerate(s) if w > 0)
        Z = U[:, :s.size] @ Vt[:s.size]
        v = float(np.sum(s))
    w_up, how = _witness_bound(Z)
    return NuclearSandwich(min(inner(A, Z) / w_up, v), v,
                           NuclearDecomposition(atoms, A.shape), Z, w_up,
                           (f"witness_bound_{how}",))


def duality_gap_check(T, S):
    """Check <T, S> <= upper(||T||_sigma) * upper(||S||_*); report slack."""
    A, B = asarray(T), asarray(S)
    if A.shape != B.shape:
        raise DimensionError("shape mismatch")
    _, sig_up, _ = spectral_enclosure(A, tol=1e-5)
    nuc_up = nuclear_sandwich(B).upper
    lhs = inner(A, B)
    rhs = sig_up * nuc_up
    return {
        "pairing": lhs,
        "spectral_upper": sig_up,
        "nuclear_upper": nuc_up,
        "bound": rhs,
        "slack": rhs - lhs,
        "holds": bool(lhs <= rhs + 1e-10),
    }


def restricted_norm_check(T, family, tol=1e-6):
    """Checks that the restricted-subspace facts hold for T in T((V_k)):
    HOPM's spectral maximizers lie inside the V_k (``maximizer_residuals``
    are their distances ``||x_k - P_k x_k||``), and the nuclear sandwich's
    dual witness lies in T((V_k)) and sets its lower end, both within
    ``tol`` relative.  ``T`` must lie in T((V_k)) to 1e-10 relative
    (``subspace.residual``)."""
    A = family.check_shape(T)
    sel = basic(())
    if residual(sel, family, A) > 1e-10:
        raise PreconditionError("T does not lie in T((V_k))")

    residuals = [float(np.linalg.norm(x - V.projector() @ x))
                 for x, V in zip(spectral_hopm(A).maximizers,
                                 family.subspaces)]
    maximizer_ok = max(residuals) <= tol

    sand = nuclear_sandwich(A)
    W = sand.dual_witness
    pair = inner(A, W)
    ratio = min(pair / sand.witness_spectral_upper, sand.upper)
    witness_ok = (
        residual(sel, family, W) <= tol
        and abs(ratio - sand.lower) <= tol * sand.lower
    )
    return {
        "maximizer_residuals": residuals,
        "maximizer_ok": bool(maximizer_ok),
        "witness_pairing": pair,
        "witness_ok": bool(witness_ok),
        "ok": bool(maximizer_ok and witness_ok),
    }
