"""Certified tensor spectral and nuclear norms.

The spectral norm ``max <T, x_1 (x) ... (x) x_d>`` over unit vectors is
estimated from below by multi-start alternating maximization (HOPM) and
enclosed by a second-order branch and bound: the two largest modes are
contracted into an exact matrix spectral norm, and the unit spheres of the
other modes are searched in cells on cube faces, each bounded by the values
at its corners projected onto the tangent plane at its centre.  The
flattening bound ``min_k sigma_max(T_(k))`` is a cruder upper bound that
holds at any size.  ``spectral_enclosure`` is the one place that chooses
between them, and the library's only caller of the branch and bound: the
branch and bound, capped by the flattening bound, where the branch and bound
accepts the shape, and the flattening bound elsewhere.

For a ``2 x 2 x n`` tensor the branch and bound first computes the
partial-transpose cap (``_partial_transpose_bound``): with ``M`` the Gram
matrix of the ``4 x n`` unfolding, ``||T||_sigma^2 <= lambda_max(M + s W)``
for the one symmetric ``W`` that product vectors annihilate, and the least
such bound is exact.  A closed-form primal step on the first mode's circle
gives an attained value and the multiplier ``s``; the cap is one ``eigvalsh``
plus a rounding slack.  Where cap and attained value decide, no cell is
evaluated; otherwise the cap enters the branch and bound's stop tests only.

A tensor with a rank-deficient mode is first compressed to its
multilinear-SVD core ``G = T x_k U_k^T`` (``_core``; ``U_k`` the mode-span
bases), whose spectral and nuclear norms are ``T``'s by the
restricted-subspace facts.  ``spectral_enclosure`` and ``nuclear_sandwich``
both work on ``G`` and widen their ends by the part of ``T`` outside the
bases, so the choice above is made on the multilinear rank, not the shape.

HOPM runs all starts together on unfoldings: each mode's transposed
unfolding ``T_(k)^T`` is copied once per call, and each mode update is one
BLAS product of the other modes' row-wise Khatri-Rao product with it.  The
norms of a sweep's last updates are the values at the starts, so no sweep
evaluates the form separately; it is evaluated once, at the final vectors,
to rank the starts.  At a degenerate maximum, such as a subgradient's atoms
where its spectral norm is attained, the sweeps converge sublinearly, so a
run they have not settled within ``_HOPM_SWEEPS`` is finished from its best
start by BFGS on ``sigma_max(T x_fixed x)``, the function the branch and
bound encloses, and the finished vectors are kept when the form is no lower
there, up to rounding.

The nuclear norm is enclosed in a sandwich ``[lower, upper]``: the upper
bound comes from a greedy rank-one decomposition, which takes HOPM's one
maximizer on the residual per step (with a final weight refit that
minimizes total weight plus l1 residual), the lower bound from a dual
witness divided by a certified upper bound on its spectral norm.  The
candidate witnesses interpolate the signs of a decomposition's atoms or come
from the dictionary LP.  Each is certified once by ``spectral_enclosure``;
the scaled base ``T`` is one more candidate, certified by the flattening
bound.  The lower end is the best certified ratio ``<T, Z> / ||Z||_sigma``,
attained by the witness returned; the best ratio before the LP also decides
whether to escalate to it.  Averaging the escalation's candidates over the
mode permutations that leave ``T`` unchanged keeps the pairing with ``T``
and cannot raise the spectral norm.  These candidates are built on a tensor
of full multilinear rank, whose span subspace ``T(T)`` (the tensors whose
mode-k spans lie inside those of ``T``) is the whole space; the witness of a
compressed tensor is the core's lifted by ``x_k U_k``, which lies in
``T(T)`` and keeps its spectral norm.

The dictionary LP minimizes ``sum |w|`` over decompositions of ``T`` into
atoms of a fixed grid, every product of per-mode half-sphere samples.  It is
solved by column generation: LPs on a small active set of grid atoms, whose
duals are priced against the whole grid by one mode product per mode with
the sample matrices, so the dictionary itself is never built.  An LP with
``N`` rows has a basic optimum on at most ``N`` atoms, so a few hundred
columns reach the optimum over tens of thousands.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError, PreconditionError
from .subspace import RANK_TOL, basic, family_from_tensor, project
from .tensor_core import (
    NuclearDecomposition,
    RankOneAtom,
    _khatri_rao_rows,
    asarray,
    basis_vector,
    holder_norm,
    inner,
    mode_matricize,
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


def _hopm_update_strings(d):
    """einsum strings for batched mode updates and batched values."""
    modes = _LETTERS[:d]
    value = modes + "," + ",".join("z" + m for m in modes) + "->z"
    updates = []
    for k in range(d):
        others = ",".join("z" + m for j, m in enumerate(modes) if j != k)
        updates.append(modes + "," + others + "->z" + modes[k])
    return value, updates


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
    moves by more than ``tol`` (relative to the largest, when above 1).  The
    best start is the one where the form, evaluated once at the final
    vectors, is largest in magnitude.

    A run whose sweeps have not stopped after ``_HOPM_SWEEPS`` is finished
    from its best start by ``_hopm_finish``; its vectors replace the best
    start's when the form there is at least as large, up to rounding
    (``_FINISH_FLOOR`` relative), so ``value`` is always the form at the
    returned unit vectors.
    ``iterations`` counts sweeps plus finishing steps, both drawn from
    ``max_iter``, and ``converged`` is false only when that budget runs out
    first."""
    A = asarray(T)
    d = A.ndim
    if np.all(A == 0):
        maxim = tuple(basis_vector(n) for n in A.shape)
        return SpectralResult(0.0, maxim, 0, 0)
    if d == 1:
        val = float(np.linalg.norm(A))
        return SpectralResult(val, (A / val,), 1, 1)
    if d == 2:
        U, s, Vt = np.linalg.svd(A)
        return SpectralResult(float(s[0]), (U[:, 0], Vt[0]), 1, 1)
    if starts < 1:
        raise ParameterError("starts must be >= 1")

    value_str, _ = _hopm_update_strings(d)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), d]))
    X = [rng.standard_normal((starts, n)) for n in A.shape]
    # Each row over its norm, summed as np.linalg.norm sums one vector.
    X = [R / np.sqrt(R[:, None, :] @ R[:, :, None])[:, 0] for R in X]
    # Mode k's transposed unfolding: rows run over the other modes in
    # increasing order, as the Khatri-Rao rows do.
    unfolded = [np.ascontiguousarray(np.moveaxis(A, k, -1).reshape(-1, n))
                for k, n in enumerate(A.shape)]
    # Sign flips are absorbed: |value| is what alternating maximization
    # drives upward (flip one factor's sign to realize the positive value).
    vals = np.abs(np.einsum(value_str, A, *X))
    total_iters, converged = 0, False
    for _ in range(min(max_iter, _HOPM_SWEEPS)):
        total_iters += 1
        for k in range(d):
            V = _khatri_rao_rows(X[:k] + X[k + 1:]) @ unfolded[k]
            norms = np.sqrt((V * V).sum(axis=1))
            X[k] = V / np.where(norms == 0, 1.0, norms)[:, None]
        converged = np.abs(norms - vals).max() < tol * max(1.0, norms.max())
        vals = norms
        if converged:
            break
    # Starts at one maximum tie to rounding; rank them by the value the
    # result reports, not by the update norms.
    vals = np.abs(np.einsum(value_str, A, *X))
    best = int(np.argmax(vals))
    vecs = [np.array(x[best]) for x in X]
    signed = float(np.einsum(value_str, A, *[v[None] for v in vecs]).item())
    if not converged and max_iter > total_iters:
        finished, steps, converged = _hopm_finish(A, vecs,
                                                  max_iter - total_iters)
        total_iters += steps
        at = float(np.einsum(value_str, A, *[v[None] for v in finished]
                             ).item())
        # Within rounding of the sweeps' value, the finished vectors are
        # the better settled ones.
        if abs(at) >= abs(signed) * (1.0 - _FINISH_FLOOR):
            vecs, signed = finished, at
    if signed < 0:
        vecs[0] = -vecs[0]
    maxim = tuple(vecs)
    value = float(abs(signed))
    return SpectralResult(value, maxim, starts, total_iters,
                          converged=bool(converged))


# Sweeps before a run that has not converged is finished by `_hopm_finish`.
_HOPM_SWEEPS = 50
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
    stopped before the budget ran out."""
    d = A.ndim
    order = np.argsort(A.shape, kind="stable")
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

_BNB_BATCH = 128  # cells evaluated per vectorized round

# The one symmetric W (up to scale) with (x (x) y)^T W (x (x) y) = 0 for all
# x, y in R^2: the partial-transpose difference S - S^Gamma for 2 x 2 modes.
_PT_W = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0],
                  [0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
_PT_NEWTON = 30  # Newton steps on the angle at most


def _partial_transpose_bound(A):
    """Certified ``(cap, attained)`` for ``||A||_sigma``, ``A`` of shape
    ``(2, 2, n)`` up to a permutation of its modes.

    With ``U`` the ``4 x n`` unfolding of the sorted tensor and
    ``M = U U^T``, ``||A||_sigma^2 = max (x (x) y)^T M (x (x) y)`` over unit
    ``x, y`` in ``R^2``.  Product vectors annihilate ``_PT_W``, so
    ``||A||_sigma^2 <= lambda_max(M + s W)`` for every ``s`` (Doherty,
    Parrilo & Spedalieri 2004; Ling, Nie, Qi & Ye 2009).  Nonnegative
    biquadratic forms in ``2 + 2`` variables are sums of squares (Calderon
    1973), so the least such bound is exact.

    Primal step: ``sigma_max(A x_0 x)^2`` with ``x = (cos t, sin t)`` is the
    top eigenvalue of a ``2 x 2`` matrix affine in ``(cos 2t, sin 2t)``,
    evaluated in closed form on a grid of ``2t``; each local maximum on the
    grid is refined by Newton steps on the angle, and with ``y`` the top
    eigenvector at the best one, ``attained`` is ``||A x_0 x x_1 y||``.

    Dual step: at the maximizer ``v = x (x) y`` with value ``g``, ``v`` is
    a top eigenvector of ``M + s W`` for the optimal ``s``, so
    ``(M - g I) v = -s W v``; as ``Wv`` has unit norm and is orthogonal to
    ``v``, that ``s`` is ``-<Wv, Mv>``.  ``cap`` is
    ``sqrt(lambda_max(M + s W) + slack)``, where the slack
    ``4 (n + 4) eps (||M||_F + 2|s|)`` covers the backward errors of forming
    ``M`` (``n eps tr(M) <= 2 n eps ||M||_F``), of adding ``s W`` and of the
    symmetric eigensolver.  Where the primal step misses the maximum, ``s``
    is off the optimum and ``cap`` is still a bound, only looser."""
    B = A.transpose(np.argsort(A.shape, kind="stable"))
    n = B.shape[2]
    U = B.reshape(4, n)
    M = U @ U.T
    # sigma_max(B x_0 x)^2 = lambda_max(x0^2 M00 + 2 x0 x1 sym(M01) + x1^2
    # M11), with Mij the 2 x 2 blocks of M; at x = (cos t, sin t) this is
    # [[h + e, b], [b, h - e]] with h, e, b affine in (1, cos 2t, sin 2t).
    (m00, m01, m02, m03), (_, m11, m12, m13), (_, _, m22, m23), \
        (_, _, _, m33) = M.tolist()
    h0, h1, h2 = ((m00 + m11 + m22 + m33) / 4, (m00 + m11 - m22 - m33) / 4,
                  (m02 + m13) / 2)
    e0, e1, e2 = ((m00 - m11 + m22 - m33) / 4, (m00 - m11 - m22 + m33) / 4,
                  (m02 - m13) / 2)
    b0, b1, b2 = (m01 + m23) / 2, (m01 - m23) / 2, (m03 + m12) / 2
    grid = np.arange(64) * (np.pi / 32)
    c, s = np.cos(grid), np.sin(grid)
    g = h0 + h1 * c + h2 * s + np.hypot(e0 + e1 * c + e2 * s,
                                        b0 + b1 * c + b2 * s)

    def terms(phi):
        c, s = math.cos(phi), math.sin(phi)
        return ((h0 + h1 * c + h2 * s, h2 * c - h1 * s, -h1 * c - h2 * s),
                (e0 + e1 * c + e2 * s, e2 * c - e1 * s, -e1 * c - e2 * s),
                (b0 + b1 * c + b2 * s, b2 * c - b1 * s, -b1 * c - b2 * s))

    def climb(phi, value):
        """Newton steps on the angle while the value rises."""
        for _ in range(_PT_NEWTON):
            (h, dh, ddh), (e, de, dde), (b, db, ddb) = terms(phi)
            r = math.hypot(e, b)
            if r == 0.0:
                break
            slope = dh + (e * de + b * db) / r
            curve = (ddh + (de * de + db * db + e * dde + b * ddb) / r
                     - (e * de + b * db) ** 2 / r ** 3)
            if curve >= 0.0:
                break
            trial = phi - slope / curve
            (h, _, _), (e, _, _), (b, _, _) = terms(trial)
            if h + math.hypot(e, b) < value:
                break
            step, phi, value = abs(trial - phi), trial, h + math.hypot(e, b)
            if step <= 1e-15:
                break
        return value, phi

    # Every local maximum on the grid is climbed: two maxima closer in value
    # than the grid resolves them can be ranked wrongly by the grid.
    ring = np.concatenate((g[-1:], g, g[:1]))
    peaks = {int(np.argmax(g)), *np.flatnonzero((g > ring[:-2])
                                                 & (g >= ring[2:])).tolist()}
    value, phi = max(climb(float(grid[i]), float(g[i])) for i in peaks)
    (h, _, _), (e, _, _), (b, _, _) = terms(phi)
    r = math.hypot(e, b)
    # Top eigenvector of [[h + e, b], [b, h - e]], from its better column.
    y = (r + e, b) if e >= 0.0 else (b, r - e)
    ny = math.hypot(*y)
    y = np.array(y) / ny if ny > 0.0 else np.array([1.0, 0.0])
    x = np.array([math.cos(0.5 * phi), math.sin(0.5 * phi)])
    v = np.outer(x, y).ravel()
    attained = float(np.linalg.norm(v @ U))
    shift = -float(_PT_W @ v @ (M @ v))
    slack = (4.0 * (n + 4) * np.finfo(float).eps
             * (np.linalg.norm(M) + 2.0 * abs(shift)))
    top = np.linalg.eigvalsh(M + shift * _PT_W)[-1]
    return float(np.sqrt(max(top, 0.0) + slack)), attained


def spectral_certified_upper(T, tol=1e-4, max_evals=2_000_000, threshold=None):
    """Rigorous enclosure (lower, upper) of the spectral norm.

    The two largest modes are contracted exactly: for vectors ``x_k`` on the
    other (fixed) modes, ``f(x) = sigma_max(T x_fixed x)`` is a matrix
    spectral norm, convex, 1-homogeneous and even in each ``x_k``.  By
    evenness each fixed unit sphere is covered by the ``+1`` faces of the
    cube ``[-1, 1]^n`` (a point ``y`` of a face stands for ``y / ||y||``), and
    a cell is a product of boxes on those faces, split at its widest side.
    Centrally projecting a box's corners onto the tangent plane at the unit
    vector ``u`` through its centre (``p -> p / <p, u>``) gives points whose
    convex hull contains the projection of the whole box, whose values dominate
    the sphere values, so by per-mode convexity the largest ``f`` over the
    projected corner products bounds ``f`` on the cell, with an overshoot of
    order ``theta^2`` in the cell's angular radius.  ``f`` at the cell centre
    and at the normalized corners are attained values, hence lower bounds.
    ``max_evals`` counts these small matrix-norm evaluations; each cell costs
    ``1 + 2^sum(n_k - 1)`` of them, so fixed-mode dimensions above 4 are
    refused.

    If ``threshold`` is given, the search stops as soon as either
    ``upper <= threshold`` or ``lower > threshold`` is established.

    An order-3 tensor whose two smallest modes have size 2 gets the
    partial-transpose cap and an attained value first
    (``_partial_transpose_bound``): exact up to a backward-error slack of
    order ``(n + 4) eps`` relative in the squared norm.  When they decide
    (``cap - attained <= tol``, or in threshold mode ``cap <= threshold`` or
    ``attained > threshold``), no cell is evaluated.  Otherwise the branch
    and bound starts from the attained value, and the cap enters only its
    stop tests and its returned upper end, never the cells' priorities.
    """
    A = asarray(T)
    d = A.ndim
    if d <= 2:
        v = float(np.linalg.norm(A, 2))
        return v, v

    dims = A.shape
    order = np.argsort(dims, kind="stable")
    fixed = sorted(order[: d - 2])
    if any(dims[k] > 4 for k in fixed):
        raise ParameterError(
            "branch-and-bound certification supports fixed-mode dims <= 4"
        )
    if np.all(A == 0):
        return 0.0, 0.0

    def decided(upper, best):
        return upper - best <= tol or (
            threshold is not None and (upper <= threshold or best > threshold))

    # A 2 x 2 x n tensor's partial-transpose cap and attained value usually
    # decide at once.  Otherwise the cap enters the stop tests only: capping
    # the cells' priorities ties them at the cap and turns best-first search
    # into breadth-first search.
    cap, best = np.inf, 0.0
    if d == 3 and sorted(dims)[:2] == [2, 2]:
        cap, best = _partial_transpose_bound(A)
        if decided(cap, best):
            return best, max(best, cap)

    A = A.transpose(fixed + sorted(order[d - 2:]))
    ns = [dims[k] for k in fixed]
    offsets = np.cumsum([0] + [n - 1 for n in ns])
    D = int(offsets[-1])
    # Face i of mode k holds the points (1, z) with the 1 moved to index i.
    scatter = [np.array([np.argsort([i] + [j for j in range(n) if j != i])
                         for i in range(n)]) for n in ns]
    # Row 0 picks the cell centre, the other rows its corners.
    signs = np.array([(0.0,) * D]
                     + list(itertools.product((-1.0, 1.0), repeat=D)))
    subs = _LETTERS[:d]
    m = len(ns)
    contract = (subs + "," + ",".join("z" + s for s in subs[:m])
                + "->z" + subs[m:])
    # Matrices per einsum and SVD call, so that each call stays near 32 MB.
    chunk = max(1, 2 ** 22 // (A.shape[-2] * A.shape[-1]))

    def bound(faces, zc, zh):
        """Cell upper bounds and the best attained value over a batch."""
        Z = zc[:, None, :] + signs[None] * zh[:, None, :]
        B, C = Z.shape[:2]
        ws = [np.concatenate([np.ones((B, C, 1)), Z[:, :, a:a + n - 1]], 2)
              for a, n in zip(offsets, ns)]
        xs = [np.take_along_axis(w, s[faces[:, k]][:, None], 2).reshape(-1, n)
              for k, (w, s, n) in enumerate(zip(ws, scatter, ns))]
        f = np.concatenate([
            np.linalg.svd(np.einsum(contract, A, *(x[r:r + chunk] for x in xs)),
                          compute_uv=False)[:, 0]
            for r in range(0, B * C, chunk)]).reshape(B, C)
        # f / heights is f at the points projected onto the tangent planes at
        # the cell centre; f / lengths is f at the normalized points.
        lengths = np.prod([np.linalg.norm(w, axis=2) for w in ws], axis=0)
        heights = np.prod([np.einsum("bcn,bn->bc", w, w[:, 0])
                           / np.linalg.norm(w[:, 0], axis=1)[:, None]
                           for w in ws], axis=0)
        upper = (f[:, 1:] / heights[:, 1:]).max(axis=1)
        return upper, float((f / lengths).max())

    heap, tick = [], itertools.count()
    resolved = 0.0
    evals = 0
    # A cell: its face in each fixed mode, box centre, box half-widths, and
    # its parent's bound, which holds for the cell too.
    cells = [(f, np.zeros(D), np.ones(D), np.inf)
             for f in itertools.product(*map(range, ns))]
    while True:
        if cells:
            faces, zc, zh, caps = (np.array(a) for a in zip(*cells))
            ubs, value = bound(faces, zc, zh)
            evals += len(cells) * len(signs)
            best = max(best, value)
            for u, f, c, h in zip(np.minimum(ubs, caps), faces, zc, zh):
                heapq.heappush(heap, (-float(u), next(tick), f, c, h))
        top = -heap[0][0] if heap else -np.inf
        upper = min(cap, max(top, resolved))
        if not heap or evals >= max_evals or decided(upper, best):
            return best, max(best, upper)
        cells = []
        while heap and len(cells) < _BNB_BATCH:
            neg_ub, _, face, c, h = heapq.heappop(heap)
            if -neg_ub - best <= tol or (
                threshold is not None and -neg_ub <= threshold
            ):
                resolved = max(resolved, -neg_ub)
                continue
            j = int(np.argmax(h))
            half = h.copy()
            half[j] *= 0.5
            for side in (-1.0, 1.0):
                centre = c.copy()
                centre[j] += side * half[j]
                cells.append((face, centre, half, -neg_ub))


def spectral_flattening_upper(T):
    """Certified spectral upper bound valid at any size: the smallest
    flattening operator norm ``min_k sigma_max(T_(k))``."""
    return min(float(s[0]) for s in _mode_singular_values(asarray(T)))


def _mode_singular_values(A):
    """The singular values of each mode's flattening ``A_(k)``, largest
    first."""
    return [np.linalg.svd(mode_matricize(A, k), compute_uv=False)
            for k in range(A.ndim)]


def _core(A, svals):
    """The multilinear-SVD core of ``A``, or ``None`` when every mode has
    full rank (or ``A`` is zero).

    The ranks are read from ``svals``, ``A``'s mode singular values
    (``_mode_singular_values``): those at most ``RANK_TOL`` times the
    largest count as zero, as in ``family_from_tensor``, which is only run
    for a rank-deficient ``A``.  Returns ``(G, bases)``: ``bases[k]`` is the
    orthonormal basis ``U_k`` of ``A``'s mode-k span and
    ``G = A x_k U_k^T``, with its size-1 modes dropped (one mode is always
    kept).  By the restricted-subspace facts ``G`` has the spectral and
    nuclear norms of ``_lift(G, bases)``, which differs from ``A`` only by
    the singular values the span bases drop."""
    ranks = tuple(int(np.sum(s > RANK_TOL * s[0])) for s in svals)
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

    Where the branch and bound accepts the shape (``method == "bnb"``),
    ``lower`` is its attained value and ``upper`` the smaller of its bound
    and the flattening bound; ``tol``, ``max_evals`` and ``threshold`` are
    passed to ``spectral_certified_upper``.  Where it refuses the shape
    (``method == "flattening"``), ``lower`` is the largest entry magnitude,
    attained by basis vectors, and ``upper`` the flattening bound.

    A tensor with a rank-deficient mode is enclosed through its core
    (``_core``), whose shape is the multilinear rank: the core's enclosure,
    widened on each side by ``||T - lift(G)||_F``, the part of ``T`` outside
    the span bases.
    """
    A = asarray(T)
    svals = _mode_singular_values(A)
    core = _core(A, svals)
    if core is None:
        G, slack, flat = A, 0.0, min(float(s[0]) for s in svals)
    else:
        G, slack = core[0], holder_norm(A - _lift(*core), 2)
        flat = spectral_flattening_upper(G)
    try:
        lo, up = spectral_certified_upper(G, tol=tol, max_evals=max_evals,
                                          threshold=threshold)
    except ParameterError:
        return holder_norm(G, np.inf) - slack, flat + slack, "flattening"
    return lo - slack, min(up, flat) + slack, "bnb"


def _raised_enclosure(T, tol, max_evals=2_000_000, threshold=None):
    """``spectral_enclosure`` with its lower end raised to the multi-start
    HOPM value where that is larger (both are attained values)."""
    lo, up, method = spectral_enclosure(T, tol=tol, max_evals=max_evals,
                                        threshold=threshold)
    return max(lo, spectral_hopm(T).value), up, method


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


def _atom_rows(atoms):
    """Row ``i`` is atom ``i``'s outer product raveled, bitwise
    ``outer_atom(atoms[i]).ravel()``.  Its transpose, the atoms as columns,
    is copied C-contiguous before a BLAS product: a transposed view sums in
    another order."""
    return _khatri_rao_rows([np.array(f) for f in zip(*atoms)])


def _l1_refit(columns, target):
    """min sum|w| + ||target - columns @ w||_1 via a linear program.

    Equality form ``C w+ - C w- + v+ - v- = target`` over nonnegative
    variables, minimizing their sum; the constraint matrix is sparse
    (``[C, -C, I, -I]``), so memory grows with the entry count, not its
    square.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    N, m = columns.shape
    col = np.asarray(columns, dtype=float).ravel(order="F")
    data = np.concatenate([col, -col, np.ones(N), -np.ones(N)])
    rows = np.arange(N)
    indices = np.concatenate([np.tile(rows, 2 * m), rows, rows])
    indptr = np.concatenate([np.arange(0, 2 * m * N + 1, N),
                             2 * m * N + np.arange(1, 2 * N + 1)])
    A_eq = sparse.csc_array((data, indices, indptr), shape=(N, 2 * m + 2 * N))
    res = linprog(np.ones(2 * m + 2 * N), A_eq=A_eq, b_eq=target,
                  bounds=(0, None), method="highs")
    if not res.success:
        return None
    return res.x[:m] - res.x[m:2 * m]


# Tolerance and budget of every certified bound on a dual witness.  The bound
# sets the sandwich's lower end.  A witness with a 2 x 2 x n core is bounded
# exact to rounding by the partial-transpose cap, whatever the tolerance; a
# larger one gives away up to the tolerance.
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
# Relative greedy gap (lower end from the greedy witness's certified ratio)
# above which the sandwich escalates to the dictionary LP.
_GAP_GOAL = 1e-6


def _greedy_atoms(A, tol, max_atoms, seed):
    """Greedy rank-one pursuit with fully corrective least-squares refit;
    returns the atoms' unit factors.

    Each step adds one atom, HOPM's maximizer on the residual; the pursuit
    stops when that atom is (up to sign) one it already holds."""
    l2 = holder_norm(A, 2)
    t = A.ravel()
    atoms = []
    residual = A
    for it in range(max_atoms):
        if holder_norm(residual, 1) <= tol * l2:
            break
        res = spectral_hopm(residual, starts=_GREEDY_STARTS, tol=1e-13,
                            seed=seed + 1000 * it)
        if res.value <= 1e-14 * l2:
            break
        rows = _atom_rows(atoms + [res.maximizers])
        if any(abs(float(np.dot(rows[-1], r))) > 1.0 - 1e-10
               for r in rows[:-1]):
            break
        atoms.append(tuple(res.maximizers))
        C = np.ascontiguousarray(rows.T)
        weights, *_ = np.linalg.lstsq(C, t, rcond=None)
        residual = A - (C @ weights).reshape(A.shape)
    return atoms


def _half_sphere_samples(n, target):
    """About ``target`` unit vectors covering a half-sphere of R^n (the
    antipode of each sample is represented by a negative weight).

    For ``n >= 3`` the samples are the hyperspherical points of a product of
    ``n - 1`` angle axes: coordinate ``i`` is ``cos(a_i)`` times the product
    of the sines before it, and the last is the product of all sines."""
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        m = max(8, target)
        th = np.pi * np.arange(m) / m
        return np.stack([np.cos(th), np.sin(th)], 1)
    n_ang = n - 1
    m = max(4, int(round(target ** (1.0 / n_ang))))
    axes = [np.linspace(0.0, np.pi, m, endpoint=False)] * n_ang
    angles = np.array(list(itertools.product(*axes)))
    ones = np.ones((len(angles), 1))
    sines = np.cumprod(np.sin(angles), axis=1)
    return np.hstack([np.cos(angles), ones]) * np.hstack([ones, sines])


# Dictionary LP: half-sphere samples per mode, by mode dimension (no others
# are escalated), and the cap on the dictionary's size.
_LP_SAMPLES = {1: 1, 2: 25, 3: 150, 4: 340}
_LP_CAP = 100_000


def _lp_grid(shape):
    """Per-mode sample matrices ``(s_k, n_k)`` of the dictionary LP's grid,
    whose atoms are the products of one row from each."""
    targets = [_LP_SAMPLES[n] for n in shape]
    while int(np.prod([max(1, tg) for tg in targets])) > _LP_CAP:
        targets = [max(1, int(tg * 0.85)) if n > 1 else 1
                   for tg, n in zip(targets, shape)]
        if all(tg <= 4 for tg, n in zip(targets, shape) if n > 1):
            break
    return [_half_sphere_samples(n, tg) for n, tg in zip(shape, targets)]


# Column generation stops once no grid atom pairs with the dual above this.
_LP_PRICE_TOL = 1e-9


def _grid_pairings(Y, factor_sets):
    """``|<Y, a>|`` for every grid atom ``a``, shaped by the per-mode sample
    counts: one mode product of ``Y`` with each mode's sample matrix."""
    P = Y
    for F in factor_sets:
        P = np.tensordot(P, F, axes=([0], [1]))
    return np.abs(P)


def _largest(values, k):
    """Indices of the ``k`` largest values (all of them if there are fewer),
    in no particular order."""
    if k >= values.size:
        return np.arange(values.size)
    return np.argpartition(-values, k - 1)[:k]


def _dictionary_lp(A):
    """Atomic-norm LP over a sampled rank-one dictionary, solved by column
    generation.

    The grid holds every product of per-mode half-sphere samples; the LP
    minimizes ``sum |w|`` subject to ``sum_a w_a a = A`` over it.  It is
    solved on an active set of grid atoms: the ``4N`` best aligned with
    ``A`` plus, for each entry, the atom largest there (``N`` entries).
    Each restricted LP's dual ``y`` is priced against the whole grid by mode
    products with the sample matrices, without building the dictionary, and
    up to ``2N`` of the atoms with ``|<y, a>| > 1`` join the active set.
    When none is left, ``y`` is feasible for the grid's dual LP, so the
    restricted optimum is the grid optimum.  A restricted LP that fails
    brings in the rest of the grid.

    Returns ``(atoms, weights, dual_witness)``, atoms in ascending grid
    index, where the dual witness has a spectral norm close to one by LP
    feasibility over the grid.  ``None`` if a mode dimension exceeds 4 or
    the LP fails on the whole grid.
    """
    from scipy.optimize import linprog

    shape = A.shape
    if any(n not in _LP_SAMPLES for n in shape):
        return None
    factor_sets = _lp_grid(shape)
    sizes = tuple(F.shape[0] for F in factor_sets)
    M, N = int(np.prod(sizes)), A.size
    b = A.ravel()

    aligned = _grid_pairings(A, factor_sets).ravel()
    start = _largest(aligned, 4 * N)
    # The grid atom largest at entry j takes each mode's sample largest at
    # j's index in that mode.
    peaks = [np.argmax(np.abs(F), axis=0) for F in factor_sets]
    at_entries = np.ravel_multi_index(
        [p[j] for p, j in zip(peaks, np.indices(shape).reshape(len(shape), -1))],
        sizes)
    active = np.union1d(start, at_entries)
    while True:
        multi = np.unravel_index(active, sizes)
        cols = _khatri_rao_rows([F[i] for F, i in zip(factor_sets, multi)]).T
        m = len(active)
        res = linprog(np.ones(2 * m), A_eq=np.hstack([cols, -cols]), b_eq=b,
                      bounds=(0, None), method="highs")
        if not res.success:
            if m == M:
                return None
            active = np.arange(M)
            continue
        y = np.asarray(res.eqlin.marginals).reshape(shape)
        price = _grid_pairings(y, factor_sets).ravel()
        # Active atoms are held to the LP's own feasibility tolerance, which
        # may exceed the pricing one; masking them makes every round add.
        price[active] = 0.0
        violated = np.flatnonzero(price > 1.0 + _LP_PRICE_TOL)
        if violated.size == 0:
            break
        active = np.union1d(active, violated[_largest(price[violated], 2 * N)])
    w = res.x[:m] - res.x[m:]
    keep = np.abs(w) > 1e-9
    atoms = [tuple(F[i] for F, i in zip(factor_sets, idx))
             for idx in zip(*(i[keep] for i in multi))]
    return atoms, w[keep], y


def _polish_atoms(A, atoms, weights):
    """Minimize total weight plus a quadratic residual penalty over atom
    factors and weights (factors renormalized inside the objective), by
    continuation over the penalties ``_POLISH_ROUNDS``."""
    from scipy.optimize import minimize

    na = len(atoms)
    if na == 0:
        return atoms, weights
    value_grad = _polish_objective(A, na, _POLISH_EPS)
    x = np.concatenate([np.asarray(weights, dtype=float)]
                       + [np.asarray(f, dtype=float)
                          for row in atoms for f in row])
    for C in _POLISH_ROUNDS:
        res = minimize(value_grad, x, args=(C,), jac=True, method="L-BFGS-B",
                       options={"maxiter": 500})
        x = res.x
    w, fs = _split_factors(x, na, A.shape)
    keep = np.abs(w) >= 1e-9
    units = [f[keep] / np.linalg.norm(f[keep], axis=1, keepdims=True)
             for f in fs]
    return list(zip(*units)), w[keep]


def _split_factors(x, na, shape):
    """Weights ``(na,)`` and per-mode ``(na, n_k)`` factor views of the
    polish variables (``na`` weights, then each atom's factors in mode
    order)."""
    rows = x[na:].reshape(na, sum(shape))
    cuts = np.cumsum(shape)[:-1]
    return x[:na], np.split(rows, cuts, axis=1)


# The polish's residual penalties, one L-BFGS-B round each from the last
# round's point (a single round at the largest widens the sandwiches), and
# the smoothing of |w| in its objective.
_POLISH_ROUNDS = (1e2, 1e4, 1e6)
_POLISH_EPS = 1e-12


def _polish_objective(A, na, eps):
    """``value_grad(x, C)`` of ``sum_i sqrt(w_i^2 + eps) + C ||R||_F^2`` with
    ``R = sum_i w_i u_i^1 (x) ... (x) u_i^d - A`` and ``u_i^k`` the unit
    factors, and its exact gradient, all atoms at once."""
    shape = A.shape
    d = A.ndim
    modes = _LETTERS[:d]
    # The weighted atom sum; HOPM's batched updates contract R with every
    # mode but k, per atom.
    build = "z," + ",".join("z" + m for m in modes) + "->" + modes
    _, contract = _hopm_update_strings(d)

    def value_grad(x, C):
        w, fs = _split_factors(x, na, shape)
        nfs = [np.linalg.norm(f, axis=1, keepdims=True) for f in fs]
        units = [f / nf for f, nf in zip(fs, nfs)]
        R = np.einsum(build, w, *units) - A
        val = float(np.sum(np.sqrt(w * w + eps)) + C * np.sum(R * R))
        Gs = [np.einsum(contract[k], R, *(units[:k] + units[k + 1:]))
              for k in range(d)]
        pair = np.einsum("zi,zi->z", Gs[0], units[0])  # <R, atom_i>
        g_factors = []
        for G, u, nf in zip(Gs, units, nfs):
            du = 2.0 * C * w[:, None] * G
            g_factors.append((du - np.einsum("zi,zi->z", du, u)[:, None] * u)
                             / nf)
        g_w = w / np.sqrt(w * w + eps) + 2.0 * C * pair
        return val, np.concatenate([g_w, np.hstack(g_factors).ravel()])

    return value_grad


def _best_weights(A, atoms):
    """Choose among least-squares and l1 refits of the atom weights the one
    with the smallest total weight plus l1 residual."""
    t = A.ravel()
    C = np.ascontiguousarray(_atom_rows(atoms).T)
    cands = []
    w_ls, *_ = np.linalg.lstsq(C, t, rcond=None)
    cands.append(w_ls)
    w_l1 = _l1_refit(C, t)
    if w_l1 is not None:
        cands.append(w_l1)
    best, best_up = None, np.inf
    for w in cands:
        up = float(np.sum(np.abs(w)) + np.sum(np.abs(t - C @ w)))
        if up < best_up:
            best, best_up = w, up
    return best, best_up


def _sign_witness(atoms, weights, shape, flags):
    """Minimum-Frobenius tensor with <Z, atom_i> = sign(w_i)."""
    C = np.ascontiguousarray(_atom_rows(atoms).T)
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


def _sign_witnesses(atoms, weights, shape, flags):
    """Sign witnesses of a polished decomposition: of all its atoms and, when
    it has more than one, of all but the lightest.

    The polish moves an atom's factors in proportion to its weight, so the
    lightest atom is the least settled one, yet with as many atoms as entries
    its sign alone can pull the witness well off a certificate."""
    out = [_sign_witness(atoms, weights, shape, flags)]
    if len(atoms) > 1:
        drop = int(np.argmin(np.abs(weights)))
        out.append(_sign_witness(atoms[:drop] + atoms[drop + 1:],
                                 np.delete(weights, drop), shape, flags))
    return out


def _mode_symmetries(A):
    """The mode permutations that leave ``A`` unchanged, identity included."""
    return [p for p in itertools.permutations(range(A.ndim))
            if np.array_equal(np.transpose(A, p), A)]


def _symmetrized(Z, perms):
    """Average of ``Z`` over mode permutations that fix ``A``.  Its pairing
    with ``A`` is ``Z``'s, and its spectral norm is at most ``Z``'s, since
    every permuted copy has the norm of ``Z``."""
    return sum(np.transpose(Z, p) for p in perms) / len(perms)


def _nonzero_atoms(atoms, weights):
    """The atoms and weights whose weight exceeds 1e-12 in magnitude."""
    keep = np.abs(weights) > 1e-12
    return [a for a, k in zip(atoms, keep) if k], weights[keep]


def nuclear_sandwich(T, tol=1e-8, max_atoms=64, seed=0):
    """Certified interval ``[lower, upper]`` enclosing the nuclear norm.

    A tensor with a rank-deficient mode is sandwiched through its core
    (``_core``), whose shape is the multilinear rank: the core's dual witness
    and atoms are lifted by ``x_k U_k``, which keeps the witness's spectral
    norm and bound, the upper end adds ``||T - lift(G)||_1`` (the part of
    ``T`` outside the span bases) and the lower end is the lifted witness's
    ratio ``<T, W> / witness_spectral_upper``.  A core of order at most two
    is sandwiched exactly and its witness bounded by ``_witness_bound``.

    A tensor of full multilinear rank gets a greedy rank-one pursuit for the
    upper end.  When the certified sandwich is then wider than ``_GAP_GOAL``
    (relative) and every mode dimension is in the dictionary LP's grid table
    (at most 4), the routine escalates to an atomic-norm LP over a sampled
    rank-one dictionary, solved by column generation with mode-product
    pricing (``_dictionary_lp``), followed by a nonlinear polish of the LP's
    atoms.

    The candidate witnesses are the scaled base ``T`` (certified by the
    flattening bound, so its ratio is at least ``||T||_F``), the greedy sign
    witness and, after an escalation, the polished decomposition's sign
    witnesses (``_sign_witnesses``) and the LP dual, these three averaged
    over the mode permutations that leave ``T`` unchanged.  All but the
    scaled base are certified once by ``spectral_enclosure``
    (``_certified_witness``).  The best certified ratio
    ``<T, Z> / ||Z||_sigma``, capped by the upper end, is the lower end; its
    witness and bound are ``dual_witness`` and ``witness_spectral_upper``.
    """
    A = asarray(T)
    if holder_norm(A, 2) == 0.0:
        empty = NuclearDecomposition((), A.shape)
        return NuclearSandwich(0.0, 0.0, empty, np.zeros(A.shape), 1.0)
    if A.ndim <= 2:
        return _matrix_sandwich(A)
    svals = _mode_singular_values(A)
    core = _core(A, svals)
    if core is None:
        flat = min(float(s[0]) for s in svals)
        return _sandwich(A, flat, tol, max_atoms, seed)

    G, bases = core
    if G.ndim <= 2:
        sw = _matrix_sandwich(G)
        w_up, how = _witness_bound(sw.dual_witness)
        flags = (f"witness_bound_{how}",)
    else:
        sw = _sandwich(G, spectral_flattening_upper(G), tol, max_atoms, seed)
        w_up, flags = sw.witness_spectral_upper, sw.flags
    W = _lift(sw.dual_witness, bases)
    upper = sw.upper + holder_norm(A - _lift(G, bases), 1)
    lower = min(inner(A, W) / w_up, upper)
    decomposition = NuclearDecomposition(
        tuple(RankOneAtom.from_unnormalized(_lifted_factors(a.factors, bases),
                                            a.weight)
              for a in sw.decomposition.atoms),
        A.shape,
    )
    return NuclearSandwich(float(lower), float(upper), decomposition, W,
                           float(w_up), flags)


def _sandwich(A, flat, tol, max_atoms, seed):
    """``nuclear_sandwich`` of a nonzero tensor of order at least three and
    full multilinear rank, given its flattening bound ``flat``."""
    flags = []
    l2 = holder_norm(A, 2)
    # The scaled base: flat <= ||A||_F, so its ratio is at least ||A||_F.
    best = (inner(A, A) / flat, A, flat, "flattening")
    atoms = _greedy_atoms(A, tol, max_atoms, seed)
    weights, upper = np.zeros(0), holder_norm(A, 1)
    if atoms:
        weights, up = _best_weights(A, atoms)
        upper = min(up, upper)
        atoms, weights = _nonzero_atoms(atoms, weights)
    if atoms:
        greedy = _certified_witness(
            A, _sign_witness(atoms, weights, A.shape, flags))
        best = max(best, greedy, key=lambda s: s[0])
    gap_rel = (upper - min(best[0], upper)) / max(1.0, l2)

    lp = _dictionary_lp(A) if gap_rel > _GAP_GOAL else None
    if lp is not None:
        lp_atoms, lp_w, lp_dual = lp
        try:
            p_atoms, p_w = _polish_atoms(A, lp_atoms, lp_w)
        except (ValueError, FloatingPointError):
            p_atoms, p_w = lp_atoms, lp_w
            flags.append("polish_failed")
        cands = []
        if p_atoms:
            w2, up2 = _best_weights(A, p_atoms)
            if up2 < upper:
                upper = up2
                atoms, weights = _nonzero_atoms(p_atoms, w2)
                flags.append("escalated")
                if atoms:
                    cands += _sign_witnesses(atoms, weights, A.shape, flags)
        cands.append(lp_dual)
        perms = _mode_symmetries(A)
        best = max([best] + [_certified_witness(A, _symmetrized(Z, perms))
                             for Z in cands],
                   key=lambda s: s[0])

    decomposition = NuclearDecomposition(
        tuple(
            RankOneAtom.from_unnormalized(f, w)
            for w, f in zip(weights, atoms)
        ),
        A.shape,
    )
    ratio, Z, w_up, how = best
    flags.append(f"witness_bound_{how}")
    lower = min(ratio, upper)
    return NuclearSandwich(float(lower), float(upper), decomposition, Z,
                           float(w_up), tuple(flags))


def _matrix_sandwich(A):
    """Exact nuclear norm for vectors and matrices."""
    if A.ndim == 1:
        v = float(np.linalg.norm(A))
        atom = RankOneAtom(v, (A / v,))
        return NuclearSandwich(v, v, NuclearDecomposition((atom,), A.shape),
                               A / v, 1.0)
    U, s, Vt = np.linalg.svd(A)
    r = int(np.sum(s > 1e-14 * s[0])) if s.size else 0
    atoms = tuple(
        RankOneAtom(float(s[i]), (U[:, i], Vt[i])) for i in range(r)
    )
    Z = U[:, :r] @ Vt[:r]
    v = float(np.sum(s[:r]))
    return NuclearSandwich(v, v, NuclearDecomposition(atoms, A.shape), Z, 1.0)


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
    dual witness lies in T((V_k)) and sets its lower end."""
    A = family.check_shape(T)
    sel = basic(())
    if holder_norm(A - project(sel, family, A), 2) > 1e-10 * max(1.0, holder_norm(A, 2)):
        raise PreconditionError("T does not lie in T((V_k))")

    residuals = [float(np.linalg.norm(x - V.projector() @ x))
                 for x, V in zip(spectral_hopm(A).maximizers,
                                 family.subspaces)]
    maximizer_ok = max(residuals) <= tol

    sand = nuclear_sandwich(A)
    W = sand.dual_witness
    pair = inner(A, W)
    outside = holder_norm(W - project(sel, family, W), 2)
    ratio = min(pair / sand.witness_spectral_upper, sand.upper)
    witness_ok = (
        outside <= tol * max(1.0, holder_norm(W, 2))
        and abs(ratio - sand.lower) <= tol * max(1.0, sand.lower)
    )
    return {
        "maximizer_residuals": residuals,
        "maximizer_ok": bool(maximizer_ok),
        "witness_pairing": pair,
        "witness_ok": bool(witness_ok),
        "ok": bool(maximizer_ok and witness_ok),
    }
