"""The partial-transpose bound on ``2 x 2 x n`` tensors: the spectral norm's
cap and primal step, and the nuclear norm's exact program.

Sort the modes by size, so the tensor is ``2 x 2 x n``, and let ``U`` be its
``4 x n`` unfolding and ``M = U U^T``.  Then
``||T||_sigma^2 = max (x (x) y)^T M (x (x) y)`` over unit ``x, y`` in
``R^2``.  The one symmetric ``W`` (up to scale) that every product vector
``x (x) y`` annihilates is the partial-transpose difference ``S - S^Gamma``
(``_W``), so ``||T||_sigma^2 <= lambda_max(M + s W)`` for every ``s``
(Doherty, Parrilo & Spedalieri, PRA 2004; Ling, Nie, Qi & Ye, SIAM J.
Optim. 2009).  Nonnegative biquadratic forms in ``2 + 2`` variables are sums
of squares (Calderon 1973), so the least such bound is exact.

Dually, a tensor ``Z`` with unfolding ``V`` has ``||Z||_sigma <= 1`` exactly
when ``V V^T + s W <= I`` for some ``s``.  As ``W^2 = I``, ``I - s W >= 0``
means ``s`` in ``[-1, 1]``, and
``R(s) = (I - s W)^{1/2} = sqrt(1 - s) (I + W)/2 + sqrt(1 + s) (I - W)/2``,
so ``||T||_* = max_s g(s)`` with ``g(s) = ||R(s) U||_*``, a concave
function (the largest ``<U, V>`` over a convex set of ``(s, V)``).

``PartialTranspose(A)`` holds what both uses need, built once per tensor:
``primal()`` gives the spectral norm's attained value, its vectors and a
certified cap, and ``program()`` the nuclear norm's witness, the witness's
cap and a rank-one decomposition.  Both return in ``A``'s mode order.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .tensor_core import _EPS, RankOneAtom, _size_order

_W = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0],
               [0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
_NEWTON = 30  # Newton steps on the angle at most
# I + W and I - W, of which R(s) is a combination.
_I_PLUS_W, _I_MINUS_W = np.eye(4) + _W, np.eye(4) - _W
# The primal step's grid of 2t on the circle, with its cosines and sines.
_GRID = np.arange(64) * (np.pi / 32)
_COS, _SIN = np.cos(_GRID), np.sin(_GRID)
# One step of the program's search at the multiplier s, from one SVD
# R(s) U = a Sigma b^T: h = <P, W> sqrt(1 - s^2), of the sign of -g'(s);
# g = ||R(s) U||_*; bound, the weak-duality bound, slack included; and
# tilt = <P, W> = <F F^T, W>.  A named tuple: the search takes about ten
# steps per sandwich on a 4 x n matrix, where building a frozen dataclass
# cost more than the arithmetic.
_Step = namedtuple("_Step", "s h g bound slack F G tilt R a bt")


class PartialTranspose:
    """The partial-transpose bound of one tensor ``A``; ``None`` unless ``A``
    is ``2 x 2 x n`` up to a permutation of its modes, the library's one
    test of that shape.

    It keeps the permutation ``back`` from the sorted modes to ``A``'s,
    ``scale = ||A||_F`` and the sorted ``4 x n`` unfolding over it, ``U``.
    The norm is taken of ``A`` in its own memory order: the sorted
    unfolding's sums in another order move the primal step's floats.

    Both engines run on ``U`` and scale their norms back.  ``_unit_scale``
    in the callers already sets the range, but this normalization fixes
    the floats: without it every ``2 x 2 x n`` output of
    ``scripts/dump_outputs.py`` moved, 94 lower ends falling and 87 upper
    ends rising by at most 2.5e-15 relative, 29 sandwiches switching between
    the ``witness_bound_pt_dual`` and ``witness_bound_bnb`` flags and 2
    ``nuclear`` records changing."""

    __slots__ = ("back", "scale", "U")

    def __new__(cls, A):
        if A.ndim != 3 or sorted(A.shape)[:2] != [2, 2]:
            return None
        self = super().__new__(cls)
        order, self.back = _size_order(A.shape)
        self.scale = float(np.linalg.norm(A))
        self.U = A.transpose(order).reshape(4, -1) / self.scale
        return self

    def primal(self):
        """``(attained, vectors, cap)`` for ``||A||_sigma``: an attained
        value, its unit vectors and the certified cap at the multiplier
        ``s`` of the primal step below.  Where that step misses the maximum,
        ``s`` is off the optimum and ``cap`` is still a bound, only looser.

        Primal step: ``sigma_max(A x_0 x)^2`` with ``x = (cos t, sin t)`` is
        the top eigenvalue of a ``2 x 2`` matrix affine in
        ``(cos 2t, sin 2t)``, evaluated in closed form on a grid of ``2t``;
        each local maximum on the grid is refined by Newton steps on the
        angle, and with ``y`` the top eigenvector at the best one,
        ``attained`` is ``||A x_0 x x_1 y||``, the form's value at the unit
        ``vectors`` ``x``, ``y`` and ``z = A x_0 x x_1 y / attained``.

        Dual multiplier: at the maximizer ``v = x (x) y`` with value ``g``,
        ``v`` is a top eigenvector of ``M + s W`` for the optimal ``s``, so
        ``(M - g I) v = -s W v``; as ``Wv`` has unit norm and is orthogonal
        to ``v``, that ``s`` is ``-<Wv, Mv>``."""
        M = self.U @ self.U.T
        # sigma_max(A x_0 x)^2 = lambda_max(x0^2 M00 + 2 x0 x1 sym(M01) +
        # x1^2 M11), with Mij the 2 x 2 blocks of M; at x = (cos t, sin t)
        # this is [[h + e, b], [b, h - e]] with h, e, b affine in
        # (1, cos 2t, sin 2t).
        (m00, m01, m02, m03), (_, m11, m12, m13), (_, _, m22, m23), \
            (_, _, _, m33) = M.tolist()
        h0, h1, h2 = ((m00 + m11 + m22 + m33) / 4,
                      (m00 + m11 - m22 - m33) / 4, (m02 + m13) / 2)
        e0, e1, e2 = ((m00 - m11 + m22 - m33) / 4,
                      (m00 - m11 - m22 + m33) / 4, (m02 - m13) / 2)
        b0, b1, b2 = (m01 + m23) / 2, (m01 - m23) / 2, (m03 + m12) / 2
        c, s = _COS, _SIN
        g = h0 + h1 * c + h2 * s + np.hypot(e0 + e1 * c + e2 * s,
                                            b0 + b1 * c + b2 * s)

        def level(phi):
            """``(h, e, b)`` at the angle ``phi``."""
            c, s = math.cos(phi), math.sin(phi)
            return (h0 + h1 * c + h2 * s, e0 + e1 * c + e2 * s,
                    b0 + b1 * c + b2 * s)

        def climb(phi, value):
            """Newton steps on the angle while the value rises."""
            for _ in range(_NEWTON):
                c, s = math.cos(phi), math.sin(phi)
                e, b = e0 + e1 * c + e2 * s, b0 + b1 * c + b2 * s
                r = math.hypot(e, b)
                if r == 0.0:
                    break
                dh, de, db = h2 * c - h1 * s, e2 * c - e1 * s, b2 * c - b1 * s
                ddh, dde, ddb = (-h1 * c - h2 * s, -e1 * c - e2 * s,
                                 -b1 * c - b2 * s)
                slope = dh + (e * de + b * db) / r
                curve = (ddh + (de * de + db * db + e * dde + b * ddb) / r
                         - (e * de + b * db) ** 2 / r ** 3)
                if curve >= 0.0:
                    break
                trial = phi - slope / curve
                h, e, b = level(trial)
                rise = h + math.hypot(e, b)
                if rise < value:
                    break
                step, phi, value = abs(trial - phi), trial, rise
                if step <= 1e-15:
                    break
            return value, phi

        # Every local maximum on the grid is climbed: two maxima closer in
        # value than the grid resolves them can be ranked wrongly by the
        # grid.
        ring = np.concatenate((g[-1:], g, g[:1]))
        peaks = {int(np.argmax(g)),
                 *np.flatnonzero((g > ring[:-2]) & (g >= ring[2:])).tolist()}
        value, phi = max(climb(float(_GRID[i]), float(g[i])) for i in peaks)
        _, e, b = level(phi)
        r = math.hypot(e, b)
        # Top eigenvector of [[h + e, b], [b, h - e]], from its better column.
        y = (r + e, b) if e >= 0.0 else (b, r - e)
        ny = math.hypot(*y)
        y = np.array(y) / ny if ny > 0.0 else np.array([1.0, 0.0])
        x = np.array([math.cos(0.5 * phi), math.sin(0.5 * phi)])
        v = np.outer(x, y).ravel()
        w = v @ self.U
        attained = float(np.linalg.norm(w))
        vectors = (x, y, w / attained)
        return (attained * self.scale, tuple(vectors[k] for k in self.back),
                self._cap(M, -float(_W @ v @ (M @ v))) * self.scale)

    def _cap(self, M, s):
        """``sqrt(lambda_max(M + s W) + slack)``: a certified upper bound on
        ``||Z||_sigma`` for the ``2 x 2 x n`` tensor ``Z`` whose ``4 x n``
        unfolding has the Gram matrix ``M``, whatever the multiplier ``s``.
        The slack ``4 (n + 4) eps (||M||_F + 2|s|)`` covers the backward
        errors of forming ``M`` (``n eps tr(M) <= 2 n eps ||M||_F``), of
        adding ``s W`` and of the symmetric eigensolver."""
        slack = (4.0 * (self.U.shape[1] + 4) * _EPS
                 * (np.linalg.norm(M) + 2.0 * abs(s)))
        top = np.linalg.eigvalsh(M + s * _W)[-1]
        return math.sqrt(max(top, 0.0) + slack)

    def program(self):
        """``(Z, cap, atoms)`` for ``A`` of full multilinear rank: a dual
        witness ``Z`` (unit spectral norm up to rounding), a certified upper
        bound ``cap`` on ``||Z||_sigma`` and a rank-one decomposition of
        ``A`` whose total weight is at most the least weak-duality bound
        below, up to rounding.

        With ``R U = a Sigma b^T`` (thin SVD), ``Z = R a b^T`` attains
        ``g(s)``, and ``V V^T = R a a^T R <= I - s W``, so
        ``lambda_max(V V^T + s W) <= 1``: ``cap`` is the cap of
        ``V V^T`` at ``s``, the program's own proof, which needs no primal
        step.

        Weak duality (the nuclear norm's SDP form, Recht, Fazel & Parrilo,
        SIAM Rev. 2010): for any ``F`` and ``G``, ``P = F F^T`` and
        ``Q = G G^T`` make ``[[P, F G^T], [G F^T, Q]]`` positive
        semidefinite, and adding ``|<P, W>|/4 (I - sign(<P, W>) W) >= 0`` to
        ``P`` zeroes ``<P, W>``, so ``||A||_* <= (tr P + |<P, W>| + tr Q)/2
        + ||U - F G^T||_1``.  This takes
        ``F = R^{-1} a Sigma^{1/2} = U b Sigma^{-1/2}`` (which needs no
        ``R^{-1}``) and ``G = b Sigma^{1/2}``, where ``tr Q = g(s)`` and the
        derivative ``g'(s) = <a b^T, R'(s) U>`` is ``-<P, W>/2``: the bound
        meets ``g`` at the maximum.  A slack ``4 (n + 4) eps (tr P + tr Q)``
        covers the rounding of ``U``, ``F G^T`` and the sums.

        The search is a safeguarded secant search (Illinois, with a
        bisection fallback) on ``<P, W> sqrt(1 - s^2)``, whose sign is that
        of ``-g'`` and which, unlike ``<P, W>``, stays bounded at the ends,
        where ``R`` is singular; ``s`` is kept ``1e-12`` inside them.  It
        evaluates both ends first: a sign that does not change between them
        puts the maximum at an end.  It stops when the bracket is ``1e-12``
        wide, or when the least bound is within twice its rounding slack of
        the largest ``g``.  The atoms come from the step of least bound
        (``_atoms``), and ``Z`` and ``cap`` from the step of largest ``g``:
        the search sets the tightness, never the correctness.  The bound
        itself is not returned, since it never fell below the atoms' own
        end, their total weight plus l1 residual."""
        lo, hi = -1.0 + 1e-12, 1.0 - 1e-12
        steps = [self._step(lo), self._step(hi)]
        h_lo, h_hi = steps[0].h, steps[1].h
        # Illinois: an end kept twice in a row has its value halved, which
        # moves the next secant point towards it.  A secant point that
        # rounding puts outside the bracket falls back to the midpoint.
        kept = 0
        while h_lo < 0.0 < h_hi and hi - lo > 1e-12:
            least = min(steps, key=lambda t: t.bound)
            if least.bound - max(t.g for t in steps) <= 2.0 * least.slack:
                break
            s = (lo * h_hi - hi * h_lo) / (h_hi - h_lo)
            if not lo < s < hi:
                s = 0.5 * (lo + hi)
            steps.append(self._step(s))
            h = steps[-1].h
            if h < 0.0:
                lo, h_lo = s, h
                h_hi, kept = (0.5 * h_hi if kept < 0 else h_hi), -1
            else:
                hi, h_hi = s, h
                h_lo, kept = (0.5 * h_lo if kept > 0 else h_lo), 1
        top = max(steps, key=lambda t: t.g)
        least = min(steps, key=lambda t: t.bound)
        # The witness's unfolding, formed for the returned step only.
        V = top.R @ top.a @ top.bt
        return (V.reshape(2, 2, -1).transpose(self.back),
                self._cap(V @ V.T, top.s), self._atoms(least))

    def _step(self, s):
        """``program``'s quantities at ``s``: one SVD of ``R(s) U``."""
        U = self.U
        R = (math.sqrt(1.0 - s) * _I_PLUS_W
             + math.sqrt(1.0 + s) * _I_MINUS_W) / 2
        a, sig, bt = np.linalg.svd(R @ U, full_matrices=False)
        root = np.sqrt(sig)
        F = (U @ bt.T) / root
        G = bt.T * root
        # Reductions by method: np.sum adds a Python layer to the same reduce.
        tilt = float((F * (_W @ F)).sum())
        trace = float((F * F).sum() + (G * G).sum())
        slack = 4.0 * (U.shape[1] + 4) * _EPS * trace
        bound = ((trace + abs(tilt)) / 2 + float(np.abs(U - F @ G.T).sum())
                 + slack)
        return _Step(s, tilt * math.sqrt(1.0 - s * s), float(sig.sum()),
                     bound, slack, F, G, tilt, R, a, bt)

    def _atoms(self, step):
        """Rank-one atoms of ``A`` from a step's ``F`` and ``G`` (``U``
        close to ``F G^T``).

        One column of squared norm ``|tilt|``, in the eigenspace of ``W``
        whose eigenvalue has the sign opposite to the tilt, is appended to
        ``F`` and a zero column to ``G``: ``F G^T`` is unchanged and
        ``F^T W F`` has trace 0.  Givens rotations of the columns of both
        zero the diagonal of ``F^T W F`` one entry at a time, each against a
        later entry of the other sign (they exist while the trace is 0).  A
        column ``f`` of ``F`` then has ``f^T W f = 2 det(f)`` equal to 0 up
        to rounding, so as a ``2 x 2`` matrix it is ``sigma_1 x y^T`` up to
        its second singular value, which the sandwich's residual term
        covers.  The atom is ``x (x) y (x) g/||g||`` with weight
        ``scale sigma_1 ||g||``.  By AM-GM the weights sum to at most
        ``(||F||_F^2 + ||G||_F^2)/2 = (tr P + |tilt| + tr Q)/2``, the step's
        bound without its residual and slack."""
        eigen = (np.eye(4) - math.copysign(1.0, step.tilt) * _W)[:, 0]
        F = np.column_stack([step.F, math.sqrt(abs(step.tilt) / 2) * eigen])
        G = np.column_stack([step.G, np.zeros(len(step.G))])
        for i in range(F.shape[1] - 1):
            d = (F * (_W @ F)).sum(axis=0)
            j = i + 1 + int(np.argmin(math.copysign(1.0, d[i]) * d[i + 1:]))
            # Without a partner d[i] is zero up to rounding, and so is det.
            if d[i] * d[j] >= 0.0:
                continue
            b = float(F[:, i] @ _W @ F[:, j])
            t = -d[i] / (b + math.copysign(math.sqrt(b * b - d[i] * d[j]), b))
            c = 1.0 / math.sqrt(1.0 + t * t)
            rot = np.array([[c, -t * c], [t * c, c]])
            F[:, [i, j]] = F[:, [i, j]] @ rot
            G[:, [i, j]] = G[:, [i, j]] @ rot
        atoms = []
        # Every column's 2 x 2 SVD in one stacked call.
        for x, sv, yt, g in zip(*np.linalg.svd(F.T.reshape(-1, 2, 2)), G.T):
            norm = np.linalg.norm(g)
            weight = self.scale * sv[0] * norm
            if weight > 0.0:
                factors = (x[:, 0], yt[0], g / norm)
                atoms.append(RankOneAtom(weight,
                                         tuple(factors[k] for k in self.back)))
        return tuple(atoms)
