"""Tensor robust PCA: instance generation, incoherence measurement, dual
certificates (iterative golfing correction plus a Neumann-series least
squares part), a five-condition optimality report, concentration
experiments, and an exact matrix-case solver.

The convex model is ``min ||T1||_* + lambda ||T2||_1`` subject to
``T1 + T2 = L + S``.  For ``d >= 3`` the model cannot be solved directly
(the nuclear norm is NP-hard), but ``(L, S)`` is certifiably the unique
optimum whenever a dual certificate ``D`` satisfies, with
``p_L`` the projector onto the span subspace of ``L`` and ``I(S)`` the
corruption support:

1. ``dist(p_L(D), Z) <= lambda/8`` for a unit dual witness ``Z`` of ``L``;
2. ``||p_{L perp}(D)||_sigma < 1/2``;
3. ``||p_{I(S)}(D) - lambda E||_2 <= lambda/8`` with ``E = sign(S)``;
4. ``||p_{I(S) perp}(D)||_inf < lambda/2``;
5. ``||p_L p_{I(S)}|| < 1/2``.

``certify`` evaluates exactly these five conditions on a constructed
``D = D1 + D2`` and reports each verdict with its slack; norm bounds that
cannot be certified at the instance's size are flagged rather than
asserted.

The span projector is ``p_L = Q Q^T`` with ``Q = U_1 (x) ... (x) U_d`` the
Kronecker product of the mode factors of ``L``.  Every norm of a
composition of ``p_L`` with entry projectors is therefore the norm of a
small ``|I| x R`` gather ``Q_I`` of the rows of ``Q``, ``R = prod r_k``, and
is computed exactly without forming an operator on the whole space:

* the span/support angle of condition 5, ``||p_L p_I|| = sigma_max(Q_I)``,
  and the Neumann contraction ``||p_I p_L p_I|| = sigma_max(Q_I)^2``;
* the leakage ``||p_L p_{I perp}|| = sigma_max(Q_{I perp})``;
* the sampling deviation
  ``||p_L (p_full - q^{-1} p_I) p_L|| = ||I_R - q^{-1} Q_I^T Q_I||``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CertificateInfeasibleError,
    ConvergenceError,
    ParameterError,
    PreconditionError,
)
from .norms import _hopm_stack, spectral_enclosure
from .subdiff import find_z_witness
from .subspace import (
    EntrySupport,
    basic,
    family_from_tensor,
    project,
    support_project,
)
from .tensor_core import (_khatri_rao_rows, _unit_scale, asarray,
                          holder_norm, outer_atom)

__all__ = [
    "RpcaInstance",
    "IncoherenceProfile",
    "GolfingState",
    "DualCertificate",
    "CertificateReport",
    "default_lambda",
    "default_batches",
    "generate_instance",
    "incoherence_profile",
    "golfing_certificate",
    "neumann_certificate",
    "certify",
    "solve_matrix_rpca",
    "concentration_trial",
]


# ---------------------------------------------------------------------------
# Domain types.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RpcaInstance:
    """A ground truth / corruption pair with its sampling metadata."""

    L: np.ndarray
    S: np.ndarray
    E: np.ndarray                # sign(S), entries in {-1, 0, 1}
    support: EntrySupport        # I(S)
    rho: float
    batch_masks: tuple           # m EntrySupport batches; support = intersection
    seed: int

    @property
    def shape(self):
        return self.L.shape

    @property
    def M(self):
        """The observed tensor L + S."""
        return self.L + self.S

    @cached_property
    def _span(self):
        """``(p_L, sigma_max(Q_{I(S)}))``, built once per instance and shared
        by ``certify``, ``golfing_certificate`` and ``neumann_certificate``."""
        family = family_from_tensor(self.L)

        def p_L(X):
            return project(basic(()), family, X)

        return p_L, _sigma_max(_factor_rows(family, self.support.mask))


@dataclass(frozen=True)
class IncoherenceProfile:
    r_k: tuple
    u_k: tuple
    r0: int
    u0: float
    z_inf: float
    assumption_slacks: dict      # name -> (lhs, rhs)


@dataclass(frozen=True)
class GolfingState:
    Z: np.ndarray
    Z_seq: tuple                 # Z_0 .. Z_m
    phi: float
    residuals_2: tuple           # ||p_L(Z_j) - Z||_2 per step


@dataclass(frozen=True)
class DualCertificate:
    D1: np.ndarray
    D2: np.ndarray
    neumann_terms: int
    delta: float                 # exact ||p_{I(S)} p_L p_{I(S)}||

    @property
    def D(self):
        return self.D1 + self.D2


@dataclass(frozen=True)
class CertificateReport:
    lam: float
    conditions: dict             # name -> {value, threshold, certified, ok}
    overall: bool
    notes: tuple = ()


def default_lambda(shape):
    """The balancing parameter 1/sqrt(max mode dimension)."""
    return 1.0 / np.sqrt(max(shape))


def default_batches(shape):
    """Default golfing batch count: ceil(2 ln of the largest dimension)."""
    return max(1, int(np.ceil(2.0 * np.log(max(shape)))))


# ---------------------------------------------------------------------------
# Instance generation.
# ---------------------------------------------------------------------------

def _spread_frame(n, r, rng):
    """An n x r orthonormal block with near-uniform row norms: a cosine
    harmonic frame times a random rotation of its columns."""
    i = np.arange(n)[:, None]
    j = np.arange(r)[None, :]
    F = np.cos(np.pi * (i + 0.5) * j / n)
    F[:, 0] *= np.sqrt(1.0 / n)
    F[:, 1:] *= np.sqrt(2.0 / n)
    Q = np.linalg.qr(rng.standard_normal((r, r)))[0]
    return F @ Q


def generate_instance(shape, r, rho, m=None, factor_style="incoherent",
                      magnitude_range=(0.5, 2.0), seed=0):
    """Seeded random instance: a rank-``r`` ground truth plus Bernoulli
    sparse corruption.

    The corruption support is built from ``m`` independent Bernoulli masks
    with per-mask probability ``rho**(1/m)`` and equals their intersection,
    so each entry is corrupted with probability exactly ``rho`` and the
    masks partition the support complement for the golfing scheme.
    ``factor_style='incoherent'`` draws each mode's factor block as a
    rotated harmonic frame (small coherence); ``'gaussian'`` uses raw
    Gaussian factors.  Corruption magnitudes are uniform over
    ``magnitude_range`` with equiprobable signs.
    """
    shape = tuple(int(n) for n in shape)
    d = len(shape)
    r = int(r)
    if not 1 <= r <= min(shape):
        raise ParameterError(f"rank {r} impossible for shape {shape}")
    if not 0.0 <= rho < 1.0:
        raise ParameterError("corruption probability must lie in [0, 1)")
    if m is None:
        m = default_batches(shape)
    m = int(m)
    if m < 1:
        raise ParameterError("need at least one sampling batch")
    if factor_style not in ("gaussian", "incoherent"):
        raise ParameterError(f"unknown factor style {factor_style!r}")
    lo_mag, hi_mag = (float(x) for x in magnitude_range)
    if not 0 < lo_mag <= hi_mag:
        raise ParameterError("magnitude range must be positive and ordered")

    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed), d, r, m, *shape])
    )
    blocks = []
    for n in shape:
        if factor_style == "incoherent":
            blocks.append(_spread_frame(n, r, rng))
        else:
            blocks.append(rng.standard_normal((n, r)))
    L = np.zeros(shape)
    for i in range(r):
        L = L + outer_atom(
            [b[:, i] / max(np.linalg.norm(b[:, i]), 1e-300) for b in blocks]
        )

    phi = rho ** (1.0 / m) if rho > 0 else 0.0
    masks = tuple(
        EntrySupport(shape, rng.random(shape) < phi) for _ in range(m)
    )
    mask = masks[0]
    for b in masks[1:]:
        mask = mask.intersect(b)
    mags = rng.uniform(lo_mag, hi_mag, size=shape)
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    S = np.where(mask.mask, mags * signs, 0.0)
    E = np.sign(S)
    return RpcaInstance(L, S, E, mask, float(rho), masks, int(seed))


# ---------------------------------------------------------------------------
# Incoherence.
# ---------------------------------------------------------------------------

def incoherence_profile(L, rho=0.0):
    """Per-mode span ranks and coherences of ``L`` plus the measured slack
    of two standard identifiability inequalities, the rank condition (with
    its constant ``theta0 = 1``) and the witness sup-norm bound.

    ``u_k = (n_k / r_k) max_i ||p_k(e_i)||^2`` where ``p_k`` projects onto
    the mode-``k`` span and ``u0 = max_k u_k``; ``z_inf`` is the sup norm of
    the dual witness from ``find_z_witness``, an upper bound on the minimum
    over all witnesses.
    """
    A = asarray(L)
    if not A.any():
        raise PreconditionError("ground truth must be nonzero")
    d = A.ndim
    family = family_from_tensor(A)
    r_k, u_k = [], []
    for k, sub in enumerate(family.subspaces):
        rk = sub.dim
        row_norms = np.sum(sub.basis ** 2, axis=1)  # ||p(e_i)||^2 per row
        r_k.append(rk)
        u_k.append((A.shape[k] / rk) * float(row_norms.max()))
    r0 = max(r_k)
    u0 = max(u_k)
    z_inf = holder_norm(find_z_witness(A), np.inf)

    n1, nd = min(A.shape), max(A.shape)
    ln_nd = np.log(nd)
    slacks = {
        "rank": (r0, (1.0 - rho) * n1 / (u0 * ln_nd ** 2)),
        "witness_inf": (
            z_inf,
            float(np.sqrt(u0 * r0 / (n1 * nd * ln_nd ** max(2 * d - 5, 0)))),
        ),
    }
    return IncoherenceProfile(tuple(r_k), tuple(u_k), int(r0), float(u0),
                              float(z_inf), slacks)


# ---------------------------------------------------------------------------
# Dual certificate construction.
# ---------------------------------------------------------------------------

def _factor_rows(family, mask):
    """The rows of ``Q = U_1 (x) ... (x) U_d`` at the multi-indices
    ``np.argwhere(mask)``: an ``|I| x R`` array with ``R = prod r_k``, the
    row-wise Khatri-Rao product of the gathered basis rows."""
    idx = np.argwhere(mask)
    return _khatri_rao_rows([sub.basis[idx[:, k]]
                             for k, sub in enumerate(family.subspaces)])


def _sigma_max(A):
    """Largest singular value; 0 for an array without entries."""
    return float(np.linalg.norm(A, 2)) if A.size else 0.0


def golfing_certificate(instance, Z):
    """Low-rank certificate part via iterative support-complement
    correction: ``Z_j = Z_{j-1} - (1-phi)^{-1} p_{B_j^c}(p_L(Z_{j-1}) - Z)``
    over the sampling batches ``B_j``.  The result ``D1 = Z_m`` vanishes on
    the corruption support by construction."""
    if not instance.batch_masks:
        raise PreconditionError("instance has no sampling batches")
    Z = asarray(Z)
    if Z.shape != instance.shape:
        raise PreconditionError("witness shape mismatch")
    p_L, _ = instance._span
    m = len(instance.batch_masks)
    phi = instance.rho ** (1.0 / m) if instance.rho > 0 else 0.0
    scale = 1.0 / (1.0 - phi)
    Zj = np.zeros(instance.shape)
    seq = [Zj]
    res2 = []
    resid = -Z  # p_L(Z_0) - Z with Z_0 = 0
    for batch in instance.batch_masks:
        Zj = Zj - scale * support_project(batch.complemented(), resid)
        seq.append(Zj)
        # The step's residual is also the next step's correction.
        resid = p_L(Zj) - Z
        res2.append(holder_norm(resid, 2))
    state = GolfingState(Z, tuple(seq), float(phi), tuple(res2))
    return Zj, state


def neumann_certificate(instance, lam=None):
    """Sparse certificate part
    ``D2 = lambda p_{L perp} sum_k (p_{I(S)} p_L p_{I(S)})^k (E)``,
    the least-squares solution of ``p_{I(S)}(D2) = lambda E`` orthogonal to
    the span subspace, accumulated term by term until a term's norm falls
    below ``1e-12 (1 - delta) / lambda`` (at most 200 terms).  Returns
    ``(D2, delta, terms_used)`` where ``delta = sigma_max(Q_{I(S)})^2`` is
    the exact contraction norm; ``delta >= 1`` aborts (the series
    diverges)."""
    if lam is None:
        lam = default_lambda(instance.shape)
    lam = float(lam)
    p_L, angle = instance._span
    sup = instance.support
    delta = angle ** 2
    if delta >= 1.0:
        raise CertificateInfeasibleError(
            f"support/span contraction norm {delta:.6f} >= 1; "
            "least-squares certificate diverges"
        )
    w = support_project(sup, instance.E)
    acc = w.copy()
    terms = 1
    cutoff = 1e-12 * (1.0 - delta) / max(lam, 1e-300)
    for _ in range(200):
        # w is zero off I(S) already, so one projection per term suffices.
        w = support_project(sup, p_L(w))
        nrm = holder_norm(w, 2)
        acc = acc + w
        terms += 1
        if nrm <= cutoff:
            break
    D2 = lam * (acc - p_L(acc))
    return D2, float(delta), terms


def certify(instance, lam=None):
    """Build ``D = D1 + D2`` and evaluate the five optimality conditions.

    The spectral condition is bounded at every size by
    ``spectral_enclosure``: a certified upper end, and a lower end that is
    an attained value (the branch and bound's finished best point, or on a
    flattening enclosure the larger of the largest entry and the
    multi-start HOPM value).  Only when the bounds straddle the 1/2
    threshold is the condition decided on the lower bound (the best value
    attained) and flagged as uncertified.
    """
    if lam is None:
        lam = default_lambda(instance.shape)
    lam = float(lam)
    notes = []
    p_L, angle = instance._span
    Z = find_z_witness(instance.L)

    if instance.support.count == 0:
        D2, delta, terms = np.zeros(instance.shape), 0.0, 0
    else:
        D2, delta, terms = neumann_certificate(instance, lam=lam)
    D1, state = golfing_certificate(instance, Z)
    cert = DualCertificate(D1, D2, terms, delta)
    D = cert.D

    PD = p_L(D)
    dist_span = holder_norm(PD - Z, 2)
    off = D - PD
    sig_lo, sig_up, _ = spectral_enclosure(off, tol=1e-3)
    # Decide against the 1/2 threshold with certified bounds when they are
    # sharp enough; otherwise fall back to the attained lower end and flag
    # the condition as uncertified rather than pretending.
    if sig_up < 0.5:
        sig_val, sig_cert, sig_ok = sig_up, True, True
    elif sig_lo >= 0.5:
        sig_val, sig_cert, sig_ok = sig_lo, True, False
    else:
        sig_val, sig_cert, sig_ok = sig_lo, False, sig_lo < 0.5
        notes.append("spectral_bound_uncertified")
    on_sup = support_project(instance.support, D)
    sup_resid = holder_norm(on_sup - lam * instance.E, 2)
    off_sup = holder_norm(
        support_project(instance.support.complemented(), D), np.inf
    )

    conditions = {
        "span_distance": {
            "value": float(dist_span), "threshold": lam / 8.0,
            "certified": True, "ok": dist_span <= lam / 8.0,
        },
        "off_span_spectral": {
            "value": float(sig_val), "threshold": 0.5,
            "certified": sig_cert, "ok": sig_ok,
        },
        "support_match": {
            "value": float(sup_resid), "threshold": lam / 8.0,
            "certified": True, "ok": sup_resid <= lam / 8.0,
        },
        "off_support_inf": {
            "value": float(off_sup), "threshold": lam / 2.0,
            "certified": True, "ok": off_sup < lam / 2.0,
        },
        "span_support_angle": {
            "value": angle, "threshold": 0.5,
            "certified": True, "ok": angle < 0.5,
        },
    }
    overall = all(c["ok"] for c in conditions.values())
    report = CertificateReport(lam, conditions, overall, tuple(notes))
    return report, cert, state


# ---------------------------------------------------------------------------
# Exact matrix solver.
# ---------------------------------------------------------------------------

def _svt(X, tau):
    """Singular-value thresholding ``U diag(max(s - tau, 0)) V^T`` of ``X``
    from one ``eigh`` of the Gram matrix of ``X / tau`` on its smaller side.

    With ``w`` the Gram eigenvalues (``(s / tau)^2``) and ``V_k`` the
    eigenvectors of those above 1, the thresholded matrix is
    ``X V_k diag(1 - w_k^{-1/2}) V_k^T`` (or its mirror ``V_k ... V_k^T X``
    for a wide ``X``): no SVD and no left singular vectors.  Every kept
    singular value is at least ``tau``, where ``1 - w^{-1/2}`` has a
    derivative of at most 1/2, so an eigenvalue error ``delta`` moves the
    result by at most ``tau delta / 2`` per direction; ``eigh``'s error is
    about ``eps ||X / tau||^2``."""
    Y = X / tau
    wide = X.shape[0] < X.shape[1]
    w, V = np.linalg.eigh(Y @ Y.T if wide else Y.T @ Y)
    keep = w > 1.0
    Vk, shrink = V[:, keep], 1.0 - w[keep] ** -0.5
    if wide:
        return Vk @ (shrink[:, None] * (Vk.T @ X))
    return ((X @ Vk) * shrink) @ Vk.T


def _soft(X, tau):
    return np.sign(X) * np.maximum(np.abs(X) - tau, 0.0)


def solve_matrix_rpca(M, lam=None, tol=1e-9, max_iter=2000):
    """Matrix principal component pursuit by alternating singular-value and
    entrywise soft thresholding with a scaled dual update, at the penalty
    ``mu = size / (4 ||M||_1)``.  Returns
    ``(L_hat, S_hat, residuals)``; non-convergence raises with the last
    iterate attached.

    The iteration runs on ``M`` over a power of two (``_unit_scale``, the
    norm engines' scale policy), and ``L`` and ``S`` are scaled back.  There
    it stops when both the primal residual ``||M - L - S||_F / ||M||_F`` and
    the dual residual ``mu ||S - S_prev||_F / ||M||_F`` are at most ``tol``;
    ``residuals`` lists the primal one per step.  The dual residual is not
    dimensionless, so without the scaling the result would depend on the
    scale of ``M``; with it, the result and the iteration count do not.

    Each singular-value thresholding (``_svt``) is one symmetric
    eigendecomposition of the smaller Gram matrix of ``X / tau``.  Its
    eigenvalue error is about ``eps sigma_max(X / tau)^2`` against the
    threshold 1, which moves ``L`` by about ``eps sigma_max^2 / tau`` at
    most: rounding level while ``sigma_max / tau`` is moderate.  At the
    first step ``sigma_max(M) / tau <= M.size / 4``, since
    ``sigma_max(M) <= ||M||_1``."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ParameterError("matrix solver needs a 2-way array")
    if lam is None:
        lam = default_lambda(M.shape)
    lam = float(lam)
    M, scale = _unit_scale(M)
    if not M.any():
        return np.zeros_like(M), np.zeros_like(M), [0.0]
    norm_M = np.linalg.norm(M)
    mu = float(M.size / (4.0 * np.abs(M).sum()))
    L = np.zeros_like(M)
    S = np.zeros_like(M)
    Y = np.zeros_like(M)
    residuals = []
    for _ in range(int(max_iter)):
        L = _svt(M - S + Y / mu, 1.0 / mu)
        S_prev = S
        S = _soft(M - L + Y / mu, lam / mu)
        R = M - L - S
        Y = Y + mu * R
        res = np.linalg.norm(R) / norm_M
        residuals.append(res)
        # Feasibility alone can be hit far from the optimum (e.g. purely
        # diagonal inputs become exactly feasible after two steps), so the
        # dual residual -- the scaled change in S -- must vanish too.
        dual = mu * np.linalg.norm(S - S_prev) / norm_M
        if res <= tol and dual <= tol:
            return L * scale, S * scale, residuals
    raise ConvergenceError(
        f"matrix solver did not reach {tol:g} in {max_iter} iterations",
        best=(L * scale, S * scale, residuals),
    )


# ---------------------------------------------------------------------------
# Concentration experiments.
# ---------------------------------------------------------------------------

def _sampling_norms(family, mask, q):
    """``(||p_L (p_full - q^{-1} p_I) p_L||, ||p_L p_{I perp}||)`` for the
    entry set ``I = mask``, from the row gathers of the Kronecker factor."""
    Q_I = _factor_rows(family, mask)
    dev = _sigma_max(np.eye(Q_I.shape[1]) - (Q_I.T @ Q_I) / q)
    return dev, _sigma_max(_factor_rows(family, ~mask))


def concentration_trial(L, q, trials=20, seed=0):
    """Empirical distribution of the three random operator norms driving
    the identifiability analysis, under Bernoulli(``q``) supports.

    Per trial records ``||p_L (p_full - q^{-1} p_I) p_L||``,
    ``||p_L p_{I perp}||``, and the spectral value of a fresh sign tensor
    (``spectral_hopm``'s value; the trials' sign tensors sweep together as
    one stack through ``_hopm_stack``, each to its own stop).  Theoretical
    envelopes are reported for display only; the constants in the
    corresponding tail bounds are not pinned down.
    """
    A = asarray(L)
    if not 0.0 < q <= 1.0:
        raise ParameterError("support probability must lie in (0, 1]")
    if trials < 1:
        raise ParameterError("need at least one trial")
    family = family_from_tensor(A)
    shape = A.shape
    root = np.random.SeedSequence([int(seed), *shape])
    records, signs = [], []
    for child in root.spawn(int(trials)):
        rng = np.random.default_rng(child)
        dev, leak = _sampling_norms(family, rng.random(shape) < q, q)
        signs.append(np.where(
            rng.random(shape) < 0.5, -1.0, 1.0
        ) * (rng.random(shape) < q))
        records.append({"deviation": float(dev), "leakage": float(leak)})
    # One HOPM over the stack of every trial's sign tensor.
    for rec, res in zip(records, _hopm_stack(np.stack(signs))):
        rec["sign_spectral"] = float(res.value)
    leak_envelope = float(np.sqrt(max(1.0 - q + q * 0.5, 0.0)))
    sign_shape = float(np.sqrt(sum(shape)))
    return {
        "q": float(q),
        "records": records,
        "quantiles": {
            key: tuple(
                float(v) for v in np.quantile(
                    [rec[key] for rec in records], [0.5, 0.9, 1.0]
                )
            )
            for key in ("deviation", "leakage", "sign_spectral")
        },
        "envelopes": {
            "leakage_half_eps": leak_envelope,
            "sign_spectral_shape": sign_shape,
        },
    }
