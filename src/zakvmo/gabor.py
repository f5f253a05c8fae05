r"""Matrix analysis of Gabor systems on separable lattices (1/Q) Z x P Z.

The central object is the P-by-Q matrix field

    A(x, w) = ( Zg(x - k/P - l/Q, w) )_{k=0..P-1, l=0..Q-1},

whose uniform singular-value bounds characterize the Riesz-sequence
property: P*A ||xi||^2 <= ||A(x,w) xi||^2 <= P*B ||xi||^2 at almost every
node.  It obeys A(x + 1/P, w) = Pi(w) A(x, w) with a unitary Pi(w), so it,
the invariance solution and the transfer matrix are kept on the period
rectangle x < 1/P only, each as a stack of blocks indexed by node (x, w).
On top of it sit the least-squares solve for an additional
time-frequency shift invariance, the recovery of expansion coefficients as
2-D Fourier coefficients, the Q-by-Q transfer matrix built from the shift
matrix R(w), and the N-step product relation whose exponent must satisfy
the divisibility certificate for genuine lattice membership.

All shift parameters are exact rationals; the grids are chosen so every
shifted node is again a node and no interpolation ever happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .core import GridError, SampledFunction, ScalarField2D, embed, node_index, tf_shift
from .symplectic import as_fraction
from .zak import zak_transform

# The lower Riesz bound below which the system counts as no Riesz sequence:
# the invariance solve refuses to run there, so ``invariance`` and ``analyze``
# exit 3; ``riesz`` still reports the bounds.
RIESZ_FLOOR = 1e-12

# Recovered coefficients at most this fraction of the largest are dropped.
_COEFF_DROP = 1e-10


class RieszFailureError(RuntimeError):
    """The scanned lower Riesz bound vanished; downstream formulas assume
    a positive lower frame inequality."""


@dataclass(frozen=True)
class SeparableLattice:
    """The lattice (1/Q) Z x P Z with positive integers P, Q."""

    P: int
    Q: int

    def __post_init__(self):
        if self.P < 1 or self.Q < 1:
            raise ValueError("P and Q must be positive integers")

    def require_coprime(self):
        if math.gcd(self.P, self.Q) != 1:
            raise ValueError(f"P={self.P} and Q={self.Q} must be coprime here")


def zz_matrix(Zg: ScalarField2D, lat: SeparableLattice, du: int = 0, de: int = 0) -> np.ndarray:
    """A(x - du/nx, w - de/nw) at the nodes x < 1/P of the period rectangle,
    read from quasi-periodically extended Zak samples, as a stack of P x Q
    blocks of shape (nx // P, nw, P, Q).

    A(x + 1/P, w) = Pi(w) A(x, w), where the unitary Pi(w) moves row k to
    row k + 1 and the last row, times e^{2 pi i w}, to row 0: the rectangle
    settles every question the chain asks of A.
    """
    n, nw = Zg.nx, Zg.nw
    P, Q = lat.P, lat.Q
    if n % P != 0 or n % Q != 0:
        raise GridError(f"nx = {n} must be divisible by lcm(P, Q) = {math.lcm(P, Q)}")
    J = n // P
    ix = np.arange(J)[:, None, None, None] - du - np.arange(P)[:, None] * J - np.arange(Q) * (n // Q)
    return Zg.at(ix, np.arange(nw)[:, None, None] - de)


def shift_matrix(Q: int, w: np.ndarray) -> np.ndarray:
    """R(w): ones on the subdiagonal, e^{-2 pi i w} in the top-right corner.

    Returns the stack of blocks of shape w.shape + (Q, Q); unitary for every w.
    """
    w = np.asarray(w, dtype=float)
    R = np.zeros(w.shape + (Q, Q), dtype=np.complex128)
    R[..., np.arange(1, Q), np.arange(Q - 1)] = 1.0
    R[..., 0, Q - 1] = np.exp(-2j * np.pi * w)
    return R


def _qr_sigma(mats: np.ndarray):
    """(reflectors, R, sigma_max, sigma_min) of a stack of N p x q blocks by one
    Householder QR (of the conjugate transposes if p < q), each step on all blocks
    at once in the column-major (p, q, N) layout: as zlarfg, I - w w* maps x =
    X[j:, j] to -phase(x_0) |x| e_1 (|x| scaled by max |x_i|), w = 0 where x[1:] = 0.
    R, the (N, k, q) view of the k x k triangle, k = min(p, q), has the blocks'
    singular values: |r11|, a closed 2 x 2 formula on |R|, or SVD."""
    p, q = mats.shape[-2:]
    X = np.array(mats.transpose(1, 2, 0) if p >= q else mats.conj().transpose(2, 1, 0), order="C")
    k, reflectors = min(p, q), []
    for j in range(min(k, max(p, q) - 1)):
        x = X[j:, j]
        ax = np.abs(x)
        s = np.maximum(ax.max(axis=0), np.finfo(float).tiny)
        norm = s * np.sqrt(np.sum((ax / s) ** 2, axis=0))
        live = ax[1:].max(axis=0) > 0
        phase = x[0] * (1 / np.where(ax[0] > 0, ax[0], 1)) + (ax[0] == 0)  # 1 at x_0 = 0
        c = np.divide(1, np.sqrt(norm) * np.sqrt(norm + ax[0]), out=np.zeros_like(norm), where=live)
        w = x * c  # |w| = sqrt 2 where live
        w[0] = phase * ((ax[0] + norm) * c)
        x[0], x[1:] = np.where(live, -norm * phase, x[0]), 0
        X[j:, j + 1:] -= w[:, None] * np.sum(w.conj()[:, None] * X[j:, j + 1:], axis=0)
        reflectors.append(w)
    R = X[:k].transpose(2, 0, 1)
    if k != 2:
        sv = np.abs(R[..., :1, 0]) if k == 1 else np.linalg.svd(R, compute_uv=False)
        return reflectors, R, sv[..., 0], sv[..., -1]
    # R = [[f, g], [0, h]] up to phases: smax +- smin = |(f +- h, g)|, smax * smin = f h
    f, g, h = np.abs((X[0, 0], X[0, 1], X[1, 1]))
    smax = 0.5 * (np.hypot(f + h, g) + np.hypot(f - h, g))
    smin = f * np.divide(h, smax, out=np.zeros_like(smax), where=smax > 0)
    return reflectors, R, smax, smin


def _qr_solve(qr: tuple, b: np.ndarray) -> np.ndarray:
    """Least-squares solutions of full-rank blocks (p >= q) factored by :func:`_qr_sigma`
    for (p, N) right-hand sides b, in place: b becomes Q* b, then F in its first q rows."""
    reflectors, R = qr[0], qr[1].transpose(1, 2, 0)
    for j, w in enumerate(reflectors):
        b[j:] -= w * np.sum(w.conj() * b[j:], axis=0)
    F = b[: len(R)]
    for i in range(len(R) - 1, -1, -1):  # back-substitution; |r_ii| >= sigma_min > 0
        F[i] = (F[i] - np.sum(R[i, i + 1:] * F[i + 1:], axis=0)) / R[i, i]
    return F


@dataclass(eq=False)
class RieszReport:
    """Scanned singular-value bounds of the lattice matrix field, with what
    later stages reuse: the Zak grid, the (nx // P, nw, P, Q) field A of
    :func:`zz_matrix`, and ``qr``, the Householder reflectors and R of its
    blocks in C order (``_qr_sigma``); no Q is formed."""

    a_est: float
    b_est: float
    argmin: tuple
    argmax: tuple
    sigma_min: np.ndarray
    sigma_max: np.ndarray
    P: int
    Q: int
    zak_sup: float
    zak: ScalarField2D
    field: np.ndarray
    qr: tuple

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "a_est": self.a_est,
            "b_est": self.b_est,
            "argmin": list(self.argmin),
            "argmax": list(self.argmax),
            "p": self.P,
            "q": self.Q,
            "nx": self.zak.nx,
            "nw": self.zak.nw,
            "zak_sup": self.zak_sup,
            "bounds_are_grid_level": True,
        }


def riesz_bounds(g: SampledFunction, lat: SeparableLattice, nx: int, nw: int) -> RieszReport:
    """Estimate the Riesz bounds by a singular-value scan over the grid.

    A_est = min sigma_min(A)^2 / P and B_est = max sigma_max(A)^2 / P over
    the blocks of the period rectangle, from one QR; for P < Q A has a kernel
    and A_est = 0.  ``sigma_min`` and ``sigma_max`` are (nx // P, nw) arrays.
    """
    if not np.any(g.values):
        raise ValueError("generator is identically zero")
    Zg = zak_transform(g, nx, nw)
    A = zz_matrix(Zg, lat)
    P, Q = lat.P, lat.Q
    reflectors, Rm, smax, smin = _qr_sigma(A.reshape(-1, P, Q))
    smax = smax.reshape(A.shape[:2])
    smin = smin.reshape(A.shape[:2]) if P >= Q else np.zeros_like(smax)
    b_est = float(smax.max() ** 2 / P)
    a_est = float(smin.min() ** 2 / P)
    imin = np.unravel_index(np.argmin(smin), smin.shape)
    imax = np.unravel_index(np.argmax(smax), smax.shape)
    return RieszReport(
        a_est=a_est,
        b_est=b_est,
        argmin=(imin[0] / Zg.nx, imin[1] / Zg.nw),
        argmax=(imax[0] / Zg.nx, imax[1] / Zg.nw),
        sigma_min=smin,
        sigma_max=smax,
        P=P,
        Q=Q,
        zak_sup=float(np.max(np.abs(Zg.values))),
        zak=Zg,
        field=A,
        qr=(reflectors, Rm),
    )


def _translates(
    g: SampledFunction, lat: SeparableLattice, pairs, *extra
) -> tuple[tuple[int, int], np.ndarray]:
    """((lo, hi), rows): pi(m/Q, nP) g for each (m, n) of pairs, then each
    extra function, zero-extended onto the cell hull [lo, hi) of g and them."""
    fs = [tf_shift(g, (Fraction(m, lat.Q), n * lat.P)) for m, n in pairs] + list(extra)
    lo, hi = min(f.k_min for f in [g, *fs]), max(f.k_max for f in [g, *fs])
    rows = np.array([embed(f, lo, hi).values for f in fs])
    return (lo, hi), rows.reshape(len(fs), (hi - lo) * g.samples_per_unit)  # also with no rows


def gram_riesz_oracle(g: SampledFunction, lat: SeparableLattice, trunc: int) -> tuple[float, float]:
    """Independent bracket: extreme eigenvalues of the finite Gram matrix
    of { pi(m/Q, n P) g : |m|, |n| <= trunc }.

    By eigenvalue interlacing the bracket is nested inside (A, B) and
    converges to it from inside as trunc grows.
    """
    s = g.samples_per_unit
    P, Q = lat.P, lat.Q
    if s % Q != 0:
        raise GridError(f"samples_per_unit = {s} must be divisible by Q = {Q}")
    if trunc * P >= s // 2:
        raise GridError(
            f"modulation frequency trunc*P = {trunc * P} aliases at S = {s}"
        )
    _, vecs = _translates(g, lat, product(range(-trunc, trunc + 1), repeat=2))
    gram = vecs @ vecs.conj().T / s
    eig = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    return float(max(eig[0], 0.0)), float(eig[-1])


def coefficient_recovery(F) -> tuple[dict, float]:
    """Read c_{sQ+l, n} from the vector field F on its period rectangle.

    ``F`` is the (Q, J, nw) array of components
    F_l(x, w) = sum_{s,n} c_{sQ+l, n} e^{2 pi i (n P x - s w)} at the nodes
    x = i / (J P) < 1/P, w = j / nw.  One 2-D FFT gives every coefficient,
    with n in [-J/2, J/2) and s in [-nw/2, nw/2); those at most _COEFF_DROP
    times the largest over all components are dropped.  Returns the
    sparse map (m, n) -> complex with m = s*Q + l, and the Parseval tail
    sum |c|^2 of the dropped ones.
    """
    Q, J, nw = np.shape(F)
    c = np.fft.fft2(F, axes=(1, 2)) / (J * nw)  # bin (n, -s) mod (J, nw)
    mag = np.abs(c)
    keep = mag > _COEFF_DROP * mag.max()
    ell, nb, sb = np.nonzero(keep)
    n = (nb + J // 2) % J - J // 2
    s = (nw // 2 - sb) % nw - nw // 2
    coeffs = {
        (int(si) * Q + int(li), int(ni)): complex(v)
        for li, ni, si, v in zip(ell, n, s, c[keep])
    }
    return coeffs, float(np.sum(mag[~keep] ** 2))


def resynthesize(
    g: SampledFunction, lat: SeparableLattice, coeffs: dict
) -> SampledFunction:
    """Time-domain sum  sum c_{m,n} pi(m/Q, nP) g  over the sparse map."""
    s = g.samples_per_unit
    if s % lat.Q != 0:
        raise GridError("samples_per_unit must be divisible by Q")
    (lo, hi), rows = _translates(g, lat, coeffs)
    return SampledFunction(s, lo, hi, np.array(list(coeffs.values()), dtype=complex) @ rows)


@dataclass(eq=False)
class InvarianceReport:
    """Least-squares diagnosis of pi(u, eta) g against the lattice span.

    The verdict is a finite-resolution proxy for the infinite-dimensional
    membership question: it reflects residuals on the scanned grid at the
    configured tolerance, not a certificate.
    """

    max_residual: float
    verdict: str  # invariant | not-invariant | inconclusive
    coeffs: dict
    parseval_tail: float
    f_field: np.ndarray  # (Q, nx // P, nw), on the period rectangle
    riesz: RieszReport
    u: Fraction
    eta: Fraction
    tol: float

    def as_dict(self) -> dict:
        rows = [
            [int(m), int(n), c.real, c.imag]
            for (m, n), c in sorted(self.coeffs.items())
        ]
        return {
            "schema": 1,
            "max_residual": self.max_residual,
            "verdict": self.verdict,
            "verdict_basis": "finite-resolution residual proxy",
            "tol": self.tol,
            "u": f"{self.u.numerator}/{self.u.denominator}",
            "eta": f"{self.eta.numerator}/{self.eta.denominator}",
            "coeffs": rows,
            "parseval_tail": self.parseval_tail,
            "a_est": self.riesz.a_est,
            "b_est": self.riesz.b_est,
        }


def invariance_solve(riesz: RieszReport, u, eta, tol: float = 1e-6) -> InvarianceReport:
    """Solve A(x,w) F(x,w) = e^{2 pi i eta x} D_P A(x-u, w-eta) e_0 per node.

    Reads the Zak grid, the field A, the lattice and the lower bound from
    ``riesz``, the report of :func:`riesz_bounds`, and recomputes none of
    them.  Both sides obey the same law X(x + 1/P, w) = Pi(w) X(x, w) with a
    unitary Pi(w), so the least-squares F is 1/P-periodic in x: the solve
    runs on the blocks of the period rectangle x < 1/P, and ``f_field`` is
    the (Q, nx // P, nw) solution there.  Each node is solved with the
    factors of its P x Q block kept on ``riesz``: its reflectors turn rhs
    into Q* rhs in place, and back-substitution on R gives F (``_qr_solve``).
    ``max_residual`` is the sup over nodes of the residual norm of A F - rhs,
    A the kept field, relative to the sup of the right-hand-side norm.  Verdict bands:
    invariant below tol, inconclusive in [tol, 10 tol), not-invariant above.
    Irrational shifts are rejected; pass Fractions or 'p/q' strings.
    """
    u, eta = as_fraction(u), as_fraction(eta)
    lat = SeparableLattice(riesz.P, riesz.Q)
    lat.require_coprime()
    P, Q = lat.P, lat.Q
    if (u, eta) == (0, 0):
        raise ValueError("(u, eta) must be nonzero")
    Z = riesz.zak
    nx, nw = Z.nx, Z.nw
    J = nx // P
    du = node_index(u, nx, "u")
    de = node_index(eta, nw, "eta")
    if riesz.a_est <= RIESZ_FLOOR:
        raise RieszFailureError(
            f"lower Riesz bound ~ {riesz.a_est:.3g}; system is not a Riesz sequence"
        )

    ix, k = np.arange(J)[:, None], np.arange(P)[:, None, None]
    phase = np.exp(2j * np.pi * float(eta) * (ix / nx)) * np.exp(-2j * np.pi * float(eta) * k / P)
    bm = (phase * Z.at(ix - du - k * J, np.arange(nw) - de)).reshape(P, -1)  # (P, J nw)
    Fm = _qr_solve(riesz.qr, bm.copy())
    res = np.einsum("npq,qn->pn", riesz.field.reshape(-1, P, Q), Fm) - bm
    res_norm = np.linalg.norm(res, axis=0)
    rhs_norm = np.linalg.norm(bm, axis=0)
    max_residual = float(res_norm.max() / max(rhs_norm.max(), 1e-300))
    Fp = Fm.reshape(Q, J, nw)

    if max_residual < tol:
        verdict = "invariant"
    elif max_residual < 10 * tol:
        verdict = "inconclusive"
    else:
        verdict = "not-invariant"

    coeffs, tail = {}, 0.0
    if verdict == "invariant":
        coeffs, tail = coefficient_recovery(Fp)

    return InvarianceReport(
        max_residual=max_residual,
        verdict=verdict,
        coeffs=coeffs,
        parseval_tail=tail,
        f_field=Fp,
        riesz=riesz,
        u=u,
        eta=eta,
        tol=tol,
    )


def projection_residual_oracle(
    g: SampledFunction, lat: SeparableLattice, u, eta, trunc: int
) -> float:
    """Independent time-domain check: relative L2 distance from
    pi(u, eta) g to the span of { pi(m/Q, nP) g : |m|, |n| <= trunc }."""
    u, eta = as_fraction(u), as_fraction(eta)
    target = tf_shift(g, (float(u), float(eta)))
    _, rows = _translates(g, lat, product(range(-trunc, trunc + 1), repeat=2), target)
    V, t = rows[:-1], rows[-1]
    c, *_ = np.linalg.lstsq(V.T, t, rcond=None)
    resid = t - V.T @ c
    return float(np.linalg.norm(resid) / np.linalg.norm(t))


@dataclass(eq=False)
class MMatrixResult:
    """Assembled transfer matrix M(x, w) plus its conjugation residuals.

    ``conjugation_residual`` checks the eta-corrected identity
    M(x - 1/Q, w) = e^{-2 pi i eta / Q} R^{-1} M R K with
    K = diag(1, ..., 1, e^{2 pi i eta}); for eta = 1 (mod Q) it coincides
    with the plain form carrying the constant e^{-2 pi i / Q}, whose
    residual is reported separately.  ``det_periodicity`` is the deviation
    of det M from 1/Q-periodicity in x, the consequence used downstream.
    """

    field: np.ndarray  # (nx // P, nw, Q, Q), on the period rectangle
    conjugation_residual: float
    plain_conjugation_residual: float
    det_periodicity: float


def m_matrix(F, lat: SeparableLattice, eta) -> MMatrixResult:
    """Build M(x,w) with columns e^{2 pi i eta l / Q} R(w)^l F(x - l/Q, w).

    ``F`` is the (Q, nx // P, nw) field of ``InvarianceReport.f_field`` on the
    period rectangle x < 1/P.  F and M are 1/P-periodic in x, so the shift
    by l/Q is a roll by l nx / Q rows, taken mod nx / P; ``field`` is M as a
    stack of Q x Q blocks of the same rectangle.
    """
    eta = as_fraction(eta)
    Fx = np.moveaxis(np.asarray(F), 0, -1)[..., None]  # (J, nw, Q, 1)
    J, nw, Q, _ = Fx.shape
    nx = J * lat.P
    if nx % Q != 0:
        raise GridError("nx must be divisible by Q")
    R = shift_matrix(Q, np.arange(nw) / nw)  # (nw, Q, Q)

    M = np.concatenate([
        np.exp(2j * np.pi * float(eta) * ell / Q)
        * (np.linalg.matrix_power(R, ell) @ np.roll(Fx, ell * nx // Q, axis=0))
        for ell in range(Q)
    ], axis=-1)

    lhs = np.roll(M, nx // Q, axis=0)  # M(x - 1/Q, w)
    conj = R.conj().swapaxes(-1, -2) @ M @ R  # R^{-1} M R, R unitary
    K = np.ones(Q, dtype=np.complex128)
    K[-1] = np.exp(2j * np.pi * float(eta))
    rhs_corr = np.exp(-2j * np.pi * float(eta) / Q) * conj * K
    rhs_plain = np.exp(-2j * np.pi / Q) * conj
    res_corr = float(np.max(np.abs(lhs - rhs_corr)))
    res_plain = float(np.max(np.abs(lhs - rhs_plain)))

    det = np.linalg.det(M)
    det_dev = float(np.max(np.abs(det - np.roll(det, nx // Q, axis=0))))
    return MMatrixResult(M, res_corr, res_plain, det_dev)


def fertig_residual(riesz: RieszReport, u, eta, M: MMatrixResult) -> float:
    """Sup-norm residual of A(x-u, w-eta) = e^{-2 pi i eta x} D_P^{-1} A M.

    A is the field of ``riesz``, the report of :func:`riesz_bounds`, and M
    the result of :func:`m_matrix`; only the shifted field is assembled
    here.  The check runs on the period rectangle x < 1/P: the difference
    of the two sides obeys X(x + 1/P) = Pi(w - eta) X(x) with a monomial
    unitary Pi, so its entrywise sup there is the sup on the unit square.
    """
    u, eta = as_fraction(u), as_fraction(eta)
    Z, P = riesz.zak, riesz.P
    du = node_index(u, Z.nx, "u")
    de = node_index(eta, Z.nw, "eta")
    Ashift = zz_matrix(Z, SeparableLattice(P, riesz.Q), du, de)
    xg = np.arange(len(Ashift)) / Z.nx
    dp_inv = np.exp(2j * np.pi * float(eta) * np.arange(P) / P)
    rhs = (
        np.exp(-2j * np.pi * float(eta) * xg)[:, None, None, None]
        * dp_inv[:, None]
        * (riesz.field @ M.field)
    )
    return float(np.max(np.abs(Ashift - rhs)))


def product_relation_residual(H, u, eta, N: int, M1: int, M2: int) -> float:
    """Sup-norm residual of prod_n H(x + n u, w + n eta) = e^{2 pi i (M1 x + M2 w)}.

    ``H`` is a periodic or quasi-periodic ScalarField2D on the unit square
    (a Zak transform enters as it is); N u and N eta must be integers and
    the shifts must land on nodes.
    """
    u, eta = as_fraction(u), as_fraction(eta)
    if (N * u).denominator != 1 or (N * eta).denominator != 1:
        raise ValueError("N u and N eta must be integers")
    nx, nw = H.values.shape
    du = node_index(u, nx, "u")
    de = node_index(eta, nw, "eta")
    prod = np.ones((nx, nw), dtype=np.complex128)
    for n in range(N):
        prod = prod * H.window(n * du, n * de, nx, nw)
    xg = np.arange(nx) / nx
    wg = np.arange(nw) / nw
    target = np.exp(2j * np.pi * (M1 * xg[:, None] + M2 * wg[None, :]))
    return float(np.max(np.abs(prod - target)))


def divisibility_check(P1: int, P2: int, N: int, M1: int, M2: int) -> bool:
    """True iff N*P1 divides M1 and N*P2 divides M2."""
    if P1 < 1 or P2 < 1 or N < 1:
        raise ValueError("P1, P2, N must be positive")
    return M1 % (N * P1) == 0 and M2 % (N * P2) == 0
