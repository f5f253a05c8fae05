r"""Metaplectic operators: Fourier transform, dilations and chirps applied
to sampled functions, together with covariance and Zak-formula checks.

Each generator matrix corresponds to the unitary that realizes the
covariance relation U_S pi(u, eta) U_S* = pi(S (u, eta)^T):

    (0 1; -1 0)        ->  Fourier transform
    (a 0; 0 1/a)       ->  D_{1/a},  D_m f(x) = sqrt(|m|) f(m x)
    (1 0; b 1)         ->  C_{b/2},  C_m f(x) = exp(2 pi i m x^2) f(x)

(The dilation and chirp parameters are fixed by the conjugation identities
D_m pi(u,eta) D_m^{-1} = pi(u/m, m eta) and
C_m pi(u,eta) C_m^{-1} = phase * pi(u, eta + 2 m u).)  Every unitary is
normalized only up to a unimodular scalar, so all equality checks are
phase-blind alignment inner products.

Dilation by m = p/q keeps nodes exact by rescaling the sample rate to
S * |p| / q (q must divide S); chirps are exact pointwise; the Fourier
step uses the quadrature transform and carries its documented error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    GridError,
    SampledFunction,
    ScalarField2D,
    embed,
    fourier_transform,
    inner_product,
    place,
    tf_shift,
)
from .symplectic import GeneratorStep, RationalMatrix2, as_fraction, sl2_factorize, steps_matrix
from .zak import fourier_identity_dev, zak_transform


def apply_dilation(f: SampledFunction, mu) -> SampledFunction:
    """D_mu f(x) = sqrt(|mu|) f(mu x), exact by sample-rate relabeling.

    For mu = p/q (coprime) the output rate is S * |p| / q, so the output
    node j / S_out reads f at exactly j / S (or -j / S for negative mu);
    requires q | S.  Norm is preserved exactly, including on the grid.
    """
    mu = as_fraction(mu)
    if mu == 0:
        raise ValueError("dilation parameter must be nonzero")
    p, q = abs(mu.numerator), mu.denominator
    s = f.samples_per_unit
    if s % q != 0:
        raise GridError(f"dilation {mu}: denominator {q} must divide S = {s}")
    src = math.sqrt(p / q) * f.values
    # output node j / S_out reads input node (sign) j / S
    if mu < 0:
        return place(src[::-1], -(f.k_max * s - 1), s * p // q)
    return place(src, f.j_min, s * p // q)


def apply_chirp(f: SampledFunction, beta) -> SampledFunction:
    """C_beta f(x) = exp(2 pi i beta x^2) f(x), exact pointwise."""
    x = f.grid()
    return SampledFunction(
        f.samples_per_unit,
        f.k_min,
        f.k_max,
        np.exp(2j * np.pi * float(beta) * x * x) * f.values,
    )


def _fourier_step(f: SampledFunction) -> SampledFunction:
    # dilations shrink supports while widening spectra, so the chain-internal
    # transform keeps at least an S/8 half-width (clipped to Nyquist) instead
    # of just mirroring the input hull
    c = max(abs(f.k_min), abs(f.k_max), f.samples_per_unit // 8, 1)
    c = max(min(c, f.samples_per_unit // 2), 1)
    return fourier_transform(f, out_support=(-c, c))


def apply_generator(step: GeneratorStep, f: SampledFunction) -> SampledFunction:
    """Apply the metaplectic unitary of one generator matrix."""
    if step.kind == "J":
        return _fourier_step(f)
    if step.kind == "dilation":
        return apply_dilation(f, 1 / step.param)
    return apply_chirp(f, step.param / 2)


@dataclass(frozen=True)
class MetaplecticChain:
    """Generator steps in application order realizing a source matrix."""

    steps: tuple
    source: RationalMatrix2

    def __post_init__(self):
        if steps_matrix(self.steps) != self.source:
            raise ValueError("step product does not reproduce the source matrix")

    @staticmethod
    def for_matrix(S: RationalMatrix2) -> "MetaplecticChain":
        return MetaplecticChain(tuple(sl2_factorize(S)), S)


def minimal_sample_multiple(steps) -> int:
    """Smallest L such that every dilation in the chain stays grid-exact
    whenever the input sample rate is a multiple of L."""
    L = 1
    scale = Fraction(1)  # accumulated sample-rate factor before each step
    for st in steps:
        if st.kind == "dilation":
            mu = 1 / st.param
            L = math.lcm(L, (scale / mu.denominator).denominator)
            scale *= Fraction(abs(mu.numerator), mu.denominator)
    return L


def apply_metaplectic(chain: MetaplecticChain, f: SampledFunction) -> SampledFunction:
    """Apply the steps of a chain sequentially."""
    out = f
    for st in chain.steps:
        out = apply_generator(st, out)
    return out


def covariance_residual(chain: MetaplecticChain, lam, f: SampledFunction) -> float:
    """1 - |<U pi(lam) f, pi(S lam) U f>| / ||f||^2 (phase-blind).

    Zero up to quadrature error exactly when the covariance relation holds
    modulo the permitted unimodular constant.
    """
    u, eta = as_fraction(lam[0]), as_fraction(lam[1])
    u2, e2 = chain.source.apply((u, eta))
    left = apply_metaplectic(chain, tf_shift(f, (float(u), float(eta))))
    right = tf_shift(apply_metaplectic(chain, f), (float(u2), float(e2)))
    return 1.0 - abs(inner_product(left, right)) / f.norm() ** 2


def chirp_decomposition_residual(f: SampledFunction, beta, gamma) -> float:
    """Grid norm of C_beta f - D_{1/gamma} C_{beta gamma^2} D_gamma f."""
    beta, gamma = as_fraction(beta), as_fraction(gamma)
    lhs = apply_chirp(f, beta)
    rhs = apply_dilation(apply_chirp(apply_dilation(f, gamma), beta * gamma * gamma), 1 / gamma)
    if lhs.samples_per_unit != rhs.samples_per_unit:
        raise GridError("decomposition changed the sample rate")
    k0, k1 = min(lhs.k_min, rhs.k_min), max(lhs.k_max, rhs.k_max)
    a, b = embed(lhs, k0, k1).values, embed(rhs, k0, k1).values
    return float(np.linalg.norm(a - b) / math.sqrt(lhs.samples_per_unit))


@dataclass(frozen=True)
class ZakFormulaReport:
    """Sup deviations of the closed-form Zak images of F, D_alpha, C_m."""

    dev_fourier: float
    dev_dilation: float
    dev_chirp: float
    alpha: Fraction
    chirp_m: int

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "dev_fourier": self.dev_fourier,
            "dev_dilation": self.dev_dilation,
            "dev_chirp": self.dev_chirp,
            "alpha": f"{self.alpha.numerator}/{self.alpha.denominator}",
            "chirp_m": self.chirp_m,
        }


def _dilation_formula_dev(g: SampledFunction, alpha: Fraction, base: int) -> float:
    # alpha > 0:  Z(D_a g)(x,w) = (1/sqrt(pq)) sum_{l<q, r<p} e^{+2 pi i l w}
    #                              Zg(a(x+l), w/a + r/p)
    # alpha < 0:  same with |pq|, e^{-2 pi i l w} and Zg(A(x,w)^T - (al, r/p)^T)
    p, q = alpha.numerator, alpha.denominator
    pa = abs(p)
    s = g.samples_per_unit
    nx_g, nw_g = q * base, pa * base
    nx_d, nw_d = pa * base, q * base
    if s % nx_g or s % q:
        raise GridError(f"need {nx_g} | S and {q} | S (S = {s})")
    dil = apply_dilation(g, alpha)
    if dil.samples_per_unit % nx_d:
        raise GridError("dilated grid incompatible with nx_d")
    Zd = zak_transform(dil, nx_d, nw_d).values
    Z = zak_transform(g, nx_g, nw_g)
    sign = 1 if p > 0 else -1
    jx = np.arange(nx_d)
    jw = np.arange(nw_d)
    acc = np.zeros((nx_d, nw_d), dtype=np.complex128)
    # On these grids (a x) * nx_g = sign * jx and (w / a) * nw_g = sign * jw
    # exactly, and the lattice offsets are multiples of `base`.  Splitting
    # the defining sum over k = q m + l and selecting j = p m inside Zg
    # gives the branch-uniform form
    #   (1/sqrt|pq|) sum_{l<q, r<|p|} e^{-2 pi i l w} Zg(a(x+l), w/a - r/|p|),
    # which matches the cited expansion after resummation of l and r.
    for ell in range(q):
        ix = sign * jx + p * ell * base
        phase = np.exp(-2j * np.pi * ell * jw / nw_d)
        for r in range(pa):
            iw = sign * jw - r * base
            acc += phase[None, :] * Z.at(ix[:, None], iw[None, :])
    acc /= math.sqrt(pa * q)
    return float(np.max(np.abs(Zd - acc)))


def _chirp_formula_dev(g: SampledFunction, Z: ScalarField2D, m: int) -> float:
    # Z(C_m g)(x, w) = e^{2 pi i m x^2} Zg(x, w - 2 m x) on the n-by-n grid of Z
    n = Z.nx
    Zc = zak_transform(apply_chirp(g, m), n, n).values
    j = np.arange(n)
    iw = j[None, :] - 2 * m * j[:, None]
    x = j / n
    rhs = np.exp(2j * np.pi * m * x * x)[:, None] * Z.at(j[:, None], iw)
    return float(np.max(np.abs(Zc - rhs)))


def check_zak_formulas(g: SampledFunction, alpha, m: int, base: int = 16) -> ZakFormulaReport:
    """Verify the closed-form Zak transforms of Fourier, dilation and chirp
    images against direct recomputation.

    ``alpha = p/q`` drives the dilation grids (nx_g = q * base and
    nw_g = p * base for the source, transposed for the image); the chirp
    and Fourier checks share one n-by-n grid, n = min(S, 64).
    """
    alpha = as_fraction(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    n = min(g.samples_per_unit, 64)
    Z = zak_transform(g, n, n)
    return ZakFormulaReport(
        dev_fourier=fourier_identity_dev(g, Z),
        dev_dilation=_dilation_formula_dev(g, alpha, base),
        dev_chirp=_chirp_formula_dev(g, Z, m),
        alpha=alpha,
        chirp_m=m,
    )
