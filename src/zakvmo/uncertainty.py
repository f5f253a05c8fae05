r"""Uncertainty-product functionals, Gagliardo seminorms, and Gaussian-window
short-time-transform norm estimates with divergence detection.

A numerical artifact cannot certify that an integral is infinite; the "= oo"
claims are operationalized as sweeps of truncated partial integrals whose
verdicts carry a growth-shape fit: a sweep is convergent when the last
relative increment falls below a threshold, and divergent otherwise, with
the tail partials regressed against both r and log r to label the growth as
linear or logarithmic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import GridError, SampledFunction, embed, fold, fourier_transform

# Relative last increment below which each sweep counts as saturated.
_MOMENT_REL_TOL = 1e-8
_GAGLIARDO_REL_TOL = 1e-3
_FEICHTINGER_REL_TOL = 1e-6
# Output sample rate of the Fourier transform behind the frequency moment.
_FREQ_OUT_S = 16
# Excluded diagonal bands (in grid cells) of the Gagliardo band sweep.
_GAGLIARDO_BANDS = (16, 8, 4, 2, 1)
# (t, v) steps of the Feichtinger quadrature grid.
_FEICHTINGER_GRID = (0.25, 0.125)


@dataclass
class DivergenceSweep:
    """Partial values of a truncated integral over an expanding family."""

    radii: list
    partials: list
    converged: bool
    value: float | None
    growth_shape: str | None  # 'linear' | 'log' | None
    growth_rate: float | None
    axis: str = "radius"

    def as_dict(self) -> dict:
        return {
            "axis": self.axis,
            "radii": list(map(float, self.radii)),
            "partials": list(map(float, self.partials)),
            "converged": self.converged,
            "value": self.value,
            "growth_shape": self.growth_shape,
            "growth_rate": self.growth_rate,
        }


def _fit_growth(radii, partials):
    """Pick the better of p ~ a + b r and p ~ a + b log r on the sweep tail."""
    r = np.asarray(radii, dtype=float)
    p = np.asarray(partials, dtype=float)
    if len(r) >= 5:
        r, p = r[-5:], p[-5:]
    best = (None, None, np.inf)
    for shape, axis in (("linear", r), ("log", np.log(r))):
        A = np.vstack([np.ones_like(axis), axis]).T
        coef, *_ = np.linalg.lstsq(A, p, rcond=None)
        resid = float(np.linalg.norm(A @ coef - p))
        if resid < best[2]:
            best = (shape, float(coef[1]), resid)
    return best[0], best[1]


def _sweep(radii, partials, rel_tol: float, axis: str) -> DivergenceSweep:
    """Classify a sweep: saturated or geometrically decaying increments mean
    convergence; steady or growing increments mean divergence.

    With a geometric axis (each entry roughly doubling, as in the default
    band and radius schedules) the increment ratio rho separates the cases
    cleanly: ~0.5 for tails vanishing like 1/axis, ~1 for logarithmic
    growth, ~2 for linear growth.  Convergent sweeps report the
    geometric-tail extrapolation as their value.
    """
    radii = list(map(float, radii))
    partials = list(map(float, partials))
    if len(radii) < 2:
        raise ValueError("need at least two radii")
    scale = max(abs(partials[-1]), 1e-300)
    d_last = partials[-1] - partials[-2]
    if abs(d_last) / scale < rel_tol:
        return DivergenceSweep(radii, partials, True, partials[-1], None, None, axis)
    d_prev = partials[-2] - partials[-3] if len(partials) >= 3 else None
    if d_prev is not None and abs(d_prev) > 1e-300:
        rho = d_last / d_prev
        if 0.0 <= rho <= 0.75:
            value = partials[-1] + d_last * rho / (1.0 - rho)
            return DivergenceSweep(radii, partials, True, value, None, None, axis)
    shape, rate = _fit_growth(radii, partials)
    return DivergenceSweep(radii, partials, False, None, shape, rate, axis)


def weighted_moment(g: SampledFunction, q: float, center: float, radii) -> DivergenceSweep:
    """Partial integrals of |x - center|^q |g(x)|^2 over |x - center| <= R,
    for a finite q >= 0.

    For compactly supported samples the sweep saturates once R covers the
    support; the translation covariance (g, center) -> (shifted g,
    shifted center) is exact on the grid.
    """
    if not (q >= 0 and math.isfinite(q)):
        raise ValueError("exponent must be finite and >= 0")
    x = g.grid() - center
    weight = np.abs(x) ** q * np.abs(g.values) ** 2
    partials = [float(np.sum(weight[np.abs(x) <= r]) / g.samples_per_unit) for r in radii]
    return _sweep(radii, partials, _MOMENT_REL_TOL, "radius")


def uncertainty_product(
    g: SampledFunction,
    p: float,
    q: float,
    alpha: float,
    beta: float,
    radii,
    dual: bool = False,
) -> tuple[DivergenceSweep, DivergenceSweep]:
    """Sweeps of the two uncertainty factors
    ( int |x-alpha|^q |g|^2 ) and ( int |w-beta|^p |ghat|^2 ).

    The q exponent weights the time side.  With ``dual=True`` the pair must
    satisfy 1/p + 1/q = 1 within 1e-12.  The product is divergent if either
    factor is.
    """
    if dual and abs(1.0 / p + 1.0 / q - 1.0) > 1e-12:
        raise ValueError(f"exponents are not Holder-dual: 1/{p} + 1/{q} != 1")
    rmax = int(math.ceil(max(radii))) + 1
    ghat = fourier_transform(g, out_S=_FREQ_OUT_S, out_support=(-rmax, rmax))
    return weighted_moment(g, q, alpha, radii), weighted_moment(ghat, p, beta, radii)


def gagliardo_seminorm(g: SampledFunction, s: float, radii) -> DivergenceSweep:
    """Truncated double integral of |g(x) - g(y)|^2 / |x - y|^{1 + 2s}.

    The rectangle rule runs over [-R, R]^2 minus a diagonal band; the
    radius sweep saturates for compactly supported samples, so the
    returned sweep refines the excluded band (in grid cells) at the
    largest radius, with the axis reported as 1 / (band width).  Jump
    discontinuities show up as logarithmic growth under band refinement at
    s = 1/2; smooth decaying functions saturate.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    h = 1.0 / g.samples_per_unit
    expo = 1.0 + 2.0 * s
    # zero-extend the samples over [-rmax, rmax]: pairs with one point
    # outside the support carry the jump contributions
    rmax = int(math.ceil(float(max(radii))))
    ext = embed(g, min(g.k_min, -rmax), max(g.k_max, rmax))
    big, x = ext.values, ext.grid()

    def banded(r, band):
        return _kernels.gagliardo_pairs(big[np.abs(x) <= r], h, int(band), expo)

    sat = [banded(r, _GAGLIARDO_BANDS[0]) for r in sorted(radii)]
    radius_sweep = _sweep(sorted(radii), sat, _GAGLIARDO_REL_TOL, "radius")
    partials = [banded(rmax, b) for b in _GAGLIARDO_BANDS]
    axis_vals = [1.0 / (b * h) for b in _GAGLIARDO_BANDS]
    sweep = _sweep(axis_vals, partials, _GAGLIARDO_REL_TOL, "one_over_band")
    if not radius_sweep.converged and sweep.converged:
        shape, rate = radius_sweep.growth_shape, radius_sweep.growth_rate
        return DivergenceSweep(axis_vals, partials, False, None, shape, rate, "one_over_band")
    return sweep


def feichtinger_norm_estimate(g: SampledFunction, radii=(2, 4, 8, 16)) -> DivergenceSweep:
    """Absolute integral of the Gaussian-window transform
    V(t, v) = int g(x) e^{-(x-t)^2} e^{2 pi i x v} dx over expanding
    frequency boxes |v| <= R (t integrated over the window-widened support).

    Membership in the modulation-type algebra shows up as saturation;
    box-like generators produce logarithmically growing partials.  The
    sampled transform aliases at |v| ~ S, so radii are capped at S/4.
    At x = j / S and v_k = v_0 + k v_step the phase is x v_0 + j k / n with
    n = S / v_step: each windowed row, modulated by v_0, is folded mod n by
    ``core.fold`` and read off one FFT at -k (the kernel is e^{+2 pi i x v}),
    in O(n log n) per row where a dense kernel product costs O(n_x n_v).
    """
    t_step, v_step = _FEICHTINGER_GRID
    vmax = float(max(radii))
    if vmax > g.samples_per_unit / 4:
        raise GridError(
            f"max radius {vmax} exceeds S/4 = {g.samples_per_unit / 4}; the "
            "sampled transform aliases there (raise samples_per_unit)"
        )
    t = np.arange(g.k_min - 6, g.k_max + 6 + 1e-9, t_step)
    v = np.arange(-vmax, vmax + 1e-9, v_step)
    x = g.grid()
    n = round(g.samples_per_unit / v_step)
    window = np.exp(-((x[None, :] - t[:, None]) ** 2)) * (g.values * np.exp(2j * np.pi * v[0] * x))
    mag = np.abs(np.fft.fft(fold(window, g.j_min, n))[:, -np.arange(len(v)) % n]) / g.samples_per_unit
    partials = [float(mag[:, np.abs(v) <= r].sum() * (t_step * v_step)) for r in radii]
    return _sweep(radii, partials, _FEICHTINGER_REL_TOL, "radius")
