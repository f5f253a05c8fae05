"""Sampled functions on a uniform grid with integer-aligned compact support.

A function is represented by its values at the nodes ``x_j = j / S`` for
``k_min * S <= j < k_max * S`` where ``S`` is the number of samples per unit
length and ``[k_min, k_max)`` is an integer interval.  Evaluation outside the
support is exactly zero.  All L2 pairings use the left-endpoint rectangle
rule at spacing ``1/S``, i.e. samples are treated as the function's values.

Powers of two are the natural choice for ``S`` (dyadic shifts and dilations
stay grid-exact), but any positive integer is accepted: rational dilations
such as 3/2 produce sample rates like 96 that are not powers of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class GridError(ValueError):
    """A requested operation is not exact on the sampling grid."""


def node_index(val, n: int, what: str) -> int:
    """Index of ``val`` on the 1/n grid; GridError when it is off-node.

    An int or Fraction is tested exactly, a float to within 1e-9 of a node
    spacing.  This is the one rule that turns a coordinate into an index.
    """
    if isinstance(val, (int, Fraction)):
        t = Fraction(val) * n
        if t.denominator != 1:
            raise GridError(f"{what} = {val} is not on the 1/{n} grid")
        return int(t)
    t = float(val) * n
    r = round(t)
    if abs(t - r) > 1e-9:
        raise GridError(f"{what} = {val} is not on the 1/{n} grid")
    return int(r)


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Complex samples of a compactly supported function on ``(1/S) Z``."""

    samples_per_unit: int
    k_min: int
    k_max: int
    values: np.ndarray

    def __post_init__(self):
        if self.samples_per_unit < 1:
            raise ValueError("samples_per_unit must be a positive integer")
        if self.k_max <= self.k_min:
            raise ValueError("support interval is empty")
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.complex128))
        if vals.ndim != 1 or len(vals) != self.n_cells * self.samples_per_unit:
            raise ValueError(
                f"values must have length (k_max-k_min)*S = "
                f"{self.n_cells * self.samples_per_unit}, got {vals.shape}"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n_cells(self) -> int:
        return self.k_max - self.k_min

    @property
    def j_min(self) -> int:
        """Global index of the first sample (x = j_min / S)."""
        return self.k_min * self.samples_per_unit

    def grid(self) -> np.ndarray:
        s = self.samples_per_unit
        return np.arange(self.k_min * s, self.k_max * s) / s

    def norm(self) -> float:
        return math.sqrt(max(inner_product(self, self).real, 0.0))


@dataclass(eq=False)
class ScalarField2D:
    """Complex values at the nodes (i/nx, j/nw) of the unit square [0,1)^2.

    ``extension`` controls reads outside the square: ``"none"`` raises,
    ``"periodic"`` tiles by it, ``"quasiperiodic"`` applies
    F(x + m, w) = exp(2 pi i m w) F(x, w) and 1-periodicity in w.
    ``omega_modes`` marks rows as trigonometric polynomials
    sum_{k in [k0,k1)} c_k e^{-2 pi i k w}.  The Zak transform is such a
    field: quasi-periodic, with the support cells of its source as the
    omega modes.
    """

    values: np.ndarray
    extension: str = "none"
    omega_modes: tuple[int, int] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 2:
            raise ValueError("field values must be a 2-D array")
        if self.extension not in ("none", "periodic", "quasiperiodic"):
            raise ValueError(f"unknown extension {self.extension!r}")

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def nw(self) -> int:
        return self.values.shape[1]

    @property
    def hx(self) -> float:
        return 1.0 / self.nx

    @property
    def hw(self) -> float:
        return 1.0 / self.nw

    def at(self, ix, iw) -> np.ndarray:
        """Values at the global node indices (ix, iw), broadcast against each
        other, read through the extension; the one place it is applied."""
        ix = np.asarray(ix, dtype=np.int64)
        iw = np.asarray(iw, dtype=np.int64)
        nx, nw = self.values.shape
        if self.extension == "none":
            if np.any(ix < 0) or np.any(ix >= nx) or np.any(iw < 0) or np.any(iw >= nw):
                raise GridError("read outside field domain (extension='none')")
            return self.values[ix, iw]
        mm = np.mod(iw, nw)
        if self.extension == "periodic":
            return self.values[np.mod(ix, nx), mm]
        wrap = ix // nx
        wraps, row = np.unique(wrap, return_inverse=True)  # one phase row per wrap
        phase = np.exp(2j * np.pi * (wraps[:, None] * (np.arange(nw) / nw)))
        row = row.reshape(wrap.shape)  # flat gathers: a multi-index one walks its short last axis
        return phase.ravel()[row * nw + mm] * self.values.ravel()[(ix - wrap * nx) * nw + mm]

    def window(self, i0: int, j0: int, ni: int, nj: int) -> np.ndarray:
        """Values for the global index ranges [i0,i0+ni) x [j0,j0+nj)."""
        return self.at(np.arange(i0, i0 + ni)[:, None], np.arange(j0, j0 + nj)[None, :])


def sample_function(recipe, support, samples_per_unit: int) -> SampledFunction:
    """Sample a named built-in (or a custom table) on the given grid.

    Parameters
    ----------
    recipe : str or tuple
        ``"gaussian"`` for exp(-x^2), ``"box"`` or ``("box", a, b)`` for the
        indicator of [a, b) (default [0, 1)), ``"box_sine"`` for
        1_[0,1)(x) sin(pi x), or ``("table", values)`` for explicit samples.
    support : (int, int)
        Integer interval [k_min, k_max).
    samples_per_unit : int
        Grid density S >= 2.
    """
    k0, k1 = support
    if k0 != int(k0) or k1 != int(k1):
        raise ValueError("support bounds must be integers")
    k0, k1 = int(k0), int(k1)
    if k1 <= k0:
        raise ValueError("support interval is empty")
    s = int(samples_per_unit)
    if s < 2:
        raise ValueError("samples_per_unit must be >= 2")

    name, args = (recipe, ()) if isinstance(recipe, str) else (recipe[0], tuple(recipe[1:]))
    x = np.arange(k0 * s, k1 * s) / s
    if name == "gaussian":
        vals = np.exp(-(x**2))
    elif name == "box":
        a, b = args if args else (0.0, 1.0)
        if not b > a:
            raise ValueError("box(a, b) requires b > a")
        vals = ((x >= a - 1e-12) & (x < b - 1e-12)).astype(float)
    elif name == "box_sine":
        vals = np.where((x >= -1e-12) & (x < 1.0 - 1e-12), np.sin(np.pi * x), 0.0)
    elif name == "table":
        (vals,) = args
        vals = np.asarray(vals, dtype=np.complex128)
        if len(vals) != (k1 - k0) * s:
            raise ValueError(
                f"custom table length {len(vals)} does not match support*S = {(k1 - k0) * s}"
            )
    else:
        raise ValueError(f"unknown recipe {name!r}")
    return SampledFunction(s, k0, k1, np.asarray(vals, dtype=np.complex128))


def inner_product(f: SampledFunction, g: SampledFunction) -> complex:
    """Rectangle-rule L2 pairing (1/S) sum f(x_j) conj(g(x_j)).

    Supports may differ; the functions are zero outside their supports.
    """
    if f.samples_per_unit != g.samples_per_unit:
        raise GridError(
            f"mismatched sample rates {f.samples_per_unit} != {g.samples_per_unit}"
        )
    s = f.samples_per_unit
    j0 = max(f.j_min, g.j_min)
    j1 = min(f.k_max * s, g.k_max * s)
    if j1 <= j0:
        return 0.0 + 0.0j
    fv = f.values[j0 - f.j_min : j1 - f.j_min]
    gv = g.values[j0 - g.j_min : j1 - g.j_min]
    return complex(np.vdot(gv, fv)) / s


def place(values, j0: int, s: int, cells=None) -> SampledFunction:
    """Samples at the global nodes j0, j0 + 1, ... of (1/s)Z, zero-extended
    onto the integer cells [k0, k1), or onto their integer hull when cells
    is None.  This is the one rule that puts samples on cells."""
    k0, k1 = cells if cells is not None else (j0 // s, -((-(j0 + len(values))) // s))
    out = np.zeros((k1 - k0) * s, dtype=np.complex128)
    off = j0 - k0 * s
    out[off : off + len(values)] = values
    return SampledFunction(s, k0, k1, out)


def embed(f: SampledFunction, k0: int, k1: int) -> SampledFunction:
    """Zero-extend f onto the cells [k0, k1), which must contain its support."""
    if k0 > f.k_min or k1 < f.k_max:
        raise ValueError(f"cells [{k0}, {k1}) do not contain the support [{f.k_min}, {f.k_max})")
    return place(f.values, f.j_min, f.samples_per_unit, (k0, k1))


def tf_shift(f: SampledFunction, shift) -> SampledFunction:
    """Apply pi(u, eta): x -> exp(2 pi i eta x) f(x - u).

    The time shift u must be grid-exact (u * S integer); the support is
    extended to the integer hull of the shifted support.  The frequency
    shift eta is an exact pointwise modulation for any real eta.
    """
    u, eta = shift
    s = f.samples_per_unit
    g = place(f.values, f.j_min + node_index(u, s, "u"), s)
    return SampledFunction(s, g.k_min, g.k_max, g.values * np.exp(2j * np.pi * float(eta) * g.grid()))


def fourier_transform(
    f: SampledFunction, out_S: int | None = None, out_support=None
) -> SampledFunction:
    """Trigonometric-sum Fourier transform onto a requested output grid.

    Computes ghat(w_m) = (1/S) sum_j f(x_j) exp(-2 pi i x_j w_m), i.e. the
    rectangle-rule quadrature of the Fourier integral at the output nodes.
    By default the output grid mirrors the input: same sample rate, support
    the symmetric hull [-c, c) with c = max(|k_min|, |k_max|, 1).  The phase
    x_j w_m = j m / N, N = S * S_out: one length-N FFT of the samples folded
    by j mod N, read at m mod N, gives every output in O(n + N log N) time.
    """
    s_out = int(out_S) if out_S is not None else f.samples_per_unit
    if out_support is None:
        c = max(abs(f.k_min), abs(f.k_max), 1)
        c = max(min(c, f.samples_per_unit // 2), 1)  # clip to the Nyquist range
        out_support = (-c, c)
    k0, k1 = int(out_support[0]), int(out_support[1])
    if k1 <= k0:
        raise ValueError("output support interval is empty")
    # the sampled-sum transform is S-periodic in w; past S/2 the output is
    # the alias image, not the transform
    if max(abs(k0), abs(k1)) * 2 > f.samples_per_unit:
        raise GridError(
            f"output frequencies reach the alias image: need |w| <= S/2 = "
            f"{f.samples_per_unit // 2}; raise samples_per_unit"
        )
    n = f.samples_per_unit * s_out
    out = np.fft.fft(fold(f.values, f.j_min, n))[np.arange(k0 * s_out, k1 * s_out) % n]
    return SampledFunction(s_out, k0, k1, out / f.samples_per_unit)


def fold(values, j0: int, n: int) -> np.ndarray:
    """Each row of samples at the nodes j0, j0 + 1, ... summed by j mod n, for a
    length-n FFT to read: the one fold of the FFT path.  One bincount over the
    row-major flattening adds each bin's samples in node order."""
    rows = np.reshape(values, (-1, np.shape(values)[-1]))
    j = (np.arange(len(rows))[:, None] * n + (j0 + np.arange(rows.shape[1])) % n).ravel()
    size = len(rows) * n
    out = np.bincount(j, rows.real.ravel(), size) + 1j * np.bincount(j, rows.imag.ravel(), size)
    return out.reshape(np.shape(values)[:-1] + (n,))
