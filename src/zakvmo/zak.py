r"""Discrete Zak transform on the fundamental domain [0,1)^2.

For a sampled function f the transform is the finite sum

    Zf(x, w) = sum_k f(x + k) exp(-2 pi i k w),

evaluated at nodes (j/nx, m/nw) with no endpoint duplication.  Because the
sum over support cells is finite, the node values are exact for the sampled
data.  Values off the fundamental domain follow from the quasi-periodic
extension Zf(x + m, w + n) = exp(2 pi i m w) Zf(x, w); the transform is a
quasi-periodic ``core.ScalarField2D``, whose ``at`` computes the phases on
demand, never storing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    GridError, SampledFunction, ScalarField2D, fourier_transform, node_index, tf_shift,
)


class AliasingError(ValueError):
    """The omega grid is too coarse for the function's support cells."""


def zak_transform(f: SampledFunction, nx: int, nw: int) -> ScalarField2D:
    """Evaluate the Zak transform of ``f`` at the (j/nx, m/nw) nodes.

    Returns the quasi-periodic field on the unit square whose omega modes
    are the support cells [k_min, k_max) of ``f``: each x-row is exactly the
    trigonometric polynomial sum_k f(x+k) e^{-2 pi i k w} with k confined to
    that interval, which the cube means of ``vmo`` integrate exactly.
    Requires nx to divide f.samples_per_unit (so the x-nodes are sample
    nodes) and nw >= number of support cells (so the omega direction is
    alias-free and the transform is unitary / invertible).
    """
    s = f.samples_per_unit
    if nx < 1 or s % nx != 0:
        raise GridError(f"nx = {nx} must divide samples_per_unit = {s}")
    if nw < f.n_cells:
        raise AliasingError(f"nw = {nw} < {f.n_cells} support cells of f")
    step = s // nx
    seq = f.values.reshape(f.n_cells, s)[:, ::step].T  # (nx, n_cells)
    kvec = np.arange(f.k_min, f.k_max)
    phases = np.exp(-2j * np.pi * np.outer(kvec, np.arange(nw) / nw))
    return ScalarField2D(seq @ phases, "quasiperiodic", (f.k_min, f.k_max))


def inverse_zak(Z: ScalarField2D, support) -> SampledFunction:
    """Recover samples from Zak values via discrete Fourier coefficients.

    The value at x + k is read off as the k-th inverse coefficient
    (1/nw) sum_m Z(x, w_m) exp(2 pi i k m / nw); exact whenever nw is at
    least the number of support cells (the omega rows are trigonometric
    polynomials of that many modes).  Output sample rate is nx.
    """
    k0, k1 = int(support[0]), int(support[1])
    if k1 - k0 > Z.nw:
        raise AliasingError(f"support spans {k1 - k0} cells > nw = {Z.nw}")
    kvec = np.arange(k0, k1)
    phases = np.exp(2j * np.pi * np.outer(np.arange(Z.nw) / Z.nw, kvec))
    cells = Z.values @ phases / Z.nw  # (nx, n_cells)
    return SampledFunction(Z.nx, k0, k1, cells.T.reshape(-1))


def zak_l2_norm(Z: ScalarField2D) -> float:
    """Rectangle-rule L2([0,1]^2) norm of the grid values."""
    return float(np.sqrt(np.mean(np.abs(Z.values) ** 2)))


@dataclass(frozen=True)
class ZakIdentityReport:
    """Sup-norm deviations of the quasi-periodicity and covariance identities."""

    dev_quasiperiod: float  # (a) Zf(x+m, w+n) = e^{2 pi i m w} Zf(x, w)
    dev_shift: float  # (b) Z pi(u,eta) f = e^{2 pi i eta x} Zf(x-u, w-eta)
    dev_integer_shift: float  # (c) Z pi(m,n) f = e^{2 pi i (n x - m w)} Zf
    dev_fourier: float  # (d) Z fhat = e^{2 pi i x w} Zf(-w, x)

    def as_dict(self) -> dict:
        return {
            "a_quasiperiod": self.dev_quasiperiod,
            "b_shift": self.dev_shift,
            "c_integer_shift": self.dev_integer_shift,
            "d_fourier": self.dev_fourier,
        }


def check_zak_identities(f: SampledFunction, Z: ScalarField2D) -> ZakIdentityReport:
    """Measure the four Zak identities on the node grid of ``Z``, the Zak
    transform of ``f``.

    Identity (d) compares the Zak transform of the quadrature Fourier
    transform against the phase-twisted coordinate swap of Zf, so its
    deviation carries the Fourier quadrature error; (a)-(c) are exact up to
    rounding.  Requires nx == nw for the coordinate swap in (d).
    """
    s = f.samples_per_unit
    n, m = Z.nx, Z.nw
    if n != m:
        raise GridError("identity (d) needs nx == nw (coordinate swap)")
    xg = np.arange(n) / n
    wg = np.arange(m) / m

    # (a): recompute the defining sum at (x + p, w + q) and compare with the
    # field's own extension read at the global nodes (ix + p nx, iw + q nw).
    dev_a = 0.0
    seq = f.values.reshape(f.n_cells, s)[:, :: s // n].T
    ix, iw = np.arange(n)[:, None], np.arange(m)[None, :]
    for p, q in ((1, 0), (0, 1), (1, 1), (2, 3)):
        kvec = np.arange(f.k_min - p, f.k_max - p)  # k' = k - p reindexes the sum
        direct = seq @ np.exp(-2j * np.pi * np.outer(kvec, wg + q))
        dev_a = max(dev_a, float(np.max(np.abs(direct - Z.at(ix + p * n, iw + q * m)))))

    # (b): grid-exact fractional shift.
    u, eta = Fraction(1, 2), Fraction(1, 4)
    du, de = node_index(u, n, "u"), node_index(eta, m, "eta")
    lhs = zak_transform(tf_shift(f, (float(u), float(eta))), n, m).values
    rhs = np.exp(2j * np.pi * float(eta) * xg)[:, None] * Z.window(-du, -de, n, m)
    dev_b = float(np.max(np.abs(lhs - rhs)))

    # (c): integer lattice shifts.
    dev_c = 0.0
    for p, q in ((1, 1), (2, -1)):
        lhs = zak_transform(tf_shift(f, (p, q)), n, m).values
        rhs = np.exp(2j * np.pi * (q * xg[:, None] - p * wg[None, :])) * Z.values
        dev_c = max(dev_c, float(np.max(np.abs(lhs - rhs))))

    return ZakIdentityReport(dev_a, dev_b, dev_c, fourier_identity_dev(f, Z))


def fourier_identity_dev(f: SampledFunction, Z: ScalarField2D) -> float:
    """Sup deviation of identity (d), Z fhat(x, w) = e^{2 pi i x w} Zf(-w, x),
    on the n-by-n node grid of ``Z``, the Zak transform of ``f``; carries
    the Fourier quadrature error."""
    n = Z.nx
    Zh = zak_transform(fourier_transform(f), n, n).values
    ij = np.arange(n)
    swap = Z.at(-ij[None, :], ij[:, None])  # Zf(-w_m, x_j) at [j, m]
    rhs = np.exp(2j * np.pi * np.outer(ij / n, ij / n)) * swap
    return float(np.max(np.abs(Zh - rhs)))

