r"""Mean-oscillation functionals on sampled 2-D fields.

Implements cube means F_Q, oscillations M_Q(F) = (|F - F_Q|)_Q, the
small-cube suprema S_{eps,U}(F), sliding cube averages F_[r], decay
profiles over dyadic eps, and randomized checkers for the quantitative
inequalities that make bounded/vanishing mean oscillation stable under
products, inverses, affine pullbacks and C^1 multipliers.

Grid conventions: fields live on the node grid of the unit square; cubes
are closed squares whose edges are nodes (``core.node_index``), and a cube
of side s*h covers exactly the s cells whose left endpoints lie inside it,
so means are left-endpoint cell averages (exact for fields that are
constant per cell).  The Zak transform (``zak.zak_transform``) carries its
omega band structure, and :func:`mean` then integrates the omega direction
exactly as trigonometric polynomials; oscillations always subtract the
cell average.
essinf/esssup on sampled fields are node minima/maxima and are flagged as
grid-level proxies in reports.

One small-cube supremum, :func:`_window_sup`, serves the decay sweep (whole
window, with its witness cube) and the inequality checker (random
subwindows).  It is an exact branch and bound: ``_kernels.osc_scan``
evaluates M_Q only where the Cauchy-Schwarz bound M_Q <= sqrt(mean_Q|F|^2 -
|F_Q|^2), from prefix sums, plus a stated rounding margin reaches the best
so far, so S and its witness keep the bits of the exhaustive scan.  The
first side scanned evaluates its top-bound anchor before it sorts, so only
the anchors whose bound reaches that value are sorted.  A cube whose bound is
below the floor 1e-12 sup|F| is never evaluated, which can move only an S
made of rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import GridError, ScalarField2D, node_index


def field_from_function(fn, nx: int, nw: int, extension: str = "none") -> ScalarField2D:
    """fn(x, w) at the nodes (i/nx, j/nw) of the unit square."""
    x, w = np.arange(nx)[:, None] / nx, np.arange(nw)[None, :] / nw
    return ScalarField2D(fn(x, w), extension)


def random_trig_field(rng, nx: int, nw: int, degree: int = 3, scale: float = 1.0, offset: complex = 0.0) -> ScalarField2D:
    """Random trigonometric polynomial of the given degree on [0,1)^2."""
    c = np.zeros((nx, nw), dtype=np.complex128)
    for a in range(-degree, degree + 1):
        for b in range(-degree, degree + 1):
            amp = scale / (1 + a * a + b * b)
            c[a % nx, b % nw] = amp * (rng.standard_normal() + 1j * rng.standard_normal())
    c[0, 0] += offset
    vals = np.fft.ifft2(c) * (nx * nw)
    return ScalarField2D(vals, "periodic")


@dataclass(frozen=True)
class Cube:
    """Closed axis-aligned square: center (cx, cw), side length delta > 0."""

    cx: float
    cw: float
    side: float

    def __post_init__(self):
        if self.side <= 0:
            raise ValueError("cube side must be positive")


def remark_cube(k: int, delta: float) -> Cube:
    """The witness cube [k+(1-d)/2, k+(1+d)/2] x [-d/2, d/2]."""
    return Cube(k + 0.5, 0.0, delta)


def _rect_window(field: ScalarField2D, rect):
    """(i0, j0, ni, nj) of the node window of rect = (x0, x1, w0, w1); every
    edge must be a grid node and the window at least one cell wide."""
    x0, x1, w0, w1 = rect
    i0, i1 = node_index(x0, field.nx, "window x low"), node_index(x1, field.nx, "window x high")
    j0, j1 = node_index(w0, field.nw, "window w low"), node_index(w1, field.nw, "window w high")
    if i1 <= i0 or j1 <= j0:
        raise GridError(f"window {tuple(rect)} covers no grid cell")
    return i0, j0, i1 - i0, j1 - j0


def _cube_window(field: ScalarField2D, cube: Cube):
    """_rect_window of the cube's closed square."""
    h = cube.side / 2
    return _rect_window(field, (cube.cx - h, cube.cx + h, cube.cw - h, cube.cw + h))


def _zak_exact_omega_mean(field: ScalarField2D, i0: int, sx: int, b0: float, b1: float) -> complex:
    # Rows are trig polynomials in omega; integrate each mode exactly and
    # average the columns.  Valid for arbitrary real omega intervals.
    nx, nw = field.values.shape
    k0, k1 = field.omega_modes
    idx = np.arange(i0, i0 + sx)
    wrap = idx // nx
    rows = field.values[idx - wrap * nx]
    coef = np.fft.ifft(rows, axis=1)
    ks = np.arange(k0, k1)
    c = coef[:, np.mod(ks, nw)]
    # extension phase e^{2 pi i m w} shifts mode k to kappa = k - m
    kappa = ks[None, :] - wrap[:, None]
    mid, delta = 0.5 * (b0 + b1), b1 - b0
    factor = np.exp(-2j * np.pi * kappa * mid) * np.sinc(kappa * delta)
    return complex(np.mean(np.sum(c * factor, axis=1)))


def mean(F: ScalarField2D, cube: Cube) -> complex:
    """Cube average F_Q over a grid-aligned closed cube.

    Fields with omega band structure (Zak-derived) are integrated exactly
    in the omega direction; otherwise this is the plain cell average.
    """
    i0, j0, sx, sy = _cube_window(F, cube)
    if F.omega_modes is not None and F.extension == "quasiperiodic":
        b0 = cube.cw - cube.side / 2
        return _zak_exact_omega_mean(F, i0, sx, b0, b0 + cube.side)
    return complex(np.mean(F.window(i0, j0, sx, sy)))


def mean_oscillation(F: ScalarField2D, cube: Cube) -> float:
    """M_Q(F): cube average of |F - F_Q|, with F_Q the cell average that the
    oscillation sweep subtracts (not the exact omega mean of :func:`mean`)."""
    i0, j0, sx, sy = _cube_window(F, cube)
    return _block_stats(F.window(i0, j0, sx, sy), 0, 0, sx, sy)[1]


def _prefix(values: np.ndarray) -> np.ndarray:
    c = np.zeros((values.shape[0] + 1, values.shape[1] + 1), dtype=values.dtype)
    np.cumsum(np.cumsum(values, axis=0), axis=1, out=c[1:, 1:])
    return c


def _box_sums(prefix: np.ndarray, sx: int, sy: int) -> np.ndarray:
    return (
        prefix[sx:, sy:]
        - prefix[:-sx, sy:]
        - prefix[sx:, :-sy]
        + prefix[:-sx, :-sy]
    )


def _osc_bounds(W: np.ndarray, sides):
    """(W, floor, bounds, pre): bounds maps each (sx, sy) of sides to (C,
    mu_err, grow), with M_Q <= (C + mu_err) * grow at every anchor.  C =
    sqrt(var_Q + var_err), from prefix sums of D = W - W[0, 0] (so a flat
    field gives C ~ 0) and of |D|^2; var_err and mu_err bound the rounding of
    a box sum, sqrt(2) (4 (ni + nj) + 16) u (u the unit roundoff) times the
    summed magnitudes over A = sx * sy; grow = 1 + (A + 16) u.  The C tables
    share one block; pre, the prefix table of W, serves every query."""
    u = np.finfo(float).eps / 2
    floor = max(1e-12 * float(np.abs(W).max()), np.finfo(float).tiny)
    D = W - W.flat[0]
    sq = D.real**2 + D.imag**2
    R = math.sqrt(sq.max())
    g = math.sqrt(2) * (4 * sum(W.shape) + 16) * u  # sqrt(2): |Re z| + |Im z| <= sqrt(2) |z|
    var_err, mu_err = g * float(sq.sum() + 3 * R * np.sqrt(sq).sum()), g * float(np.abs(W).sum())
    p1, p2 = _prefix(D), _prefix(sq)
    del D, sq
    shapes = [(W.shape[0] - sx + 1, W.shape[1] - sy + 1) for _, sx, sy in sides]
    block, end, bounds = np.empty(sum(a * b for a, b in shapes)), 0, {}
    for (_, sx, sy), (na, nb) in zip(sides, shapes):
        A, end = sx * sy, end + na * nb
        var = np.divide(_box_sums(p2, sx, sy), A, out=block[end - na * nb : end].reshape(na, nb))
        var -= np.abs(_box_sums(p1, sx, sy) / A) ** 2
        var += var_err / A + 8 * u * R * R
        bounds[sx, sy] = (np.sqrt(np.maximum(var, 0.0, out=var), out=var), mu_err / A + 2 * u * R, 1 + (A + 16) * u)
    del p1, p2
    return W, floor, bounds, _prefix(W)


def _window_sup(osc, sides, i: int, j: int, wi: int, wj: int, cap: float = math.inf):
    """(S, where): S is the largest oscillation of a cube of sides, with area
    below cap, that lies inside the wi-by-wj subwindow at (i, j) of the
    :func:`_osc_bounds` data osc; where = (side, sx, sy, a, b) is the first
    cube that attains it, in side order and then C order, anchored at node
    (a, b) of the scanned window.  (0.0, None) when no cube fits."""
    W, floor, bounds, pre = osc
    fits = [k for k, (side, sx, sy) in enumerate(sides) if side * side < cap and sx <= wi and sy <= wj]
    if not fits:
        return 0.0, None
    best, where = 0.0, None

    def scan(k, sub, take):
        nonlocal best, where
        vals = _kernels.osc_scan(W, pre, take // sub.shape[1] + i, take % sub.shape[1] + j, *sides[k][1:])
        top = vals.max()
        first = (k, *divmod(int(take[vals == top].min()), sub.shape[1]))
        if top > best or (top == best > 0 and first < where):
            best, where = top, first

    # sides descend; anchors by descending bound, the first side's sorted after
    # its top-bound anchor seeds best.  An anchor that can reach the final best
    # passes every filter, so the order cannot move S or the witness.
    for k in reversed(fits):
        _, sx, sy = sides[k]
        C, mu_err, grow = bounds[sx, sy]
        sub = C[i : i + wi - sx + 1, j : j + wj - sy + 1]
        cand = np.flatnonzero(sub >= max(floor, best / grow - mu_err))
        if k == fits[-1] and cand.size > 8:
            scan(k, sub, cand[[sub.flat[cand].argmax()]])
            cand = cand[sub.flat[cand] >= max(floor, best / grow - mu_err)]
        cand = cand[np.argsort(-sub.flat[cand], kind="stable")]
        pos, size = 0, 8
        while pos < cand.size:
            take = cand[pos : pos + size]
            take = take[sub.flat[take] >= max(floor, best / grow - mu_err)]
            if not take.size:
                break
            scan(k, sub, take)
            pos, size = pos + size, max(1, 8192 // (sx * sy))  # gathers of <= 2^13 cells
    k, a, b = where if best > 0 else (fits[0], 0, 0)
    side, sx, sy = sides[k]
    return float(best), (side, sx, sy, i + a, j + b)


def _block_stats(W: np.ndarray, i: int, j: int, a: int, b: int):
    """(mean, mean oscillation) of the a-by-b block of W at (i, j)."""
    block = W[i : i + a, j : j + b]
    mu = block.mean()
    return mu, float(np.mean(np.abs(block - mu)))


def _admissible_sides(field: ScalarField2D, ni: int, nj: int, eps: float):
    """(side, sx, sy) triples with side^2 < eps: t cells of w are sx whole
    cells of x, that is t * nx = sx * nw."""
    out = []
    t = 1
    while True:
        side = t * field.hw
        if side * side >= eps or t > nj:
            break
        sx, rem = divmod(t * field.nx, field.nw)
        if rem == 0 and 1 <= sx <= ni:
            out.append((side, sx, t))
        t += 1
    return out


def _sup_profile(field: ScalarField2D, rect, eps_list) -> list:
    """(S_eps, witness cube) for each eps: :func:`_window_sup` over the whole
    window of rect, on one set of bound tables for the cubes of area
    < max(eps_list); the witness is None when no cube has area < eps.  The
    scan prunes by the Cauchy-Schwarz bound plus its rounding margin and
    skips cubes below the floor 1e-12 sup|F|, yet returns the exhaustive
    scan's S_eps at grid resolution, a lower bound for the true supremum."""
    i0, j0, ni, nj = _rect_window(field, rect)
    sides = _admissible_sides(field, ni, nj, max(eps_list))
    if not sides:
        raise GridError(f"eps = {max(eps_list)} admits no grid cube inside the window")
    osc = _osc_bounds(field.window(i0, j0, ni, nj), sides)
    out = []
    for eps in eps_list:
        s, where = _window_sup(osc, sides, 0, 0, ni, nj, eps)
        cube = None
        if where is not None:
            side, sx, sy, a, b = where
            cube = Cube((i0 + a + sx / 2) * field.hx, (j0 + b + sy / 2) * field.hw, side)
        out.append((s, cube))
    return out


@dataclass
class OscillationReport:
    """Decay profile of S_{eps,U} over a dyadic eps sweep."""

    eps_list: list
    s_values: list
    verdict: str  # "vmo-consistent" | "vmo-fail-witness"
    witness: Cube | None
    witness_value: float | None
    floor: float
    monotone: bool

    def as_dict(self) -> dict:
        d = {
            "schema": 1,
            "eps": list(map(float, self.eps_list)),
            "s_values": list(map(float, self.s_values)),
            "verdict": self.verdict,
            "floor": self.floor,
            "monotone": self.monotone,
        }
        if (w := self.witness) is not None:
            d["witness"] = {"cx": w.cx, "cw": w.cw, "side": w.side, "oscillation": self.witness_value}
        return d


def vmo_decay_profile(F: ScalarField2D, U, eps_list, floor: float = 0.1) -> OscillationReport:
    """Sweep S_{eps,U}(F) over decreasing eps and classify the tail.

    Verdict is ``vmo-fail-witness`` when the smallest-eps value stays at or
    above ``floor`` (the witness cube is attached), ``vmo-consistent`` when
    the tail falls below it.
    """
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    profile = _sup_profile(F, U, eps_list)
    s_values = [val for val, _ in profile]
    monotone = all(b <= a * 1.05 + 1e-12 for a, b in zip(s_values, s_values[1:]))
    if s_values[-1] >= floor:
        return OscillationReport(
            eps_list, s_values, "vmo-fail-witness", profile[-1][1], s_values[-1], floor, monotone
        )
    return OscillationReport(eps_list, s_values, "vmo-consistent", None, None, floor, monotone)


def mean_function(F: ScalarField2D, r: float) -> ScalarField2D:
    """Sliding cube average F_[r] at every node.

    Periodic fields are averaged spectrally (each mode picks up the exact
    factor sinc(k1 r) sinc(k2 r), so the identity for pure exponentials is
    exact); quasi-periodic fields are averaged spatially with extension
    reads.  r must be a multiple of both grid spacings; for an odd number
    of cells the window is anchored half a cell left of center.
    """
    sx, sy = node_index(r, F.nx, "r"), node_index(r, F.nw, "r")
    if F.extension == "periodic":
        nx, nw = F.values.shape
        fx = np.fft.fftfreq(nx, d=F.hx)
        fw = np.fft.fftfreq(nw, d=F.hw)
        mult = np.sinc(fx * r)[:, None] * np.sinc(fw * r)[None, :]
        vals = np.fft.ifft2(np.fft.fft2(F.values) * mult)
        return ScalarField2D(vals, "periodic")
    if F.extension == "quasiperiodic":
        lx, ly = sx // 2, sy // 2
        ext = F.window(-lx, -ly, F.nx + sx, F.nw + sy)
        sums = _box_sums(_prefix(ext), sx, sy)[: F.nx, : F.nw]
        return ScalarField2D(sums / (sx * sy), "none")
    raise GridError("mean_function needs a periodic or quasiperiodic field")


# ---------------------------------------------------------------------------
# Randomized inequality checkers
# ---------------------------------------------------------------------------


# A checked ratio passes up to 1 + RATIO_TOL (grid-level rounding slack).
RATIO_TOL = 1e-3


@dataclass
class InequalityResult:
    name: str
    max_ratio: float = 0.0
    cases: int = 0
    precondition_ok: bool = True
    note: str = ""

    def passed(self) -> bool:
        return (not self.precondition_ok) or self.max_ratio <= 1.0 + RATIO_TOL


def prods_constant(sup_norms) -> float:
    """Rigorous constant C(||F_1||oo, ..., ||F_n||oo) for the product-mean
    inequality |(prod F_i)_Q - prod (F_i)_Q| <= C sum_i S_{eps,U}(F_i),
    obtained by telescoping the two-factor bound."""
    n = len(sup_norms)
    if n < 2:
        return 0.0
    acoef = np.zeros(n)
    ecoef = np.zeros(n)
    acoef[0] = 1.0
    prod_sup = max(sup_norms[0], 1e-300)
    for k in range(1, n):
        unit = np.zeros(n)
        unit[k] = 1.0
        top = max(sup_norms[k], prod_sup)
        ecoef = 0.5 * top * (unit + acoef) + sup_norms[k] * ecoef
        acoef = 1.5 * top * (unit + acoef)
        prod_sup *= sup_norms[k]
    return float(ecoef.max())


def _ratio(lhs: float, rhs: float) -> float:
    if lhs < 1e-12:
        return 0.0
    return lhs / max(rhs, 1e-300)


def _cases(name: str, n_cases: int, case) -> InequalityResult:
    """The largest _ratio(lhs, rhs) over n_cases calls of case() -> (lhs, rhs)."""
    res = InequalityResult(name, cases=n_cases)
    for _ in range(n_cases):
        res.max_ratio = max(res.max_ratio, _ratio(*case()))
    return res


class _TrigPoly2:
    """Small trigonometric polynomial sum c_ab z_x^a z_w^b, |a|, |b| <= d, of
    z_x = e^{2 pi i x}, z_w = e^{2 pi i w}, evaluable anywhere (for pullbacks).
    Factored: the powers z^-d..z^d are built on x and on w before they
    broadcast (one exp per entry), the x-powers are contracted with the
    (2d+1)-by-(2d+1) coefficients, then summed against the w-powers."""

    def __init__(self, rng, degree: int = 2, real: bool = False):
        self.degree = degree
        ks = np.arange(-degree, degree + 1)
        A, B = np.meshgrid(ks, ks, indexing="ij")
        self.a = A.ravel().astype(float)
        self.b = B.ravel().astype(float)
        amp = 1 / (1 + self.a**2 + self.b**2)
        n = self.a.size
        self.c = amp * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        self.real = real

    def _sums(self, x, w, *coefs):
        # z^k for k = 0..d, then z^-k = conj(z^k); one sum per flat coefs
        zx, zw = (np.exp(2j * np.pi * np.asarray(t, float))[..., None] ** np.arange(self.degree + 1) for t in (x, w))
        zx, zw = (np.concatenate([z[..., :0:-1].conj(), z], axis=-1) for z in (zx, zw))
        out = (np.einsum("...b,...b->...", zx @ c.reshape(zw.shape[-1], -1), zw) for c in coefs)
        return tuple(v.real if self.real else v for v in out)

    def __call__(self, x, w):
        return self._sums(x, w, self.c)[0]

    def gradient(self, x, w):
        return self._sums(x, w, 2j * np.pi * self.a * self.c, 2j * np.pi * self.b * self.c)


def _cube_nodes(cube: Cube, n: int):
    """Midpoints of the n-by-n cells of a cube: an (n, 1) column of x and a
    (1, n) row of w."""
    t = cube.side / n * (np.arange(n) + 0.5)
    return (cube.cx - cube.side / 2 + t)[:, None], (cube.cw - cube.side / 2 + t)[None, :]


def _cube_stats(vals):
    """Oscillation and rms of samples, such as a function at _cube_nodes."""
    mu = vals.mean()
    return float(np.mean(np.abs(vals - mu))), float(np.sqrt(np.mean(np.abs(vals) ** 2)))


def _affine_pullback_case(rng):
    """(lhs, rhs) of one random case of the affine change-of-variables bound
    (n = 2): M_Q(F o Phi) <= 2 n^{n/2} ||A||op^n / |det A| * M_{Qtilde}(F)."""
    F = _TrigPoly2(rng, degree=2)
    while True:
        A = rng.integers(-3, 4, size=(2, 2))
        if np.linalg.det(A) != 0:
            break
    b = rng.uniform(-1, 1, size=2)
    op = float(np.linalg.svd(A.astype(float), compute_uv=False)[0])
    cube = Cube(rng.uniform(0, 1), rng.uniform(0, 1), rng.choice([0.125, 0.25, 0.5]))
    xs, ws = _cube_nodes(cube, 32)
    lhs, _ = _cube_stats(F(A[0, 0] * xs + A[0, 1] * ws + b[0], A[1, 0] * xs + A[1, 1] * ws + b[1]))
    cx2 = A[0, 0] * cube.cx + A[0, 1] * cube.cw + b[0]
    cw2 = A[1, 0] * cube.cx + A[1, 1] * cube.cw + b[1]
    m2, _ = _cube_stats(F(*_cube_nodes(Cube(cx2, cw2, math.sqrt(2) * op * cube.side), 48)))
    return lhs, 2 * 2 * op**2 / abs(float(np.linalg.det(A))) * m2


def _c1_multiplier_case(rng):
    """(lhs, rhs) of one random case of the C^1-multiplier bound (n = 2):
    M_Q(phi F) <= sup_Q|phi| M_Q(F) + sup_Q ||grad phi||_1 ||F||_{L^2(Q)}."""
    F = _TrigPoly2(rng, degree=2)
    phi = _TrigPoly2(rng, degree=1, real=True)
    cube = Cube(rng.uniform(0, 1), rng.uniform(0, 1), rng.choice([0.125, 0.25, 0.5]))
    xs, ws = _cube_nodes(cube, 32)
    vf, vphi = F(xs, ws), phi(xs, ws)
    lhs, _ = _cube_stats(vphi * vf)
    mf, rms = _cube_stats(vf)
    sup_phi = float(np.max(np.abs(vphi)))
    gx, gw = phi.gradient(xs, ws)
    sup_grad = float(np.max(np.abs(gx) + np.abs(gw)))
    l2 = rms * cube.side  # ||F||_{L2(Q)} = sqrt(|Q| * mean |F|^2)
    return lhs, sup_phi * mf + sup_grad * l2


def check_inequalities(
    F: ScalarField2D, G: ScalarField2D, U, eps: float, n_cases: int = 1000, rng=None
) -> dict:
    """Evaluate every quantitative oscillation inequality on random cubes,
    as a ``{name: InequalityResult}`` dict.

    The two sampled fields drive the product/inverse/nesting bounds; the
    affine-pullback and C^1-multiplier bounds need off-grid evaluation and
    run on internally generated trigonometric polynomials seeded by the
    same generator.  Each check draws n_cases random cases through
    :func:`_cases`; reported ratios are lhs/rhs, which must stay <= 1 up
    to grid tolerance.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    if F.values.shape != G.values.shape:
        raise ValueError("fields must share a grid")
    i0, j0, ni, nj = _rect_window(F, U)
    WF, WG = F.window(i0, j0, ni, nj), G.window(i0, j0, ni, nj)
    WP = WF * WG
    sup_f, sup_g = float(np.max(np.abs(WF))), float(np.max(np.abs(WG)))

    sides = _admissible_sides(F, ni, nj, eps)
    if not sides:
        raise GridError("eps admits no cube on this grid")

    def cube(sides):
        """(i, j, sx, sy) of a random cube of sides inside the window."""
        _, sx, sy = sides[rng.integers(len(sides))]
        return int(rng.integers(0, ni - sx + 1)), int(rng.integers(0, nj - sy + 1)), sx, sy

    def window(lo, hi):
        """(i, j, wi, wj) of a random subwindow, min(lo, ni) <= wi <= min(hi,
        ni) and min(lo, nj) <= wj <= min(hi, nj)."""
        wi = int(rng.integers(min(lo, ni), min(hi, ni) + 1))
        wj = int(rng.integers(min(lo, nj), min(hi, nj) + 1))
        return int(rng.integers(0, ni - wi + 1)), int(rng.integers(0, nj - wj + 1)), wi, wj

    # |F_Q G_Q - (FG)_Q| <= 1/2 max(||F||,||G||) (M_Q(F) + M_Q(G))
    def product_mean():
        i, j, sx, sy = cube(sides)
        mf, of = _block_stats(WF, i, j, sx, sy)
        mg, og = _block_stats(WG, i, j, sx, sy)
        mp, _ = _block_stats(WP, i, j, sx, sy)
        return abs(mf * mg - mp), 0.5 * max(sup_f, sup_g) * (of + og)

    results = [_cases("product_mean", n_cases, product_mean)]

    # S_{eps,U}(FG) <= 3/2 max(||F||,||G||) (S(F) + S(G)) on random subwindows
    scans = {key: _osc_bounds(W, sides) for key, W in (("F", WF), ("G", WG), ("P", WP))}
    s_full_f = _window_sup(scans["F"], sides, 0, 0, ni, nj)[0]

    def product_osc_sup():
        i, j, wi, wj = window(16, 48)
        cap = eps * float(rng.uniform(0.3, 1.0))
        sF, sG, sP = (_window_sup(scans[k], sides, i, j, wi, wj, cap)[0] for k in "FGP")
        return sP, 1.5 * max(sup_f, sup_g) * (sF + sG)

    results.append(_cases("product_osc_sup", n_cases, product_osc_sup))

    # |F_Q| >= essinf|F|/2 and S(1/F) <= 4/essinf^2 S(F), with eps quartered
    # until S_{eps,U}(F) <= essinf|F|/2.
    c_min = float(np.min(np.abs(WF)))
    ok_sides, note = None, "essinf|F| ~ 0 at grid level"
    if c_min > 1e-6:
        note = "no eps with S_{eps,U}(F) <= essinf|F|/2 on this grid"
        eps_star = eps
        for _ in range(24):
            trial = [(s, a, b) for s, a, b in sides if s * s < eps_star]
            if not trial:
                break
            s_f = s_full_f if trial == sides else _window_sup(scans["F"], trial, 0, 0, ni, nj)[0]
            if s_f <= c_min / 2:
                ok_sides, note = trial, f"eps_U = {eps_star}"
                break
            eps_star /= 4.0
    if ok_sides is None:
        r_low = InequalityResult("mean_lower_bound", precondition_ok=False)
        r_inv = InequalityResult("inverse_osc_sup", precondition_ok=False)
    else:
        inv_osc = _osc_bounds(1.0 / WF, ok_sides)

        def mean_lower_bound():
            i, j, sx, sy = cube(ok_sides)
            return c_min / 2, abs(WF[i : i + sx, j : j + sy].mean())

        def inverse_osc_sup():
            i, j, wi, wj = window(16, 48)
            s_f, s_i = (_window_sup(osc, ok_sides, i, j, wi, wj)[0] for osc in (scans["F"], inv_osc))
            return s_i, 4.0 / c_min**2 * s_f

        r_low = _cases("mean_lower_bound", n_cases, mean_lower_bound)
        r_inv = _cases("inverse_osc_sup", n_cases, inverse_osc_sup)
    r_low.note = r_inv.note = note
    results += [r_low, r_inv]

    # Nested sets: M_{D1}(F) <= 2 |D2|/|D1| M_{D2}(F) for rectangles D1 c D2.
    def nested_mean_osc():
        i2, j2, a2, b2 = window(4, 32)
        a1 = int(rng.integers(1, a2 + 1))
        b1 = int(rng.integers(1, b2 + 1))
        i1 = i2 + int(rng.integers(0, a2 - a1 + 1))
        j1 = j2 + int(rng.integers(0, b2 - b1 + 1))
        lhs = _block_stats(WF, i1, j1, a1, b1)[1]
        return lhs, 2.0 * (a2 * b2) / (a1 * b1) * _block_stats(WF, i2, j2, a2, b2)[1]

    results.append(_cases("nested_mean_osc", n_cases, nested_mean_osc))

    # Product of several factors vs the telescoped constant.
    WH = 0.5 * (WF + WG)
    scans["H"] = _osc_bounds(WH, sides)
    c_const = prods_constant([sup_f, sup_g, float(np.max(np.abs(WH)))])
    rhs_sum = c_const * (s_full_f + sum(_window_sup(scans[k], sides, 0, 0, ni, nj)[0] for k in "GH"))
    W3 = WF * WG * WH

    def multi_product_mean():
        i, j, sx, sy = cube(sides)
        m3, mf, mg, mh = (W[i : i + sx, j : j + sy].mean() for W in (W3, WF, WG, WH))
        return abs(m3 - mf * mg * mh), rhs_sum

    results.append(_cases("multi_product_mean", n_cases, multi_product_mean))
    results.append(_cases("affine_pullback", n_cases, lambda: _affine_pullback_case(rng)))
    results.append(_cases("c1_multiplier", n_cases, lambda: _c1_multiplier_case(rng)))
    return {r.name: r for r in results}
