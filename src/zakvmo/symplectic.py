"""Exact 2x2 rational matrix algebra: lattice density, reduction to
separable form, and factorization of SL(2,Q) into generator matrices.

All arithmetic uses ``fractions.Fraction`` (arbitrary-precision integers),
so chained factorizations can grow denominators without overflow and every
equality test below is exact, zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings; reject inexact floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        if x.is_integer():
            return Fraction(int(x))
        raise TypeError(
            f"refusing float {x!r}: pass a Fraction or 'p/q' string for exactness"
        )
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def format_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class RationalMatrix2:
    """2x2 matrix with exact rational entries (row-major a, b, c, d)."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, as_fraction(getattr(self, name)))

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "RationalMatrix2") -> "RationalMatrix2":
        return RationalMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "RationalMatrix2":
        det = self.det()
        if det == 0:
            raise ZeroDivisionError("matrix is singular")
        return RationalMatrix2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def apply(self, vec) -> tuple[Fraction, Fraction]:
        u, v = as_fraction(vec[0]), as_fraction(vec[1])
        return (self.a * u + self.b * v, self.c * u + self.d * v)

    @staticmethod
    def identity() -> "RationalMatrix2":
        return RationalMatrix2(1, 0, 0, 1)

    def to_csv(self) -> str:
        return ",".join(format_fraction(q) for q in (self.a, self.b, self.c, self.d))


@dataclass(frozen=True)
class GeneratorStep:
    """One generator: kind 'J', 'dilation' or 'chirp' with rational parameter."""

    kind: str
    param: Fraction | None = None

    def __post_init__(self):
        if self.kind == "J":
            if self.param is not None:
                raise ValueError("J takes no parameter")
        elif self.kind == "dilation":
            p = as_fraction(self.param)
            if p == 0:
                raise ValueError("dilation parameter must be nonzero")
            object.__setattr__(self, "param", p)
        elif self.kind == "chirp":
            object.__setattr__(self, "param", as_fraction(self.param))
        else:
            raise ValueError(f"unknown generator kind {self.kind!r}")

    def matrix(self) -> RationalMatrix2:
        if self.kind == "J":
            return RationalMatrix2(0, 1, -1, 0)
        if self.kind == "dilation":
            return RationalMatrix2(self.param, 0, 0, 1 / self.param)
        return RationalMatrix2(1, 0, self.param, 1)

    def as_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.param is not None:
            d["param"] = format_fraction(self.param)
        return d


def steps_matrix(steps) -> RationalMatrix2:
    """Exact product of the step matrices.

    Steps are listed in application order: steps[0] acts first on vectors,
    so the matrix product is steps[-1].matrix() @ ... @ steps[0].matrix().
    """
    out = RationalMatrix2.identity()
    for st in steps:
        out = st.matrix() @ out
    return out


def lattice_density(A: RationalMatrix2) -> Fraction:
    """Density |det A|^{-1} of the lattice A Z^2."""
    det = A.det()
    if det == 0:
        raise ZeroDivisionError("lattice matrix is singular")
    return 1 / abs(det)


@dataclass(frozen=True)
class LatticeReduction:
    """Result of reducing A Z^2 to the separable lattice (1/Q) Z x P Z."""

    B: RationalMatrix2
    P: int
    Q: int
    column_flipped: bool


def lattice_reduce(A: RationalMatrix2) -> LatticeReduction:
    """Find B in SL(2,Q) with B A Z^2 = (1/Q) Z x P Z, det A = +- P/Q.

    A negative determinant is normalized by flipping the second column
    (which leaves the lattice unchanged as a set); the flip is recorded.
    """
    det = A.det()
    if det == 0:
        raise ZeroDivisionError("lattice matrix is singular")
    flipped = det < 0
    if flipped:
        A = RationalMatrix2(A.a, -A.b, A.c, -A.d)
        det = -det
    P, Q = det.numerator, det.denominator
    B = RationalMatrix2(Fraction(1, Q), 0, 0, Fraction(P)) @ A.inverse()
    if B.det() != 1:
        raise ValueError(f"reduction matrix has determinant {B.det()}, not 1")
    return LatticeReduction(B, P, Q, flipped)


def sl2_factorize(S: RationalMatrix2) -> list[GeneratorStep]:
    """Factor a determinant-1 rational matrix into generator steps.

    Returns steps in application order (rightmost factor of the displayed
    matrix product first); ``steps_matrix`` reproduces S exactly, which is
    checked here, so callers pass the steps on unchecked.
    """
    if S.det() != 1:
        raise ValueError(f"determinant must be exactly 1, got {S.det()}")
    a, b, c, d = S.a, S.b, S.c, S.d
    if a != 0:
        written = [
            GeneratorStep("chirp", c / a),
            GeneratorStep("J"),
            GeneratorStep("chirp", -a * b),
            GeneratorStep("J"),
            GeneratorStep("dilation", -a),
        ]
    else:
        written = [
            GeneratorStep("chirp", -c * d),
            GeneratorStep("J"),
            GeneratorStep("dilation", 1 / b),
        ]
    steps = written[::-1]
    if steps_matrix(steps) != S:
        raise ValueError("step product does not reproduce the source matrix")
    return steps


def random_sl2(rng, max_entry: int = 20) -> RationalMatrix2:
    """Random determinant-1 matrix; numerators/denominators of a, b, c are
    bounded by max_entry and d = (1 + b c) / a closes the determinant."""

    def rand_frac(nonzero=False):
        while True:
            num = int(rng.integers(-max_entry, max_entry + 1))
            if nonzero and num == 0:
                continue
            den = int(rng.integers(1, max_entry + 1))
            return Fraction(num, den)

    if rng.random() < 0.1:
        b = rand_frac(nonzero=True)
        c = -1 / b
        return RationalMatrix2(0, b, c, rand_frac())
    a = rand_frac(nonzero=True)
    b, c = rand_frac(), rand_frac()
    return RationalMatrix2(a, b, c, (1 + b * c) / a)
