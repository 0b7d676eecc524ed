"""Commutative Baer model: step functions over the subsets of a finite set.

In the paper the commutative summand is spanned by the characteristic
functions of the clopen sets of a Stonean space; for a finite-dimensional
algebra that space is the discrete set {0..n-1}, and its clopen sets are the
bitmasks of ``FiniteSubsets(n)``. Values are exact complex rationals (a float,
real or complex, is read as the exact binary rational it holds), so this
module has zero numerical error and serves as the oracle for the
floating-point pipeline on commutative instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import MalformedInput, ParentMismatch
from .instances import diagonal_algebra


@dataclass(frozen=True)
class ExactComplex:
    re: Fraction
    im: Fraction

    @staticmethod
    def of(value):
        """``value`` as an exact complex rational; MalformedInput for a NaN or infinite part."""
        if isinstance(value, ExactComplex):
            return value
        try:
            if isinstance(value, complex):
                return ExactComplex(Fraction(value.real), Fraction(value.imag))
            return ExactComplex(Fraction(value), Fraction(0))
        except (ValueError, OverflowError) as exc:
            raise MalformedInput(f"value {value!r} is not a finite number") from exc

    def __add__(self, other):
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return ExactComplex(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)

    def conj(self):
        return ExactComplex(self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __abs__(self):
        return math.hypot(float(self.re), float(self.im))

    def to_complex(self):
        return complex(float(self.re), float(self.im))


ZERO = ExactComplex(Fraction(0), Fraction(0))
ONE = ExactComplex(Fraction(1), Fraction(0))


# -- the set algebra ----------------------------------------------------------

class FiniteSubsets:
    """Subsets of {0..n-1} as integer bitmasks: & meets, | joins, 0 is the empty set."""

    def __init__(self, n):
        if n < 1:
            raise MalformedInput("universe must be non-empty")
        self.n = n
        self.universe = (1 << n) - 1

    def complement(self, s):
        return self.universe & ~s

    def subset(self, members):
        s = 0
        for m in members:
            if not 0 <= m < self.n:
                raise MalformedInput(f"point {m} outside universe")
            s |= 1 << m
        return s

    def points(self, s):
        return [i for i in range(self.n) if (s >> i) & 1]


# -- step functions -----------------------------------------------------------

@dataclass(frozen=True)
class StepFunction:
    backend: FiniteSubsets
    cells: tuple  # of (bitmask, ExactComplex); disjoint, covering the universe

    def value_on(self, cell_set):
        """Value on a set known to lie inside a single cell."""
        for s, v in self.cells:
            if s & cell_set:
                return v
        return ZERO


def _normalize(cells):
    """The canonical cells: empty ones dropped, one cell per value, sorted by the exact value."""
    merged = {}
    for s, v in cells:
        if s:
            key = (v.re, v.im)
            merged[key] = merged.get(key, 0) | s
    return tuple((s, ExactComplex(re, im)) for (re, im), s in sorted(merged.items()))


def step_function(backend, cells):
    """Build a canonical step function; cells must be disjoint and cover."""
    cells = [(s, ExactComplex.of(v)) for s, v in cells]
    total = 0
    for i, (s, _) in enumerate(cells):
        for t, _ in cells[i + 1:]:
            if s & t:
                raise MalformedInput("cells are not pairwise disjoint")
        total |= s
    if total != backend.universe:
        raise MalformedInput("cells do not cover the universe")
    return StepFunction(backend, _normalize(cells))


def sf_constant(backend, value):
    return StepFunction(backend, _normalize([(backend.universe, ExactComplex.of(value))]))


def sf_indicator(backend, subset):
    return StepFunction(backend, _normalize([(subset, ONE), (backend.complement(subset), ZERO)]))


def _combine(f, g, op):
    if f.backend is not g.backend:
        raise ParentMismatch("step functions over different backends")
    cells = [(s1 & s2, op(v1, v2)) for s1, v1 in f.cells for s2, v2 in g.cells]
    return StepFunction(f.backend, _normalize(cells))


def sf_add(f, g):
    return _combine(f, g, lambda a, b: a + b)


def sf_mul(f, g):
    return _combine(f, g, lambda a, b: a * b)


def sf_star(f):
    return StepFunction(f.backend, _normalize([(s, v.conj()) for s, v in f.cells]))


def sf_scale(lam, f):
    lam = ExactComplex.of(lam)
    return StepFunction(f.backend, _normalize([(s, lam * v) for s, v in f.cells]))


def sf_equal(f, g):
    return f.backend is g.backend and f.cells == g.cells


def sf_support(f):
    supp = 0
    for s, v in f.cells:
        if not v.is_zero():
            supp |= s
    return supp


def sf_zero_set(f):
    return f.backend.complement(sf_support(f))


def sf_spectral_decompose(f):
    """The canonical cells with nonzero values: exact spectral terms."""
    return [(v, sf_indicator(f.backend, s)) for s, v in f.cells if not v.is_zero()]


def sf_rp(f):
    """Right projection: the characteristic function of the support."""
    return sf_indicator(f.backend, sf_support(f))


def sf_quasi_inverse(f):
    inv = [(s, ZERO if v.is_zero() else _reciprocal(v.conj() * v) * v.conj())
           for s, v in f.cells]
    return StepFunction(f.backend, _normalize(inv))


def _reciprocal(v):
    denom = v.re * v.re + v.im * v.im
    return ExactComplex(v.re / denom, -v.im / denom)


def sf_annihilator(fs):
    """Projection generating the annihilator ideal: chi of the common zero-set."""
    if not fs:
        raise MalformedInput("annihilator of the empty set is not defined")
    b = fs[0].backend
    zero = b.universe
    for f in fs:
        zero &= sf_zero_set(f)
    return sf_indicator(b, zero)


def sf_sup_norm(f):
    """Supremum norm: the unique pre-C*-norm of the model."""
    return max((abs(v) for _, v in f.cells), default=0.0)


# -- bridge to the structure-constant world -----------------------------------

def export_finite_backend(backend):
    """The algebra of functions on the backend's points as structure constants (point-mass basis)."""
    return diagonal_algebra(backend.n)


def step_to_coeffs(f):
    """Coefficients of a step function in the point-mass basis."""
    b = f.backend
    out = np.zeros(b.n, dtype=complex)
    for s, v in f.cells:
        for i in b.points(s):
            out[i] = v.to_complex()
    return out


def coeffs_to_step(backend, coeffs):
    """The step function with these point-mass coefficients, one per point."""
    if len(coeffs) != backend.n:
        raise MalformedInput(f"{len(coeffs)} coefficients for a universe of {backend.n} points")
    cells = [(backend.subset([i]), ExactComplex.of(complex(z))) for i, z in enumerate(coeffs)]
    return StepFunction(backend, _normalize(cells))
