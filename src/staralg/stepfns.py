"""Commutative Baer model: step functions over a pluggable Boolean set-algebra.

Values are exact complex rationals, so this module has zero numerical error
and serves as the oracle for the floating-point pipeline on commutative
instances. Two backends: finite subsets of {0..n-1} as bitmasks, and
ultimately periodic subsets of the naturals (genuinely infinite-dimensional).
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
                return ExactComplex(Fraction(value.real).limit_denominator(10**12),
                                    Fraction(value.imag).limit_denominator(10**12))
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


# -- backends -----------------------------------------------------------------

class FiniteSubsets:
    """Subsets of {0..n-1} as integer bitmasks."""

    def __init__(self, n):
        if n < 1:
            raise MalformedInput("universe must be non-empty")
        self.n = n
        self.universe = (1 << n) - 1

    def empty(self):
        return 0

    def complement(self, s):
        return self.universe & ~s

    def intersect(self, a, b):
        return a & b

    def union(self, a, b):
        return a | b

    def is_empty(self, s):
        return s == 0

    def equal(self, a, b):
        return a == b

    def subset(self, members):
        s = 0
        for m in members:
            if not 0 <= m < self.n:
                raise MalformedInput(f"point {m} outside universe")
            s |= 1 << m
        return s

    def points(self, s):
        return [i for i in range(self.n) if (s >> i) & 1]


@dataclass(frozen=True)
class UPSet:
    """Ultimately periodic subset of N: bits 0..pre_len-1 then a repeating period."""
    pre: int
    pre_len: int
    period: int
    period_len: int

    def bit(self, i):
        if i < self.pre_len:
            return (self.pre >> i) & 1
        return (self.period >> ((i - self.pre_len) % self.period_len)) & 1


def _canonical_upset(pre, pre_len, period, period_len):
    # minimize the period: smallest divisor whose repetition gives the pattern
    for d in range(1, period_len + 1):
        if period_len % d:
            continue
        blockmask = (1 << d) - 1
        block = period & blockmask
        if all(((period >> (d * t)) & blockmask) == block for t in range(period_len // d)):
            period, period_len = block, d
            break
    # absorb preperiod bits that already follow the periodic pattern
    while pre_len > 0:
        last = (pre >> (pre_len - 1)) & 1
        tail = (period >> (period_len - 1)) & 1
        if last != tail:
            break
        # rotate period right so it starts one step earlier
        period = ((period << 1) | tail) & ((1 << period_len) - 1)
        pre_len -= 1
        pre &= (1 << pre_len) - 1
    return UPSet(pre, pre_len, period, period_len)


class UltimatelyPeriodicSets:
    """Ultimately periodic subsets of the naturals, exact and infinite-capable.

    Only finite joins and meets are provided. The step-function algebra over
    this backend is weakly Rickart; we conjecture it is not Baer (its Boolean
    algebra is not complete), but that claim is not certified computationally.
    """

    def __init__(self):
        self.universe = _canonical_upset(0, 0, 1, 1)

    def empty(self):
        return _canonical_upset(0, 0, 0, 1)

    def from_bits(self, pre_bits, period_bits):
        pre = sum(1 << i for i, b in enumerate(pre_bits) if b)
        period = sum(1 << i for i, b in enumerate(period_bits) if b)
        if not period_bits:
            raise MalformedInput("period must be non-empty")
        return _canonical_upset(pre, len(pre_bits), period, len(period_bits))

    def multiples_of(self, n):
        bits = [1] + [0] * (n - 1)
        return self.from_bits([], bits)

    def _aligned(self, a, b):
        pre_len = max(a.pre_len, b.pre_len)
        period_len = math.lcm(a.period_len, b.period_len)

        def expand(s):
            pre = sum(s.bit(i) << i for i in range(pre_len))
            period = sum(s.bit(pre_len + j) << j for j in range(period_len))
            return pre, period

        return pre_len, period_len, expand(a), expand(b)

    def complement(self, s):
        pre = (~s.pre) & ((1 << s.pre_len) - 1)
        period = (~s.period) & ((1 << s.period_len) - 1)
        return _canonical_upset(pre, s.pre_len, period, s.period_len)

    def intersect(self, a, b):
        n, p, (pa, qa), (pb, qb) = self._aligned(a, b)
        return _canonical_upset(pa & pb, n, qa & qb, p)

    def union(self, a, b):
        n, p, (pa, qa), (pb, qb) = self._aligned(a, b)
        return _canonical_upset(pa | pb, n, qa | qb, p)

    def is_empty(self, s):
        return s.pre == 0 and s.period == 0

    def equal(self, a, b):
        return a == b


# -- step functions -----------------------------------------------------------

@dataclass(frozen=True)
class StepFunction:
    backend: object
    cells: tuple  # of (set, ExactComplex); disjoint, covering the universe

    def value_on(self, cell_set):
        """Value on a set known to lie inside a single cell."""
        for s, v in self.cells:
            if not self.backend.is_empty(self.backend.intersect(s, cell_set)):
                return v
        return ZERO


def _normalize(backend, cells):
    merged = {}
    for s, v in cells:
        if backend.is_empty(s):
            continue
        key = (v.re, v.im)
        merged[key] = backend.union(merged[key], s) if key in merged else s
    out = tuple(sorted(
        ((s, ExactComplex(re, im)) for (re, im), s in merged.items()),
        key=lambda sv: (float(sv[1].re), float(sv[1].im)),
    ))
    return out


def step_function(backend, cells):
    """Build a canonical step function; cells must be disjoint and cover."""
    cells = [(s, ExactComplex.of(v)) for s, v in cells]
    total = backend.empty()
    for i, (s, _) in enumerate(cells):
        for t, _ in cells[i + 1:]:
            if not backend.is_empty(backend.intersect(s, t)):
                raise MalformedInput("cells are not pairwise disjoint")
        total = backend.union(total, s)
    if not backend.equal(total, backend.universe):
        raise MalformedInput("cells do not cover the universe")
    return StepFunction(backend, _normalize(backend, cells))


def sf_constant(backend, value):
    return StepFunction(backend, _normalize(backend, [(backend.universe, ExactComplex.of(value))]))


def sf_indicator(backend, subset):
    return StepFunction(backend, _normalize(backend, [(subset, ONE), (backend.complement(subset), ZERO)]))


def _combine(f, g, op):
    if f.backend is not g.backend:
        raise ParentMismatch("step functions over different backends")
    b = f.backend
    cells = []
    for s1, v1 in f.cells:
        for s2, v2 in g.cells:
            inter = b.intersect(s1, s2)
            if not b.is_empty(inter):
                cells.append((inter, op(v1, v2)))
    return StepFunction(b, _normalize(b, cells))


def sf_add(f, g):
    return _combine(f, g, lambda a, b: a + b)


def sf_mul(f, g):
    return _combine(f, g, lambda a, b: a * b)


def sf_star(f):
    return StepFunction(f.backend, _normalize(f.backend, [(s, v.conj()) for s, v in f.cells]))


def sf_scale(lam, f):
    lam = ExactComplex.of(lam)
    return StepFunction(f.backend, _normalize(f.backend, [(s, lam * v) for s, v in f.cells]))


def sf_equal(f, g):
    return f.backend is g.backend and f.cells == g.cells


def sf_support(f):
    b = f.backend
    supp = b.empty()
    for s, v in f.cells:
        if not v.is_zero():
            supp = b.union(supp, s)
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
    return StepFunction(f.backend, _normalize(f.backend, inv))


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
        zero = b.intersect(zero, sf_zero_set(f))
    return sf_indicator(b, zero)


def sf_sup_norm(f):
    """Supremum norm: the unique pre-C*-norm of the model."""
    return max((abs(v) for _, v in f.cells), default=0.0)


# -- bridge to the structure-constant world -----------------------------------

def export_finite_backend(backend):
    """The finite-backend algebra as structure constants (point-mass basis)."""
    if not isinstance(backend, FiniteSubsets):
        raise MalformedInput("only finite backends export to structure constants")
    return diagonal_algebra(backend.n)


def step_to_coeffs(f):
    """Coefficients of a finite-backend step function in the point-mass basis."""
    b = f.backend
    out = np.zeros(b.n, dtype=complex)
    for s, v in f.cells:
        for i in b.points(s):
            out[i] = v.to_complex()
    return out


def coeffs_to_step(backend, coeffs):
    """The finite-backend step function with these point-mass coefficients, one per point."""
    if len(coeffs) != backend.n:
        raise MalformedInput(f"{len(coeffs)} coefficients for a universe of {backend.n} points")
    cells = [(backend.subset([i]), ExactComplex.of(complex(z))) for i, z in enumerate(coeffs)]
    return StepFunction(backend, _normalize(backend, cells))
