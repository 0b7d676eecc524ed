"""Finite-dimensional complex *-algebras presented by structure constants.

An algebra of dimension n is given by a tensor ``mul`` with
``e_i e_j = sum_k mul[i, j, k] e_k`` and an involution matrix ``star`` with
``(e_i)* = sum_k star[k, i] e_k``; on coefficient vectors the involution acts
as ``v -> star @ conj(v)``.

``mul`` is the input format: only the product kernel, ``_times_basis`` and
``right_mat``, reads it. Every other site takes the basis products from the
kernel as ``_times_basis(I)`` or ``products(I, I)``, in ``mul``'s layout.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import MalformedInput, ParentMismatch
from .linalg import cluster_points, negligible, relative, relative_bound

DEFAULT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StarAlgebra:
    mul: np.ndarray                 # (n, n, n) complex
    star: np.ndarray                # (n, n) complex
    unit: np.ndarray | None = None  # optional coefficient vector, validated not trusted
    labels: tuple[str, ...] | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        mul = np.asarray(self.mul, dtype=complex)
        star = np.asarray(self.star, dtype=complex)
        n = mul.shape[0] if mul.ndim == 3 else 0
        if mul.ndim != 3 or mul.shape != (n, n, n) or n < 1:
            raise MalformedInput(f"mul tensor has shape {mul.shape}, expected (n,n,n)")
        if star.shape != (n, n):
            raise MalformedInput(f"star matrix has shape {star.shape}, expected ({n},{n})")
        # contiguous, so that the product kernel's reshape of mul is a view
        object.__setattr__(self, "mul", np.ascontiguousarray(mul))
        object.__setattr__(self, "star", star)
        if self.unit is not None:
            u = np.asarray(self.unit, dtype=complex)
            if u.shape != (n,):
                raise MalformedInput("unit vector length does not match dim")
            object.__setattr__(self, "unit", u)
        if not all(np.isfinite(x).all() for x in (mul, star, self.unit) if x is not None):
            raise MalformedInput("mul, star and unit must be finite")
        if self.labels is not None and len(self.labels) != n:
            raise MalformedInput(f"{len(self.labels)} labels for an algebra of dimension {n}")

    @property
    def dim(self):
        return self.mul.shape[0]

    # -- element constructors -------------------------------------------------

    def element(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (self.dim,):
            raise MalformedInput(f"coefficient vector length {coeffs.shape} != dim {self.dim}")
        if not np.isfinite(coeffs).all():
            raise MalformedInput("coefficients must be finite")
        return Element(self, coeffs)

    def basis_element(self, i):
        v = np.zeros(self.dim, dtype=complex)
        v[i] = 1.0
        return Element(self, v)

    def zero(self):
        return Element(self, np.zeros(self.dim, dtype=complex))

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    # -- the product kernel (every argument: one coefficient vector or a stack of rows)

    def _times_basis(self, xs):
        """``[..., j, :]`` holds the coefficients of x e_j, for x a vector or each row of a stack."""
        n = self.dim
        return (xs @ self.mul.reshape(n, n * n)).reshape(np.shape(xs)[:-1] + (n, n))

    def left_mat(self, coeffs):
        """Matrix of x -> a x on coefficient vectors."""
        return np.swapaxes(self._times_basis(coeffs), -1, -2)

    def right_mat(self, coeffs):
        """Matrix of x -> x a on coefficient vectors."""
        return np.moveaxis(coeffs @ self.mul, 0, -1)

    def star_coeffs(self, coeffs):
        return np.conj(coeffs) @ self.star.T

    def mul_coeffs(self, a, b):
        return b @ self._times_basis(a)

    def products(self, xs, ys):
        """All products of two stacks: ``[a, b, :]`` holds the coefficients of xs[a] ys[b]."""
        return ys @ self._times_basis(xs)

    def row_products(self, xs, ys):
        """Products row by row of two stacks: ``[a, :]`` holds the coefficients of xs[a] ys[a]."""
        return (ys[..., None, :] @ self._times_basis(xs))[..., 0, :]

    # -- unit detection -------------------------------------------------------

    def unit_vector(self, tol=DEFAULT_TOL):
        """Coefficients of the two-sided unit, or None if the algebra is non-unital."""
        u, res = _cached(self, _unit_solution)
        return u if negligible(res, tol) else None

    def is_unital(self, tol=DEFAULT_TOL):
        return self.unit_vector(tol) is not None

    def one(self, tol=DEFAULT_TOL):
        u = self.unit_vector(tol)
        if u is None:
            raise MalformedInput("algebra has no unit")
        return Element(self, u)


def _cached(algebra, fn, *args):
    """``fn(algebra, *args)``, memoised in ``algebra._cache`` under ``(fn, *args)``.

    Every argument (tol, seed, sample count) is part of the key. Every caller
    gets the same value, so callers must not mutate it. No value refers back
    to the algebra, so it is freed with its last reference, cycle collector or not."""
    key = (fn, *args)
    if key not in algebra._cache:
        algebra._cache[key] = fn(algebra, *args)
    return algebra._cache[key]


def _unit_solution(algebra):
    """Least-squares two-sided unit and its relative residual."""
    n = algebra.dim
    c = algebra._times_basis(np.eye(n))  # [i, j, :] holds e_i e_j
    lhs = np.concatenate([
        c.reshape(n, n * n).T,                       # rows (j,k): sum_i u_i c[i,j,k]
        c.transpose(1, 0, 2).reshape(n, n * n).T,   # rows (j,k): sum_i u_i c[j,i,k]
    ])
    rhs = np.concatenate([np.eye(n).reshape(n * n), np.eye(n).reshape(n * n)]).astype(complex)
    u, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    res = float(np.linalg.norm(lhs @ u - rhs)) / np.sqrt(2 * n)
    return u, res


@dataclass(frozen=True, eq=False)
class Element:
    parent: StarAlgebra
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))

    def _check(self, other):
        if other.parent is not self.parent:
            raise ParentMismatch("elements belong to different algebras")

    def __add__(self, other):
        self._check(other)
        return Element(self.parent, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return Element(self.parent, self.coeffs - other.coeffs)

    def __neg__(self):
        return Element(self.parent, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            return Element(self.parent, self.parent.mul_coeffs(self.coeffs, other.coeffs))
        if isinstance(other, numbers.Number):
            return Element(self.parent, self.coeffs * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return Element(self.parent, self.coeffs * other)
        return NotImplemented

    def star(self):
        return Element(self.parent, self.parent.star_coeffs(self.coeffs))

    def norm(self):
        """Euclidean norm of the coefficient vector (basis-dependent scale)."""
        return float(np.linalg.norm(self.coeffs))

    def lmat(self):
        return self.parent.left_mat(self.coeffs)

    def rmat(self):
        return self.parent.right_mat(self.coeffs)

    def __repr__(self):
        return f"Element({np.array2string(self.coeffs, precision=4, suppress_small=True)})"


# -- validation ---------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    dim: int
    associativity_defect: float
    involution_defect: float
    unit_defect: float
    tol: float
    passed: bool

    def to_dict(self):
        return asdict(self)


def validate(algebra, tol=DEFAULT_TOL):
    """Check the *-algebra axioms on basis elements, to tolerance.

    A NaN defect fails, and so does a product size that overflows; neither raises."""
    n = algebra.dim
    c = algebra._times_basis(np.eye(n))
    s = algebra.star
    pairs = c.reshape(n * n, n)  # row (i, j): e_i e_j
    with np.errstate(over="ignore", invalid="ignore"):
        # (e_i e_j) e_k against e_i (e_j e_k), one n^3 slab [j, k, :] per i; np.max keeps a NaN
        assoc = float(np.max([
            np.max(np.abs(algebra._times_basis(c[i]) - (pairs @ c[i]).reshape(n, n, n)))
            for i in range(n)
        ]))

        # (e_i)** = e_i : star is antilinear, so applying it twice conjugates
        dstar = float(np.max(np.abs(s @ np.conj(s) - np.eye(n))))
        # (e_i e_j)* = (e_j)* (e_i)*; row i of s.T is (e_i)*
        lhs = algebra.star_coeffs(pairs).reshape(n, n, n).transpose(1, 0, 2)
        inv = float(np.max([dstar, np.max(np.abs(lhs - algebra.products(s.T, s.T)))]))  # NaN stays

        unit_defect = 0.0
        if algebra.unit is not None:
            # column j: u e_j - e_j, then e_j u - e_j
            sides = np.stack([algebra.left_mat(algebra.unit), algebra.right_mat(algebra.unit)]) - np.eye(n)
            unit_defect = float(np.max(np.linalg.norm(sides, axis=1)))

    # relative to the size of a product of two structure constants
    size = float(np.max(np.abs(c)))
    bound = relative_bound(tol, size * size)
    passed = bool(np.isfinite(bound)) and all(d <= bound for d in (assoc, inv, unit_defect))
    return ValidationReport(algebra.dim, assoc, inv, unit_defect, tol, passed)


# -- unitization --------------------------------------------------------------

def unitize(algebra):
    """Standard unitization: adjoin a unit at index 0, embed A as indices 1..n.

    Always adjoins a new unit, even on unital input.
    """
    n = algebra.dim
    c = np.zeros((n + 1, n + 1, n + 1), dtype=complex)
    c[0] = np.eye(n + 1)     # 1 e_j = e_j
    c[:, 0] = np.eye(n + 1)  # e_i 1 = e_i
    c[1:, 1:, 1:] = algebra._times_basis(np.eye(n))
    s = np.zeros((n + 1, n + 1), dtype=complex)
    s[0, 0] = 1.0
    s[1:, 1:] = algebra.star
    unit = np.zeros(n + 1, dtype=complex)
    unit[0] = 1.0
    labels = None
    if algebra.labels is not None:
        labels = ("1",) + tuple(algebra.labels)
    return StarAlgebra(c, s, unit=unit, labels=labels)


def _trace_form(algebra):
    """F[i, j] = tr(L_i L_j) over A's basis; use via _cached.

    For x, y in A this is also the trace over the unitization, as L_x maps it into A,
    so one form serves with or without a unit."""
    n = algebra.dim
    c = algebra._times_basis(np.eye(n))
    # L_i[a, b] = c[i, b, a], so tr(L_i L_j) = sum_ab c[i, b, a] c[j, a, b]
    return c.reshape(n, -1) @ c.transpose(0, 2, 1).reshape(n, -1).T


def _trace_functional(algebra):
    """tau_i = tr L_{e_i} over A itself; for an idempotent z, tau . z = rank L_z. Use via _cached."""
    return np.trace(algebra._times_basis(np.eye(algebra.dim)), axis1=1, axis2=2)


def _nearest_integers(traces, scales):
    """The integers nearest the real parts of ``traces``, and each trace's distance from its
    integer relative to max(1, its scale)."""
    ints = np.round(np.real(traces))
    return ints.astype(int), relative(np.abs(traces - ints), scales)


def _trace_ranks(algebra, zs):
    """For each row z of ``zs``: the integer nearest tau . z, which is rank L_z when z is an
    idempotent, and the distance of tau . z from it relative to max(1, |tau| |z|)."""
    tau = _cached(algebra, _trace_functional)
    return _nearest_integers((zs * tau).sum(axis=-1), np.linalg.norm(tau) * np.linalg.norm(zs, axis=-1))


# -- spectrum -----------------------------------------------------------------

@dataclass(frozen=True)
class Spectrum:
    points: tuple
    includes_forced_zero: bool


def distinct_eigenvalues(a, tol=DEFAULT_TOL):
    """Clustered eigenvalues of L_a on A, with the point 0 added when A has no unit at tol.

    The spectrum of a in the unitization is the eigenvalues of L_a on A and 0.
    This set equals the root set of the minimal polynomial of `a` but is
    computed through an eigenvalue solver, which is far better conditioned
    than polynomial coefficient root-finding at moderate dimensions.
    """
    vals = [complex(v) for v in np.linalg.eigvals(a.lmat())]
    if not a.parent.is_unital(tol):
        vals.append(0j)
    return cluster_points(vals, tol)


def spectrum(a, tol=DEFAULT_TOL):
    """Spectrum of `a`, taken in the unitization when the parent has no unit; then 0 is always a point."""
    return Spectrum(tuple(distinct_eigenvalues(a, tol)), not a.parent.is_unital(tol))


# -- random elements ----------------------------------------------------------

def random_element(algebra, rng):
    n = algebra.dim
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return Element(algebra, v / np.sqrt(2 * n))


def random_selfadjoint(algebra, rng):
    a = random_element(algebra, rng)
    return 0.5 * (a + a.star())


# -- JSON interchange ---------------------------------------------------------

def _coeffs_json(values):
    """Complex numbers as JSON ``[re, im]`` pairs."""
    return [[float(z.real), float(z.imag)] for z in values]


def _entries_json(array):
    """The nonzero entries of an array as JSON ``[*index, re, im]`` rows, in C order."""
    nz = np.abs(array) > 0
    return [[*map(int, index), *z] for index, z in zip(np.argwhere(nz), _coeffs_json(array[nz]))]


def algebra_to_json(algebra, tol=DEFAULT_TOL):
    """Sparse JSON form; see README for the schema."""
    out = {"dim": algebra.dim, "mul": _entries_json(algebra._times_basis(np.eye(algebra.dim))),
           "star": [[i, k, re, im] for k, i, re, im in _entries_json(algebra.star)],  # star[k, i] as [i, k]
           "unital": algebra.is_unital(tol)}
    if algebra.unit is not None:
        out["unit"] = _coeffs_json(algebra.unit)
    if algebra.labels is not None:
        out["labels"] = list(algebra.labels)
    return out


def _no_bools(entry, name):
    """A JSON row, unless it holds ``true`` or ``false``, which numpy and ``complex`` read as 1 and 0."""
    if any(isinstance(x, bool) for x in entry):
        raise MalformedInput(f"bad algebra JSON: boolean in {name} entry {entry!r}")
    return entry


def _from_entries(shape, entries, name):
    """Dense array from JSON ``[*index, re, im]`` entries; an index given twice is an error."""
    out = np.zeros(shape, dtype=complex)
    seen = set()
    for entry in entries:
        *index, re, im = _no_bools(entry, name)
        # ravel_multi_index rejects a wrong arity, non-integer indices and the negative ones out[index] would wrap
        flat = int(np.ravel_multi_index(index, shape))
        if flat in seen:
            raise MalformedInput(f"bad algebra JSON: two {name} entries for index {index}")
        seen.add(flat)
        out.flat[flat] = re + 1j * im
    return out


def algebra_from_json(data):
    try:
        n = data["dim"]
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):  # int() reads 1.5 and true as 1
            raise MalformedInput(f"bad algebra JSON: dim must be an integer, got {n!r}")
        c = _from_entries((n, n, n), data["mul"], "mul")
        s = np.ascontiguousarray(_from_entries((n, n), data["star"], "star").T)
        unit = None
        if data.get("unit") is not None:
            pairs = [_no_bools(z, "unit") for z in data["unit"]]
            unit = np.array([re + 1j * im for re, im in pairs], dtype=complex)
        labels = data.get("labels")
        if labels is not None:
            if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
                raise MalformedInput(f"bad algebra JSON: labels must be a list of strings, got {labels!r}")
            labels = tuple(labels)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise MalformedInput(f"bad algebra JSON: {exc}") from exc
    return StarAlgebra(c, s, unit=unit, labels=labels)
