"""Radical, properness/hermitian checks, central atoms, Abelian split,
matrix-unit block isomorphisms, and the composite structure report."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    Element,
    StarAlgebra,
    _cached,
    _coeffs_json,
    _nearest_integers,
    _trace_form,
    _trace_ranks,
    random_element,
    random_selfadjoint,
    spectrum,
    validate,
)
from .errors import (
    DecompositionFailed,
    DegenerateRandomness,
    IllConditioned,
    InternalInconsistency,
    ValidationFailed,
)
from .linalg import (certificate_bound, colspace, membership_bound, negligible, nullspace, relative, require,
                     rounding_bound, significant)
from .rickart import CheckReport, check_baer, check_weakly_rickart, is_projection
from .spectral import _trace_coordinates, spectral_decompose


# -- radical and the basic checks ---------------------------------------------

def radical(algebra, tol=DEFAULT_TOL):
    """Jacobson radical: the kernel of A's trace form F (Dickson's criterion).

    {x : tr L_{xy} = 0 for every y in A} is an ideal of elements whose L_x is
    nilpotent, so over characteristic zero it is rad A, with or without a
    unit. Every returned basis element is verified nilpotent through its
    regular representation. Its rows are cached per tol.
    """
    return [Element(algebra, x) for x in _cached(algebra, _radical, tol)]


def _radical(algebra, tol):
    rows = nullspace(_cached(algebra, _trace_form), tol).T
    for x in rows:
        m = algebra.left_mat(x)
        m = relative(m, float(np.linalg.norm(m, 2)))
        require(float(np.linalg.norm(np.linalg.matrix_power(m, algebra.dim), 2)), certificate_bound(tol),
                InternalInconsistency, "trace-form kernel element is not nilpotent")
    return rows


def check_proper(algebra, tol=DEFAULT_TOL, seed=0):
    """Properness via positive definiteness of <a,b> = tr(L_{b*a}) on A.

    On failure the report carries a witness minimizing |a*a| over normalized
    basis elements, the non-positive eigenspace of the Gram matrix G and, when
    none of those has a*a = 0, their iterated star-squares a*a, (a*a)*(a*a), ...
    A witness with |a*a| above certificate_bound(tol) is marked uncertified;
    the verdict then rests on G having an eigenvalue below minus
    certificate_bound(tol) times the norm of G computed in absolute values,
    which rounding cannot reach, and without one it raises IllConditioned. On
    success, implementation guard: a random witness search checks that no
    normalized basis or sampled element has a*a ~ 0. Cached per (tol, seed).
    """
    return _cached(algebra, _check_proper, tol, seed)


def _check_proper(algebra, tol, seed):
    evals, evecs, coords, _ = _cached(algebra, _trace_coordinates, tol)
    passed = coords is not None
    details = {"gram_min_eig": float(evals[0]), "gram_max_eig": float(evals[-1])}
    rng = np.random.default_rng(seed)
    n = algebra.dim
    basis = np.eye(n, dtype=complex)

    if passed:
        samples = np.vstack([basis, [random_element(algebra, rng).coeffs for _ in range(8)]])
        if negligible(np.linalg.norm(_star_squares(algebra, samples, tol)[1], axis=1), tol).any():
            raise InternalInconsistency("positive definite trace form but a*a = 0 witness found")
        return CheckReport("proper", True, 0.0, seed, details=details)

    bad = evecs[:, ~significant(evals, tol)]
    k = bad.shape[1]
    mixes = [bad @ (rng.standard_normal(k) + 1j * rng.standard_normal(k)) for _ in range(32)]
    vs, squares = _star_squares(algebra, np.vstack([basis, bad.T, mixes]), tol)
    rows, scores = [vs], [np.linalg.norm(squares, axis=1)]
    # a in (rad A)^j has a*a in (rad A)^2j, so a radical element's last nonzero star-square is null
    for _ in range(n.bit_length()):
        if np.min(np.concatenate(scores)) <= certificate_bound(tol):
            break
        vs, squares = _star_squares(algebra, squares, tol)
        rows.append(vs)
        scores.append(np.linalg.norm(squares, axis=1))
    vs, scores = np.concatenate(rows), np.concatenate(scores)
    best = int(np.argmin(scores))
    witness = {"element": _coeffs_json(vs[best]), "norm_a_star_a": float(scores[best])}
    if scores[best] > certificate_bound(tol):
        # G in absolute values, |star|^T |F|, bounds how far rounding can move G's eigenvalues
        c = np.abs(algebra._times_basis(basis))
        gram_abs = np.abs(algebra.star).T @ c.reshape(n, -1) @ c.transpose(0, 2, 1).reshape(n, -1).T
        if not -evals[0] > rounding_bound(tol, np.linalg.norm(gram_abs, 2)):
            raise IllConditioned("the trace form is not clearly indefinite, and no witness has a*a = 0",
                                 float(scores[best]))
        witness["certified"] = False
    return CheckReport("proper", False, float(scores[best]), seed, witness=witness, details=details)


def _star_squares(algebra, vs, tol):
    """The rows a of vs with norm above tol, normalised, and a*a for each."""
    vs = vs[~negligible(np.linalg.norm(vs, axis=1), tol)]
    vs = vs / np.linalg.norm(vs, axis=1, keepdims=True)
    return vs, (algebra.left_mat(algebra.star_coeffs(vs)) @ vs[:, :, None])[..., 0]


def quotient_by_radical(algebra, rad_basis, tol=DEFAULT_TOL):
    """A / rad as a StarAlgebra on the orthogonal complement of the radical.

    With u the orthonormal columns spanning that complement, the structure
    constants are u^H (u_i u_j) and the involution u^H star conj(u). It declares
    no unit: its readers find one with unit_vector.
    """
    r = np.stack([x.coeffs for x in rad_basis], axis=1)
    u = nullspace(r.conj().T, tol)
    s = u.conj().T @ algebra.star @ np.conj(u)
    return StarAlgebra(algebra.products(u.T, u.T) @ np.conj(u), s)


def check_hermitian(algebra, tol=DEFAULT_TOL, seed=0):
    """Hermitian iff the quotient by the radical is proper.

    Implementation guard: the spectra of six random selfadjoint elements of
    the quotient must be real exactly when it is proper. They are sampled in
    A / rad, as sigma_A(b) = sigma_{A/rad}(b + rad) and a radical part would
    split a repeated eigenvalue by about eps^(1/m) under rounding; the guard
    is vacuous when rad A = A.
    """
    rad_basis = radical(algebra, tol)
    quotient = None  # A / rad; None when it is the zero algebra, which is vacuously proper
    if len(rad_basis) == algebra.dim:
        inner = CheckReport("proper", True, 0.0, seed)
    else:
        quotient = quotient_by_radical(algebra, rad_basis, tol) if rad_basis else algebra
        inner = check_proper(quotient, tol, seed)

    rng = np.random.default_rng(seed)
    worst_imag = 0.0
    for _ in range(6 if quotient is not None else 0):
        points = spectrum(random_selfadjoint(quotient, rng), tol).points
        worst_imag = max(worst_imag, relative(max(abs(p.imag) for p in points), max(map(abs, points))))
    spectra_real = worst_imag <= certificate_bound(tol)
    passed = inner.passed and spectra_real
    if inner.passed != spectra_real:
        # Theorem-level equivalence; a disagreement means tolerance breakdown
        raise InternalInconsistency(
            f"radical-quotient properness ({inner.passed}) disagrees with "
            f"selfadjoint spectra reality (worst imag {worst_imag:.3e})"
        )
    return CheckReport(
        "hermitian", passed, worst_imag, seed,
        witness=None if passed else {"quotient_check": inner.witness},
        details={"radical_dim": len(rad_basis), "worst_spectrum_imag": worst_imag},
    )


# -- center and central atoms -------------------------------------------------

@dataclass(frozen=True)
class CentralDecomposition:
    """The central atoms z of a C*-algebra and the dimension of each ideal zA.

    ``block_dims`` holds rank L_z, largest first, in the order of ``atoms``.
    In a C*-algebra an atom z is a primitive central projection, so zA is a
    simple C*-algebra, zA = M_k with dimension k^2; zA is commutative exactly
    when k = 1, that is when its dimension is 1.
    """
    atoms: list
    block_dims: list


def center(algebra, tol=DEFAULT_TOL):
    """Orthonormal basis of the center: the common kernel of L_e - R_e over the basis.

    The center lies in the kernel of L_x - R_x for every x, and for two
    random elements x and y, drawn from a fixed generator so that the center
    does not depend on any caller's seed, the common kernel of theirs is the
    center itself unless the pair is degenerate (Murota, Kanno, Kojima and
    Kojima, 2010). That (2n, n) kernel is kept only if every column
    commutes with every basis element within certificate_bound(tol) of the
    size of the products; otherwise the (n^2, n) stack over the whole basis
    decides."""
    rng = np.random.default_rng(0)
    xs = np.array([random_element(algebra, rng).coeffs for _ in range(2)])
    kernel = nullspace(_commutators(algebra, xs), tol)
    if not _central(algebra, kernel.T, tol):
        kernel = nullspace(_commutators(algebra, np.eye(algebra.dim)), tol)
    return [Element(algebra, kernel[:, i]) for i in range(kernel.shape[1])]


def _commutators(algebra, xs):
    """The operators L_x - R_x of the rows x of ``xs``, stacked as one (len(xs) n, n) matrix."""
    return (algebra.left_mat(xs) - algebra.right_mat(xs)).reshape(-1, algebra.dim)


def _central(algebra, zs, tol):
    """Whether every row z of ``zs`` has z e_j = e_j z for every j, within certificate_bound(tol)
    of the largest of those products; a NaN is not central."""
    left, right = algebra.left_mat(zs), algebra.right_mat(zs)  # column j: z e_j, and e_j z
    size = float(np.max(np.linalg.norm([left, right], axis=-2), initial=0.0))
    return bool(np.max(np.linalg.norm(left - right, axis=-2), initial=0.0) <= certificate_bound(tol, size))


def central_atoms(algebra, tol=DEFAULT_TOL, seed=0):
    """Central primitive idempotents by joint refinement of the center.

    Repeatedly splits non-primitive central projections with spectral
    decompositions of random central selfadjoint elements. The atoms'
    coefficient rows and their dimensions are cached per (tol, seed).

    Assumes a C*-algebra, as ``analyze`` calls it only on Baer input: there
    each ideal zA is a full matrix algebra, so its dimension alone tells
    whether it is commutative (see ``CentralDecomposition``).
    """
    rows, dims = _cached(algebra, _central_atoms, tol, seed)
    return CentralDecomposition([Element(algebra, z) for z in rows], list(dims))


def _central_atoms(algebra, tol, seed):
    one = algebra.one(tol)
    zbasis = center(algebra, tol)
    zmat = np.stack([z.coeffs for z in zbasis], axis=1)
    rng = np.random.default_rng(seed)

    def primitive(z):
        # L_z maps the center into itself, so this trace is dim zZ(A)
        trace = np.trace(zmat.conj().T @ z.lmat() @ zmat)
        return _integer_dims(_nearest_integers(trace, abs(trace)), tol) == 1

    def random_central_selfadjoint():
        w = rng.standard_normal(len(zbasis)) + 1j * rng.standard_normal(len(zbasis))
        s = Element(algebra, zmat @ w)
        return 0.5 * (s + s.star())

    try:
        atoms = _split_projections(
            one, primitive, random_central_selfadjoint, 4 * algebra.dim + 8, tol,
            "central-atom refinement did not terminate; retry with a new seed",
        )
    except DecompositionFailed as exc:
        # analyze gets here only on a proper algebra, where every central split
        # has a certified decomposition: a failed one is a conditioning failure
        raise IllConditioned("a central split fails its decomposition certificates", exc.residual) from exc

    bound = certificate_bound(tol)
    require((sum(atoms, algebra.zero()) - one).norm(), bound, InternalInconsistency,
            "central atoms do not sum to the unit")
    zs = np.array([z.coeffs for z in atoms])
    cross = np.linalg.norm(algebra.products(zs, zs), axis=-1)[~np.eye(len(atoms), dtype=bool)]
    require(float(np.max(cross, initial=0.0)), bound, InternalInconsistency,
            "central atoms are not orthogonal")

    dims = _integer_dims(_trace_ranks(algebra, zs), tol).tolist()
    order = np.argsort([-d for d in dims], kind="stable")
    return zs[order], [dims[i] for i in order]


def _split_projections(one, is_atom, draw, tries, tol, failure_message):
    """Refine the projection `one` into a list of atoms.

    Each round takes the first projection p that is not an atom, decomposes
    p x p for a random selfadjoint x = draw(), and replaces p by the spectral
    projections, plus the remainder p - sum when it is a nonzero projection.
    Raises DegenerateRandomness after `tries` rounds. This is the
    random-Hermitian-element splitting of Murota, Kanno, Kojima and Kojima
    (2010).
    """
    atoms = [one]
    for _ in range(tries):
        idx = next((i for i, p in enumerate(atoms) if not is_atom(p)), None)
        if idx is None:
            return atoms
        p = atoms[idx]
        x = p * draw() * p
        if x.norm() <= membership_bound(tol):
            continue
        dec = spectral_decompose(x, tol)
        parts = dec.projections()
        rem = p - dec.projection_sum()
        if rem.norm() > membership_bound(tol):
            if not is_projection(rem, tol):
                continue
            parts.append(rem)
        if len(parts) >= 2:
            atoms = atoms[:idx] + parts + atoms[idx + 1:]
    raise DegenerateRandomness(failure_message)


def abelian_split(algebra, tol=DEFAULT_TOL, seed=0):
    """The unique central projection h with hA commutative, (1-h)A properly non-Abelian.

    Returns ``(h, dim hA)``: h is the sum of the central atoms whose ideal zA
    has dimension 1. The dimension is the rank of left multiplication by h,
    computed apart from the central blocks so that ``analyze``'s dimension
    count cross-checks them.
    """
    dec = central_atoms(algebra, tol, seed)
    h = sum((z for z, dim in zip(dec.atoms, dec.block_dims) if dim == 1), algebra.zero())
    return h, colspace(h.lmat(), tol).shape[1]


# -- matrix units for a simple block ------------------------------------------

def matrix_unit_residual(atom, units):
    """Worst defect of the matrix-unit relations for a candidate system of the corner zA, z = atom."""
    algebra = atom.parent
    n = len(units)
    u = np.array([[x.coeffs for x in row] for row in units])  # [p, q, :]
    flat = u.reshape(n * n, algebra.dim)
    # [p, q, r, s, :] = u_pq u_rs - delta_qr u_ps
    prods = algebra.products(flat, flat).reshape(n, n, n, n, -1)
    prods -= np.eye(n)[:, :, None, None] * u[:, None, None]
    return float(np.max([
        np.max(np.linalg.norm(algebra.star_coeffs(flat).reshape(u.shape) - u.transpose(1, 0, 2), axis=-1)),
        np.max(np.linalg.norm(prods, axis=-1)),
        np.linalg.norm(np.trace(u) - atom.coeffs),
    ]))


def block_star_isomorphism(atom, tol=DEFAULT_TOL, seed=0):
    """Matrix-unit system certifying that the corner zA of a central projection z = atom is M_n.

    Works in A itself; for a simple algebra pass ``alg.one()``. Returns an
    n x n list of elements u[p][q] of A with u[p][q]u[r][s] = delta_qr u[p][s],
    u[p][q]* = u[q][p] and sum u[p][p] = z, together with its certified
    ``matrix_unit_residual``. Raises InternalInconsistency unless
    dim zA = n^2, as for a commutative corner of dimension above 1.

    dim zA = rank L_z is read as tau . z (see ``_trace_ranks``), which must
    lie within certificate_bound of an integer, else IllConditioned.
    """
    (dim,) = _integer_dims(_trace_ranks(atom.parent, atom.coeffs[None]), tol)
    rng = np.random.default_rng(seed)
    reason = None
    for attempt in range(5):
        try:
            return _matrix_units_once(atom, dim, tol, rng)
        except (DegenerateRandomness, DecompositionFailed) as exc:
            reason = str(exc)  # the message only: the exception's traceback holds this frame
    raise DegenerateRandomness(f"matrix-unit construction kept failing: {reason}")


def _integer_dims(rounded, tol):
    """The integers of ``rounded``, ``_nearest_integers``' pair for traces that must be dimensions.

    Raises IllConditioned unless each trace lies within certificate_bound(tol) of its integer."""
    ints, off = rounded
    require(float(np.max(off, initial=0.0)), certificate_bound(tol), IllConditioned,
            "the trace of the projection is not an integer rank")
    return ints


def _matrix_units_once(atom, dim, tol, rng):
    algebra = atom.parent

    def minimal(p):
        # dim pAp = tr(L_p R_p), as L_p R_p is the idempotent x -> p x p onto pAp;
        # a zero-dimensional corner counts as an atom too
        trace = np.trace(p.lmat() @ p.rmat())
        return _integer_dims(_nearest_integers(trace, abs(trace)), tol) <= 1

    # the minimal projections under z, where dim pAp is at most 1
    projections = _split_projections(
        atom, minimal, lambda: random_selfadjoint(algebra, rng), 6 * dim + 16, tol,
        "minimal-projection refinement did not terminate",
    )
    n = len(projections)
    if n * n != dim:
        raise InternalInconsistency(
            f"{n} minimal projections in a block of dimension {dim}; block is not simple"
        )
    if n == 1:
        return [[atom]], matrix_unit_residual(atom, [[atom]])

    e1 = projections[0]
    for _ in range(8):
        b = random_element(algebra, rng)
        xs = [e1 * b * ep for ep in projections]
        if all(x.norm() > membership_bound(tol) for x in xs[1:]):
            break
    else:
        raise DegenerateRandomness("random element kept producing zero corners")

    row = [e1]
    for p in range(1, n):
        x = xs[p]
        s = x.star() * x                      # a positive multiple of e_p
        ep = projections[p]
        t = complex(np.vdot(ep.coeffs, s.coeffs) / np.vdot(ep.coeffs, ep.coeffs))
        if negligible(t.real, tol) or (s - t.real * ep).norm() > membership_bound(tol, abs(t)):
            raise DegenerateRandomness("corner element is not a scalar multiple of the atom")
        row.append((1.0 / np.sqrt(t.real)) * x)

    rows = np.array([x.coeffs for x in row])
    units = [[Element(algebra, v) for v in line] for line in algebra.products(algebra.star_coeffs(rows), rows)]
    worst = matrix_unit_residual(atom, units)
    require(worst, certificate_bound(tol), DecompositionFailed, "matrix-unit relations fail")
    return units, worst


# -- the composite report -----------------------------------------------------

@dataclass(frozen=True)
class StructureReport:
    dim: int
    unital: bool
    proper: bool
    hermitian: bool
    semisimple: bool
    radical_dim: int
    weakly_rickart: bool
    baer: bool
    abelian_projection_h: list | None
    block_sizes_nonabelian: list
    abelian_dim: int
    block_isomorphisms: list
    abelian_atoms: list
    residuals: dict
    witness: dict | None
    tol: float
    seed: int

    def to_dict(self):
        """The fields in order, with ``block_sizes_nonabelian`` under the key ``"blocks"``."""
        return {("blocks" if k == "block_sizes_nonabelian" else k): v for k, v in asdict(self).items()}


def analyze(algebra, tol=DEFAULT_TOL, seed=0):
    """Run every checker and certify the block structure on Baer instances.

    On Baer input ``check_baer``'s guard runs too, raising InternalInconsistency if it disagrees and
    IllConditioned if a pair's join cannot be certified."""
    report = validate(algebra, tol)
    if not report.passed:
        raise ValidationFailed(report)

    unital = algebra.is_unital(tol)
    proper_rep = check_proper(algebra, tol, seed)
    rad = radical(algebra, tol)
    semisimple = not rad
    herm_rep = check_hermitian(algebra, tol, seed)
    wr_rep = check_weakly_rickart(algebra, tol=tol, seed=seed)

    expected = proper_rep.passed
    if (herm_rep.passed and semisimple) != expected or wr_rep.passed != expected:
        raise InternalInconsistency(
            f"equivalence coherence violated: proper={proper_rep.passed} "
            f"hermitian={herm_rep.passed} semisimple={semisimple} "
            f"weakly_rickart={wr_rep.passed}"
        )

    residuals = {
        "associativity_defect": report.associativity_defect,
        "involution_defect": report.involution_defect,
        "gram_min_eig": proper_rep.details.get("gram_min_eig"),
        "weakly_rickart_worst": wr_rep.worst_residual,
    }
    witness = proper_rep.witness

    # unital and weakly Rickart is exactly Baer in finite dimension (see check_baer)
    baer = unital and wr_rep.passed
    h_json = None
    blocks = []
    abelian_dim = 0
    isomorphisms = []
    abelian_atoms = []
    if baer:
        check_baer(algebra, tol, seed)  # its guard raises InternalInconsistency on disagreement
        dec = central_atoms(algebra, tol, seed)
        h, abelian_dim = abelian_split(algebra, tol, seed)
        h_json = _coeffs_json(h.coeffs)
        worst_units = 0.0
        for z, dim in zip(dec.atoms, dec.block_dims):
            if dim == 1:
                abelian_atoms.append(_coeffs_json(z.coeffs))
                continue
            units, residual = block_star_isomorphism(z, tol, seed)
            n = len(units)
            blocks.append(n)
            worst_units = max(worst_units, residual)
            isomorphisms.append({
                "size": n,
                "atom": _coeffs_json(z.coeffs),
                "matrix_units": [[_coeffs_json(x.coeffs) for x in row] for row in units],
            })
        blocks.sort()
        if sum(n * n for n in blocks) + abelian_dim != algebra.dim:
            raise InternalInconsistency(
                f"block dimensions {blocks} + abelian {abelian_dim} != dim {algebra.dim}"
            )
        if any(n < 2 for n in blocks):
            raise InternalInconsistency("non-abelian summand contains a 1x1 block")
        residuals["matrix_unit_worst"] = worst_units

    return StructureReport(
        dim=algebra.dim,
        unital=unital,
        proper=proper_rep.passed,
        hermitian=herm_rep.passed,
        semisimple=semisimple,
        radical_dim=len(rad),
        weakly_rickart=wr_rep.passed,
        baer=baer,
        abelian_projection_h=h_json,
        block_sizes_nonabelian=blocks,
        abelian_dim=abelian_dim,
        block_isomorphisms=isomorphisms,
        abelian_atoms=abelian_atoms,
        residuals=residuals,
        witness=witness,
        tol=tol,
        seed=seed,
    )
