"""Command-line front end: load algebras/groups, run analyses, emit reports.

Exit codes: 0 coherent report, 1 file/parse error, input too large to
allocate, or a result that cannot be certified (such as IllConditioned, which
check --property regular|sqrt raises for a sample it cannot certify on a proper
algebra, a C*-algebra), 2 validation failure or a failed check, 3 internal
inconsistency among checks that must agree (so check --property baer exits 3,
not 2, when its guard fails).
"""

import argparse
import json
import sys

import numpy as np

from .core import DEFAULT_TOL, _coeffs_json, algebra_from_json, algebra_to_json, random_element, validate
from .errors import (DecompositionFailed, IllConditioned, InternalInconsistency, NotPositive, StarAlgError,
                     ValidationFailed)
from .groups import certify_group_theorem, group_from_json
from .linalg import relative, sampled_identity_bound
from .rickart import CheckReport, check_baer, check_weakly_rickart
from .spectral import positive_sqrt, quasi_inverse, spectral_decompose
from .stepfns import FiniteSubsets, export_finite_backend
from .structure import analyze, check_proper


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileError(f"cannot read {path}: {exc}") from exc


class FileError(Exception):
    pass


def _parse_element(algebra, text):
    coeffs = []
    for p in text.replace(";", " ").split():
        try:
            re, im = p.split(",")
            coeffs.append(complex(float(re), float(im)))
        except ValueError as exc:
            raise FileError(f"bad coefficient {p!r}, expected 're,im'") from exc
    if len(coeffs) != algebra.dim:
        raise FileError(f"element has {len(coeffs)} coefficients, algebra dim is {algebra.dim}")
    return algebra.element(coeffs)


def cmd_validate(args):
    algebra = algebra_from_json(_load_json(args.file))
    report = validate(algebra, args.tol)
    return (0 if report.passed else 2), report.to_dict(), (
        f"validation {'passed' if report.passed else 'FAILED'}: "
        f"assoc defect {report.associativity_defect:.2e}, "
        f"involution defect {report.involution_defect:.2e}"
    )


def cmd_analyze(args):
    algebra = algebra_from_json(_load_json(args.file))
    report = analyze(algebra, tol=args.tol, seed=args.seed)
    text = (
        f"dim {report.dim}: proper={report.proper} hermitian={report.hermitian} "
        f"semisimple={report.semisimple} weakly_rickart={report.weakly_rickart} "
        f"baer={report.baer}"
    )
    if report.baer:
        text += f"\nblocks {report.block_sizes_nonabelian}, abelian_dim {report.abelian_dim}"
    return 0, report.to_dict(), text


def cmd_group(args):
    group = group_from_json(_load_json(args.file))
    report = certify_group_theorem(group, tol=args.tol, seed=args.seed)
    degrees = sorted([1] * report.abelian_dim + report.block_sizes_nonabelian)
    text = (
        f"|G| = {group.order}, conjugacy classes {group.conjugacy_class_count()}, "
        f"irreducible degrees {degrees}"
    )
    return 0, report.to_dict(), text


def cmd_spectral(args):
    algebra = algebra_from_json(_load_json(args.file))
    element = _parse_element(algebra, args.element)
    dec = spectral_decompose(element, args.tol)
    payload = {
        "terms": [
            {"eigenvalue": _coeffs_json([lam])[0], "projection": _coeffs_json(p.coeffs)}
            for lam, p in dec.terms
        ]
    }
    lams = ", ".join(f"{lam:.6g}" for lam, _ in dec.terms)
    return 0, payload, f"{len(dec.terms)} spectral terms; eigenvalues: {lams or 'none'}"


def _identity_residual(prop, a, tol):
    """Relative residual of axa = a, xax = x (regular) or y^2 = a*a (sqrt) at one sample a."""
    if prop == "regular":
        x = quasi_inverse(a, tol)
        return max(relative((a * x * a - a).norm(), a.norm()), relative((x * a * x - x).norm(), x.norm()))
    x = a.star() * a
    y = positive_sqrt(x, tol)
    return relative((y * y - x).norm(), x.norm())


def _sampled_identity_check(prop, algebra, tol, seed):
    """The identity of ``prop`` at 16 random samples; a sample whose construction fails ends the check.

    A proper algebra is a C*-algebra, in which every element is regular and every a*a has a positive
    root. There a failed construction or a residual over the bound is a conditioning failure, so it
    raises IllConditioned; only an algebra that ``check_proper`` refuses gets a failed report."""
    rng = np.random.default_rng(seed)
    name = "regular" if prop == "regular" else "positive_sqrt"
    residuals = []
    for _ in range(16):
        a = random_element(algebra, rng)
        try:
            residuals.append(_identity_residual(prop, a, tol))
        except (DecompositionFailed, NotPositive) as exc:
            if check_proper(algebra, tol, seed).passed:
                raise IllConditioned(f"the {name} construction fails on a C*-algebra: {exc}") from exc
            return CheckReport(name, False, float("inf"), seed,
                               witness={"element": _coeffs_json(a.coeffs), "reason": str(exc)})
    worst = max(residuals)
    bound = sampled_identity_bound(tol)
    if not worst <= bound and check_proper(algebra, tol, seed).passed:
        raise IllConditioned(f"the {name} identity misses its bound on a C*-algebra", worst)
    return CheckReport(name, worst <= bound, worst, seed, details={"bound": bound})


def cmd_check(args):
    algebra = algebra_from_json(_load_json(args.file))
    tol, seed = args.tol, args.seed
    if args.property == "rp":
        report = check_weakly_rickart(algebra, tol=tol, seed=seed)
    elif args.property == "baer":
        report = check_baer(algebra, tol=tol, seed=seed)
    else:  # argparse admits only "regular" and "sqrt" here
        report = _sampled_identity_check(args.property, algebra, tol, seed)
    return (0 if report.passed else 2), report.to_dict(), (
        f"{report.property_name}: {'pass' if report.passed else 'FAIL'} "
        f"(worst residual {report.worst_residual:.2e})"
    )


def cmd_export_commutative(args):
    algebra = export_finite_backend(FiniteSubsets(args.points))
    payload = algebra_to_json(algebra, args.tol)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
        return 0, {"written": args.out}, f"wrote {args.out}"
    return 0, payload, f"commutative algebra on {args.points} points"


def build_parser():
    parser = argparse.ArgumentParser(prog="staralg", description=__doc__)
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", choices=["json", "text"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the *-algebra axioms of an algebra file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("analyze", help="full structure report for an algebra file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("group", help="build C[G] from a group file and certify it")
    p.add_argument("file")
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("spectral", help="spectral decomposition of one element")
    p.add_argument("file")
    p.add_argument("--element", required=True, help="coefficients as 're,im re,im ...'")
    p.set_defaults(fn=cmd_spectral)

    p = sub.add_parser("check", help="run a single property check")
    p.add_argument("file")
    p.add_argument("--property", required=True, choices=["rp", "baer", "regular", "sqrt"])
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("export-commutative", help="export the finite step-function algebra")
    p.add_argument("points", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_export_commutative)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if not (np.isfinite(args.tol) and args.tol > 0):
            raise FileError("--tol must be a positive finite number")
        if args.seed < 0:
            raise FileError("--seed must be non-negative")
        code, payload, text = args.fn(args)
    except ValidationFailed as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except (FileError, StarAlgError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)  # a MemoryError often has no message
        return 1
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
