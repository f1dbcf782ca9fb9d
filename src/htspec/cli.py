"""Command-line front end.

Verbs: gen, matchpoly, subtrees, spectrum, radius, ispower, cyclotomic,
eigvec, check-paper.  Hypergraphs travel as canonical JSON
(``{"k":, "n":, "edges": [[...], ...]}``); parsers canonicalize unsorted
input, writers always emit canonical form.

Exit codes: 0 success, 2 validation failure (the message names the
violated invariant), 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

from . import core, fixtures, matching, spectra, subtrees
from .errors import ConvergenceError, ValidationError

_GEN_USAGE = (
    "generator spec: comb K | path T K | star T K | random M K | "
    "power K <spec>"
)


def _read_hypergraph(path: str) -> core.UniformHypergraph:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValidationError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    return core.loads(text)


def _parse_gen(tokens: list[str], seed: int):
    if not tokens:
        raise ValidationError(_GEN_USAGE)
    kind, rest = tokens[0], tokens[1:]

    def take_ints(count: int):
        if len(rest) < count:
            raise ValidationError(_GEN_USAGE)
        try:
            return [int(t) for t in rest[:count]], rest[count:]
        except ValueError:
            raise ValidationError(_GEN_USAGE) from None

    if kind == "comb":
        (k,), rest = take_ints(1)
        return core.comb(k), rest
    if kind == "path":
        (t, k), rest = take_ints(2)
        return core.loose_path(t, k), rest
    if kind == "star":
        (t, k), rest = take_ints(2)
        return core.star(t, k), rest
    if kind == "random":
        (m, k), rest = take_ints(2)
        import random

        return core.random_hypertree(m, k, random.Random(seed)), rest
    if kind == "power":
        (k,), rest = take_ints(1)
        base, rest = _parse_gen(rest, seed)
        return core.power(base, k), rest
    raise ValidationError(f"unknown generator {kind!r}; {_GEN_USAGE}")


def _cmd_gen(args) -> int:
    H, rest = _parse_gen(args.spec, args.seed)
    if rest:
        raise ValidationError(f"trailing generator tokens {rest}; {_GEN_USAGE}")
    print(core.dumps(H))
    return 0


def _cmd_matchpoly(args) -> int:
    H = _read_hypergraph(args.input)
    counts = matching.matching_counts_tree(H)
    phi = matching.to_alpha_poly(counts)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "counts": [str(c) for c in counts.counts],
                    "alpha_coeffs": matching.poly_to_json(phi),
                    "alpha": matching.alpha_str(phi),
                    "x": matching.x_str(phi, H.k),
                }
            )
        )
    else:
        print(matching.x_str(phi, H.k))
    return 0


def _cmd_subtrees(args) -> int:
    H = _read_hypergraph(args.input)
    catalog = subtrees.distinct_matching_polynomials(H, args.max_subsets)
    if args.format == "json":
        print(json.dumps(catalog.to_json_dict()))
    else:
        print(f"{len(catalog.subsets)} connected edge subsets, "
              f"{len(catalog.polys)} distinct matching polynomials")
        counts = Counter(catalog.poly_of_subset)
        for i, phi in enumerate(catalog.polys):
            print(f"  {matching.alpha_str(phi)}   [{counts[i]} subtree(s)]")
    return 0


def _cmd_spectrum(args) -> int:
    H = _read_hypergraph(args.input)
    spectrum = spectra.set_spectrum(H, tol=args.tol, max_subsets=args.max_subsets)
    if args.format == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(spectrum.csv_rows())
    elif args.format == "json":
        print(json.dumps(spectrum.to_json_dict()))
    else:
        print(f"{len(spectrum.values)} spectrum values (tol {spectrum.tol:g})")
        for v, s in zip(spectrum.values, spectrum.sources):
            origin = f"  from {matching.alpha_str(s.poly)}" if s else ""
            print(f"  {v.real:+.12f} {v.imag:+.12f}i{origin}")
    return 0


def _cmd_radius(args) -> int:
    H = _read_hypergraph(args.input)
    rho = spectra.spectral_radius(H)
    if args.format == "json":
        print(json.dumps({"spectral_radius": rho}))
    else:
        print(repr(rho))
    return 0


def _cmd_ispower(args) -> int:
    H = _read_hypergraph(args.input)
    structural = core.is_power_tree(H)
    spectral = spectra.is_cyclotomic_spectrum(H, args.max_subsets)
    agreement = structural == spectral
    if args.format == "json":
        print(
            json.dumps(
                {
                    "structural_power_tree": structural,
                    "cyclotomic_spectrum": spectral,
                    "agreement": agreement,
                }
            )
        )
    else:
        print(f"structural power tree: {str(structural).lower()}")
        print(f"cyclotomic spectrum:   {str(spectral).lower()}")
        print(f"agreement:             {str(agreement).lower()}")
    return 0


def _cmd_cyclotomic(args) -> int:
    H = _read_hypergraph(args.input)
    verdict = spectra.is_cyclotomic_spectrum(H, args.max_subsets)
    if args.format == "json":
        print(json.dumps({"cyclotomic_spectrum": verdict}))
    else:
        print(str(verdict).lower())
    return 0


def _cmd_eigvec(args) -> int:
    H = _read_hypergraph(args.input)
    branch = args.branch or 0
    if args.lam is not None:
        if args.alpha_index is not None or args.branch is not None:
            flag = "--branch" if args.alpha_index is None else "--alpha-index"
            raise ValidationError(f"--lam cannot be given with {flag}")
        try:
            re_s, im_s = args.lam.split(",")
            lifts = [complex(float(re_s), float(im_s))]
        except ValueError:
            raise ValidationError(
                "--lam expects 're,im', e.g. --lam=-0.63,1.09"
            ) from None
    elif branch < 0 or branch >= H.k:
        raise ValidationError(f"--branch must be in 0..{H.k - 1}")
    elif args.alpha_index is None:
        rho = spectra.spectral_radius(H)
        lifts = [rho * cmath.exp(1j * (2 * cmath.pi * j) / H.k) for j in range(H.k)]
    else:
        phi = matching.matching_polynomial(H)
        roots = spectra.alpha_roots(phi)
        idx = args.alpha_index
        if not roots:
            raise ValidationError("the matching polynomial has no alpha roots")
        if idx < 0 or idx >= len(roots):
            raise ValidationError(f"--alpha-index {idx} outside 0..{len(roots) - 1}")
        lifts = spectra.lift_to_x(roots[idx][0], H.k)
    # the other branches are rotated from branch 0: see rotate_eigenpair
    pair = spectra.find_totally_nonzero_eigenvector(H, lifts[0], tol=args.tol)
    if branch:
        pair = spectra.rotate_eigenpair(H, pair, lifts[branch], tol=args.tol)
    payload = {
        "lambda": {"re": pair.lam.real, "im": pair.lam.imag},
        "residual": pair.residual,
        # both eigenvector calls raise unless every entry exceeds tol
        "totally_nonzero": True,
        "x": [{"re": v.real, "im": v.imag} for v in pair.x],
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(f"lambda = {pair.lam.real:+.12f} {pair.lam.imag:+.12f}i, "
              f"residual = {pair.residual:.3e}")
        for j, v in enumerate(pair.x, start=1):
            print(f"  x_{j} = {v.real:+.12f} {v.imag:+.12f}i")
    return 0


def _cmd_check_paper(args) -> int:
    reports = [
        fixtures.spectrum_crosscheck(name, tol=args.tol)
        for name in fixtures.FIXTURE_NAMES
    ]
    ok = all(r.ok for r in reports)
    if args.format == "json":
        fixture_dicts = [
            {
                "fixture": r.name,
                "degree_check": r.degree_ok,
                "factor_bases": r.bases_ok,
                "spectrum_set": r.spectrum_ok,
                "divisibility": r.divides_ok,
                "multiplicities": r.multiplicities,
                "detail": r.detail,
            }
            for r in reports
        ]
        print(json.dumps({"ok": ok, "fixtures": fixture_dicts}))
    else:
        print("fixture  degree  bases  spectrum  divisibility")
        for r in reports:
            flags = [
                "pass" if flag else "FAIL"
                for flag in (r.degree_ok, r.bases_ok, r.spectrum_ok, r.divides_ok)
            ]
            print(
                f"{r.name:<8} {flags[0]:<7} {flags[1]:<6} "
                f"{flags[2]:<9} {flags[3]}"
            )
            print(f"         {r.detail}")
    return 0 if ok else 2


def _count(text: str) -> int:
    """argparse type of --max-subsets: an integer >= 1."""
    if text.isdecimal() and int(text) >= 1:
        return int(text)
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite number > 0, got {text!r}"
        )
    return value


# The common flags each verb reads; any other common flag exits 2.  Only
# spectrum prints CSV, so only its --format offers csv.
_VERB_FLAGS = {
    "gen": "--seed",
    "matchpoly": "--format",
    "subtrees": "--format --max-subsets",
    "spectrum": "--tol --format --max-subsets",
    "radius": "--format",
    "ispower": "--format --max-subsets",
    "cyclotomic": "--format --max-subsets",
    "eigvec": "--tol --format",
    "check-paper": "--tol --format",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htspec",
        description=(
            "Set spectra of k-uniform hypertrees via matching polynomials "
            "of connected induced subtrees."
        ),
    )
    common = {
        "--tol": dict(
            type=_tolerance,
            default=spectra.DEFAULT_SET_TOL,
            help=(
                "set membership and dedup (spectrum); residual and entry "
                "bound (eigvec, check-paper); default 1e-8"
            ),
        ),
        "--seed": dict(
            type=int,
            default=spectra.DEFAULT_SEED,
            help="PRNG seed of the random generator",
        ),
        "--format": dict(
            choices=("text", "json"), default="text", help="output format"
        ),
        "--max-subsets": dict(
            type=_count,
            default=subtrees.DEFAULT_MAX_SUBSETS,
            help="cap on connected edge subsets (subtrees) or on distinct "
            "subtree DP states (spectrum, cyclotomic, ispower)",
        ),
    }
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_verb(verb, handler, desc):
        p = sub.add_parser(verb, help=desc)
        for flag in _VERB_FLAGS[verb].split():
            spec = common[flag]
            if flag == "--format" and verb == "spectrum":
                spec = dict(spec, choices=("text", "json", "csv"))
            p.add_argument(flag, **spec)
        p.set_defaults(handler=handler)
        return p

    p = add_verb("gen", _cmd_gen, "emit a generated hypertree")
    p.add_argument("spec", nargs="+", help=_GEN_USAGE)

    for verb, handler, desc in (
        ("matchpoly", _cmd_matchpoly, "matching polynomial (x form)"),
        ("subtrees", _cmd_subtrees, "connected induced subtree catalog"),
        ("spectrum", _cmd_spectrum, "eigenvalue set"),
        ("radius", _cmd_radius, "spectral radius"),
        ("ispower", _cmd_ispower, "structural and spectral power-tree tests"),
        ("cyclotomic", _cmd_cyclotomic, "is every eigenvalue^k real?"),
        ("eigvec", _cmd_eigvec, "totally nonzero eigenvector"),
    ):
        p = add_verb(verb, handler, desc)
        p.add_argument("input", help="hypergraph JSON file, or - for stdin")
        if verb == "eigvec":
            p.add_argument(
                "--lam",
                default=None,
                metavar="RE,IM",
                help="eigenvalue, written --lam=RE,IM so that a negative RE "
                "is not read as a flag (default: the spectral radius)",
            )
            p.add_argument(
                "--alpha-index",
                type=int,
                default=None,
                help="index into the sorted alpha roots of the matching "
                "polynomial",
            )
            p.add_argument(
                "--branch",
                type=int,
                default=None,
                help="which k-th root lift to use (0..k-1, default 0)",
            )

    add_verb(
        "check-paper",
        _cmd_check_paper,
        "validate built-in reference factorizations (H1, H2, H3)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early.  Point the descriptor at devnull
        # so that the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
