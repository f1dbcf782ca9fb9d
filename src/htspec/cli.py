"""Command-line front end.

Verbs: gen, matchpoly, subtrees, spectrum, radius, ispower, cyclotomic,
eigvec, roots-csv, check-paper.  Hypergraphs travel as canonical JSON
(``{"k":, "n":, "edges": [[...], ...]}``); parsers canonicalize unsorted
input, writers always emit canonical form.

Exit codes: 0 success, 2 validation failure (the message names the
violated invariant), 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from pathlib import Path

from . import core, fixtures, matching, spectra, subtrees
from .errors import ConvergenceError, MismatchReport, ValidationError

_GEN_USAGE = (
    "generator spec: comb K | path T K | star T K | random M K | "
    "power K <spec>"
)


def _read_hypergraph(path: str) -> core.UniformHypergraph:
    if path == "-":
        text = sys.stdin.read()
    else:
        p = Path(path)
        if not p.exists():
            raise ValidationError(f"no such file: {path}")
        text = p.read_text()
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
                    "alpha_coeffs": matching.poly_to_json(phi)["alpha_coeffs"],
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


def _spectrum_of(args) -> spectra.SpectrumSet:
    H = _read_hypergraph(args.input)
    return spectra.set_spectrum(
        H,
        tol=args.tol,
        root_tol=args.root_tol,
        seed=args.seed,
        max_subsets=args.max_subsets,
    )


def _print_spectrum_csv(spectrum: spectra.SpectrumSet) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for row in spectrum.csv_rows():
        writer.writerow(row)


def _cmd_spectrum(args) -> int:
    spectrum = _spectrum_of(args)
    if args.csv:
        args.format = "csv"
    if args.format == "csv":
        _print_spectrum_csv(spectrum)
    elif args.format == "json":
        print(json.dumps(spectrum.to_json_dict()))
    else:
        print(f"{len(spectrum.values)} spectrum values (tol {spectrum.tol:g})")
        for v, s in zip(spectrum.values, spectrum.sources):
            origin = f"  from {matching.alpha_str(s.poly)}" if s else ""
            print(f"  {v.real:+.12f} {v.imag:+.12f}i{origin}")
    return 0


def _cmd_roots_csv(args) -> int:
    _print_spectrum_csv(_spectrum_of(args))
    return 0


def _cmd_radius(args) -> int:
    H = _read_hypergraph(args.input)
    rho = spectra.spectral_radius(H, root_tol=args.root_tol, seed=args.seed)
    if args.format == "json":
        print(json.dumps({"spectral_radius": rho}))
    else:
        print(repr(rho))
    return 0


def _cmd_ispower(args) -> int:
    H = _read_hypergraph(args.input)
    structural = core.is_power_tree(H)
    spectral = spectra.is_cyclotomic_spectrum(
        H,
        tol=args.tol,
        root_tol=args.root_tol,
        seed=args.seed,
        max_subsets=args.max_subsets,
    )
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
    verdict = spectra.is_cyclotomic_spectrum(
        H,
        tol=args.tol,
        root_tol=args.root_tol,
        seed=args.seed,
        max_subsets=args.max_subsets,
    )
    if args.format == "json":
        print(json.dumps({"cyclotomic_spectrum": verdict}))
    else:
        print(str(verdict).lower())
    return 0


def _cmd_eigvec(args) -> int:
    H = _read_hypergraph(args.input)
    if args.lam is not None:
        try:
            re_s, im_s = args.lam.split(",")
            lam = complex(float(re_s), float(im_s))
        except ValueError:
            raise ValidationError(
                "--lam expects 're,im', e.g. --lam '1.2599,0'"
            ) from None
    else:
        phi = matching.matching_polynomial(H)
        roots = spectra.alpha_roots(phi, args.root_tol, args.seed)
        idx = args.alpha_index
        if idx is None:
            reals = [i for i, (z, _) in enumerate(roots) if z.imag == 0.0]
            if not reals:
                raise ValidationError(
                    "no real alpha root; pick one with --alpha-index"
                )
            idx = max(reals, key=lambda i: roots[i][0].real)
        if idx < 0 or idx >= len(roots):
            raise ValidationError(
                f"--alpha-index {idx} outside 0..{len(roots) - 1}"
            )
        alpha = roots[idx][0]
        branches = spectra.lift_to_x(alpha, H.k)
        if args.branch < 0 or args.branch >= H.k:
            raise ValidationError(f"--branch must be in 0..{H.k - 1}")
        lam = branches[args.branch]
    pair = spectra.find_totally_nonzero_eigenvector(
        H, lam, tol=args.tol, seed=args.seed
    )
    payload = {
        "lambda": {"re": pair.lam.real, "im": pair.lam.imag},
        "residual": pair.residual,
        "totally_nonzero": pair.totally_nonzero,
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
    results = []
    ok_all = True
    for name in fixtures.FIXTURE_NAMES:
        f = fixtures.fixture(name)
        degree_ok = fixtures.degree_check(f)
        try:
            report = fixtures.spectrum_crosscheck(
                name, tol=args.tol, root_tol=args.root_tol, seed=args.seed
            )
            bases_ok = spectrum_ok = True
            detail = (
                f"{len(report.bases)} bases, "
                f"{report.spectrum_size} spectrum values, "
                f"max deviation {report.max_root_deviation:.2e}"
            )
        except MismatchReport as exc:
            bases_ok = spectrum_ok = False
            detail = str(exc)
        probe = fixtures.divisibility_probe(name)
        divides_ok = probe.all_divide()
        ok = degree_ok and bases_ok and spectrum_ok and divides_ok
        ok_all = ok_all and ok
        results.append(
            {
                "fixture": name,
                "degree_check": degree_ok,
                "factor_bases": bases_ok,
                "spectrum_set": spectrum_ok,
                "divisibility": divides_ok,
                "multiplicities": {
                    row.poly_x: row.observed_multiplicity for row in probe.rows
                },
                "detail": detail,
            }
        )
    if args.format == "json":
        print(json.dumps({"ok": ok_all, "fixtures": results}))
    else:
        print("fixture  degree  bases  spectrum  divisibility")
        for r in results:
            flags = [
                "pass" if r[key] else "FAIL"
                for key in (
                    "degree_check",
                    "factor_bases",
                    "spectrum_set",
                    "divisibility",
                )
            ]
            print(
                f"{r['fixture']:<8} {flags[0]:<7} {flags[1]:<6} "
                f"{flags[2]:<9} {flags[3]}"
            )
            print(f"         {r['detail']}")
    return 0 if ok_all else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htspec",
        description=(
            "Set spectra of k-uniform hypertrees via matching polynomials "
            "of connected induced subtrees."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol",
        type=float,
        default=spectra.DEFAULT_SET_TOL,
        help="set membership / dedup tolerance (default 1e-8)",
    )
    common.add_argument(
        "--root-tol",
        type=float,
        default=spectra.DEFAULT_ROOT_TOL,
        help="polynomial root residual target (default 1e-12)",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=spectra.DEFAULT_SEED,
        help="PRNG seed for root-finder starts and random generation",
    )
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (csv applies to spectrum output)",
    )
    common.add_argument(
        "--max-subsets",
        type=int,
        default=subtrees.DEFAULT_MAX_SUBSETS,
        help="cap on enumerated connected edge subsets",
    )

    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", parents=[common], help="emit a generated hypertree")
    p.add_argument("spec", nargs="+", help=_GEN_USAGE)
    p.set_defaults(handler=_cmd_gen)

    for verb, handler, desc in (
        ("matchpoly", _cmd_matchpoly, "matching polynomial (x form)"),
        ("subtrees", _cmd_subtrees, "connected induced subtree catalog"),
        ("spectrum", _cmd_spectrum, "eigenvalue set"),
        ("radius", _cmd_radius, "spectral radius"),
        ("ispower", _cmd_ispower, "structural and spectral power-tree tests"),
        ("cyclotomic", _cmd_cyclotomic, "is every eigenvalue^k real?"),
        ("eigvec", _cmd_eigvec, "totally nonzero eigenvector"),
        ("roots-csv", _cmd_roots_csv, "spectrum as CSV scatter data"),
    ):
        p = sub.add_parser(verb, parents=[common], help=desc)
        p.add_argument("input", help="hypergraph JSON file, or - for stdin")
        if verb == "spectrum":
            p.add_argument(
                "--csv",
                action="store_true",
                help="shorthand for --format csv",
            )
        if verb == "eigvec":
            p.add_argument(
                "--lam",
                default=None,
                help="eigenvalue as 're,im' (default: from --alpha-index)",
            )
            p.add_argument(
                "--alpha-index",
                type=int,
                default=None,
                help="index into the sorted alpha roots of the matching "
                "polynomial (default: largest real root)",
            )
            p.add_argument(
                "--branch",
                type=int,
                default=0,
                help="which k-th root lift to use (0..k-1)",
            )
        p.set_defaults(handler=handler)

    p = sub.add_parser(
        "check-paper",
        parents=[common],
        help="validate built-in reference factorizations (H1, H2, H3)",
    )
    p.set_defaults(handler=_cmd_check_paper)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
