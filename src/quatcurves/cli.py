"""Command line interface.

Three commands: `classify` one set of places, `search` the candidate space for
a field, and `table` the invariants of all instances with given degrees.
Output is text, JSON, or CSV; class numbers can be cached in a plain-text
file.  Exit codes: 0 success, 2 validation error, 3 enumeration bound hit,
4 internal inconsistency (such as a class-number cache that contradicts the
theory).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .curves import ClassNumberCache
from .gf import BoundExceededError, ExtensionField, FiniteField, make_field
from .polyring import Place, parse_poly
from .shimura import (
    RamSet,
    _checked_kappa,
    candidate_degree_multisets,
    classify,
    finiteness_sweep,
    fixed_point_count,
    iter_ramsets,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BOUND = 3
EXIT_INCONSISTENT = 4

TABLE_COLUMNS = ["q", "f_x", "f_y", "g", "fix_x", "fix_y", "fix_xy", "verdict"]


class CommandError(Exception):
    """Validation failure surfaced to the user with a non-zero exit code."""

    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


def _build_field(args) -> FiniteField:
    try:
        field = make_field(args.p, args.e)
    except ValueError as exc:
        raise CommandError(
            f"{exc}; extension fields are requested via --p <prime> --e <degree>"
        ) from None
    return field


def _require_odd(field: FiniteField) -> None:
    if not field.odd_characteristic:
        raise CommandError("odd characteristic required for this command")


def _parse_places(field: FiniteField, text: str) -> tuple[Place, ...]:
    places = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise CommandError("empty place in --places")
        try:
            poly = parse_poly(chunk, field)
        except ValueError as exc:
            raise CommandError(f"invalid polynomial {chunk!r}: {exc}") from None
        if poly.degree < 1 or not poly.is_monic:
            raise CommandError(f"place generator must be monic nonconstant: {chunk!r}")
        try:
            places.append(Place(poly))
        except ValueError:
            raise CommandError(f"place generator is reducible: {chunk!r}") from None
    if len(set(places)) != len(places):
        raise CommandError("duplicate place in --places")
    return tuple(places)


def _parse_kappa(field: FiniteField, text: str | None):
    if text is None:
        return None
    try:
        value = field.parse_element(text)
        return _checked_kappa(field, value)
    except ValueError as exc:
        raise CommandError(f"invalid --kappa: {exc}") from None


def _open_cache(path: str | None) -> ClassNumberCache | None:
    if path is None:
        return None
    cache = ClassNumberCache()
    try:
        cache.load(path)
    except (OSError, ValueError) as exc:
        raise CommandError(f"cannot read cache {path}: {exc}") from None
    return cache


def _save_cache(cache: ClassNumberCache | None, path: str | None) -> None:
    if cache is not None and path is not None:
        cache.save(path)


def _field_summary(field: FiniteField) -> str:
    if isinstance(field, ExtensionField):
        return f"q={field.q} (p={field.p}, e={field.e}, modulus {field.modulus_str()})"
    return f"q={field.q} (p={field.p}, e=1)"


def _print_report_text(report, out) -> None:
    print(f"field: q={report.q} (p={report.p}, e={report.e})", file=out)
    if report.modulus:
        print(f"modulus: {report.modulus}", file=out)
    print(f"kappa: {report.kappa}", file=out)
    placelist = ", ".join(
        f"{gen} (degree {deg})" for gen, deg in zip(report.places, report.degrees)
    )
    print(f"places: {placelist}", file=out)
    print(f"genus: {report.genus}", file=out)
    if report.fixed_points:
        print("fixed points:", file=out)
        for key, count in report.fixed_points:
            print(f"  w[{','.join(key)}] = {count}", file=out)
    print(f"aut equals involution group: {'yes' if report.aut_is_atkin_lehner else 'no'}", file=out)
    verdict = f"verdict: {report.verdict} ({report.reason})"
    if report.canonical_key is not None:
        verdict += f", canonical key w[{','.join(report.canonical_key)}]"
    print(verdict, file=out)


def _csv_row(report, ramset, kappa, cache) -> list:
    """One TABLE_COLUMNS row of a two-place report.  The fixed-point columns
    are filled even when classify short-circuited on low genus."""
    fix = report.fix_table() or {
        tuple(str(pl) for pl in key.places): fixed_point_count(ramset, key, kappa, cache)
        for key in ramset.keys()
    }
    x, y = report.places
    return [
        report.q,
        x,
        y,
        report.genus,
        fix.get((x,), ""),
        fix.get((y,), ""),
        fix.get((x, y), ""),
        report.verdict,
    ]


def _emit_csv(rows, out) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TABLE_COLUMNS)
    writer.writerows(rows)
    out.write(buf.getvalue())


def cmd_classify(args) -> int:
    field = _build_field(args)
    _require_odd(field)
    if not args.places:
        raise CommandError("--places is required")
    places = _parse_places(field, args.places)
    try:
        ramset = RamSet(places)
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    kappa = _parse_kappa(field, args.kappa)
    cache = _open_cache(args.cache)
    report = classify(ramset, kappa=kappa, cache=cache)
    _save_cache(cache, args.cache)
    out = sys.stdout
    if args.format == "json":
        print(report.to_json(), file=out)
    elif args.format == "csv":
        if len(report.places) != 2:
            raise CommandError("csv output is defined for two-place sets")
        _emit_csv([_csv_row(report, ramset, kappa, cache)], out)
    else:
        _print_report_text(report, out)
    return EXIT_OK


def cmd_search(args) -> int:
    field = _build_field(args)
    if args.max_degree is None or args.max_degree < 1:
        raise CommandError("--max-degree is required and must be at least 1")
    out = sys.stdout
    if not field.odd_characteristic:
        passing = finiteness_sweep(field, args.max_degree)
        if args.format == "json":
            payload = {
                "q": field.q,
                "max_degree": args.max_degree,
                "passing_degree_multisets": [list(m) for m in passing],
                "note": "not classified (even characteristic)",
            }
            print(json.dumps(payload, indent=2), file=out)
        else:
            print(f"bound-passing degree multisets over {_field_summary(field)}:", file=out)
            for d1, d2 in passing:
                print(f"  {{{d1},{d2}}}  not classified (even characteristic)", file=out)
        return EXIT_OK

    kappa = _parse_kappa(field, args.kappa)
    cache = _open_cache(args.cache)
    candidates = [m for m in candidate_degree_multisets(field) if m[1] <= args.max_degree]
    ramsets = [r for d1, d2 in candidates for r in iter_ramsets(field, d1, d2)]
    reports = [classify(r, kappa=kappa, cache=cache) for r in ramsets]
    _save_cache(cache, args.cache)
    if args.format == "json":
        payload = {
            "q": field.q,
            "max_degree": args.max_degree,
            "candidate_degree_multisets": [list(m) for m in candidates],
            "reports": [r.to_dict() for r in reports],
        }
        print(json.dumps(payload, indent=2), file=out)
    elif args.format == "csv":
        rows = [_csv_row(report, r, kappa, cache) for r, report in zip(ramsets, reports)]
        _emit_csv(rows, out)
    else:
        print(f"candidate degree multisets over {_field_summary(field)}:", file=out)
        for d1, d2 in candidates:
            print(f"  {{{d1},{d2}}}", file=out)
        print("instances:", file=out)
        for report in reports:
            label = ", ".join(report.places)
            print(f"  {label}: genus {report.genus}, {report.verdict} ({report.reason})", file=out)
    return EXIT_OK


def cmd_table(args) -> int:
    field = _build_field(args)
    _require_odd(field)
    if not args.degrees:
        raise CommandError("--degrees is required, e.g. --degrees 1,2")
    try:
        degrees = tuple(int(part) for part in args.degrees.split(","))
    except ValueError:
        raise CommandError(f"cannot parse --degrees {args.degrees!r}") from None
    if len(degrees) != 2 or min(degrees) < 1:
        raise CommandError("--degrees takes exactly two positive integers")
    kappa = _parse_kappa(field, args.kappa)
    cache = _open_cache(args.cache)
    rows = [
        _csv_row(classify(r, kappa=kappa, cache=cache), r, kappa, cache)
        for r in iter_ramsets(field, *degrees)
    ]
    _save_cache(cache, args.cache)
    out = sys.stdout
    if args.format == "json":
        payload = [dict(zip(TABLE_COLUMNS, row)) for row in rows]
        print(json.dumps(payload, indent=2), file=out)
    elif args.format == "csv":
        _emit_csv(rows, out)
    else:
        widths = [
            max(len(str(col)), *(len(str(row[i])) for row in rows)) if rows else len(col)
            for i, col in enumerate(TABLE_COLUMNS)
        ]
        print("  ".join(col.ljust(w) for col, w in zip(TABLE_COLUMNS, widths)), file=out)
        for row in rows:
            print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)), file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatcurves",
        description="Genus, fixed-point, and hyperellipticity invariants of "
        "quaternionic modular curves over F_q(T).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
        p.add_argument("--e", type=int, default=1, help="extension degree (default 1)")
        p.add_argument(
            "--format", choices=["text", "json", "csv"], default="text", help="output format"
        )
        p.add_argument("--cache", default=None, help="class-number cache file")
        p.add_argument("--kappa", default=None, help="override the canonical non-square")

    p_classify = sub.add_parser("classify", help="classify one set of places")
    common(p_classify)
    p_classify.add_argument("--places", required=True, help="comma-separated monic irreducibles")
    p_classify.set_defaults(func=cmd_classify)

    p_search = sub.add_parser("search", help="sweep candidate degree multisets")
    common(p_search)
    p_search.add_argument("--max-degree", type=int, required=True, help="degree bound")
    p_search.set_defaults(func=cmd_search)

    p_table = sub.add_parser("table", help="tabulate all instances with given degrees")
    common(p_table)
    p_table.add_argument("--degrees", required=True, help="two degrees, e.g. 1,2")
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own usage message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
