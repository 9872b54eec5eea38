"""Command-line front end: profiles, member tables, queries, presets, verification.

Exit codes are a stable scripting contract:

* 0  success, all queried members present, or full oracle agreement
* 1  semantic negative: a non-member, or an oracle disagreement
* 2  invalid input (bad parameters, malformed CSV rows, cap refusals)
* 3  arithmetic overflow under an explicit --bit-limit
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from typing import Sequence

from . import __version__
from .core import InvalidParamsError, OverflowLimitError, Params, bit_limit
from .oracle import MAX_ORACLE_BOUND, check_agreement, default_bound
from .semigroup import (
    DEFAULT_GAPS_CAP,
    SemigroupProfile,
    apery_element,
    class_index,
    frobenius,
    gaps,
    genus,
    least_by_residue,
    members_below,
    profile,
)

MODE_CLOSED_FORM = "closed-form"
MODE_VERIFIED = "verified-against-oracle"


@dataclass(frozen=True)
class Report:
    """One semigroup's invariants bound to its parameters, ready to serialize."""

    params: Params
    profile: SemigroupProfile
    gaps: tuple[int, ...] | None = None
    members_limit: int | None = None
    members: tuple[int, ...] | None = None
    mode: str = MODE_CLOSED_FORM

    def to_dict(self) -> dict:
        prof = self.profile
        doc = {
            "a": self.params.a,
            "b": self.params.b,
            "c": self.params.c,
            "k_tilde": prof.k_tilde,
            "embedding_dimension": prof.embedding_dimension,
            "minimal_generators": list(prof.minimal_generators),
            "apery_set": list(prof.apery),
            "frobenius": prof.frobenius,
            "genus": prof.genus,
            "conductor": prof.conductor,
        }
        if self.gaps is not None:
            doc["gaps"] = list(self.gaps)
        if self.members is not None:
            doc["members_below"] = {
                "limit": self.members_limit,
                "members": list(self.members),
            }
        doc["meta"] = {"version": __version__, "mode": self.mode}
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def build_report(
    p: Params,
    gaps: tuple[int, ...] | None = None,
    limit: int | None = None,
    mode: str = MODE_CLOSED_FORM,
) -> Report:
    prof = profile(p)
    members = tuple(members_below(prof, limit)) if limit is not None else None
    return Report(
        params=p,
        profile=prof,
        gaps=gaps,
        members_limit=limit,
        members=members,
        mode=mode,
    )


def _render_report_text(rep: Report) -> str:
    prof = rep.profile
    lines = [
        f"a={rep.params.a} b={rep.params.b} c={rep.params.c}",
        f"k_tilde: {prof.k_tilde}",
        f"embedding_dimension: {prof.embedding_dimension}",
        f"minimal_generators: {' '.join(map(str, prof.minimal_generators))}",
        f"apery_set: {' '.join(map(str, prof.apery))}",
        f"frobenius: {prof.frobenius}",
        f"genus: {prof.genus}",
        f"conductor: {prof.conductor}",
    ]
    if rep.gaps is not None:
        lines.append(f"gaps: {' '.join(map(str, rep.gaps))}")
    if rep.members is not None:
        lines.append(f"members_below_limit: {rep.members_limit}")
        lines.append(f"members_below: {' '.join(map(str, rep.members))}")
    lines.append(f"mode: {rep.mode}")
    return "\n".join(lines)


def _print_report(rep: Report, fmt: str) -> None:
    print(rep.to_json() if fmt == "json" else _render_report_text(rep))


def _use_color() -> bool:
    if "SEMIGROUP_NO_COLOR" in os.environ:
        return False
    return sys.stdout.isatty()


def render_table(prof: SemigroupProfile, limit: int, color: bool) -> str:
    """Member grid below ``limit``: one row per residue class, one column per
    multiple of c.  Minimal generators carry a ``*`` marker, plus ANSI bold
    when ``color`` is on; layout is computed from the plain text either way.
    """
    c = prof.params.c
    least = least_by_residue(prof.apery)
    gens = set(prof.minimal_generators)
    columns = []
    for start in range(0, limit, c):
        texts = [
            (f"{v}*" if v in gens else str(v)) if least[v % c] <= v < limit else ""
            for v in range(start, start + c)
        ]
        width = max(map(len, texts))
        blank = " " * width  # shared by every empty cell, most of a wide grid
        columns.append([
            f"\x1b[1m{t.rjust(width)}\x1b[0m" if color and t.endswith("*")
            else t.rjust(width) if t else blank
            for t in texts
        ])
    return "\n".join("  ".join(row).rstrip() for row in zip(*columns))


def _params_from_args(args: argparse.Namespace) -> Params:
    return Params(args.a, args.b, args.c)


def _read_csv_triples(path: str) -> tuple[list[tuple[int, int, int]], list[str]]:
    """Parse a CSV with header a,b,c.  Returns (triples, row error messages)."""
    triples: list[tuple[int, int, int]] = []
    errors: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        if not {"a", "b", "c"}.issubset(fields):
            return [], [f"{path}: header must contain columns a,b,c (got {fields})"]
        for idx, row in enumerate(reader, start=2):
            try:
                triples.append((int(row["a"]), int(row["b"]), int(row["c"])))
            except (TypeError, ValueError):
                errors.append(f"{path}:{idx}: cannot parse row {row!r} as integers")
    return triples, errors


def cmd_info(args: argparse.Namespace) -> int:
    if args.input and args.check:
        print("error: --check needs --a/--b/--c; use verify --input", file=sys.stderr)
        return 2
    if args.input:
        return _info_batch(args)
    if args.a is None or args.b is None or args.c is None:
        print("info needs --a/--b/--c or --input", file=sys.stderr)
        return 2
    p = _params_from_args(args)
    mode = MODE_CLOSED_FORM
    if args.check:
        mismatches = check_agreement(p)
        if mismatches:
            print(f"oracle disagreement: {mismatches[0]}", file=sys.stderr)
            return 1
        mode = MODE_VERIFIED
    _print_report(build_report(p, limit=args.limit, mode=mode), args.format)
    return 0


def _info_batch(args: argparse.Namespace) -> int:
    try:
        triples, errors = _read_csv_triples(args.input)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = []
    for a, b, c in triples:
        try:
            reports.append(build_report(Params(a, b, c), limit=args.limit))
        except InvalidParamsError as exc:
            errors.append(f"row a={a} b={b} c={c}: {exc}")
    for msg in errors:
        print(f"skipped: {msg}", file=sys.stderr)
    if args.format == "json":
        print(json.dumps([rep.to_dict() for rep in reports], indent=2))
    else:
        print("\n\n".join(_render_report_text(rep) for rep in reports))
    return 2 if errors else 0


def cmd_table(args: argparse.Namespace) -> int:
    p = _params_from_args(args)
    limit = args.limit
    if limit is None:
        genus(p)  # the widest value a profile checks: --bit-limit exits 3 as for info
        limit = frobenius(p) + 1 + p.c
        if limit > DEFAULT_GAPS_CAP:
            raise ValueError(
                f"default limit conductor + c = {limit} exceeds the cap "
                f"{DEFAULT_GAPS_CAP}; pass a smaller --limit"
            )
    print(render_table(profile(p), limit, _use_color()))
    return 0


def cmd_member(args: argparse.Namespace) -> int:
    p = _params_from_args(args)
    verdicts = []
    for n in args.n:
        if n < 0:
            raise ValueError(f"membership queries need n >= 0 (got {n})")
        l = class_index(p, n)
        least = apery_element(p, l)
        verdicts.append({"n": n, "member": n >= least, "class": l, "least": least})
    if args.format == "json":
        print(json.dumps(verdicts, indent=2))
    else:
        for v in verdicts:
            word = "in" if v["member"] else "out"
            print(f"{v['n']} {word} class={v['class']} least={v['least']}")
    return 0 if all(v["member"] for v in verdicts) else 1


def cmd_gaps(args: argparse.Namespace) -> int:
    p = _params_from_args(args)
    genus(p)  # the widest value a profile checks: --bit-limit exits 3 as for info
    gap_list = tuple(gaps(p, args.max_frobenius))
    if args.format == "json":
        _print_report(build_report(p, gaps=gap_list), args.format)
    else:
        print(" ".join(map(str, gap_list)))
    return 0


def _preset_params(name: str, n: int) -> Params:
    if name == "thabit":
        if n < 1:
            raise InvalidParamsError(f"thabit preset needs n >= 1 (got {n})")
        return Params(2, 1, 3 * 2**n - 1)
    if n < 2:
        raise InvalidParamsError(
            f"mersenne preset needs n >= 2 (got {n}; n = 1 gives seed 1, below 2)"
        )
    return Params(2, 1, 2**n - 1)


def cmd_preset(args: argparse.Namespace) -> int:
    p = _preset_params(args.name, args.n)
    _print_report(build_report(p, limit=args.limit), args.format)
    return 0


def _limit(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative (got {value})")
    if value > DEFAULT_GAPS_CAP:
        raise argparse.ArgumentTypeError(
            f"must be at most {DEFAULT_GAPS_CAP} (got {value})"
        )
    return value


def _table_limit(text: str) -> int:
    value = _limit(text)
    if value == 0:
        raise argparse.ArgumentTypeError(f"must be positive (got {value})")
    return value


def _parse_span(text: str) -> tuple[int, int]:
    """'7' -> (7, 7); '2..40' -> (2, 40)."""
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            span = int(lo), int(hi)
        else:
            span = int(lo), int(lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}")
    if span[0] > span[1]:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return span


def cmd_verify(args: argparse.Namespace) -> int:
    csv_errors: list[str] = []
    if args.input:
        try:
            triples, csv_errors = _read_csv_triples(args.input)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for msg in csv_errors:
            print(f"skipped: {msg}", file=sys.stderr)
    else:
        if not (args.a and args.b and args.c):
            print("verify needs --a/--b/--c ranges or --input", file=sys.stderr)
            return 2
        triples = [
            (a, b, c)
            for a in range(args.a[0], args.a[1] + 1)
            for b in range(args.b[0], args.b[1] + 1)
            for c in range(args.c[0], args.c[1] + 1)
        ]
    checked = passed = failed = skipped = 0
    first_failure = None
    valid = []
    for a, b, c in sorted(set(triples)):
        try:
            valid.append(Params(a, b, c))
        except InvalidParamsError:
            skipped += 1
    for p in valid:  # refuse the whole request before checking any triple
        bound = default_bound(p)
        if bound > MAX_ORACLE_BOUND:
            raise ValueError(
                f"oracle bound {bound} exceeds the memory cap {MAX_ORACLE_BOUND}"
            )
    for p in valid:
        mismatches = check_agreement(p)
        checked += 1
        if mismatches:
            failed += 1
            if first_failure is None:
                first_failure = {"a": p.a, "b": p.b, "c": p.c, "mismatch": mismatches[0]}
        else:
            passed += 1
    summary = {
        "checked": checked,
        "passed": passed,
        "failed": failed,
        "skipped": skipped,
        "first_failure": first_failure,
    }
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    else:
        print(f"checked: {checked}")
        print(f"passed: {passed}")
        print(f"failed: {failed}")
        print(f"skipped: {skipped}")
        if first_failure:
            ff = first_failure
            print(
                f"first_failure: a={ff['a']} b={ff['b']} c={ff['c']} {ff['mismatch']}"
            )
    if csv_errors:
        return 2
    return 0 if failed == 0 else 1


def _add_params_options(sub: argparse.ArgumentParser, required: bool = True) -> None:
    sub.add_argument("--a", type=int, required=required, help="affine multiplier")
    sub.add_argument("--b", type=int, required=required, help="affine offset")
    sub.add_argument("--c", type=int, required=required, help="seed element, >= 2")


def _add_format_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _add_bit_limit_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--bit-limit",
        type=int,
        default=None,
        metavar="BITS",
        help="abort with exit 3 if any value leaves the signed BITS-bit range",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinesg",
        description=(
            "Invariants of the smallest numerical semigroup containing a seed c "
            "and closed under x -> a*x + b on nonzero elements."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("info", help="print the full invariant profile")
    _add_params_options(sub, required=False)
    _add_format_option(sub)
    _add_bit_limit_option(sub)
    sub.add_argument("--limit", type=_limit, help="also list members below LIMIT")
    sub.add_argument("--check", action="store_true",
                     help="cross-check against the brute-force oracle first")
    sub.add_argument("--input", metavar="CSV", help="batch of a,b,c rows")
    sub.set_defaults(func=cmd_info)

    sub = subs.add_parser("table", help="member grid in the row-per-class layout")
    _add_params_options(sub)
    _add_bit_limit_option(sub)
    sub.add_argument("--limit", type=_table_limit,
                     help="show members below LIMIT (default conductor + c)")
    sub.set_defaults(func=cmd_table)

    sub = subs.add_parser("member", help="membership verdict per queried n")
    _add_params_options(sub)
    _add_format_option(sub)
    _add_bit_limit_option(sub)
    sub.add_argument("--n", type=int, action="append", required=True,
                     help="value to test; repeat for several")
    sub.set_defaults(func=cmd_member)

    sub = subs.add_parser("gaps", help="list every positive non-member")
    _add_params_options(sub)
    _add_format_option(sub)
    _add_bit_limit_option(sub)
    sub.add_argument("--max-frobenius", type=int, default=DEFAULT_GAPS_CAP,
                     help="refuse when the Frobenius number exceeds this cap")
    sub.set_defaults(func=cmd_gaps)

    sub = subs.add_parser("preset", help="named families mapped onto a, b, c")
    sub.add_argument("name", choices=("thabit", "mersenne"))
    sub.add_argument("--n", type=int, required=True, help="family index")
    _add_format_option(sub)
    _add_bit_limit_option(sub)
    sub.add_argument("--limit", type=_limit, help="also list members below LIMIT")
    sub.set_defaults(func=cmd_preset)

    sub = subs.add_parser("verify", help="closed forms vs oracle over ranges")
    sub.add_argument("--a", type=_parse_span, help="range as N or LO..HI")
    sub.add_argument("--b", type=_parse_span, help="range as N or LO..HI")
    sub.add_argument("--c", type=_parse_span, help="range as N or LO..HI")
    _add_format_option(sub)
    _add_bit_limit_option(sub)
    sub.add_argument("--input", metavar="CSV", help="batch of a,b,c rows")
    sub.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with bit_limit(getattr(args, "bit_limit", None)):
            return args.func(args)
    except OverflowLimitError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
