"""Command line front end.

Subcommands: analyze one subgroup of G x H, enumerate all subdirect
products of a pair, compose two subgroups under the star product, run
the library's invariant sweeps, or list the built-in groups.  Reports
are line-oriented JSON (see records); human summaries go to stdout.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 cap
exceeded, 141 (128 + SIGPIPE) standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .errors import (
    FactorMismatch,
    InternalInconsistency,
    InvalidQuintuple,
    NotAGroup,
    NotAutomorphism,
    NoDiagonal,
    NotNormal,
    NotSubdirect,
    OrderLimitExceeded,
    ParseError,
    PreconditionFailed,
)
from .groups import FiniteGroup, is_prime
from .presets import catalog_group, catalog_names, preset_descriptions
from .products import DEFAULT_PRODUCT_CAP, direct_product, enumerate_subdirect
from .records import (
    AnalysisRecord,
    analyze_subgroup,
    star_analysis,
    write_lines,
    write_records,
)
from .specs import _as_int, load_group, load_product_subgroup
from .verification import CheckContext, iter_checks

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_CAP = 3

INPUT_ERRORS = (ParseError, NotAGroup, NotAutomorphism, NotNormal,
                InvalidQuintuple, FactorMismatch, NoDiagonal,
                PreconditionFailed, NotSubdirect)


def _order_cap(text: str) -> int:
    """A --max-order value: a positive integer, else exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--G", required=True, metavar="SPEC",
                     help="left factor group (shorthand, JSON, or @file)")
    sub.add_argument("--H", metavar="SPEC",
                     help="right factor group; defaults to --G")
    sub.add_argument("--pi", metavar="P1,P2,...",
                     help="primes to decide; default: primes dividing |G x H|")
    sub.add_argument("--prime", type=int, metavar="P",
                     help="single prime to decide (same as --pi P)")
    sub.add_argument("--out", metavar="PATH",
                     help="write a line-oriented JSON report here")
    sub.add_argument("--max-order", type=_order_cap,
                     default=DEFAULT_PRODUCT_CAP, metavar="N",
                     help="largest table the command may build: each group "
                     "--G/--H describe (preset, cayley, permutation closure) "
                     "and product in them, G x H, and star's H x G and G x G "
                     f"(default {DEFAULT_PRODUCT_CAP})")
    sub.add_argument("--raw-oracle", action="store_true",
                     help="cross-check with the exhaustive value-table hom "
                     "search (tiny groups only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subdirect",
        description="Extensibility of homomorphisms from subdirect products "
                    "of finite groups into cyclic coefficient groups.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="analyze one subgroup U of G x H")
    _add_common(p)
    p.add_argument("--U", required=True, metavar="DESC",
                   help="subgroup: 'full', 'diagonal', JSON pairs/quintuple, "
                        "or @file")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("subdirects",
                        help="enumerate and analyze every subdirect product")
    _add_common(p)
    p.set_defaults(func=cmd_subdirects)

    p = subs.add_parser("star", help="compose U <= G x H with V <= H x G")
    _add_common(p)
    p.add_argument("--U", required=True, metavar="DESC",
                   help="left composition factor inside G x H")
    p.add_argument("--V", required=True, metavar="DESC",
                   help="right composition factor inside H x G")
    p.set_defaults(func=cmd_star)

    p = subs.add_parser("verify", help="run the library invariant sweeps")
    p.add_argument("--G", metavar="LIST",
                   help="comma-separated selection (default: whole catalog; "
                        "empty string: nothing); entries may be any group "
                        "spec, including @file")
    p.add_argument("--out", metavar="PATH",
                   help="write one JSON object per check here")
    p.add_argument("--max-order", type=_order_cap,
                   default=DEFAULT_PRODUCT_CAP, metavar="N",
                   help="largest table the sweeps may build: each "
                        "|G x H| swept, each group a --G entry names or "
                        "describes, and each product in it "
                        f"(default {DEFAULT_PRODUCT_CAP})")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("catalog", help="list built-in groups and presets")
    p.set_defaults(func=cmd_catalog)
    return parser


def _primes_from(args) -> Optional[list]:
    chosen = set()
    if args.pi:
        for token in args.pi.split(","):
            token = token.strip()
            if token:
                try:
                    chosen.add(int(token))
                except ValueError as exc:
                    raise ParseError(f"bad prime {token!r}") from exc
    if args.prime is not None:
        chosen.add(args.prime)
    if not chosen:
        return None
    for p in chosen:
        _as_int(p, "prime")  # before is_prime's trial division
        if not is_prime(p):
            raise ParseError(f"{p} is not a prime")
    return sorted(chosen)


def _load_pair(args):
    G = load_group(args.G, max_order=args.max_order)
    H = (G if args.H is None or args.H == args.G
         else load_group(args.H, max_order=args.max_order))
    return G, H


def _print_record(record: AnalysisRecord) -> None:
    left, right = record.left, record.right
    print(f"G: {left['label']} (order {left['order']}) x "
          f"H: {right['label']} (order {right['order']}); "
          f"U order {len(record.pairs)}")
    proj = record.projections
    diag = {True: "yes", False: "no", None: "n/a"}[record.contains_diagonal]
    print(f"subdirect: {'yes' if record.subdirect else 'no'} "
          f"(p1 {proj['p1_order']}, k1 {proj['k1_order']} | "
          f"p2 {proj['p2_order']}, k2 {proj['k2_order']}); "
          f"contains diagonal: {diag}")
    if not record.subdirect:
        print("no extensibility verdicts: U is not subdirect")
        return
    q = record.quotient
    name = q["name"] if q["name"] else "unidentified"
    inv = (f", invariants {q['abelian_invariants']}"
           if q["abelian_invariants"] is not None else "")
    print(f"common section q(U): order {q['order']}, {name}{inv}")
    for p in record.primes:
        entry = record.per_prime[str(p)]
        verdict = "extensible" if entry["extensible"] else "inextensible"
        oracle = entry["oracle"]
        oracle_text = ("" if oracle is None else
                       f"; oracle: {'extensible' if oracle else 'inextensible'}")
        methods = ", ".join(entry["methods"])
        print(f"p={p}: {verdict} [{methods}]{oracle_text}")
    overall = "extensible" if record.extensible else "inextensible"
    agreement = ""
    if record.oracle_extensible is not None:
        agreement = (" (oracle agrees)"
                     if not record.inconsistent else " (ORACLE DISAGREES)")
    print(f"overall: {overall} for pi={record.primes}{agreement}")
    if record.star is not None:
        star = record.star
        print(f"composition: sections of inputs: "
              f"{star['section_of_left']}/{star['section_of_right']}; "
              f"kernel condition: {star['preservation_condition']}")


def _finish(record: AnalysisRecord, args) -> int:
    _print_record(record)
    if args.out:
        write_records(args.out, [record])
        print(f"report written to {args.out}")
    return EXIT_VERIFICATION if record.inconsistent else EXIT_OK


def cmd_analyze(args) -> int:
    G, H = _load_pair(args)
    info = direct_product(G, H, max_order=args.max_order)
    U = load_product_subgroup(info, args.U)
    primes = _primes_from(args)
    record = analyze_subgroup(U, primes, raw_oracle=args.raw_oracle)
    return _finish(record, args)


def cmd_star(args) -> int:
    G, H = _load_pair(args)
    info_gh = direct_product(G, H, max_order=args.max_order)
    info_hg = direct_product(H, G, max_order=args.max_order)
    direct_product(G, G, max_order=args.max_order)  # caps U*V's home G x G
    U = load_product_subgroup(info_gh, args.U)
    V = load_product_subgroup(info_hg, args.V)
    primes = _primes_from(args)
    record = star_analysis(U, V, primes, raw_oracle=args.raw_oracle)
    return _finish(record, args)


def cmd_subdirects(args) -> int:
    """Analyse, print or write, and drop one subdirect at a time; the
    summary counts grow as the records pass, and print last."""
    G, H = _load_pair(args)
    subs = enumerate_subdirect(G, H, max_order=args.max_order)
    primes = _primes_from(args)
    summary = {"count": 0, "extensible_count": {}, "inconsistent_count": 0}

    def analysed():
        for U in subs:
            record = analyze_subgroup(U, primes, raw_oracle=args.raw_oracle)
            summary["count"] += 1
            summary["inconsistent_count"] += record.inconsistent
            counts = summary["extensible_count"]
            for p, entry in record.per_prime.items():
                counts[p] = counts.get(p, 0) + entry["extensible"]
            yield record

    if args.out:
        write_records(args.out, analysed(),
                      extra_header={"left": G.label, "right": H.label})
    else:
        for record in analysed():
            print(record.to_json())
    print(json.dumps(summary, sort_keys=True))
    return EXIT_VERIFICATION if summary["inconsistent_count"] else EXIT_OK


def _selection(text: str) -> list:
    """The entries of a verify --G list: split at the commas that lie
    outside JSON brackets and strings."""
    entries, start, depth, in_string, escaped = [], 0, 0, False, False
    for i, ch in enumerate(text):
        if escaped:
            escaped = False
        elif in_string:
            escaped = ch == "\\"
            in_string = ch != '"'
        elif ch == '"':
            in_string = True
        elif ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
        elif ch == "," and depth == 0:
            entries.append(text[start:i])
            start = i + 1
    entries.append(text[start:])
    return [e.strip() for e in entries if e.strip()]


def _selected_group(name: str, max_order: int) -> FiniteGroup:
    """A verify --G entry capped at max_order: the shared instance of a
    catalog name, else the group its description gives."""
    if name not in catalog_names():
        return load_group(name, max_order=max_order)
    G = catalog_group(name)
    if G.order > max_order:
        raise OrderLimitExceeded(f"order of {name} above cap {max_order}")
    return G


def cmd_verify(args) -> int:
    if args.G is None:
        groups = [catalog_group(name) for name in catalog_names()]
    else:
        groups = [_selected_group(name, args.max_order)
                  for name in _selection(args.G)]
    ctx = CheckContext(groups, product_cap=args.max_order)
    results = []
    for result in iter_checks(ctx):  # each line as its check finishes
        results.append(result)
        print(result.line(), flush=True)
        print(f"time {result.name}: {result.seconds * 1e3:.1f} ms",
              file=sys.stderr, flush=True)
    if args.out:
        write_lines(args.out, (json.dumps(
            {"schema": "subdirect-verify/1", "name": r.name, "passed": r.passed,
             "checked": r.checked, "failures": r.failures}, sort_keys=True)
            for r in results))
    failed = [r for r in results if not r.passed]
    total = sum(r.checked for r in results)
    if failed:
        print(f"FAILED {len(failed)} of {len(results)} checks "
              f"({total} cases)")
        return EXIT_VERIFICATION
    print(f"all {len(results)} checks passed ({total} cases)")
    return EXIT_OK


def cmd_catalog(args) -> int:
    print("catalog groups (usable by name in --G/--H and verify --G):")
    for name in catalog_names():
        G = catalog_group(name)
        print(f"  {name:8s} order {G.order}")
    print("shorthand grammar: Cn, Dn (order n), Sn, An, Q8, Dic12, Ep^k, "
          "and x-products such as C2xS3")
    print("presets for JSON specs (kind='preset'):")
    for line in preset_descriptions():
        print(f"  {line}")
    print("spec files: JSON with fields name, kind "
          "(cayley|permutations|preset|product), data; "
          "permutation generators accept cycle strings or image lists")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # As the Python signal docs advise for SIGPIPE: point stdout at
        # devnull, so the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a killed writer
    except OrderLimitExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInconsistency as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OSError as exc:
        # spec files are read as ParseError: a named file is the report
        if exc.filename is None:
            raise
        print(f"input error: cannot write {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
