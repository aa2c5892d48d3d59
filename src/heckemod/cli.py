"""Command-line front end.

Subcommands wrap the library one-to-one: charpoly, table, trace,
period, certify, deduce.  Every subcommand takes --format text|csv|json
plus --cache-dir/--seed; the environment variable HECKE_MOD_CACHE
overrides --cache-dir when set.  The cache holds integer polynomials
for charpoly, certify and deduce's anchor; table and period compute
mod ell and never open it.  charpoly --ell 2 or 3 also checks the
reduction against its closed form.

Exit codes: 0 success, 1 usage or invalid argument, 2 computation or OS
error, 3 falsification event (a checked mathematical invariant failed,
which is worth distinguishing from a plain crash in CI).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import cache, galois, gfpoly, hecke, modfactor, traceformula
from ._primes import require_prime, to_decimal
from .errors import ClosedFormViolation, ComputationError, FalsificationError


def _open_cache(args) -> cache.CharpolyCache:
    return cache.CharpolyCache(os.environ.get("HECKE_MOD_CACHE") or args.cache_dir)


def factor_str(fm) -> str:
    """One-line rendering of a FactorMultiset, e.g. (x + 1)(x + 4) over F_5."""
    parts = []
    if fm.unit != 1 or not fm.factors:
        parts.append(str(fm.unit))
    for g, m in fm.factors:
        parts.append("(%s)" % gfpoly.poly_str(g) + ("^%d" % m if m > 1 else ""))
    return "%s over F_%d" % ("".join(parts), fm.modulus)


def _emit_json(obj):
    import json

    print(json.dumps(obj, indent=2, sort_keys=True))


def _emit_csv(header, rows):
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _require_even_weight(k):
    if k < 0 or k % 2:
        raise ValueError("weight must be a nonnegative even integer, got %d" % k)


def cmd_charpoly(args) -> None:
    require_prime(args.prime, "p")
    _require_even_weight(args.weight)
    if args.ell is not None:
        require_prime(args.ell, "ell")
        if args.ell == args.prime:
            raise ValueError("p and ell must be distinct, both %d" % args.prime)
    f = _open_cache(args).charpoly(args.prime, args.weight)
    d = f.degree
    fm = None
    if args.ell is not None:
        if args.ell in (2, 3):
            reduced = gfpoly.reduce_mod(f, args.ell)
            rule = modfactor.small_ell_rule(args.prime, args.weight, args.ell)
            if reduced != rule:
                raise ClosedFormViolation(
                    "T_%d at weight %d is %s mod %d, not the closed form %s"
                    % (args.prime, args.weight, gfpoly.poly_str(reduced), args.ell, gfpoly.poly_str(rule))
                )
        fm = gfpoly.factor(f, args.ell, seed=args.seed)
    if args.format == "text":
        body = str(f) if fm is None else factor_str(fm)
        print(body + (" (dim 0)" if d == 0 else ""))
    elif args.format == "json":
        obj = {
            "p": args.prime,
            "k": args.weight,
            "dim": d,
            "coeffs": [to_decimal(c) for c in f.coeffs],
        }
        if fm is not None:
            obj["ell"] = args.ell
            obj["unit"] = fm.unit
            obj["factors"] = [
                {"coeffs": list(g), "multiplicity": m} for g, m in fm.factors
            ]
        _emit_json(obj)
    else:
        row = [
            args.prime,
            args.weight,
            d,
            ";".join(map(to_decimal, f.coeffs)),
            args.ell if args.ell is not None else "",
            factor_str(fm) if fm is not None else "",
        ]
        _emit_csv(["p", "k", "dim", "coeffs", "ell", "factors"], [row])


def cmd_table(args) -> None:
    cells = modfactor.table_rows(args.ell, args.max_weight, args.single_period)
    max_weight = cells[0].max_weight
    unverified = any(c.period is None for c in cells)
    if args.format == "text":
        lines = [
            "roots of T_p mod %d along even weight classes (weights <= %d)"
            % (args.ell, max_weight)
        ]
        if args.ell == 13:
            for c in cells:
                lines.append(
                    "k = %d (mod 12): (%s)" % (c.kclass, ", ".join(map(str, c.one_period())))
                )
        else:
            lines.append(
                "columns: k mod %d in %s" % (args.ell - 1, list(modfactor.KCLASSES[args.ell]))
            )
            for p in modfactor.ROW_PRIMES[args.ell]:
                row = [c for c in cells if c.p == p]
                body = " | ".join(
                    "(%s)" % ", ".join(map(str, c.one_period())) for c in row
                )
                lines.append("p = %d (class %d): %s" % (p, p % args.ell, body))
        if unverified:
            lines.append("note: periods not verified in this window")
        print("\n".join(lines))
    elif args.format == "json":
        _emit_json(
            {
                "ell": args.ell,
                "max_weight": max_weight,
                "cells": [
                    {
                        "p": c.p,
                        "p_class": c.p % c.ell,
                        "kclass": c.kclass,
                        "period": c.period,
                        "terms": list(c.one_period()),
                        "observed_terms": len(c.terms),
                    }
                    for c in cells
                ],
            }
        )
    else:
        rows = [
            [
                c.ell,
                c.p,
                c.p % c.ell,
                c.kclass,
                c.period if c.period is not None else "",
                max_weight,
                ";".join(map(str, c.one_period())),
            ]
            for c in cells
        ]
        _emit_csv(
            ["ell", "p", "p_class", "kclass", "period", "max_weight", "terms"], rows
        )


def cmd_trace(args) -> None:
    value = to_decimal(traceformula.trace(args.n, args.weight))
    if args.format == "text":
        print(value)
    elif args.format == "json":
        _emit_json({"n": args.n, "k": args.weight, "trace": value})
    else:
        _emit_csv(["n", "k", "trace"], [[args.n, args.weight, value]])


def cmd_period(args) -> None:
    seq = modfactor.root_sequence(
        args.prime,
        args.ell,
        args.kclass,
        max_weight=args.max_weight,
        require_two_periods=not args.single_period,
        seed=args.seed,
    )
    if args.format == "text":
        if seq.period is None:
            print("no period verified up to weight %d (%d terms)" % (seq.max_weight, len(seq.terms)))
        else:
            print(seq.period)
    elif args.format == "json":
        _emit_json(
            {
                "p": seq.p,
                "ell": seq.ell,
                "kclass": seq.kclass,
                "period": seq.period,
                "terms": list(seq.terms),
                "term_weights": list(seq.term_weights),
                "max_weight": seq.max_weight,
            }
        )
    else:
        row = [
            seq.p,
            seq.ell,
            seq.kclass,
            seq.period if seq.period is not None else "",
            seq.max_weight,
            ";".join(map(str, seq.terms)),
        ]
        _emit_csv(["p", "ell", "kclass", "period", "max_weight", "terms"], [row])


def _cert_text(name, cert) -> str:
    if isinstance(cert, galois.Certificate):
        tail = "" if cert.unconditional else "; assumes: " + "; ".join(cert.assumptions)
        return "%s: yes (rule %s%s)" % (name, cert.rule, tail)
    return "%s: not established (%s)" % (name, cert.reason)


def cmd_certify(args) -> None:
    require_prime(args.prime, "p")
    _require_even_weight(args.weight)
    irr, full = galois.certify(args.prime, args.weight, bound=args.bound, cache=_open_cache(args))
    if args.format == "text":
        print("T_%d at weight %d, degree %d" % (args.prime, args.weight, hecke.dim_cusp(args.weight)))
        print(_cert_text("irreducible", irr))
        print(_cert_text("full symmetric group", full))
    elif args.format == "json":
        _emit_json(
            {
                "p": args.prime,
                "k": args.weight,
                "bound": args.bound,
                "irreducible": irr.to_dict(),
                "full_symmetric": full.to_dict(),
            }
        )
    else:
        rows = []
        for claim, cert in (("irreducible", irr), ("full-symmetric-group", full)):
            found = isinstance(cert, galois.Certificate)
            rows.append(
                [
                    args.prime,
                    args.weight,
                    claim,
                    "true" if found else "false",
                    cert.rule if found else "",
                    "" if found else cert.reason,
                ]
            )
        _emit_csv(["p", "k", "claim", "found", "rule", "reason"], rows)


def cmd_deduce(args) -> None:
    require_prime(args.target_prime, "p")
    _require_even_weight(args.weight)
    result = galois.deduce(
        args.target_prime,
        args.weight,
        anchor_n=args.anchor,
        bound=args.bound,
        cache=_open_cache(args),
    )
    target = result.target
    p, k = args.target_prime, args.weight
    if args.format == "text":
        if not isinstance(target, galois.Certificate):
            print("T_%d at weight %d: no deduction (%s)" % (p, k, target.reason))
            return
        claim = (
            "irreducible with full symmetric Galois group"
            if target.claim == galois.CLAIM_FULL_SYMMETRIC
            else "irreducible"
        )
        status = (
            "unconditional"
            if result.unconditional
            else "conditional on: " + "; ".join(target.assumptions)
        )
        print("T_%d at weight %d: %s (rule %s, %s)" % (p, k, claim, target.rule, status))
        for ev in target.evidence:
            if ev.get("kind") == "table-row":
                print(
                    "  table evidence: ell %d, class prime %d, k class %d, row %s, first terms %s"
                    % (
                        ev["ell"],
                        ev["class_prime"],
                        ev["kclass"],
                        tuple(ev["row_period"]),
                        tuple(ev["first_terms"]),
                    )
                )
        for label, cert in (
            ("anchor irreducible", result.anchor_irreducible),
            ("anchor full symmetric", result.anchor_full),
        ):
            if cert is not None:
                print("  " + _cert_text(label + " (T_%d)" % args.anchor, cert))
    elif args.format == "json":
        obj = dict(result.to_dict(), p=p, k=k, anchor_n=args.anchor)
        _emit_json(obj)
    else:
        found = isinstance(target, galois.Certificate)
        first_terms = ""
        if found:
            for ev in target.evidence:
                if ev.get("kind") == "table-row":
                    first_terms = ";".join(map(str, ev["first_terms"]))
        row = [
            p,
            k,
            target.claim,
            target.rule if found else "",
            "true" if found else "false",
            "true" if result.unconditional else "false",
            first_terms,
        ]
        _emit_csv(
            ["p", "k", "claim", "rule", "found", "unconditional", "first_terms"], [row]
        )


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "csv", "json"), default="text", help="output format"
    )
    common.add_argument(
        "--cache-dir",
        default=None,
        help="directory for charpoly cache files (HECKE_MOD_CACHE overrides)",
    )
    common.add_argument("--seed", type=int, default=0, help="seed for randomized factoring")

    parser = _Parser(prog="heckemod", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    sub.required = True

    sp = sub.add_parser("charpoly", parents=[common], help="characteristic polynomial of T_p")
    sp.add_argument("--prime", type=int, required=True, help="Hecke index p (prime)")
    sp.add_argument("--weight", type=int, required=True, help="even weight k")
    sp.add_argument("--ell", type=int, default=None, help="also factor mod ell")
    sp.set_defaults(func=cmd_charpoly)

    sp = sub.add_parser("table", parents=[common], help="periodic root table mod ell")
    sp.add_argument("--ell", type=int, required=True, help="modulus, one of 5, 7, 13")
    sp.add_argument("--max-weight", type=int, default=None, help="largest weight to walk")
    sp.add_argument(
        "--single-period",
        action="store_true",
        help="shorter window; reports terms without verifying the period",
    )
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("trace", parents=[common], help="trace of T_n from the trace formula")
    sp.add_argument("--n", type=int, required=True, help="Hecke index n >= 1")
    sp.add_argument("--weight", type=int, required=True, help="even weight k >= 4")
    sp.set_defaults(func=cmd_trace)

    sp = sub.add_parser("period", parents=[common], help="root sequence period for one class")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--kclass", type=int, required=True, help="weight class mod (ell - 1)")
    sp.add_argument("--max-weight", type=int, default=None)
    sp.add_argument("--single-period", action="store_true")
    sp.set_defaults(func=cmd_period)

    sp = sub.add_parser("certify", parents=[common], help="unconditional Galois certificates")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--bound", type=int, default=200, help="largest ell scanned")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("deduce", parents=[common], help="table-backed verdict for T_p")
    sp.add_argument("--target-prime", type=int, required=True)
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--anchor", type=int, default=2, help="prime anchoring the assumption")
    sp.add_argument("--bound", type=int, default=200)
    sp.set_defaults(func=cmd_deduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except FalsificationError as exc:
        print("falsification: %s" % exc, file=sys.stderr)
        return 3
    except (ComputationError, OSError) as exc:
        print("computation error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
