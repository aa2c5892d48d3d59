"""Command-line front end.

Commands wrap the library one-to-one: charpoly, table, trace, period,
certify, deduce.  COMMANDS is the one table of them and their options,
which follow the command as --name value or --name=value, in any order;
a unique prefix of a name will do and the last repeat wins.  Every
command takes --format text|csv|json plus --cache-dir/--seed.
--help lists the commands, and <command> --help its options.  The
cache holds integer polynomials for charpoly, certify and deduce's
anchor; table and period compute mod ell and never open it.  charpoly
--ell 2 or 3 also checks the reduction against its closed form.

Exit codes: 0 success, 1 usage or invalid argument, 2 computation or OS
error, 3 falsification event (a checked mathematical invariant failed,
which is worth distinguishing from a plain crash in CI).
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from . import cache, galois, gfpoly, hecke, modfactor, traceformula
from ._primes import poly_str, require_prime, to_decimal
from .errors import ClosedFormViolation, ComputationError, FalsificationError


def factor_str(fm) -> str:
    """One-line rendering of a FactorMultiset, e.g. (x + 1)(x + 4) over F_5."""
    parts = []
    if fm.unit != 1 or not fm.factors:
        parts.append(str(fm.unit))
    for g, m in fm.factors:
        parts.append("(%s)" % poly_str(g) + ("^%d" % m if m > 1 else ""))
    return "%s over F_%d" % ("".join(parts), fm.modulus)


def _emit(args, text, obj, header, rows) -> None:
    """Print one result as --format asks: text, a JSON object, or CSV rows under a header."""
    if args.format == "text":
        print(text)
    elif args.format == "json":
        import json

        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
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
    f = cache.CharpolyCache(args.cache_dir).charpoly(args.prime, args.weight)
    d = len(f) - 1
    fm = None
    if args.ell is not None:
        if args.ell in (2, 3):
            reduced = gfpoly.reduce_mod(f, args.ell)
            rule = modfactor.small_ell_rule(args.prime, args.weight, args.ell)
            if reduced != rule:
                raise ClosedFormViolation(
                    "T_%d at weight %d is %s mod %d, not the closed form %s"
                    % (args.prime, args.weight, poly_str(reduced), args.ell, poly_str(rule))
                )
        fm = gfpoly.factor(f, args.ell, seed=args.seed)
    coeffs = [to_decimal(c) for c in f]
    obj = {"p": args.prime, "k": args.weight, "dim": d, "coeffs": coeffs}
    row = [args.prime, args.weight, d, ";".join(coeffs), "", ""]
    if fm is not None:
        factors = [{"coeffs": list(g), "multiplicity": m} for g, m in fm.factors]
        obj.update(ell=args.ell, unit=fm.unit, factors=factors)
        row[4:] = args.ell, factor_str(fm)
    text = (poly_str(f) if fm is None else factor_str(fm)) + (" (dim 0)" if d == 0 else "")
    _emit(args, text, obj, ["p", "k", "dim", "coeffs", "ell", "factors"], [row])


def cmd_table(args) -> None:
    cells = modfactor.table_rows(args.ell, args.max_weight, args.single_period)
    ell, max_weight = args.ell, cells[0].max_weight
    lines = ["roots of T_p mod %d along even weight classes (weights <= %d)" % (ell, max_weight)]
    if ell == 13:
        lines += ["k = %d (mod 12): (%s)" % (c.kclass, ", ".join(map(str, c.one_period()))) for c in cells]
    else:
        lines.append("columns: k mod %d in %s" % (ell - 1, list(modfactor.KCLASSES[ell])))
        for p in modfactor.ROW_PRIMES[ell]:
            body = " | ".join("(%s)" % ", ".join(map(str, c.one_period())) for c in cells if c.p == p)
            lines.append("p = %d (class %d): %s" % (p, p % ell, body))
    if any(c.period is None for c in cells):
        lines.append("note: periods not verified in this window")
    obj = {"ell": ell, "max_weight": max_weight, "cells": [
        {"p": c.p, "p_class": c.p % ell, "kclass": c.kclass, "period": c.period,
         "terms": list(c.one_period()), "observed_terms": len(c.terms)} for c in cells]}
    rows = [[ell, c.p, c.p % ell, c.kclass, "" if c.period is None else c.period, max_weight,
             ";".join(map(str, c.one_period()))] for c in cells]
    header = ["ell", "p", "p_class", "kclass", "period", "max_weight", "terms"]
    _emit(args, "\n".join(lines), obj, header, rows)


def cmd_trace(args) -> None:
    value = to_decimal(traceformula.trace(args.n, args.weight))
    obj = {"n": args.n, "k": args.weight, "trace": value}
    _emit(args, value, obj, ["n", "k", "trace"], [[args.n, args.weight, value]])


def cmd_period(args) -> None:
    seq = modfactor.root_sequence(args.prime, args.ell, args.kclass, max_weight=args.max_weight,
                                  require_two_periods=not args.single_period)
    text = seq.period
    if seq.period is None:
        text = "no period verified up to weight %d (%d terms)" % (seq.max_weight, len(seq.terms))
    obj = {"p": seq.p, "ell": seq.ell, "kclass": seq.kclass, "period": seq.period,
           "terms": list(seq.terms), "term_weights": list(seq.term_weights), "max_weight": seq.max_weight}
    row = [seq.p, seq.ell, seq.kclass, "" if seq.period is None else seq.period, seq.max_weight,
           ";".join(map(str, seq.terms))]
    _emit(args, text, obj, ["p", "ell", "kclass", "period", "max_weight", "terms"], [row])


def _cert_text(name, cert) -> str:
    if isinstance(cert, galois.Certificate):
        tail = "" if cert.unconditional else "; assumes: " + "; ".join(cert.assumptions)
        return "%s: yes (rule %s%s)" % (name, cert.rule, tail)
    return "%s: not established (%s)" % (name, cert.reason)


def cmd_certify(args) -> None:
    require_prime(args.prime, "p")
    _require_even_weight(args.weight)
    p, k = args.prime, args.weight
    irr, full = galois.certify(p, k, bound=args.bound, cache=cache.CharpolyCache(args.cache_dir))
    text = "\n".join(("T_%d at weight %d, degree %d" % (p, k, hecke.dim_cusp(k)),
                      _cert_text("irreducible", irr), _cert_text("full symmetric group", full)))
    obj = {"p": p, "k": k, "bound": args.bound, "irreducible": irr.to_dict(),
           "full_symmetric": full.to_dict()}
    rows = []
    for claim, cert in (("irreducible", irr), ("full-symmetric-group", full)):
        found = isinstance(cert, galois.Certificate)
        rows.append([p, k, claim, "true" if found else "false", cert.rule if found else "",
                     "" if found else cert.reason])
    _emit(args, text, obj, ["p", "k", "claim", "found", "rule", "reason"], rows)


def cmd_deduce(args) -> None:
    require_prime(args.target_prime, "p")
    _require_even_weight(args.weight)
    p, k = args.target_prime, args.weight
    result = galois.deduce(p, k, anchor_n=args.anchor, bound=args.bound,
                           cache=cache.CharpolyCache(args.cache_dir))
    target = result.target
    found = isinstance(target, galois.Certificate)
    table_rows = [ev for ev in target.evidence if ev.get("kind") == "table-row"] if found else []
    if not found:
        lines = ["T_%d at weight %d: no deduction (%s)" % (p, k, target.reason)]
    else:
        claim = "irreducible"
        if target.claim == galois.CLAIM_FULL_SYMMETRIC:
            claim += " with full symmetric Galois group"
        status = "unconditional"
        if not result.unconditional:
            status = "conditional on: " + "; ".join(target.assumptions)
        lines = ["T_%d at weight %d: %s (rule %s, %s)" % (p, k, claim, target.rule, status)]
        lines += ["  table evidence: ell %d, class prime %d, k class %d, row %s, first terms %s"
                  % (ev["ell"], ev["class_prime"], ev["kclass"], tuple(ev["row_period"]),
                     tuple(ev["first_terms"])) for ev in table_rows]
        for label, cert in (("anchor irreducible", result.anchor_irreducible),
                            ("anchor full symmetric", result.anchor_full)):
            if cert is not None:
                lines.append("  " + _cert_text(label + " (T_%d)" % args.anchor, cert))
    row = [p, k, target.claim, target.rule if found else "", "true" if found else "false",
           "true" if result.unconditional else "false",
           ";".join(map(str, table_rows[-1]["first_terms"])) if table_rows else ""]
    obj = dict(result.to_dict(), p=p, k=k, anchor_n=args.anchor)
    header = ["p", "k", "claim", "rule", "found", "unconditional", "first_terms"]
    _emit(args, "\n".join(lines), obj, header, [row])


REQUIRED = object()  # the default of an option that must be given

# option -> (kind, help); kind is int, str, a tuple of choices, or None for a flag
OPTIONS = {
    "--prime": (int, "Hecke index p (prime)"),
    "--target-prime": (int, "Hecke index p (prime)"),
    "--n": (int, "Hecke index n >= 1"),
    "--weight": (int, "even weight k"),
    "--ell": (int, "prime modulus ell (table: 5, 7 or 13; charpoly: also factor mod ell)"),
    "--kclass": (int, "weight class mod (ell - 1)"),
    "--max-weight": (int, "largest weight to walk"),
    "--single-period": (None, "shorter window; reports terms without verifying the period"),
    "--bound": (int, "largest ell scanned"),
    "--anchor": (int, "prime anchoring the assumption"),
    "--format": (("text", "csv", "json"), "output format"),
    "--cache-dir": (str, "directory for charpoly cache files"),
    "--seed": (int, "seed for randomized factoring"),
}
# every command takes these after its own options
COMMON = {"--format": "text", "--cache-dir": None, "--seed": 0}
# command -> (function, help, option -> default)
COMMANDS = {
    "charpoly": (cmd_charpoly, "characteristic polynomial of T_p",
                 {"--prime": REQUIRED, "--weight": REQUIRED, "--ell": None}),
    "table": (cmd_table, "periodic root table mod ell",
              {"--ell": REQUIRED, "--max-weight": None, "--single-period": False}),
    "trace": (cmd_trace, "trace of T_n from the trace formula",
              {"--n": REQUIRED, "--weight": REQUIRED}),
    "period": (cmd_period, "root sequence period for one class",
               {"--prime": REQUIRED, "--ell": REQUIRED, "--kclass": REQUIRED,
                "--max-weight": None, "--single-period": False}),
    "certify": (cmd_certify, "unconditional Galois certificates",
                {"--prime": REQUIRED, "--weight": REQUIRED, "--bound": 200}),
    "deduce": (cmd_deduce, "table-backed verdict for T_p",
               {"--target-prime": REQUIRED, "--weight": REQUIRED, "--anchor": 2, "--bound": 200}),
}


def _defaults(command) -> dict:
    return {**COMMANDS[command][2], **COMMON}


def _usage(command) -> str:
    if command is None:
        return "usage: heckemod {%s} [options]" % ",".join(COMMANDS)
    parts = []
    for name, default in _defaults(command).items():
        kind = OPTIONS[name][0]
        if isinstance(kind, tuple):
            name += " {%s}" % ",".join(kind)
        elif kind is not None:
            name += " " + name[2:].upper().replace("-", "_")
        parts.append(name if default is REQUIRED else "[%s]" % name)
    return "usage: heckemod %s [-h] %s" % (command, " ".join(parts))


def _help(command) -> str:
    lines = [_usage(command), ""]
    if command is None:
        lines.append("commands (heckemod COMMAND --help lists its options):")
        lines += ["  %-16s %s" % (name, entry[1]) for name, entry in COMMANDS.items()]
        return "\n".join(lines)
    lines += [COMMANDS[command][1], "", "options:", "  %-16s %s" % ("-h, --help", "print this help")]
    for name, default in _defaults(command).items():
        kind, text = OPTIONS[name]
        if kind is not None and default not in (None, REQUIRED):
            text += " (default %s)" % default
        lines.append("  %-16s %s" % (name, text))
    return "\n".join(lines)


def _fail(command, message):
    prog = "heckemod" if command is None else "heckemod " + command
    sys.stderr.write("%s\n%s: error: %s\n" % (_usage(command), prog, message))
    raise SystemExit(1)


def _is_option(token) -> bool:
    # a negative number such as -10 or -1.5, and anything with a space, is a value
    number = token[1:].replace(".", "", 1).isdigit()
    return token[:1] == "-" and token != "-" and " " not in token and not number


def parse_args(argv):
    """(function, options) for argv, which names the command first.

    Options follow the command in any order as --name value or
    --name=value; a unique prefix of a name will do, and the last repeat
    wins.  -h or --help prints usage and exits 0; any other problem
    prints usage and an error to stderr and exits 1.
    """
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        print(_help(None))
        raise SystemExit(0)
    if command not in COMMANDS:
        _fail(None, "the following arguments are required: command" if command is None else
              "argument command: invalid choice: %r (choose from %s)" % (command, ", ".join(COMMANDS)))
    values = _defaults(command)
    rest = list(argv[1:])
    while rest:
        token = rest.pop(0)
        name, eq, value = token.partition("=")
        if token == "-h":
            name = "--help"
        elif name.startswith("--") and name != "--" and name not in values:
            found = [option for option in (*values, "--help") if option.startswith(name)]
            if len(found) > 1:
                _fail(command, "ambiguous option: %s could match %s" % (name, ", ".join(found)))
            name = found[0] if found else name
        if name == "--help":
            print(_help(command))
            raise SystemExit(0)
        if name not in values:
            _fail(command, "unrecognized arguments: %s" % token)
        kind = OPTIONS[name][0]
        if kind is None:
            if eq:
                _fail(command, "argument %s: ignored explicit argument %r" % (name, value))
            values[name] = True
            continue
        if not eq:
            if not rest or _is_option(rest[0]):
                _fail(command, "argument %s: expected one argument" % name)
            value = rest.pop(0)
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _fail(command, "argument %s: invalid int value: %r" % (name, value))
        elif kind is not str and value not in kind:
            _fail(command, "argument %s: invalid choice: %r (choose from %s)"
                  % (name, value, ", ".join(kind)))
        values[name] = value
    missing = [name for name, value in values.items() if value is REQUIRED]
    if missing:
        _fail(command, "the following arguments are required: " + ", ".join(missing))
    options = {name[2:].replace("-", "_"): value for name, value in values.items()}
    return COMMANDS[command][0], SimpleNamespace(**options)


def main(argv=None) -> int:
    func, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        func(args)
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
