"""Command-line front end.

Every subcommand wraps a library operation pair and emits one JSON document
(or CSV for the tabular listings).  Exit codes: 0 success with all checks
equal, 1 a verification mismatch, 2 a usage error.  Output ordering is fixed
(lexicographic exponent vectors, ascending q powers) so identical calls are
byte-identical.

The grammar is one table, ``COMMANDS``: per subcommand its help, its command
function and its arguments as ``add_argument`` keywords.  ``build_parser``
builds the argparse parser from it, and ``parse_direct`` reads a plain
command line straight from it into the Namespace argparse would return.
``main`` tries the direct parse first and hands every other command line to
argparse, which stays the only source of help text and usage errors.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from . import characters, schur, shapes, spectra, twisted
from .polyring import (
    Laurent, QPoly, QSeries, laurent_to_json, qpoly_to_json, qseries_to_json, terms_text,
)
from .shapes import BorderStrip, Partition, SkewDiagram


class UsageError(ValueError):
    pass


def report(identity, parameters, lhs, rhs, started):
    """Comparison record for a pair of like-shaped values."""
    if isinstance(lhs, QSeries):
        equal, mismatch = lhs.compare(rhs)
        window = [str(lhs.offset), lhs.order]
        first = (
            None
            if mismatch is None
            else {
                "exponent": str(mismatch[0]),
                "lhs": laurent_to_json(mismatch[1]),
                "rhs": laurent_to_json(mismatch[2]),
            }
        )
    else:
        equal = lhs == rhs
        window = None
        side = qpoly_to_json if isinstance(lhs, QPoly) else laurent_to_json
        first = None if equal else {"lhs": side(lhs), "rhs": side(rhs)}
    doc = {
        "identity": identity,
        "parameters": parameters,
        "window": window,
        "equal": equal,
        "wall_time_ms": int((time.perf_counter() - started) * 1000),
    }
    if first is not None:
        doc["first_mismatch"] = first
    return doc


def check_rank(n, N=0):
    """Reject a rank below 1 or a negative truncation length."""
    if n < 1:
        raise UsageError(f"--n must be at least 1, got {n}")
    if N < 0:
        raise UsageError(f"--N must be nonnegative, got {N}")


def check_level1(n, order, k=0):
    """Reject a rank, sector or truncation order outside the level-1 range."""
    check_rank(n)
    if not 0 <= k < n:
        raise UsageError(f"--k must be in 0..{n - 1} for n = {n}, got {k}")
    if order < 0:
        raise UsageError(f"--order must be nonnegative, got {order}")


def parse_blocks(text):
    text = text.strip()
    if not text:
        return ()
    try:
        blocks = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad block list {text!r}") from exc
    if min(blocks) < 1:
        raise UsageError(f"blocks must be positive, got {text!r}")
    return blocks


def cmd_schur(args):
    check_rank(args.n)
    try:
        shape = SkewDiagram.from_str(args.shape)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    method = args.method
    if method == "enum":
        poly = schur.schur_enumerative(shape, args.n, args.relation)
    elif method == "jt":
        poly = schur.schur_jacobi_trudi(shape, args.n, args.relation)
    elif method == "strip":
        try:
            strip = shapes.strip_from_skew(shape)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        poly = schur.schur_strip_cached(strip.columns, args.n, args.relation)
    else:
        raise UsageError(f"unknown method {method!r}")
    doc = {"shape": str(shape), "n": args.n, "method": method}
    doc["polynomial"] = laurent_to_json(poly, args.pretty)
    return 0, doc


def cmd_spectrum(args):
    check_rank(args.n, args.N)
    if args.sector is not None and not 0 <= args.sector < args.n:
        raise UsageError(f"--sector must be in 0..{args.n - 1}, got {args.sector}")
    rows = []
    for blocks in sorted(spectra.enumerate_Sp_N(args.N, args.n)):
        point_sector = sum(blocks) % args.n
        if args.sector is not None and point_sector != args.sector:
            continue
        bs = BorderStrip(blocks)
        fiber_size = schur.schur_strip_cached(blocks, args.n).at_x_ones().at()
        rows.append(
            {
                "blocks": list(blocks),
                "sector": point_sector,
                "t": shapes.t_statistic(bs),
                "excitation": spectra.excitation_energy(blocks, args.n),
                "kappa": str(bs),
                "shape": str(bs.realize()),
                "fiber_size": fiber_size,
            }
        )
    if args.csv:
        lines = ["blocks;sector;t;excitation;kappa;shape;fiber_size"]
        for r in rows:
            lines.append(
                "{};{};{};{};{};{};{}".format(
                    ",".join(map(str, r["blocks"])),
                    r["sector"],
                    r["t"],
                    r["excitation"],
                    r["kappa"],
                    r["shape"],
                    r["fiber_size"],
                )
            )
        return 0, "\n".join(lines)
    return 0, {"n": args.n, "N": args.N, "points": rows}


def cmd_fiber(args):
    check_rank(args.n)
    blocks = parse_blocks(args.h)
    try:
        point = spectra.SpectrumPoint(blocks, args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    configs = list(spectra.fiber_words(point))
    character = spectra.fiber_character(point, relation=args.relation)
    return 0, {
        "n": args.n,
        "h": list(blocks),
        "size": len(configs),
        "configurations": configs,
        "character": laurent_to_json(character, args.pretty),
    }


def cmd_decompose(args):
    check_level1(args.n, args.order, args.k)
    started = time.perf_counter()
    series = characters.level1_decomposition(args.n, args.k, args.order, args.variant)
    doc = {
        "n": args.n,
        "k": args.k,
        "variant": args.variant,
        "series": qseries_to_json(series, args.pretty),
        "wall_time_ms": int((time.perf_counter() - started) * 1000),
    }
    return 0, doc


def cmd_kostka(args):
    try:
        lam = Partition.from_str(args.lam)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    least = max(lam.length(), 1)
    n = args.n if args.n is not None else least
    if n < least:
        # the oracle's zero for a too-small rank is a convention, not a value
        # the strip sum can be compared with
        raise UsageError(f"--n must be at least {least} for lambda {lam}")
    started = time.perf_counter()
    result = characters.kostka_foulkes(lam, n)
    oracle = characters.kostka_oracle(lam, n)
    doc = {
        "lambda": str(lam),
        "n": n,
        "polynomial": qpoly_to_json(result.polynomial),
        "strips": [
            {"kappa": str(bs), "t": t, "count": c} for bs, t, c in result.strips
        ],
        "strip_count": len(result.strips),
        "oracle": qpoly_to_json(oracle),
        "equal": result.polynomial == oracle,
        "wall_time_ms": int((time.perf_counter() - started) * 1000),
    }
    return (0 if doc["equal"] else 1), doc


def cmd_verify(args):
    checks = []
    if args.what in ("rogers", "polychronakos"):
        check_rank(args.n, args.N)
    if args.what == "rogers":
        started = time.perf_counter()
        lhs = characters.F_N(args.N, args.n)
        rhs = characters.rogers_szego(args.N, args.n)
        checks.append(report("strip_sum_equals_multinomial", {"n": args.n, "N": args.N}, lhs, rhs, started))
        started = time.perf_counter()
        rec = characters.rogers_szego_recursive(args.N, args.n)
        checks.append(report("multinomial_recursion", {"n": args.n, "N": args.N}, rec, rhs, started))
    elif args.what == "djkmo":
        check_level1(args.n, args.order, args.k)
        started = time.perf_counter()
        rhs = characters.level1_theta(args.n, args.k, args.order)
        # both variants come from one strip search, so variant a's report
        # times the theta series, both strip sums and its own comparison
        pair = characters.level1_decomposition(args.n, args.k, args.order, "ab")
        for variant, lhs in zip("ab", pair):
            checks.append(
                report(
                    f"strip_decomposition_{variant}_equals_theta",
                    {"n": args.n, "k": args.k, "order": args.order},
                    lhs,
                    rhs,
                    started,
                )
            )
            started = time.perf_counter()
    elif args.what == "polychronakos":
        started = time.perf_counter()
        lhs = characters.polychronakos_partition(args.N, args.n)
        rhs = spectra.Z_vertex(args.N, args.n)
        checks.append(report("reversed_multinomial_equals_strip_sum", {"n": args.n, "N": args.N}, lhs, rhs, started))
        started = time.perf_counter()
        direct = spectra.Z_vertex_direct(args.N, args.n)
        checks.append(report("strip_sum_equals_configuration_sum", {"n": args.n, "N": args.N},
                             rhs, direct, started))
    elif args.what == "all":
        return verify_all(args)
    else:
        raise UsageError(f"unknown verification {args.what!r}")
    ok = all(c["equal"] for c in checks)
    return (0 if ok else 1), {"checks": checks, "equal": ok}


def verify_all(args):
    """Reduced verification matrix, sized to finish quickly."""
    checks = []
    order = 4 if args.quick else 6
    nmax = 3 if args.quick else 4
    for n in range(2, nmax + 1):
        for k in range(n):
            started = time.perf_counter()
            lhs = characters.level1_decomposition(n, k, order, "a")
            rhs = characters.level1_theta(n, k, order)
            checks.append(report("strip_decomposition_a_equals_theta", {"n": n, "k": k, "order": order}, lhs, rhs, started))
    for n in (2, 3):
        N = 4 if args.quick else 6
        started = time.perf_counter()
        checks.append(report("strip_sum_equals_multinomial", {"n": n, "N": N},
                             characters.F_N(N, n), characters.rogers_szego(N, n), started))
        started = time.perf_counter()
        checks.append(report("reversed_multinomial_equals_strip_sum", {"n": n, "N": N},
                             characters.polychronakos_partition(N, n),
                             spectra.Z_vertex(N, n), started))
    started = time.perf_counter()
    kres = characters.kostka_foulkes(Partition((3, 2, 1)))
    checks.append(report("kostka_strip_sum_equals_extraction", {"lambda": "3,2,1"},
                         kres.polynomial, characters.kostka_oracle(Partition((3, 2, 1))), started))
    for n in (1, 2):
        torder = 3 if args.quick else 5
        started = time.perf_counter()
        checks.append(report("pinned_strip_decomposition_equals_theta", {"n": n, "order": torder},
                             twisted.twisted_decomposition(n, torder),
                             twisted.twisted_level1_theta(n, torder), started))
    ok = all(c["equal"] for c in checks)
    return (0 if ok else 1), {"checks": checks, "equal": ok}


def cmd_twisted(args):
    if args.twhat == "verify":
        check_level1(args.n, args.order)
        started = time.perf_counter()
        lhs = twisted.twisted_decomposition(args.n, args.order)
        rhs = twisted.twisted_level1_theta(args.n, args.order)
        doc = report(
            "pinned_strip_decomposition_equals_theta",
            {"n": args.n, "order": args.order},
            lhs,
            rhs,
            started,
        )
        return (0 if doc["equal"] else 1), doc
    if args.twhat == "schur":
        check_rank(args.n)
        blocks = parse_blocks(args.h)
        if args.method == "enum":
            poly = twisted.chi_twisted(blocks, args.n)
        elif args.method == "det":
            poly = twisted.sL_determinant(blocks, args.n)
        elif args.method == "fiber":
            poly = twisted.chi_twisted(blocks, args.n, method="fiber")
        else:
            raise UsageError(f"unknown method {args.method!r}")
        return 0, {
            "n": args.n,
            "h": list(blocks),
            "method": args.method,
            "polynomial": laurent_to_json(poly, args.pretty),
        }
    raise UsageError(f"unknown twisted subcommand {args.twhat!r}")


FLAG = {"action": "store_true"}

# The grammar, written once: each subcommand's help, its command function and
# its arguments as ``add_argument`` keywords, a name without a leading "-"
# being a positional.  Typed options have no str default, so argparse never
# converts a default.
COMMANDS = {
    "schur": ("skew Schur function by a chosen method", cmd_schur, {
        "--shape": {"required": True},
        "--n": {"type": int, "required": True},
        "--relation": FLAG,
        "--method": {"default": "enum", "choices": ["enum", "jt", "strip"]},
        "--pretty": FLAG,
    }),
    "spectrum": ("list spectrum points of a truncation", cmd_spectrum, {
        "--n": {"type": int, "required": True},
        "--N": {"type": int, "required": True},
        "--sector": {"type": int, "default": None},
        "--csv": FLAG,
    }),
    "fiber": ("configurations over a spectrum point", cmd_fiber, {
        "--n": {"type": int, "required": True},
        "--h": {"required": True},
        "--relation": FLAG,
        "--pretty": FLAG,
    }),
    "decompose": ("strip decomposition series", cmd_decompose, {
        "--n": {"type": int, "required": True},
        "--k": {"type": int, "required": True},
        "--order": {"type": int, "default": 6},
        "--variant": {"default": "a", "choices": ["a", "b"]},
        "--pretty": FLAG,
    }),
    "kostka": ("strip formula and extraction oracle", cmd_kostka, {
        "--lambda": {"dest": "lam", "required": True},
        "--n": {"type": int, "default": None},
    }),
    "verify": ("identity verification reports", cmd_verify, {
        "what": {"choices": ["rogers", "djkmo", "polychronakos", "all"]},
        "--n": {"type": int, "default": 2},
        "--k": {"type": int, "default": 0},
        "--N": {"type": int, "default": 4},
        "--order": {"type": int, "default": 6},
        "--quick": FLAG,
    }),
    "twisted": ("signed-alphabet model commands", cmd_twisted, {
        "twhat": {"choices": ["verify", "schur"]},
        "--n": {"type": int, "required": True},
        "--order": {"type": int, "default": 5},
        "--h": {"default": ""},
        "--method": {"default": "enum", "choices": ["enum", "det", "fiber"]},
        "--pretty": FLAG,
    }),
}


@functools.cache
def build_parser():
    """The argparse parser of ``COMMANDS``: the source of help text and of
    every usage error."""
    parser = argparse.ArgumentParser(
        prog="ribbonchar",
        description="Exact border-strip character computations and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for token, spec in arguments.items():
            p.add_argument(token, **spec)
        p.set_defaults(func=func)
    return parser


def parse_direct(argv):
    """The Namespace of ``build_parser().parse_args(argv)``, read straight
    from ``COMMANDS``, or None for any ``argv`` that is not plain.

    Plain means an exact subcommand name, then exact option strings, each
    given at most once, each valued one followed by one value that does not
    start with "-", and one value per positional; each value converted by
    its argument's type and found among its choices, and every required
    argument given.  Anything else (help, abbreviations, ``--opt=value``, a
    value starting with "-", a repeated or unknown option, a missing value,
    a failed conversion or choice) is argparse's to parse or to refuse.
    """
    entry = COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    _help, func, arguments = entry
    values = {"command": argv[0], "func": func}
    positionals = iter([token for token in arguments if token[0] != "-"])
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] == "-":
            spec = arguments.get(token)
            if spec is None:
                return None
            if spec.get("action") == "store_true":
                value = True
            else:
                value = next(tokens, "-")  # a missing value reads as "-"
                if value[:1] == "-":
                    return None
        else:
            value = token
            token = next(positionals, None)
            if token is None:
                return None
            spec = arguments[token]
        dest = spec.get("dest", token.lstrip("-"))
        if dest in values:
            return None
        convert, choices = spec.get("type"), spec.get("choices")
        if convert is not None:
            try:
                value = convert(value)
            except (TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    for token, spec in arguments.items():
        dest = spec.get("dest", token.lstrip("-"))
        if dest not in values:
            if token[0] != "-" or spec.get("required"):
                return None
            values[dest] = False if spec.get("action") == "store_true" else spec.get("default")
    return argparse.Namespace(**values)


_PLAIN_INTS = {int}
_SEQUENCES = {list, tuple}


def dumps_indented(doc):
    """The text of ``json.dumps(doc, indent=2)``, byte for byte, in one walk.

    The stdlib encoder runs in pure Python whenever ``indent`` is set.  Here
    a list of plain ints (bools excluded) is one join, a list of rows of
    plain ints, all of one nonzero width (the ``fiber`` configurations), is
    one ``%`` over one template, and strings and keys go through the
    stdlib's C escaping, so ``ensure_ascii`` output is kept.
    Tuples are written as lists.  A ``Laurent`` is written as its terms list
    by ``polyring.terms_text``, straight from its packed keys.  Any other
    value (float, bool, None, a subclass) is handed to ``json.dumps`` and
    indented at its depth.  Dict keys must be strings, as in every document
    the commands write; any other key raises ``TypeError``.
    """
    out = []
    _write(doc, "\n", out)
    return "".join(out)


def _write(value, newline, out):
    """Append the text of ``value`` to ``out``; ``newline`` is the line
    break plus the indent of the line that ``value`` starts on."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(repr(value))
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        kinds = {*map(type, value)}
        if kinds == _PLAIN_INTS:
            out.append("[" + inner + ("," + inner).join(map(repr, value)) + newline + "]")
            return
        if kinds <= _SEQUENCES and value[0] and len({*map(len, value)}) == 1:
            flat = [*chain.from_iterable(value)]
            if {*map(type, flat)} == _PLAIN_INTS:
                # rows of plain ints, all of one width: one template, one %
                cell = inner + "  "
                row = "[" + cell + ("," + cell).join(["%d"] * len(value[0])) + inner + "]"
                text = "[" + inner + ("," + inner).join([row] * len(value)) + newline + "]"
                out.append(text % tuple(flat))
                return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep + _quote(key) + ": ")
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is Laurent:
        out.append(terms_text(value, newline))
    else:
        # an indented value's line breaks all lie outside its strings, which
        # escape their own
        out.append(json.dumps(value, indent=2).replace("\n", newline))


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = parse_direct(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    try:
        code, doc = args.func(args)
    except UsageError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except OverflowError as exc:
        # an exponent or truncation order outside the packed range
        print(json.dumps({"error": f"input too large: {exc}"}), file=sys.stderr)
        return 2
    text = doc if isinstance(doc, str) else dumps_indented(doc)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (``ribbonchar ... | head``).  Point stdout at
        # devnull so that the interpreter's flush at exit does not raise
        # again, and keep the command's own exit code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
