"""Command-line interface: reduce, sum, eval, check, bernoulli, table, verify.

Exit codes: 0 on success, 1 when a verification or cross-check fails, 2 for
usage or parse errors and when standard output is closed before the output
ends (``... | head``), so that a cut-off ``verify`` never reads as a pass.
Every emitter is deterministic: the same invocation produces byte-identical
output.

Every flag is declared once, in a table of each subcommand's flags
(``_COMMANDS``), from which ``build_parser`` builds the argparse parser.  A
well-formed command line is read from the table alone (``_read``): exact
flags of its subcommand, each given once, as ``flag value`` or
``--flag=value``, with int values that ``int()`` reads, choices from their
list and every required flag present.  Any other line, help and usage errors
among them, goes to the parser, which is built only then, so help, usage
errors and exit codes are argparse's own.

Around the algebra, a ``sum`` or ``check`` request parses its weight, checks
its estimated cost and writes its result.  The weight parser builds literals
and the variable as int rows, raises monomials to a power in one step
(``Polynomial.__pow__``), adds the terms of a sum into one row that is
reduced once, and sizes integer rows (``_bits``) without a gcd.  The cost
estimate (``_walks_cost``) counts the completions of each prefix once per
prefix sum.  JSON is written in one pass by ``closedform.term_json``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys

from .bernoulli import bernoulli
from .closedform import term_json
from .oracle import _pair
from .polynomial import _FORMATS, Polynomial, _lowest, _muladd_over, _new, _reduced
from .polynomial import _render
from .reducer import reduce, reduce_direct
from .sums import structure_check, sum_power, sum_power_shifted, sum_product
from .verify import SUITES, form_mismatch, run_table, run_verify

__all__ = ["PolyParseError", "parse_poly", "main"]

FORMATS = (*_FORMATS, "json")
METHODS = ("recurrence", "theorem", "both")


# ------------------------------------------------------------ weight parsing


class PolyParseError(ValueError):
    """Raised for malformed polynomial text; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def _tokenize(text: str):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            out.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            out.append((ch, ch, i))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    out.append(("end", "", n))
    return out


# Each parenthesis level costs four stack frames (expr, term, factor, atom),
# so this stays far below the interpreter's default recursion limit of 1000.
MAX_NESTING = 100

# Input sizes, checked before any work starts.  A weight of degree d and an
# inner power t are estimated at 2**(t - 1) walks at degree d (see
# MAX_WALK_COST); a polynomial power also costs one product per unit of its
# exponent.
MAX_DEGREE = 100  # degree of the weight, any exponent in it, -p, |--comp entry|
MAX_POWER = 12  # --power, and the summed multiplicities of --factors
# A constant's cost grows with its size; (9^100)^100 has 31,700 bits.
MAX_CONSTANT_BITS = 40_000  # numerator or denominator of a literal, power or product
# Nothing recurses per --comp entry, but the output and the oracle's suffix
# tables grow with depth: with 1,000 ones reduce -p 0 prints 1 MB.  The
# oracle keeps H_m(suffix) * lcm(1..m)**w for a suffix of weight w, about
# 1.44 * m * w bits per value even where the value in lowest terms is far
# smaller, so deep compositions of ones cost more than their values.  On a
# 2-vCPU VM (Python 3.11.7, one cold in-process run each), mhs_eval at
# n = 1,000 with as many ones takes 2.2 s and 89 MB; the costliest accepted
# eval of this shape, --n 180 with 100 ones, takes 0.06 s and 24 MB.
MAX_DEPTH = 100  # entries of --comp
# The direct evaluator builds a table of n exact values per suffix of the
# composition.  The Bernoulli limit was set when the table cost m exact terms
# for its m-th entry; that model no longer holds, since the tangent-number
# triangle takes about m**2 / 8 integer steps for B_0..B_m, and bernoulli
# --max 1000 takes 0.2 s in a cold process on the VM above.
MAX_EVAL_N = 20_000  # eval --n
MAX_BERNOULLI = 1_000  # bernoulli --max
# The values of the table for a suffix of weight w grow to the bits of
# lcm(1..n)**w, about 1.44 * n * w.  A step multiplies the tail's value by a
# short factor and adds it, and at a prime power multiplies both by a small
# power: each is linear in the bits, so a table costs about n**2 * w.  The
# estimate n**2 * w_last + n**3 * sum(w**2) / 5000 charges every suffix but
# the last as if its steps were quadratic in the bits, an upper estimate:
# on the VM above CI's five eval inputs, the costliest accepted ones found,
# take 0.11 to 1.2 s cold, eval --n 2000 --comp 100 the longest.
MAX_EVAL_COST = 400_000_000  # eval, see _eval_cost
# reduce walks its composition by summation by parts (see ``reducer``): step
# i, at a weight of degree d, sums about d**2 products of numbers that grow
# with i.  A step is estimated at (d + 1)**2.8 * (i + 1)**0.9 + 3000 units,
# fitted to timed reduce and sum runs.  sum and check are estimated as one
# such walk per composition of their product; ``sums`` shares one walk
# among them, so for them this is an upper estimate.  On the VM above the
# longest accepted chains, 43 ones at -p 100 and 93 ones at -p 60, take 0.5
# and 1.0 s cold, and 1.1 s each with --method both, which also runs the
# direct formula; sum --poly m^21 --power 12 takes 0.3 s.
MAX_WALK_COST = 300_000_000  # reduce, sum and check, see _walk_cost
MAX_VERIFY_N = 200  # verify --max-n
MAX_TABLE_WEIGHT = 12  # table --weight-max, which lists 2**w compositions
MAX_TABLE_N = 10_000  # table --n; table --p-max is bounded by MAX_DEGREE
# table reduces, evaluates and checks against the oracle each of its 2**w
# rows per p.  In the units of MAX_WALK_COST, a row costs its walk plus
# 3000 + 400 * (p + 1)**1.5 * (w + 1) for the rest of reduce and the
# evaluation, and an oracle table costs 1200 per value plus MAX_EVAL_COST's
# estimate of its bits.  These are upper estimates: on the VM above CI's
# three table inputs take 0.15 to 0.5 s cold.
MAX_TABLE_COST = 400_000_000  # table, see _table_cost


class _Parser:
    """Recursive-descent parser for integer/rational polynomial expressions
    in one variable (``m`` or ``n``), with ``+ - * / ^`` and parentheses.
    Division is only by nonzero constants; exponents are integer literals;
    parentheses nest at most ``MAX_NESTING`` deep; exponents and every
    product's degree are at most ``MAX_DEGREE``, and no literal, power or
    product has a coefficient above ``MAX_CONSTANT_BITS`` bits."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> Polynomial:
        kind, _, _ = self.peek()
        sign = 1
        if kind in ("+", "-"):
            sign = 1 if kind == "+" else -1
            self.advance()
        first = self.term()
        kind, _, _ = self.peek()
        # the terms are added into one row over the lcm of their
        # denominators, which is reduced once at the end
        entry = [first._den, [sign * c for c in first._ints]]
        while kind in ("+", "-"):
            self.advance()
            rhs = self.term()
            _muladd_over(entry, rhs._ints, rhs._den, 1 if kind == "+" else -1)
            kind, _, _ = self.peek()
        return _reduced(*entry)

    def term(self) -> Polynomial:
        acc = self.factor()
        while True:
            kind, _, off = self.peek()
            if kind == "*":
                self.advance()
                _, _, off2 = self.peek()
                rhs = self.factor()
                if acc.degree + rhs.degree > MAX_DEGREE:
                    raise PolyParseError(f"degree above the limit {MAX_DEGREE}", off2)
                _check_bits(_bits(acc) + _bits(rhs), off2)
                acc = acc * rhs
            elif kind == "/":
                self.advance()
                _, _, off2 = self.peek()
                divisor = self.factor()
                if divisor.degree > 0:
                    raise PolyParseError("division only by a nonzero constant", off2)
                if not divisor:
                    raise PolyParseError("division by zero", off2)
                _check_bits(_bits(acc) + _bits(divisor), off2)
                acc = acc * divisor._den / divisor._ints[0]
            else:
                return acc

    def factor(self) -> Polynomial:
        base = self.atom()
        kind, _, _ = self.peek()
        if kind != "^":
            return base
        self.advance()
        kind, value, off = self.peek()
        if kind == "(":
            depth = 0
            for k, _, o in self.tokens[self.pos :]:
                if k == "(":
                    depth += 1
                elif k == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif k == "/":
                    raise PolyParseError("division in exponents", o)
            raise PolyParseError("exponent must be a nonnegative integer literal", off)
        if kind != "num":
            raise PolyParseError("exponent must be a nonnegative integer literal", off)
        self.advance()
        k, _, o = self.peek()
        if k == "/":
            raise PolyParseError("division in exponents", o)
        exponent = int(value)
        if exponent > MAX_DEGREE or base.degree * exponent > MAX_DEGREE:
            raise PolyParseError(
                f"exponent or degree above the limit {MAX_DEGREE}", off
            )
        _check_bits(_bits(base) * exponent, off)
        return base ** exponent

    def atom(self) -> Polynomial:
        kind, value, off = self.advance()
        if kind == "num":
            c = int(value)
            _check_bits(c.bit_length(), off)
            return _new(1, (c,) if c else ())
        if kind == "name":
            if value in ("m", "n"):
                return _VARIABLE
            raise PolyParseError(f"unknown identifier {value!r}", off)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise PolyParseError("parentheses nested too deeply", off)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            kind, _, off = self.advance()
            if kind != ")":
                raise PolyParseError("expected ')'", off)
            return inner
        raise PolyParseError(f"unexpected token {value or kind!r}", off)


_VARIABLE = Polynomial.variable()


def _bits(poly: Polynomial) -> int:
    """Bit length of the largest numerator or denominator in ``poly``, each
    coefficient in lowest terms."""
    ints = poly._ints
    if poly._den == 1:  # every coefficient is an integer
        return max(max(ints), -min(ints)).bit_length() if ints else 0
    sizes = [max(abs(c), d) for c, d in _lowest(poly._den, ints)]
    return max(sizes).bit_length()


def _check_bits(bits: int, offset: int) -> None:
    if bits > MAX_CONSTANT_BITS:
        raise PolyParseError(
            f"constant above the limit of {MAX_CONSTANT_BITS} bits", offset
        )


def parse_poly(text: str) -> Polynomial:
    """Parse polynomial text such as ``3*m^2 - 5*m + 2`` or ``(m-1)^2``."""
    parser = _Parser(text)
    poly = parser.expr()
    kind, value, off = parser.peek()
    if kind != "end":
        raise PolyParseError(f"unexpected token {value!r}", off)
    return poly


def _parse_comp(text: str) -> "tuple[int, ...]":
    text = text.strip()
    if not text:
        return ()
    try:
        comp = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed composition {text!r}: {exc}") from exc
    if len(comp) > MAX_DEPTH:
        raise ValueError(f"--comp must have at most {MAX_DEPTH} entries")
    if any(abs(k) > MAX_DEGREE for k in comp):
        raise ValueError(f"--comp entries must be at most {MAX_DEGREE} in magnitude")
    return comp


def _eval_cost(n: int, comp: "tuple[int, ...]") -> int:
    """Estimated cost of ``eval`` (see ``MAX_EVAL_COST``), from the weights
    of the suffixes of ``comp``, the last entry first."""
    last, *rest = list(itertools.accumulate(abs(k) for k in reversed(comp))) or [0]
    return n**2 * last + n**3 * sum(w * w for w in rest) // 5_000


def _step_cost(d: int, i: int) -> float:
    return (d + 1) ** 2.8 * (i + 1) ** 0.9 + 3_000


def _walk_cost(degree: int, comp: "tuple[int, ...]") -> float:
    """Estimated cost (see ``MAX_WALK_COST``) of the walk over ``comp`` with
    a weight of the given degree; an entry k lowers the degree by k - 1."""
    cost, d = 0.0, degree
    for i in range(len(comp) + 1):
        if d < 0:
            break
        cost += _step_cost(d, i)
        if i < len(comp):
            d = min(d, d + 1 - comp[i])
    return cost


def _walks_cost(degree: int, weight: int, depth: int, least=1, unit=1) -> float:
    """Estimated cost of the walks over every composition of ``weight`` into
    at most ``depth`` multiples of ``unit``, none below ``least``:
    ``count(s, i)`` of them start with i entries that add up to s, each
    prefix with as many completions as ``weight - s`` has compositions into
    ``depth - i`` or fewer entries, and the walk is at degree
    ``degree + i - s`` there."""

    def count(w, parts):  # compositions of w into exactly ``parts`` entries
        if w % unit:
            return 0
        w = w // unit - parts * (least // unit - 1)
        return math.comb(w - 1, parts - 1) if w > 0 and parts > 0 else int(w == parts)

    # ends[s][k]: the completions of a prefix that adds up to s, with k
    # entries left, as an exact int; each prefix sum over r is taken once
    top = min(weight, degree + depth)
    ends = [
        list(itertools.accumulate(count(weight - s, r) for r in range(depth + 1)))
        for s in range(top + 1)
    ]
    cost = 0.0
    for i in range(depth + 1):
        for s in range(i * least, min(weight, degree + i) + 1):
            cost += count(s, i) * ends[s][depth - i] * _step_cost(degree + i - s, i)
    return cost


def _table_cost(p_max: int, weight_max: int, n: int) -> float:
    """Estimated cost of ``table`` (see ``MAX_TABLE_COST``), summed only
    until it passes the limit.  The oracle builds a table for each
    composition and one for each row, ``(-p,) + comp``; of weight w, the
    table of ``(w,)`` adds ``n**2 * w`` and each other ``n**3 * w**2 / 5000``
    to its cost per value, as in ``_eval_cost``."""
    rows = 2**weight_max
    cost = ((p_max + 2) * rows - 1) * 1_200 * n
    for w in range(1, weight_max + 1):
        deep = (p_max + 2) * 2 ** (w - 1) - 1
        cost += n**2 * w + deep * n**3 * w * w // 5_000
    for p in range(p_max + 1):
        if cost > MAX_TABLE_COST:
            break
        cost += sum(_walks_cost(p, w, w) for w in range(weight_max + 1))
        cost += rows * (3_000 + 400 * (p + 1) ** 1.5 * (weight_max + 1))
    return cost


def _check_cost(cost: float, limit: int, flags: str) -> None:
    if cost > limit:
        raise ValueError(f"{flags} have an estimated cost above {limit}")


def _parse_factors(text: str) -> "list[tuple[int, int]]":
    factors = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ValueError("empty factor entry")
        order_text, caret, mult_text = part.partition("^")
        try:
            factors.append((int(order_text), int(mult_text) if caret else 1))
        except ValueError:
            raise ValueError(
                f"--factors entry {part!r} must be ORDER or ORDER^MULT"
            ) from None
        # sum_product refuses these too, but the cost estimate, which runs
        # first, counts compositions of positive entries only
        if factors[-1][0] < 1:
            raise ValueError("factor orders must be positive integers")
    return factors


# ------------------------------------------------------------------ parsing

# Each subcommand's help and flags, every flag declared once: build_parser
# adds them to argparse, and _read reads a well-formed command line by them
# alone.  A flag is (flag, dest, kind, default, required, help), where kind
# is int, str, a tuple of choices or None for a switch, and required is True,
# False or _ONE_OF: exactly one of a subcommand's _ONE_OF flags must be given.
_ONE_OF = "one of"
_FORMAT = ("--format", "format", FORMATS, "text", False, None)
_COMMANDS = {
    "reduce": ("closed form of sum m^p * H_{m-1}(composition)", (
        _FORMAT,
        ("-p", "power", int, None, True, None),
        ("--comp", "comp", str, "", False, "composition, e.g. '2,1'"),
        ("--method", "method", METHODS, "recurrence", False, None),
    )),
    "sum": ("closed form of sum F(m) * (harmonic factors at m-1)", (
        _FORMAT,
        ("--poly", "poly", str, None, True, "weight, e.g. '3*m^2+m'"),
        ("--power", "power", int, None, _ONE_OF, "inner power t of H_{m-1}"),
        ("--factors", "factors", str, None, _ONE_OF, "factor list, e.g. '1^1,2^1'"),
        ("--shifted", "shifted", None, False, False,
         "sum F(m) * H_m^t over m = 0..n instead (requires --power)"),
    )),
    "eval": ("exact value of one (extended) harmonic sum", (
        _FORMAT,
        ("--n", "n", int, None, True, None),
        ("--comp", "comp", str, "", False, None),
    )),
    "check": ("remainder structure report for sum F(m) * H_{m-1}^t", (
        ("--poly", "poly", str, None, True, None),
        ("--power", "power", int, None, True, None),
    )),
    "bernoulli": ("Bernoulli numbers as CSV", (
        ("--max", "max", int, None, True, None),
        ("--convention", "convention", ("plus", "minus"), "plus", False, None),
    )),
    "table": ("CSV comparing the direct evaluator with reduced forms", (
        ("--p-max", "p_max", int, None, True, None),
        ("--weight-max", "weight_max", int, None, True, None),
        ("--n", "n", int, None, True, None),
    )),
    "verify": ("run a verification suite", (
        ("--suite", "suite", SUITES, None, True, None),
        ("--max-n", "max_n", int, None, True, None),
    )),
}
# subcommand -> {flag: its entry above}
_FLAGS = {
    name: {spec[0]: spec for spec in specs} for name, (_, specs) in _COMMANDS.items()
}


class _Value(argparse.Action):
    """argparse's store action for a flag with a value.  Some argparse
    releases read an explicit ``--flag=--`` as an empty list, unchecked by
    its type and choices; this refuses it as a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values == []:
            raise argparse.ArgumentError(self, "expected one argument")
        setattr(namespace, self.dest, values)


def _add_flag(parser, spec) -> None:
    flag, dest, kind, default, required, help = spec
    options = {"type": int} if kind is int else {}
    if isinstance(kind, tuple):
        options["choices"] = kind
    parser.add_argument(
        flag, dest=dest, action="store_true" if kind is None else _Value,
        default=default, required=required is True, help=help, **options,
    )


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mhsums",
        description=(
            "Exact closed forms for power-weighted sums of harmonic numbers "
            "and multiple harmonic sums."
        ),
    )
    sub = top.add_subparsers(dest="command", required=True)

    for name, (help, specs) in _COMMANDS.items():
        parser = sub.add_parser(name, help=help)
        group = None
        for spec in specs:
            if spec[4] == _ONE_OF:
                group = group or parser.add_mutually_exclusive_group(required=True)
                _add_flag(group, spec)
            else:
                _add_flag(parser, spec)
    return top


_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's negative number


def _is_value(token: str, flags) -> bool:
    """Whether argparse reads ``token``, after a flag, as that flag's value:
    it does not start with "-", or it is a negative number, or it holds a
    space, starts with one "-" and does not start with a short flag of its
    subcommand (-h, -p)."""
    return (
        token[:1] != "-"
        or _NEGATIVE.match(token) is not None
        or (" " in token and token[1] != "-" and token[:2] not in ("-h", *flags))
    )


def _read(argv) -> "argparse.Namespace | None":
    """``build_parser().parse_args(argv)`` for a well-formed command line,
    read by the flag table alone: exact flags of the subcommand, each given
    once, as ``flag value`` or ``--flag=value``, with values that ``int()``
    reads or that are among the choices, and every required flag present.
    None for any other line, among them help, abbreviations, usage errors
    and the value ``--``."""
    flags = _FLAGS.get(argv[0]) if argv else None
    if flags is None:
        return None
    values = {}
    i = 1
    while i < len(argv):
        token = argv[i]
        spec = flags.get(token)
        if spec is None:
            flag, eq, value = token.partition("=")
            long = eq and flag[:2] == "--" and value != "--"
            spec = flags.get(flag) if long else None
            if spec is None or spec[2] is None:
                return None
        elif spec[2] is None:
            value = True
        elif i + 1 < len(argv) and _is_value(argv[i + 1], flags):
            i += 1
            value = argv[i]
        else:
            return None
        i += 1
        _, dest, kind, _, _, _ = spec
        if dest in values:
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and kind is not None and value not in kind:
            return None
        values[dest] = value
    namespace, chosen = {"command": argv[0]}, []
    for _, dest, _, default, required, _ in _COMMANDS[argv[0]][1]:
        if required == _ONE_OF:
            chosen.append(dest in values)
        elif required and dest not in values:
            return None
        namespace[dest] = values.get(dest, default)
    if chosen and sum(chosen) != 1:
        return None
    return argparse.Namespace(**namespace)


# ------------------------------------------------------------------ actions


def _check_flag(flag: str, value: int, limit: int) -> None:
    """Bounds of a size flag; ``main`` reports the ValueError with exit code 2."""
    if value < 0:
        raise ValueError(f"{flag} must be nonnegative")
    if value > limit:
        raise ValueError(f"{flag} must be at most {limit}")


def _cmd_reduce(args) -> int:
    _check_flag("-p", args.power, MAX_DEGREE)
    comp = _parse_comp(args.comp)
    if args.method in ("theorem", "both") and not comp:
        raise ValueError("--method theorem needs a nonempty composition")
    _check_cost(_walk_cost(args.power, comp), MAX_WALK_COST, "-p and --comp")
    primary = (
        reduce(args.power, comp)
        if args.method != "theorem"
        else reduce_direct(args.power, comp)
    )
    if args.method == "both":
        mismatch = form_mismatch(primary, reduce_direct(args.power, comp))
        if mismatch:
            print("structural mismatch between reduction methods", *mismatch, sep="\n")
            return 1
    print(primary.render(args.format))
    return 0


def _cmd_sum(args) -> int:
    F = parse_poly(args.poly)
    if args.power is not None:
        _check_flag("--power", args.power, MAX_POWER)
        cost = _walks_cost(F.degree, args.power, args.power)
        _check_cost(cost, MAX_WALK_COST, "--poly and --power")
        closed = (
            sum_power_shifted(F, args.power)
            if args.shifted
            else sum_power(F, args.power)
        )
    else:
        if args.shifted:
            raise ValueError("--shifted requires --power")
        factors = _parse_factors(args.factors)
        if sum(mult for _, mult in factors) > MAX_POWER:
            raise ValueError(
                f"--factors multiplicities must add up to at most {MAX_POWER}"
            )
        # every entry of the product is a sum of factor orders
        orders = [order for order, _ in factors]
        weight = sum(order * mult for order, mult in factors)
        depth = sum(mult for _, mult in factors)
        unit = math.gcd(*orders)
        cost = _walks_cost(F.degree, weight, depth, min(orders), unit)
        _check_cost(cost, MAX_WALK_COST, "--poly and --factors")
        closed = sum_product(F, factors)
    print(closed.render(args.format))
    return 0


def _cmd_eval(args) -> int:
    _check_flag("--n", args.n, MAX_EVAL_N)
    comp = _parse_comp(args.comp)
    _check_cost(_eval_cost(args.n, comp), MAX_EVAL_COST, "--n and --comp")
    num, den = _pair(args.n, comp)  # in lowest terms, never negative
    if args.format == "json":
        print(json.dumps({"value": [num, den]}))
    else:  # a constant polynomial
        print(_render(den, (num,), "n", args.format))
    return 0


def _cmd_check(args) -> int:
    _check_flag("--power", args.power, MAX_POWER)
    F = parse_poly(args.poly)
    cost = _walks_cost(F.degree, args.power, args.power)
    _check_cost(cost, MAX_WALK_COST, "--poly and --power")
    report = structure_check(F, args.power)
    terms = ", ".join([term_json(c, p) for c, p in report.offending_terms])
    passes = "true" if report.passes else "false"
    print(f'{{"passes": {passes}, "offending_terms": [{terms}]}}')
    return 0 if report.passes else 1


def _cmd_bernoulli(args) -> int:
    _check_flag("--max", args.max, MAX_BERNOULLI)
    print("index,numerator,denominator")
    for i in range(args.max + 1):
        b = bernoulli(i, args.convention)
        print(f"{i},{b.numerator},{b.denominator}")
    return 0


def _cmd_table(args) -> int:
    _check_flag("--p-max", args.p_max, MAX_DEGREE)
    _check_flag("--weight-max", args.weight_max, MAX_TABLE_WEIGHT)
    _check_flag("--n", args.n, MAX_TABLE_N)
    cost = _table_cost(args.p_max, args.weight_max, args.n)
    _check_cost(cost, MAX_TABLE_COST, "--p-max, --weight-max and --n")
    table = run_table(args.p_max, args.weight_max, args.n)
    print(table, end="")
    return 1 if ",false\n" in table else 0  # the match column is the last


def _cmd_verify(args) -> int:
    _check_flag("--max-n", args.max_n, MAX_VERIFY_N)
    return run_verify(args.suite, args.max_n)


_ACTIONS = {
    "reduce": _cmd_reduce,
    "sum": _cmd_sum,
    "eval": _cmd_eval,
    "check": _cmd_check,
    "bernoulli": _cmd_bernoulli,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built the first time ``main`` meets a command line that
    ``_read`` declines, and reused after it; a well-formed line never
    builds it."""
    return build_parser()


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the flag table reads a well-formed line; argparse reads any other, so
    # help, usage errors and exit codes are its own.  Both run before the
    # digit guard is lifted, so an int flag of 5,000 digits is a usage error.
    args = _read(argv)
    if args is None:
        args = _parser().parse_args(argv)
    # Exact results can have more digits than the interpreter's int-to-str
    # guard allows (4300 by default).  Lift it for this call only, so that
    # library callers in the same process see no change.
    digit_limit = (
        sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    )
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = _ACTIONS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except (PolyParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush at
        # exit cannot raise again (the Python docs' note on SIGPIPE)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output closed before the output ended", file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
