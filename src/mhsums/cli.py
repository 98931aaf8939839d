"""Command-line interface: reduce, sum, eval, check, bernoulli, table, verify.

Exit codes: 0 on success, 1 when a verification or cross-check fails, 2 for
usage or parse errors and when standard output is closed before the output
ends (``... | head``), so that a cut-off ``verify`` never reads as a pass.
Every emitter is deterministic: the same invocation produces byte-identical
output.

A command line that starts with a subcommand is read by its parser alone
(``build_parser``'s ``commands``); anything else, or left over, goes to the
full parser, so help, usage errors and exit codes are the full parser's.

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


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mhsums",
        description=(
            "Exact closed forms for power-weighted sums of harmonic numbers "
            "and multiple harmonic sums."
        ),
    )
    sub = top.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=FORMATS, default="text")

    p_reduce = sub.add_parser(
        "reduce",
        parents=[fmt],
        help="closed form of sum m^p * H_{m-1}(composition)",
    )
    p_reduce.add_argument("-p", dest="power", type=int, required=True)
    p_reduce.add_argument("--comp", default="", help="composition, e.g. '2,1'")
    p_reduce.add_argument("--method", choices=METHODS, default="recurrence")

    p_sum = sub.add_parser(
        "sum",
        parents=[fmt],
        help="closed form of sum F(m) * (harmonic factors at m-1)",
    )
    p_sum.add_argument("--poly", required=True, help="weight, e.g. '3*m^2+m'")
    group = p_sum.add_mutually_exclusive_group(required=True)
    group.add_argument("--power", type=int, help="inner power t of H_{m-1}")
    group.add_argument("--factors", help="factor list, e.g. '1^1,2^1'")
    p_sum.add_argument(
        "--shifted",
        action="store_true",
        help="sum F(m) * H_m^t over m = 0..n instead (requires --power)",
    )

    p_eval = sub.add_parser(
        "eval", parents=[fmt], help="exact value of one (extended) harmonic sum"
    )
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--comp", default="")

    p_check = sub.add_parser(
        "check", help="remainder structure report for sum F(m) * H_{m-1}^t"
    )
    p_check.add_argument("--poly", required=True)
    p_check.add_argument("--power", type=int, required=True)

    p_bern = sub.add_parser("bernoulli", help="Bernoulli numbers as CSV")
    p_bern.add_argument("--max", type=int, required=True)
    p_bern.add_argument("--convention", choices=("plus", "minus"), default="plus")

    p_table = sub.add_parser(
        "table", help="CSV comparing the direct evaluator with reduced forms"
    )
    p_table.add_argument("--p-max", type=int, required=True)
    p_table.add_argument("--weight-max", type=int, required=True)
    p_table.add_argument("--n", type=int, required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument("--max-n", type=int, required=True)

    top.commands = sub.choices  # name -> subparser, read by ``main``
    return top


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
    """The parser, built on the first ``main`` call and reused after it:
    building takes about 20 times as long as a full parse of one command
    line, and 30 times as long as its subcommand's parser alone."""
    return build_parser()


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    top = _parser()
    # a subcommand's own parser reads its arguments as the full parser would
    # hand them down; anything else, or anything left over, goes to the full
    # parser, which reports it
    sub = top.commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        args.command = argv[0]
    if sub is None or rest:
        args = top.parse_args(argv)
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
