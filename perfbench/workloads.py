"""Seeded workload items, how to run one, and how to check its output.

An item is ``(kind, request, key)``.  ``kind`` is ``"cli"`` (``request`` is
an argv list for ``mhsums.cli.main``), ``"structured"`` (``request`` is a
``(kind, arg)`` pair for ``mhsums.sums.structured_form``) or ``"verify"``
(``request`` is an index into the ``verify --suite all`` check list).
``key`` is the request written as one line; frozen output digests are keyed
by it.

Each workload keeps the *shape* of its items fixed (powers, depths, weights,
polynomial degrees, inner powers, and the order they are sent in) and lets
the seed choose the rest (compositions, coefficients, and where in the
verify suite to start).  Item costs span three orders of magnitude, so a
fixed shape is what keeps the total work and the percentiles comparable
from one seed to the next.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

WORKLOADS = ("reduce_deep", "sum_session", "verify_deep")

# reduce_deep.  The heaviest requests use compositions of all ones, the only
# composition of their depth and weight, so the slow end of the latency
# distribution is the same for every seed.  The seed picks the compositions
# of every other (depth, weight) pair; those requests are all cheaper.
REDUCE_ONES = {3: (18, 22, 26), 4: (14, 16, 18), 5: (8, 10, 12, 14)}
REDUCE_POWERS = {2: range(6, 27, 2), 3: range(6, 19, 2), 4: (6, 10), 5: (6,)}
REDUCE_MAX_WEIGHT = 7
STRUCTURED_POWERS = (30, 40)
HN4_DEGREES = (10, 12)

# sum_session: (weight degrees, inner powers or factor lists) per request type
SUM_POWER = (range(9), range(1, 7))
SUM_SHIFTED = ((2, 5, 8), range(1, 8))
SUM_FACTORS = ((3, 6), ("1^1,2^1", "1^2,2^1", "1^1,3^1", "2^2,1^1", "1^2,2^2", "1^3,2^1", "1^1,2^2", "2^1,3^1"))
CHECK = ((2, 4, 6, 8), range(1, 7))

# The order requests are sent in.  Which request pays for filling the memo
# caches depends on it, and with it the latency percentiles, so it is the
# same permutation for every seed.
ORDER_SEED = 2021

# verify_deep: the upper limit every identity is checked up to.
VERIFY_MAX_N = 80

# Upper limits at which outputs are compared with the direct evaluator.
SPOT_N = (1, 2, 3, 5, 8)


def compositions(depth: int, weight: int) -> "list[tuple[int, ...]]":
    """All compositions of ``weight`` into ``depth`` positive parts."""
    out = []
    for cuts in itertools.combinations(range(1, weight), depth - 1):
        bounds = (0,) + cuts + (weight,)
        out.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return out


def _comp_arg(comp) -> str:
    # argparse reads "--comp -3,1" as a missing value; the "=" form is safe
    # for every composition.
    return "--comp=" + ",".join(str(k) for k in comp)


def _dense_coeffs(rng: random.Random, degree: int) -> "list[int]":
    return [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(degree + 1)]


def _poly_text(coeffs: "list[int]") -> str:
    text = ""
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        power = "m" if i == 1 else f"m^{i}"
        if i == 0:
            mono = str(abs(c))
        elif abs(c) == 1:
            mono = power
        else:
            mono = f"{abs(c)}*{power}"
        if text:
            text += (" - " if c < 0 else " + ") + mono
        else:
            text = ("-" if c < 0 else "") + mono
    return text


def _cli(argv: "list[str]"):
    return ("cli", argv, " ".join(argv))


def _reduce(p: int, comp) -> tuple:
    return _cli(["reduce", "-p", str(p), _comp_arg(comp), "--method", "both", "--format", "json"])


def reduce_deep(seed: int) -> list:
    rng = random.Random(seed)
    items = [_reduce(p, (1,) * depth) for depth, powers in REDUCE_ONES.items() for p in powers]
    for depth, powers in REDUCE_POWERS.items():
        for weight in range(depth + 1, REDUCE_MAX_WEIGHT + 1):
            choices = compositions(depth, weight)
            items += [_reduce(p, rng.choice(choices)) for p in powers]
    for kind in ("hn3", "mixed"):
        for p in STRUCTURED_POWERS:
            items.append(("structured", (kind, p), f"structured {kind} {p}"))
    for degree in HN4_DEGREES:
        coeffs = _dense_coeffs(rng, degree)
        items.append(("structured", ("hn4", coeffs), f"structured hn4 {_poly_text(coeffs)}"))
    random.Random(ORDER_SEED).shuffle(items)
    return items


def sum_session(seed: int) -> list:
    rng = random.Random(seed)
    items = []

    def poly(degree):
        return _poly_text(_dense_coeffs(rng, degree))

    degrees, powers = SUM_POWER
    for d, t in itertools.product(degrees, powers):
        items.append(_cli(["sum", "--poly", poly(d), "--power", str(t), "--format", "json"]))
    degrees, powers = SUM_SHIFTED
    for d, t in itertools.product(degrees, powers):
        items.append(_cli(["sum", "--poly", poly(d), "--power", str(t), "--shifted", "--format", "json"]))
    degrees, shapes = SUM_FACTORS
    for d, shape in itertools.product(degrees, shapes):
        items.append(_cli(["sum", "--poly", poly(d), "--factors", shape, "--format", "json"]))
    degrees, powers = CHECK
    for d, t in itertools.product(degrees, powers):
        items.append(_cli(["check", "--poly", poly(d), "--power", str(t)]))
    random.Random(ORDER_SEED).shuffle(items)
    return items


def verify_deep(seed: int, labels: "list[str]") -> list:
    """Every check of ``verify --suite all`` in suite order, starting at a
    seeded offset and wrapping around."""
    start = random.Random(seed).randrange(len(labels))
    order = list(range(start, len(labels))) + list(range(start))
    return [("verify", i, labels[i]) for i in order]


# ------------------------------------------------------------------ checks


def _direct_sums(F, factor, start: int) -> "list[Fraction]":
    """Running values of sum_{m=start..n} F(m) * factor(m) for n <= max(SPOT_N)."""
    out, acc = [], Fraction(0)
    for n in range(max(SPOT_N) + 1):
        if n >= start:
            acc += F.eval(n) * factor(n)
        out.append(acc)
    return out


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def spot_check(item, output) -> "str | None":
    """Compare one item's output with the direct evaluator at a few small n.
    Returns the reason it is wrong, or None."""
    from mhsums import ClosedForm, Polynomial, mhs_eval, mhs_values
    from mhsums.cli import parse_poly
    from mhsums.sums import structured_to_closed

    kind, request, _ = item
    if kind == "verify":
        return None  # the check itself compares against the direct evaluator
    if kind == "cli" and request[0] == "check":
        if json.loads(output) != {"passes": True, "offending_terms": []}:
            return "structure check did not pass"
        return None

    top = max(SPOT_N)
    h1, h2 = mhs_values(top, (1,)), mhs_values(top, (2,))
    if kind == "structured":
        form, arg = request
        F = Polynomial(arg) if form == "hn4" else Polynomial.monomial(arg)
        factor = {
            "hn3": lambda m: h1[m - 1] ** 3,
            "mixed": lambda m: h1[m - 1] * h2[m - 1],
            "hn4": lambda m: h1[m - 1] ** 4,
        }[form]
        closed, direct = structured_to_closed(output), _direct_sums(F, factor, 1)
    elif request[0] == "reduce":
        p = int(_flag(request, "-p"))
        comp = tuple(int(k) for k in request[3].partition("=")[2].split(","))
        closed = ClosedForm.from_json(output)
        direct = [mhs_eval(n, (-p,) + comp) for n in range(top + 1)]
    else:
        F = parse_poly(_flag(request, "--poly"))
        if "--factors" in request:
            factors = []
            for part in _flag(request, "--factors").split(","):
                order, _, mult = part.partition("^")
                factors.append((mhs_values(top, (int(order),)), int(mult)))

            def factor(m):
                acc = Fraction(1)
                for values, mult in factors:
                    acc *= values[m - 1] ** mult
                return acc

            direct = _direct_sums(F, factor, 1)
        else:
            t = int(_flag(request, "--power"))
            if "--shifted" in request:
                direct = _direct_sums(F, lambda m: h1[m] ** t, 0)
            else:
                direct = _direct_sums(F, lambda m: h1[m - 1] ** t, 1)
        closed = ClosedForm.from_json(output)
    for n in SPOT_N:
        got = closed.eval(n)
        if got != direct[n]:
            return f"n={n}: closed form gives {got}, direct sum gives {direct[n]}"
    return None


def describe(output) -> str:
    """The text an item's digest is taken over."""
    if isinstance(output, str):
        return output
    if isinstance(output, tuple):  # a verify verdict (ok, detail)
        return f"{'PASS' if output[0] else 'FAIL'} {output[1]}"
    # a StructuredForm
    polys = [output.leading, *output.q, output.c2]
    return "|".join(
        [str(output.power), ",".join(map(str, output.extra_orders))]
        + [p.text("n") for p in polys]
        + [str(output.c21), str(output.c3)]
    )
