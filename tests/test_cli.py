import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhsums import cli, verify
from mhsums.cli import (
    MAX_BERNOULLI,
    MAX_CONSTANT_BITS,
    MAX_DEGREE,
    MAX_DEPTH,
    MAX_EVAL_N,
    MAX_NESTING,
    MAX_POWER,
    MAX_TABLE_N,
    MAX_TABLE_WEIGHT,
    MAX_VERIFY_N,
    PolyParseError,
    main,
    parse_poly,
)
from mhsums.closedform import ClosedForm
from mhsums.oracle import mhs_eval
from mhsums.polynomial import Polynomial
from mhsums.reducer import reduce
from mhsums.sums import StructureReport

x = Polynomial.variable()


# ------------------------------------------------------------- the parser


def test_parse_basic_forms():
    assert parse_poly("3*m^2+m") == 3 * x ** 2 + x
    assert parse_poly("1") == Polynomial.constant(1)
    assert parse_poly("(m-1)^2") == x ** 2 - 2 * x + 1
    # decimal digits of other scripts are numbers, as int() reads them
    assert parse_poly("\uff13*m") == 3 * x  # full-width 3
    assert parse_poly("m^\u0663") == x ** 3  # Arabic-Indic 3


def test_parse_whitespace_insensitive():
    assert parse_poly(" 3 * m ^ 2 + m ") == parse_poly("3*m^2+m")


def test_parse_rational_coefficients():
    assert parse_poly("1/2*m") == x / 2
    assert parse_poly("m/2") == x / 2
    assert parse_poly("(m^2+m)/2") == (x ** 2 + x) / 2


def test_parse_both_variable_letters():
    assert parse_poly("2*n-1") == parse_poly("2*m-1") == 2 * x - 1


def test_parse_unary_signs():
    assert parse_poly("-m") == -x
    assert parse_poly("+m-1") == x - 1
    assert parse_poly("5-3") == Polynomial.constant(2)


def test_parse_implicit_grouping():
    assert parse_poly("2*(m+1)*(m-1)") == 2 * x ** 2 - 2


def test_unknown_identifier():
    with pytest.raises(PolyParseError) as info:
        parse_poly("3*k^2")
    assert "unknown identifier" in str(info.value)
    assert info.value.offset == 2


def test_unexpected_character_offset():
    with pytest.raises(PolyParseError) as info:
        parse_poly("m + $")
    assert info.value.offset == 4


def test_unbalanced_parenthesis():
    with pytest.raises(PolyParseError):
        parse_poly("(m+1")
    with pytest.raises(PolyParseError):
        parse_poly("m+1)")


def test_division_in_exponents():
    with pytest.raises(PolyParseError) as info:
        parse_poly("m^(2/3)")
    assert "division in exponents" in str(info.value)
    with pytest.raises(PolyParseError) as info2:
        parse_poly("m^2/3")
    assert "division in exponents" in str(info2.value)
    assert info2.value.offset == 3


def test_non_literal_exponent():
    with pytest.raises(PolyParseError):
        parse_poly("m^m")
    with pytest.raises(PolyParseError):
        parse_poly("m^(2)")


def test_division_restrictions():
    with pytest.raises(PolyParseError) as info:
        parse_poly("1/m")
    assert "nonzero constant" in str(info.value)
    with pytest.raises(PolyParseError):
        parse_poly("m/0")
    with pytest.raises(PolyParseError):
        parse_poly("m/(2-2)")


frac9 = st.fractions(
    min_value=-9, max_value=9, max_denominator=9
)


def test_nesting_limit():
    nested = "(" * MAX_NESTING + "m" + ")" * MAX_NESTING
    assert parse_poly(nested) == x
    with pytest.raises(PolyParseError) as info:
        parse_poly("(" + nested + ")")
    assert "nested too deeply" in str(info.value)
    assert info.value.offset == MAX_NESTING


def test_degree_limit():
    assert parse_poly(f"m^{MAX_DEGREE}") == x ** MAX_DEGREE
    assert parse_poly("(m^10)^10 * 3^100") == 3 ** 100 * x ** 100
    assert parse_poly("m^50*m^50").degree == MAX_DEGREE
    # offsets: the exponent literal, or the factor that pushes the degree over
    for text, offset in (
        (f"m^{MAX_DEGREE + 1}", 2),
        ("m^100000", 2),
        ("2^100000", 2),
        ("(m^50)^50", 7),
        ("m^60*m^60", 5),
        ("1 + m^50*(m^25*m^26)", 9),
    ):
        with pytest.raises(PolyParseError) as info:
            parse_poly(text)
        assert "above the limit" in str(info.value)
        assert info.value.offset == offset


@pytest.fixture
def no_digit_guard():
    """Lift the int-to-str digit guard, so a test can write big literals."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    yield
    if limit is not None:
        sys.set_int_max_str_digits(limit)


def test_constant_limit(no_digit_guard):
    big = "(9^100)^100"  # 31,700 bits
    assert parse_poly(big) == Polynomial.constant(9 ** 10000)
    largest = 2 ** MAX_CONSTANT_BITS - 1
    assert parse_poly(str(largest)) == Polynomial.constant(largest)
    # the bit lengths of a product's factors add up: m's coefficient has one
    assert parse_poly(f"{2 ** (MAX_CONSTANT_BITS - 1) - 1}*m").degree == 1
    # each coefficient is measured in lowest terms: 10,001 + 20,001 bits,
    # where the row's shared numerator of the first factor alone has 20,001
    A = 2 ** 10_000
    text = "(1/(2^100)^100*m^2 + (2^100)^100)*((2^100)^100)^2"
    assert parse_poly(text) == Polynomial((A**3, 0, A))
    # offsets: the literal, the exponent, or the factor that pushes a
    # numerator or denominator over
    for text, offset in (
        (str(largest + 1), 0),
        (f"{largest}*m", len(str(largest)) + 1),
        (f"({big})^100", 14),
        (f"{big}*{big}", 12),
        (f"m/({big})/({big})", 16),
        ("m^2*((9^100)^50)^3", 17),
    ):
        with pytest.raises(PolyParseError) as info:
            parse_poly(text)
        assert "above the limit" in str(info.value)
        assert info.value.offset == offset


def test_constant_limit_counts_negative_coefficients(no_digit_guard):
    # the integer rows' sizes are taken over |c|: 31,700 + 9,510 bits
    for text in ("(m - (9^100)^100)*(9^100)^30", "(-(9^100)^100 + m)*(9^100)^30"):
        with pytest.raises(PolyParseError) as info:
            parse_poly(text)
        assert "above the limit" in str(info.value)
        assert info.value.offset == text.index("*") + 1
    assert parse_poly("(m - (9^100)^100)*(9^100)^20").degree == 1


@given(st.lists(frac9, max_size=5).map(Polynomial))
def test_round_trip_through_text(p):
    assert parse_poly(p.text("m")) == p
    assert parse_poly(p.text("n")) == p


def random_expr(rng, depth):
    """(text, the same expression built from Polynomial operators, the same
    expression as Python source over Fractions) for a random weight: signed
    sums of products and quotients of literals, variables, bracketed
    expressions and their powers, with a leading sign now and then."""
    texts, polys, sources = [], [], []
    for k in range(rng.randint(1, 3)):
        sign = rng.choice(["", "", "-", "+"]) if k == 0 else rng.choice("+-")
        text, poly, source = random_term(rng, depth)
        texts.append(f"{sign} {text}" if k else sign + text)
        polys.append(-poly if sign == "-" else poly)
        sources.append(f"{sign or '+'}{source}")
    return " ".join(texts), sum(polys[1:], polys[0]), "(" + "".join(sources) + ")"


def random_term(rng, depth):
    text, poly, source = random_factor(rng, depth)
    for _ in range(rng.randint(0, 2)):
        # division only by a nonzero constant, and not right after a power
        # (``m^2/3`` reads as a division in the exponent)
        if rng.random() < 0.3 and not re.search(r"\^\d+$", text):
            c = rng.randint(1, 12)
            text, poly, source = f"{text}/{c}", poly / c, f"{source}/Fraction({c})"
        else:
            t, p, s = random_factor(rng, depth)
            text, poly, source = f"{text}*{t}", poly * p, f"{source}*{s}"
    return text, poly, source


def random_factor(rng, depth):
    roll, top = rng.random(), 3  # the largest exponent
    if depth and roll < 0.35:
        text, poly, source = random_expr(rng, depth - 1)
        text, top = f"({text})", 2  # which keeps the degree below MAX_DEGREE
    elif roll < 0.55:  # a monomial in brackets: c*m^j or 1/c*m^j
        c, j = rng.randint(1, 9), rng.randint(0, 3)
        if rng.random() < 0.5:
            text, poly = f"({c}*m^{j})", Polynomial.monomial(j, c)
            source = f"(Fraction({c})*m**{j})"
        else:
            text, poly = f"(1/{c}*m^{j})", Polynomial.monomial(j, Fraction(1, c))
            source = f"(Fraction(1, {c})*m**{j})"
    elif roll < 0.8:
        c = rng.randint(0, 20)
        text, poly, source = str(c), Polynomial.constant(c), f"Fraction({c})"
    else:
        text = rng.choice("mn")
        poly, source = Polynomial.variable(), "m"
    if rng.random() < 0.4:
        k = rng.randint(0, top)
        text, poly, source = f"{text}^{k}", poly ** k, f"({source})**{k}"
    return text, poly, source


def test_parser_matches_polynomial_operators():
    # the parser adds a sum's terms in one row and writes monomial powers
    # directly; the result must be the polynomial the operators build, and
    # must take the values of the expression read as Python over Fractions
    rng = random.Random(20211)
    points = [Fraction(v) for v in (-3, -1, 0, 2, 5)] + [Fraction(-7, 3)]
    for _ in range(400):
        text, want, source = random_expr(rng, 2)
        got = parse_poly(text)
        assert got == want, text
        assert (got._den, got._ints) == (want._den, want._ints), text
        for v in points:
            value = eval(source, {"Fraction": Fraction, "m": v})
            assert got.eval(v) == value, (text, v)


# ------------------------------------------------------------ subcommands


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce_text(capsys):
    code, out, _ = run_cli(["reduce", "-p", "1", "--comp", "1"], capsys)
    assert code == 0
    assert out.strip() == "-1/4*n^2 - 3/4*n + (1/2*n^2 + 1/2*n)*H(1)"


def test_reduce_methods_agree(capsys):
    code, out, _ = run_cli(
        ["reduce", "-p", "2", "--comp", "2,1", "--method", "both"], capsys
    )
    assert code == 0
    assert "H(2,1)" in out


def test_methods_mismatch_names_differing_terms(capsys, monkeypatch):
    def perturbed(reduce_direct):
        return lambda p, comp: reduce_direct(p, comp) + ClosedForm({(2, 1): x})

    monkeypatch.setattr(cli, "reduce_direct", perturbed(cli.reduce_direct))
    code, out, _ = run_cli(
        ["reduce", "-p", "2", "--comp", "2,1", "--method", "both"], capsys
    )
    assert code == 1
    assert out.splitlines() == [
        "structural mismatch between reduction methods",
        "compositions whose coefficients differ: (2,1)",
        "evaluations for n <= 50 differ",
    ]

    monkeypatch.setattr(verify, "reduce_direct", perturbed(verify.reduce_direct))
    checks = dict(verify.reduce_suite_checks(3))
    ok, detail = checks["reduce p=2 comp=(2,1) methods-agree"]()
    assert not ok
    assert "compositions whose coefficients differ: (2,1);" in detail
    assert detail.endswith("evaluations for n <= 50 differ")


def test_route_and_structured_mismatches_name_differing_terms(monkeypatch):
    # perturb the sum_product route that both checks compare against
    def perturbed(F, factors):
        return sum_product(F, factors) + ClosedForm({(3,): 1})

    sum_product = verify.sum_product
    monkeypatch.setattr(verify, "sum_product", perturbed)
    checks = dict(verify.sums_suite_checks(3))
    for label in (
        "sum-product H^2 route consistency",
        "structured hn2 p=1 matches flat",
        "structured mixed p=2 matches flat",
        "structured hn4 F#3 matches flat",
    ):
        ok, detail = checks[label]()
        assert not ok, label
        assert "; compositions whose coefficients differ: (3); " in detail, label
        assert detail.endswith("evaluations for n <= 50 differ"), label


def test_oracle_mismatches_name_the_first_n(monkeypatch):
    # each closed route gains n, which first shows at n = 1
    for name in ("reduce", "sum_power", "sum_power_shifted", "sum_product"):
        route = getattr(verify, name)
        monkeypatch.setattr(
            verify, name, lambda *a, route=route: route(*a) + ClosedForm({(): x})
        )
    checks = dict(verify.reduce_suite_checks(4) + verify.sums_suite_checks(4))
    for label, want in (
        ("reduce p=1 comp=(1) oracle", Fraction(0)),
        ("sum-power F#1 t=2 oracle", Fraction(0)),
        ("sum-power-shifted F#1 t=2 oracle", Fraction(1)),
        ("sum-product F#0 H*H(2) oracle", Fraction(0)),
    ):
        assert checks[label]() == (False, f"n=1: closed {want + 1} != direct {want}")


def test_table_exits_1_on_a_false_row(monkeypatch, capsys):
    # each closed form gains n, so both rows at n = 3 are false
    route = verify.reduce
    monkeypatch.setattr(verify, "reduce", lambda *a: route(*a) + ClosedForm({(): x}))
    argv = ["table", "--p-max", "0", "--weight-max", "1", "--n", "3"]
    assert run_cli(argv, capsys) == (
        1,
        "p,composition,n,oracle_num,oracle_den,closed_num,closed_den,match\n"
        "0,,3,3,1,6,1,false\n"
        "0,1,3,5,2,11,2,false\n",
        "",
    )


def perturb_routes(monkeypatch, extra):
    for name in ("reduce", "sum_power", "sum_power_shifted", "sum_product"):
        route = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *a, route=route: route(*a) + extra)
    return dict(verify.reduce_suite_checks(6) + verify.sums_suite_checks(6))


def test_oracle_mismatch_lines_for_a_tiny_extra_term(monkeypatch):
    # 10**-9 * n * H_n(1) is 10**-9 at n = 1, where these sums are still 0
    checks = perturb_routes(monkeypatch, ClosedForm({(1,): Fraction(1, 10**9) * x}))
    labels = ["reduce p=3 comp=(2,1) oracle"]
    labels += [f"sum-power F#{i} t=3 oracle" for i in range(5)]
    for label in labels:
        assert checks[label]() == (False, "n=1: closed 1/1000000000 != direct 0")


def test_oracle_mismatch_lines_past_the_first_n(monkeypatch):
    # 10**-9 * H_n(3,1,1) first shows at n = 3, against nonzero direct values
    checks = perturb_routes(monkeypatch, ClosedForm({(3, 1, 1): Fraction(1, 10**9)}))
    for label, closed, direct in (
        ("reduce p=1 comp=(1) oracle", "351000000001/54000000000", "13/2"),
        ("reduce p=4 comp=(1,2) oracle", "2187000000001/54000000000", "81/2"),
        ("sum-power-shifted F#4 t=2 oracle", "3027000000001/54000000000", "1009/18"),
        ("sum-product F#1 H*H(2) oracle", "411750000001/54000000000", "61/8"),
    ):
        assert checks[label]() == (False, f"n=3: closed {closed} != direct {direct}")


@given(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), max_size=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=30),
)
def test_direct_weighted_sum_matches_fraction_sums(coeffs, t, start, max_n):
    F = Polynomial(coeffs)
    comps = ((2, 1), (3,))
    h = {comp: [mhs_eval(n, comp) for n in range(max_n + 1)] for comp in comps}
    # H(2,1)**t alone, and times H(3)**2
    for factors in ([((2, 1), t)], [((2, 1), t), ((3,), 2)]):
        nums, w, den = verify._direct_weighted_sum(F, factors, max_n, start)
        acc, want = Fraction(0), []
        for n in range(max_n + 1):
            if n >= start:
                term = F.eval(n)
                for comp, e in factors:
                    term *= h[comp][n - start] ** e
                acc += term
            want.append(acc)
        # over den(F) * lcm(1..n)**w, w the weight of the product
        assert (w, den) == (sum(sum(comp) * e for comp, e in factors), F._den)
        assert [
            Fraction(a, den * math.lcm(*range(1, n + 1)) ** w)
            for n, a in enumerate(nums)
        ] == want


def test_reduce_json_is_valid(capsys):
    code, out, _ = run_cli(
        ["reduce", "-p", "0", "--comp", "1", "--format", "json"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"][0]["composition"] == []


def test_reduce_empty_composition_is_faulhaber(capsys):
    code, out, _ = run_cli(["reduce", "-p", "2", "--comp", ""], capsys)
    assert code == 0
    assert out.strip() == "1/3*n^3 + 1/2*n^2 + 1/6*n"


def test_reduce_usage_errors(capsys):
    assert run_cli(["reduce", "-p", "-1", "--comp", "1"], capsys)[0] == 2
    assert run_cli(["reduce", "-p", "1", "--comp", "0,1"], capsys)[0] == 2
    assert (
        run_cli(["reduce", "-p", "1", "--comp", "", "--method", "theorem"], capsys)[0]
        == 2
    )
    assert run_cli(["reduce", "-p", "1", "--comp", "1,x"], capsys)[0] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--suite", "all", "--max-n", "-1"], "--max-n must be nonnegative"),
        (
            ["reduce", "-p", "1", "--method", "both"],
            "--method theorem needs a nonempty composition",
        ),
        (
            ["sum", "--poly", "m", "--factors", "1", "--shifted"],
            "--shifted requires --power",
        ),
        (
            ["sum", "--poly", "m", "--factors", "1^"],
            "--factors entry '1^' must be ORDER or ORDER^MULT",
        ),
        (
            ["sum", "--poly", "m", "--factors", "1^1,x"],
            "--factors entry 'x' must be ORDER or ORDER^MULT",
        ),
        (
            ["sum", "--poly", "m", "--factors", "1^1^2"],
            "--factors entry '1^1^2' must be ORDER or ORDER^MULT",
        ),
        (
            ["sum", "--poly", "m^3", "--factors=2^1,-1^3"],
            "factor orders must be positive integers",
        ),
        # digits that are not decimal (superscripts) are no number to int()
        (
            ["sum", "--poly", "m^\u00b2", "--power", "1"],
            "unexpected character '\u00b2' (at offset 2)",
        ),
        (
            ["check", "--poly", "2*m^1\u00b3", "--power", "1"],
            "unexpected character '\u00b3' (at offset 5)",
        ),
    ],
)
def test_usage_errors_one_line(argv, message, capsys):
    assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")


def test_sum_matches_reduce_route(capsys):
    _, via_sum, _ = run_cli(["sum", "--poly", "m", "--power", "1"], capsys)
    _, via_reduce, _ = run_cli(["reduce", "-p", "1", "--comp", "1"], capsys)
    assert via_sum == via_reduce


def test_sum_shifted(capsys):
    code, out, _ = run_cli(
        ["sum", "--poly", "2*m - 1", "--power", "1", "--shifted"], capsys
    )
    assert code == 0
    assert out.strip() == "-1/2*n^2 + 3/2*n + (n^2 - 1)*H(1)"


def test_sum_parse_error_exit_code(capsys):
    code, _, err = run_cli(["sum", "--poly", "3*k", "--power", "2"], capsys)
    assert code == 2
    assert "unknown identifier" in err


def test_sum_deep_nesting_exit_code(capsys):
    # 2,000 levels used to exhaust the interpreter stack inside the parser
    deep = "(" * 2000 + "m" + ")" * 2000
    code, out, err = run_cli(["sum", "--poly", deep, "--power", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: parentheses nested too deeply")
    assert len(err.splitlines()) == 1


LIMIT_INPUTS = [
    ["sum", "--poly", "m^100000", "--power", "0"],
    ["sum", "--poly", "(m^50)^50", "--power", "1"],
    ["sum", "--poly", "m^60*m^60", "--power", "1"],
    ["check", "--poly", "m^100000", "--power", "1"],
    ["sum", "--poly", "m", "--power", str(MAX_POWER + 1)],
    ["sum", "--poly", "m", "--power", "100000", "--shifted"],
    ["check", "--poly", "m", "--power", str(MAX_POWER + 1)],
    ["sum", "--poly", "m", "--factors", f"1^{MAX_POWER - 1},2^2"],
    ["sum", "--poly", "((9^100)^100)^100", "--power", "0"],
    ["sum", "--poly", "(9^100)^100*(9^100)^100", "--power", "0"],
    ["check", "--poly", "9" * 12100, "--power", "0"],  # 40,196 bits
    ["reduce", "-p", "100000", "--comp", "1"],
    ["reduce", "-p", str(MAX_DEGREE + 1)],
    ["reduce", "-p", "1", "--comp", f"1,{MAX_DEGREE + 1}"],
    ["eval", "--n", "50", "--comp", "5000000"],
    ["eval", "--n", "50", f"--comp=-{MAX_DEGREE + 1},1"],
    ["eval", "--n", "100000000", "--comp", "1"],
    ["eval", "--n", str(MAX_EVAL_N + 1)],
    ["bernoulli", "--max", "200000"],
    ["bernoulli", "--max", str(MAX_BERNOULLI + 1)],
    # 500 entries used to end in a RecursionError in reduce
    ["reduce", "-p", "0", "--comp", ",".join(["1"] * 500)],
    ["reduce", "-p", "1", "--comp", ",".join(["1"] * (MAX_DEPTH + 1))],
    ["eval", "--n", "3000", "--comp", ",".join(["1"] * 2000)],
    ["eval", "--n", "5", "--comp", ",".join(["1"] * (MAX_DEPTH + 1))],
    # inside every single limit, but jointly too costly
    ["eval", "--n", "3000", "--comp", ",".join(["1"] * MAX_DEPTH)],
    ["eval", "--n", "20000", "--comp", "1,1"],
    ["eval", "--n", "10000", "--comp", "1,1"],
    ["eval", "--n", "20000", "--comp", "100"],
    ["eval", "--n", "2000", "--comp", "1,100"],
    # walks jointly too costly: 25 s, 9 s, 27 s, not run, 10 s and 67 s;
    # the last one spends 24 s in the stuffle product alone
    ["reduce", "-p", "100", "--comp", ",".join(["1"] * MAX_DEPTH)],
    ["reduce", "-p", "100", "--comp", ",".join(["1"] * 50), "--method", "both"],
    ["sum", "--poly", "m^100", "--power", "10"],
    ["sum", "--poly", "m^100", "--power", str(MAX_POWER)],
    ["check", "--poly", "m^30", "--power", str(MAX_POWER)],
    ["sum", "--poly", "m^100", "--factors", "1^4,2^4"],
    ["sum", "--poly", "1", "--factors", "1^4,2^4,3^4"],
    # the estimate summed over prefixes of negative weight for 16 s
    ["sum", "--poly", "m^3", "--factors=-100000^6,100000^6"],
    ["verify", "--suite", "reduce", "--max-n", "2000"],
    ["verify", "--suite", "all", "--max-n", str(MAX_VERIFY_N + 1)],
    ["table", "--p-max", str(MAX_DEGREE + 1), "--weight-max", "1", "--n", "1"],
    ["table", "--p-max", "1", "--weight-max", f"{MAX_TABLE_WEIGHT + 1}", "--n", "1"],
    ["table", "--p-max", "1", "--weight-max", "1", "--n", str(MAX_TABLE_N + 1)],
    # table jointly too costly: 13 s, still running after 100 s, and 17 s,
    # of which the walks alone would be estimated at about 3 s
    ["table", "--p-max", "10", "--weight-max", "10", "--n", "20"],
    ["table", "--p-max", "100", "--weight-max", "6", "--n", "20"],
    ["table", "--p-max", "25", "--weight-max", "8", "--n", "1"],
]


@pytest.mark.parametrize("argv", LIMIT_INPUTS)
def test_input_limits_exit_fast(argv, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


def reference_walks_cost(degree, weight, depth, least=1, unit=1):
    """``cli._walks_cost`` as first written: the completions of each prefix
    summed afresh for every (i, s)."""

    def count(w, parts):
        if w % unit:
            return 0
        w = w // unit - parts * (least // unit - 1)
        return math.comb(w - 1, parts - 1) if w > 0 and parts > 0 else int(w == parts)

    cost = 0.0
    for i in range(depth + 1):
        for s in range(i * least, min(weight, degree + i) + 1):
            ends = sum(count(weight - s, r) for r in range(depth - i + 1))
            step = (degree + i - s + 1) ** 2.8 * (i + 1) ** 0.9 + 3_000
            cost += count(s, i) * ends * step
    return cost


def test_walks_cost_is_the_reference_float():
    # the same float, bit for bit, so that sum and check accept and refuse
    # the inputs they did: every --power at every degree, and --factors
    # lists, among them the refused ones of test_input_limits_exit_fast
    for degree in range(-1, MAX_DEGREE + 1):
        for t in range(MAX_POWER + 1):
            assert cli._walks_cost(degree, t, t) == reference_walks_cost(degree, t, t)
    shapes = ("1^11,2^2", "1^4,2^4", "1^4,2^4,3^4", "2^7,4^5", "2^1,3^1", "1000^12")
    for shape in shapes:
        factors = cli._parse_factors(shape)
        orders = [order for order, _ in factors]
        args = (
            sum(order * mult for order, mult in factors),
            sum(mult for _, mult in factors),
            min(orders),
            math.gcd(*orders),
        )
        for degree in range(MAX_DEGREE + 1):
            assert cli._walks_cost(degree, *args) == reference_walks_cost(degree, *args)


def test_largest_accepted_inputs(capsys, no_digit_guard):
    code, out, err = run_cli(
        ["reduce", "-p", str(MAX_DEGREE), "--comp", str(MAX_DEGREE)], capsys
    )
    assert (code, err) == (0, "")
    assert out == reduce(MAX_DEGREE, (MAX_DEGREE,)).render() + "\n"
    for comp, want in (
        (str(MAX_DEGREE), mhs_eval(5, (MAX_DEGREE,))),
        (f"-{MAX_DEGREE},1", mhs_eval(5, (-MAX_DEGREE, 1))),
    ):
        code, out, err = run_cli(["eval", "--n", "5", f"--comp={comp}"], capsys)
        assert (code, err, out) == (0, "", f"{want}\n")
    largest = 2 ** MAX_CONSTANT_BITS - 1
    code, out, err = run_cli(
        ["sum", "--poly", str(largest), "--power", "0"], capsys
    )
    assert (code, err, out) == (0, "", f"{largest}*n\n")
    ones = (1,) * MAX_DEPTH
    comp = ",".join(map(str, ones))
    code, out, err = run_cli(["reduce", "-p", "0", "--comp", comp], capsys)
    assert (code, err, out) == (0, "", reduce(0, ones).render() + "\n")
    code, out, err = run_cli(["eval", "--n", "120", "--comp", comp], capsys)
    assert (code, err, out) == (0, "", f"{mhs_eval(120, ones)}\n")
    code, out, err = run_cli(
        ["table", "--p-max", str(MAX_DEGREE), "--weight-max", "0", "--n", "1"], capsys
    )
    assert (code, err, len(out.splitlines())) == (0, "", MAX_DEGREE + 2)
    code, out, err = run_cli(
        ["table", "--p-max", "0", "--weight-max", "0", "--n", str(MAX_TABLE_N)], capsys
    )
    assert (code, err) == (0, "") and out.endswith(",true\n")
    # each table flag at its limit alone stays inside the joint bound
    for corner in ((MAX_DEGREE, 1, 5), (0, MAX_TABLE_WEIGHT, 5), (0, 1, MAX_TABLE_N)):
        assert cli._table_cost(*corner) <= cli.MAX_TABLE_COST


def test_eval_formats(capsys):
    assert run_cli(["eval", "--n", "3", "--comp", "0,1"], capsys)[1].strip() == "5/2"
    code, out, _ = run_cli(
        ["eval", "--n", "3", "--comp", "0,1", "--format", "json"], capsys
    )
    assert json.loads(out) == {"value": [5, 2]}
    code, out, _ = run_cli(
        ["eval", "--n", "4", "--comp", "2", "--format", "latex"], capsys
    )
    assert out.strip() == r"\frac{205}{144}"
    # lowest terms, not the table's numerator over lcm(1..6) = 60
    assert run_cli(["eval", "--n", "6", "--comp", "1"], capsys)[1] == "49/20\n"
    for fmt, want in (("text", "0"), ("latex", "0"), ("json", '{"value": [0, 1]}')):
        argv = ["eval", "--n", "0", "--comp", "2", "--format", fmt]
        assert run_cli(argv, capsys) == (0, want + "\n", "")
    # a nonzero integer value, in every format
    for fmt, want in (("text", "1"), ("latex", "1"), ("json", '{"value": [1, 1]}')):
        argv = ["eval", "--n", "1", "--comp", "1", "--format", fmt]
        assert run_cli(argv, capsys) == (0, want + "\n", "")


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit guard"
)
def test_eval_prints_past_the_digit_guard(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(["eval", "--n", "12000", "--comp", "1"], capsys)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        want = str(mhs_eval(12000, (1,)))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) > limit
    assert out == want + "\n"


def test_check_reports_pass(capsys):
    code, out, _ = run_cli(["check", "--poly", "m^2", "--power", "3"], capsys)
    assert code == 0
    assert json.loads(out) == {"passes": True, "offending_terms": []}


def test_check_json_for_offending_terms(capsys, monkeypatch):
    terms = (((1, 2), Polynomial((Fraction(1, 2), -3))), ((), x))
    report = StructureReport(passes=False, offending_terms=terms)
    monkeypatch.setattr(cli, "structure_check", lambda F, t: report)
    code, out, _ = run_cli(["check", "--poly", "m", "--power", "2"], capsys)
    assert code == 1
    assert out == (
        '{"passes": false, "offending_terms": ['
        '{"composition": [1, 2], "coeff": [[1, 2], [-3, 1]]}, '
        '{"composition": [], "coeff": [[0, 1], [1, 1]]}]}\n'
    )


def test_bernoulli_csv(capsys):
    code, out, _ = run_cli(
        ["bernoulli", "--max", "4", "--convention", "minus"], capsys
    )
    assert code == 0
    assert out.splitlines() == [
        "index,numerator,denominator",
        "0,1,1",
        "1,-1,2",
        "2,1,6",
        "3,0,1",
        "4,-1,30",
    ]


def test_table_columns_agree(capsys):
    code, out, _ = run_cli(
        ["table", "--p-max", "2", "--weight-max", "3", "--n", "7"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,composition,n,oracle_num,oracle_den,closed_num,closed_den,match"
    assert len(lines) > 1
    for line in lines[1:]:
        p, comp, n, on, od, cn, cd, match = line.split(",")
        assert (on, od) == (cn, cd)
        assert match == "true"
    # the empty-composition row is plain power summation
    row = lines[1].split(",")
    assert row[:3] == ["0", "", "7"] and row[3] == "7"


def test_verify_zero_range_warns(capsys):
    code, out, _ = run_cli(["verify", "--suite", "sums", "--max-n", "0"], capsys)
    assert code == 0
    assert "warning" in out.lower()


@pytest.mark.parametrize("suite", ["reduce", "sums", "all"])
@pytest.mark.parametrize("max_n", [-1, 2.5])
def test_verify_refuses_a_bad_range_up_front(suite, max_n):
    lines = []
    with pytest.raises(ValueError, match="^upper limit must be a nonnegative integer$"):
        verify.run_verify(suite, max_n, echo=lines.append)
    assert lines == []


@pytest.mark.parametrize("build", ["reduce_suite_checks", "sums_suite_checks"])
@pytest.mark.parametrize("max_n", [-1, -3, 2.5])
def test_suite_builders_refuse_a_bad_range(build, max_n):
    # the benchmark builds the checks without run_verify
    with pytest.raises(ValueError, match="^upper limit must be a nonnegative integer$"):
        getattr(verify, build)(max_n)


def test_verify_small_run(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "sums", "--max-n", "3"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("identities verified")


def test_verify_all_output_is_pinned(capsys):
    # labels, order and verdicts of every check; the benchmark keys its
    # digests by these labels
    code, out, _ = run_cli(["verify", "--suite", "all", "--max-n", "25"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "350/350 identities verified"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c305d01129ee70308db518da96746a2548f8259b27477171fe627754bb0c2299"
    )


def test_deterministic_output(capsys):
    argv = ["reduce", "-p", "3", "--comp", "1,2", "--format", "latex"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mhsums", "eval", "--n", "3", "--comp", "0,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5/2"


def test_cold_start_imports_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: most of a cold
    # import of the package
    probe = (
        "import sys; before = set(sys.modules); import mhsums.cli; "
        "print(*sorted(set(sys.modules) - before), sep='\\n')"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "mhsums.cli" in added
    assert not added & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv, keep",
    [
        # a 2 MB result, far past what the pipe holds
        (["reduce", "-p", "60", "--comp=" + ",".join("1" * 40), "--format=json"], 10),
        # 12.7 kB, which the pipe would hold: the reader leaves before the
        # first 8 kB flush, so that no timing decides the outcome
        (["verify", "--suite", "all", "--max-n", "25"], 0),
        # a line that stays buffered until main flushes it, after the reader left
        (["reduce", "-p", "3", "--comp", "1,2"], 0),
    ],
)
def test_a_closed_stdout_ends_in_one_error_line(argv, keep):
    # the reader takes a few bytes, or none, and closes the pipe, as `| head`
    # does: exit 2, not 1 (a failed check) or 0 (checks that never ran).
    # stdout is block-buffered, as in a shell pipeline without PYTHONUNBUFFERED.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "mhsums", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(keep)) == keep
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert "Traceback" not in err
    assert err == "error: standard output closed before the output ended\n"


def test_parser_reuse_matches_fresh_processes(capsys, monkeypatch):
    # main builds its parser once per process; a usage error, a result and
    # help in one process read the same as three fresh processes
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("NO_COLOR", "1")
    runs = [
        ["reduce", "-p", "x", "--comp", "1"],
        ["reduce", "-p", "3", "--comp=2,1", "--method", "both"],
        ["--help"],
    ]
    in_process = []
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    fresh = []
    for argv in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "mhsums", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ),
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in fresh] == [2, 0, 0]
    assert in_process == fresh
    # built on the first call, not at import
    probe = "import mhsums.cli as c; print(c._parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.stdout == "0\n"


# main hands a command line to its subcommand's parser alone; each of these
# must read exactly as through the full parser: help, usage errors, results
COMMANDS = tuple(cli._ACTIONS)
DISPATCH_INPUTS = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["bogus", "-p", "1"],
    ["-p", "1", "reduce"],
    *([command, "-h"] for command in COMMANDS),
    *([command] for command in COMMANDS),
    ["reduce", "-p", "1", "bogus"],  # left over: the top-level usage reports it
    ["reduce", "-p", "1", "--comp", "1", "extra", "--more"],
    ["reduce", "-p", "1", "--format", "xml"],
    ["reduce", "-p", "x"],
    ["reduce", "-p", "1", "--", "--comp"],
    ["reduce", "-p", "2", "--co", "2,1", "--method", "both"],
    ["reduce", "-p", "2", "--comp=1", "--format", "latex"],
    ["sum", "--poly", "m", "--power", "2", "--factors", "1"],
    ["sum", "--poly", "3*m^2+m", "--power", "2", "--format", "json"],
    ["check", "--poly", "m^2", "--power", "3"],
    ["eval", "--n", "7", "--comp", "2,1"],
    ["verify", "--suite", "none", "--max-n", "3"],
    *LIMIT_INPUTS,
]


def outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", DISPATCH_INPUTS)
def test_dispatch_matches_the_full_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = outcome(argv, capsys)
    full = cli.build_parser()
    full.commands = {}  # no subcommand of its own: main falls back every time
    monkeypatch.setattr(cli, "_parser", lambda: full)
    assert outcome(argv, capsys) == got


def test_main_reads_sys_argv(capsys, monkeypatch):
    argv = ["reduce", "-p", "1", "--comp", "1"]
    monkeypatch.setattr(sys, "argv", ["mhsums", *argv])
    assert outcome(None, capsys) == outcome(argv, capsys)
    assert outcome(None, capsys)[1] == "-1/4*n^2 - 3/4*n + (1/2*n^2 + 1/2*n)*H(1)\n"
    monkeypatch.setattr(sys, "argv", ["mhsums", "reduce", "-p", "1", "bogus"])
    code, out, err = outcome(None, capsys)
    assert (code, out) == (2, "")
    assert err.endswith("mhsums: error: unrecognized arguments: bogus\n")


# ------------------------------------------------------- a grammar fuzz of main

# Each subcommand's flags, each with its cheap valid values and, one time in
# four, a value past a limit, a negative one or a malformed text.  Valid
# values stay cheap, so that any mix of them runs in milliseconds; the
# accepted inputs at a limit are whole sets of flags (AT_LIMIT), since two
# values at a limit together can be slow: eval --n 20000 --comp 1 takes about
# a second.  Left out: -h, and accepted inputs that are slow (bernoulli --max
# 1000 takes about 6 s, table --weight-max 12 about 0.5 s).
def _ones(k):
    return ",".join(["1"] * k)


def _mostly(valid, bad):
    return st.integers(0, 3).flatmap(lambda i: valid if i else st.sampled_from(bad))


def _ints(cheap_max, limit):
    return _mostly(st.integers(0, cheap_max), [limit + 1, -1, -limit]).map(str)


def _comps(entries, bad):
    comps = st.lists(entries, max_size=3).map(lambda c: ",".join(map(str, c)))
    return _mostly(comps, bad)


def _choices(choices):
    return _mostly(st.sampled_from(choices), ["xml", ""])


BAD_COMPS = [
    "1,,2", "a", "1.5", "1;2", "0", "-1", "0,1", "2,-1", "1,0",
    _ones(MAX_DEPTH + 1), str(MAX_DEGREE + 1), f"-{MAX_DEGREE + 1},1",
]
POLY = _mostly(
    st.sampled_from(["1", "m", "-m", "n^2", "3*m^2+m", "(m-1)^2", "m^3/7 - 2/3"]),
    [
        "", "m^", "m**2", "2/0", "x", "m^(1/2)", "(m", "m)", "1/m", "m^-1", "m^m",
        "m$", "m^2^", "2 3", f"m^{MAX_DEGREE + 1}", f"m^{MAX_DEGREE}*m",
        "9" * 12_100,  # 40,196 bits, past MAX_CONSTANT_BITS
        "(" * (MAX_NESTING + 1) + "m" + ")" * (MAX_NESTING + 1),
    ],
)
FACTORS = _mostly(
    st.sampled_from(["1", "2", "1^2", "2,1", "1^2,3"]),
    [
        "", "1^", "^2", "a", "1,,2", "0", "-1", "1^0", "1^-1", "1^2^3", "1.5",
        f"1^{MAX_POWER + 1}", f"1^{MAX_POWER},2",
    ],
)
FORMAT = _choices(cli.FORMATS)
# flag -> (values, required); None stands for a flag without a value
GRAMMAR = {
    "reduce": {
        "-p": (_ints(6, MAX_DEGREE), True),
        "--comp": (_comps(st.integers(1, 3), BAD_COMPS), False),
        "--method": (_choices(cli.METHODS), False),
        "--format": (FORMAT, False),
    },
    "sum": {
        "--poly": (POLY, True),
        "--power": (_ints(3, MAX_POWER), True),
        "--factors": (FACTORS, False),
        "--shifted": (st.none(), False),
        "--format": (FORMAT, False),
    },
    "eval": {
        "--n": (_ints(30, MAX_EVAL_N), True),
        "--comp": (_comps(st.integers(-3, 3), BAD_COMPS), False),
        "--format": (FORMAT, False),
    },
    "check": {"--poly": (POLY, True), "--power": (_ints(3, MAX_POWER), True)},
    "bernoulli": {
        "--max": (_ints(30, MAX_BERNOULLI), True),
        "--convention": (_choices(("plus", "minus")), False),
    },
    "table": {
        "--p-max": (_ints(2, MAX_DEGREE), True),
        "--weight-max": (_ints(3, MAX_TABLE_WEIGHT), True),
        "--n": (_ints(20, MAX_TABLE_N), True),
    },
    "verify": {
        "--suite": (_choices(verify.SUITES), True),
        "--max-n": (_ints(3, MAX_VERIFY_N), True),
    },
}
# flags set together at a limit; a flag set to False is left out
AT_LIMIT = {
    "reduce": [{"-p": str(MAX_DEGREE)}, {"--comp": str(MAX_DEGREE)}],
    "sum": [{"--poly": "1", "--power": str(MAX_POWER), "--factors": False}],
    "eval": [
        {"--n": "0", "--comp": _ones(MAX_DEPTH)},
        {"--n": str(MAX_EVAL_N), "--comp": False},
        {"--comp": str(MAX_DEGREE)},
    ],
    "check": [{"--poly": "1", "--power": str(MAX_POWER)}],
}
UNKNOWN = ["--bogus", "--bogus=1", "-x", "extra", "--"]


@st.composite
def command_lines(draw):
    """``(argv, format)``: a required flag is left out one time in eight, an
    optional one half the time, and --factors mostly stands in for --power."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    flags = {}
    for flag, (values, required) in GRAMMAR[command].items():
        if draw(st.integers(0, 7)) if required else draw(st.booleans()):
            flags[flag] = draw(values)
    if "--factors" in flags and draw(st.integers(0, 7)):
        flags.pop("--power", None)
    if command in AT_LIMIT and draw(st.integers(0, 3)) == 0:
        flags.update(draw(st.sampled_from(AT_LIMIT[command])))
    tokens = []
    for flag, value in draw(st.permutations(list(flags.items()))):
        if value is None:
            tokens.append(flag)
        elif value is not False:  # a long flag's value may start with "-"
            tokens += [f"{flag}={value}"] if flag[1] == "-" else [flag, value]
    if draw(st.integers(0, 7)) == 0:
        token = draw(st.sampled_from(UNKNOWN))
        tokens.insert(draw(st.integers(0, len(tokens))), token)
    return [command, *tokens], flags.get("--format") or "text"


USAGE_ERROR = re.compile(r"mhsums( [a-z]+)?: error: ")


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_random_command_lines_end_in_a_result_or_a_clean_exit(drawn):
    argv, fmt = drawn
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's exit, the one exception allowed
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        # one error line, or argparse's usage lines and then one error line
        assert out == "" and err.endswith("\n")
        lines = err.splitlines()
        if len(lines) == 1 and lines[0].startswith("error: "):
            return
        assert lines[0].startswith("usage: mhsums")
        assert USAGE_ERROR.match(lines[-1])
        assert not any(USAGE_ERROR.match(line) for line in lines[:-1])
    elif code == 0:
        command = argv[0]
        assert err == ""
        if command == "check" or fmt == "json":
            json.loads(out)
        elif command == "bernoulli":
            assert out.startswith("index,numerator,denominator\n")
        elif command == "table":
            assert out.startswith("p,composition,n,oracle_num,oracle_den,")
        elif command == "verify":
            assert out.splitlines()[-1].endswith(" identities verified")
        else:
            assert out.endswith("\n") and out.count("\n") == 1 and out.strip()
