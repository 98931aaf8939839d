"""Bad input to a library entry point ends in ValueError or TypeError.

Junk arguments (None, floats, strings, bools inside compositions, nested
lists and negative limits) go to every public function that takes a
composition, a limit, a weight or a serialized form.  Valid values are kept
small (n <= 50, entries <= 6), so that a junk-free draw stays cheap.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from mhsums.bernoulli import umbral_eval
from mhsums.closedform import ClosedForm
from mhsums.oracle import harmonic, mhs_eval, mhs_values
from mhsums.polynomial import Polynomial, discrete_sum
from mhsums.reducer import reduce
from mhsums.stuffle import expand_power, product_combinations, stuffle
from mhsums.sums import (
    structured_form,
    structured_to_closed,
    sum_power,
    sum_product,
)

small = st.integers(-2, 6)
atoms = st.one_of(st.none(), st.floats(), st.text(max_size=3), st.booleans(), small)
junk = st.recursive(atoms, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
scalars = st.one_of(small, junk)
limits = st.one_of(st.integers(-3, 50), junk)
comps = st.one_of(st.lists(scalars, max_size=4).map(tuple), junk)
hashable = st.one_of(st.none(), st.floats(), st.text(max_size=2), st.booleans(), small)
combinations = st.one_of(
    st.dictionaries(st.lists(hashable, max_size=3).map(tuple), scalars, max_size=3),
    junk,
)
polys = st.one_of(st.lists(small, max_size=4).map(Polynomial), junk)
factor_lists = st.one_of(st.lists(st.tuples(scalars, scalars), max_size=2), junk)
kinds = st.one_of(st.sampled_from(["hn2", "hn3", "mixed", "hn4"]), junk)
json_texts = st.one_of(
    st.builds(
        lambda terms: json.dumps({"terms": terms}),
        st.lists(
            st.fixed_dictionaries({"composition": junk, "coeff": junk}), max_size=2
        ),
    ),
    junk,
)
structured = st.one_of(
    st.builds(
        structured_form, st.sampled_from(["hn2", "hn3", "mixed"]), st.integers(0, 6)
    ),
    junk,
)
conventions = st.one_of(st.sampled_from(["plus", "minus"]), junk)

ENTRY_POINTS = (
    (mhs_eval, limits, comps),
    (mhs_values, limits, comps),
    (harmonic, limits, scalars),
    (reduce, scalars, comps),
    (sum_power, polys, scalars),
    (sum_product, polys, factor_lists),
    (structured_form, kinds, st.one_of(polys, scalars)),
    (ClosedForm.from_json, json_texts),
    (stuffle, comps, comps),
    (product_combinations, combinations, combinations),
    (expand_power, scalars, scalars),
    (umbral_eval, polys, conventions),
    (discrete_sum, polys),
    (structured_to_closed, structured),
)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_entry_points_raise_only_value_or_type_errors(data):
    for f, *strategies in ENTRY_POINTS:
        args = [
            data.draw(s, label=f"{f.__name__} argument {i}")
            for i, s in enumerate(strategies)
        ]
        try:
            f(*args)
        except (ValueError, TypeError):
            pass
