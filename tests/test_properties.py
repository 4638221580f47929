"""Property tests on seeded random 3- and 4-regular graphs with at most
16 vertices: the exact pipeline does not depend on the vertex labels, and
both file formats round-trip.  On random integer matrices with up to 30
rows, the CRT charpoly equals the rational Hessenberg oracle and the
Bareiss interpolation route.  Integer division by a monic divisor agrees
with division over Q."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from walklab.exact import Poly, _div_monic, charpoly
from walklab.graphio import from_edge_list, from_graph6, to_edge_list, to_graph6
from walklab.graphs import Graph
from walklab.walk import decide_periodic

from oracles import charpoly_bareiss, hessenberg_charpoly, random_regular

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, database=None)


@st.composite
def regular_graphs(draw):
    k = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(min_value=k + 1, max_value=16).filter(lambda n: n * k % 2 == 0))
    return random_regular(n, k, random.Random(draw(st.integers(0, 2 ** 32 - 1))))


@st.composite
def relabelled_pairs(draw):
    g = draw(regular_graphs())
    perm = draw(st.permutations(range(g.n)))
    return g, Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@seed(20261017)
@PROPERTY_SETTINGS
@given(relabelled_pairs())
def test_relabelling_leaves_charpoly_and_decision_unchanged(pair):
    g, h = pair
    assert h.charpoly == g.charpoly
    # frozen dataclasses: verdict, period and orders (or witness and residual)
    assert decide_periodic(h) == decide_periodic(g)


@seed(20261018)
@PROPERTY_SETTINGS
@given(regular_graphs())
def test_graph6_and_edge_list_round_trip(g):
    assert from_graph6(to_graph6(g)).adjacency == g.adjacency
    assert from_edge_list(to_edge_list(g)).adjacency == g.adjacency


@st.composite
def integer_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@seed(20261019)
@PROPERTY_SETTINGS
@given(integer_matrices())
def test_charpoly_matches_hessenberg_and_bareiss(m):
    p = charpoly(m)
    assert p.degree() == len(m) and p.is_monic() and p.is_integral()
    assert p == hessenberg_charpoly(m)
    assert p == charpoly_bareiss(m)


@st.composite
def monic_divisions(draw):
    """(dividend, monic divisor) as integer lists, constant term first: a
    multiple of the divisor plus a remainder that is zero about half the
    time, with up to two trailing zeros on the dividend."""
    coeff = st.integers(-50, 50)
    den = draw(st.lists(coeff, max_size=4)) + [1]
    quot = draw(st.lists(coeff, max_size=10))
    rem = draw(st.lists(coeff, max_size=len(den) - 1)) if draw(st.booleans()) else []
    num = [int(c) for c in (Poly(quot) * Poly(den) + Poly(rem)).coeffs]
    return num + [0] * draw(st.integers(0, 2)), den


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(monic_divisions())
def test_integer_monic_division_matches_division_over_q(case):
    num, den = case
    quot, rem = divmod(Poly(num), Poly(den))
    out = _div_monic(num, den)
    assert (out is None) == (not rem.is_zero())
    if out is not None:
        assert Poly(out) == quot
