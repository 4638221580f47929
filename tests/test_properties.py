"""Property tests on seeded random 3- and 4-regular graphs with at most
16 vertices: the exact pipeline does not depend on the vertex labels, and
both file formats round-trip.  On seeded random regular graphs with up
to 20 vertices and their complements, some of them past the int64
bound, the moment route's charpoly equals the CRT and Bareiss
charpolys, and its m_A, certified by t_n or by t_(2n+1), equals
p / gcd(p, p').  On random integer matrices with up to 30 rows, the CRT
charpoly equals the rational Hessenberg oracle and the Bareiss
interpolation route, and its coefficients lie within the CRT bound.
Division by a monic integer divisor is division over Q in Python ints.  The
integer matrix product, and the product of a 0/1 matrix by row gathers,
agree with the triple loop on both sides of the int64 bound, and the
O(s) symmetry test of a spectrum agrees with the multiset definition."""

import math
import random

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from walklab.exact import (
    Poly,
    QuadraticNumber,
    Spectrum,
    _charpoly_coeff_bound,
    adjacency_times,
    charpoly,
    int_matmul,
    min_poly_route,
    moment_route,
    neighbour_table,
)
from walklab.graphio import from_edge_list, from_graph6, to_edge_list, to_graph6
from walklab.graphs import Graph
from walklab.walk import decide_periodic

from oracles import charpoly_bareiss, hessenberg_charpoly, matmul_reference, random_regular

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
    assert from_graph6(to_graph6(g)).adjacency.tolist() == g.adjacency.tolist()
    assert from_edge_list(to_edge_list(g)).adjacency.tolist() == g.adjacency.tolist()


def _complement(g):
    return Graph.from_edges(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                                  if not g.adjacency[u][v]])


@st.composite
def regular_graphs_and_complements(draw):
    """Seeded random 3-, 4- and 5-regular graphs on up to 20 vertices, or
    their complements, whose larger degree takes traces past 2^62."""
    k = draw(st.sampled_from([3, 4, 5]))
    n = draw(st.integers(min_value=k + 1, max_value=20).filter(lambda n: n * k % 2 == 0))
    g = random_regular(n, k, random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    return _complement(g) if draw(st.booleans()) and n > k + 1 else g


@seed(20261024)
@PROPERTY_SETTINGS
@given(regular_graphs_and_complements())
@example(_complement(Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])))  # s = 3
@example(random_regular(20, 3, random.Random(1)))
def test_moment_route_matches_the_crt_and_bareiss(g):
    adj = g.adjacency.tolist()
    p = charpoly(adj)
    assert p == charpoly_bareiss(adj)
    moments = moment_route(g.neighbour_table)
    assert moments.charpoly == p
    m = p.exact_div(p.gcd(p.derivative()))
    if moments.min_poly is not None:
        assert moments.min_poly == m
    assert min_poly_route(g.neighbour_table) == m


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
    num = list((Poly(quot) * Poly(den) + Poly(rem)).coeffs)
    return num + [0] * draw(st.integers(0, 2)), den


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(monic_divisions())
def test_integer_monic_division_matches_division_over_q(case):
    num, den = case
    quot, rem = divmod(Poly(num), Poly(den))
    assert all(type(c) is int for c in quot.coeffs + rem.coeffs)
    assert quot * Poly(den) + rem == Poly(num)
    assert rem.degree() < Poly(den).degree()


@st.composite
def small_integer_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@seed(20261021)
@PROPERTY_SETTINGS
@given(small_integer_matrices())
@example([[5]])  # 1 x 1: |c_0| equals the bound
@example([[1, 1], [1, -1]])  # a Hadamard matrix: |det| equals the bound
@example([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
@example([[0, 0], [0, 0]])
def test_charpoly_coefficients_lie_within_the_crt_bound(m):
    # |c_(n-i)| <= C(n,i) (F/n)^(i/2), squared to stay in the integers,
    # on the Bareiss oracle; the bound the CRT uses lies strictly above
    n = len(m)
    fro = sum(x * x for row in m for x in row)
    coeffs = charpoly_bareiss(m).coeffs
    for i in range(n + 1):
        assert coeffs[n - i] ** 2 * n ** i <= math.comb(n, i) ** 2 * fro ** i, i
    assert max(abs(c) for c in coeffs) < _charpoly_coeff_bound(m)


# magnitudes on both sides of the int64-safe bound p * max|a| * max|b| < 2^62
# (the exact boundary for p = 1, 2, 4 included), at the edge of int64 and
# above 2^63
_MAGNITUDES = [0, 1, 2, 3, 2 ** 29, 2 ** 30 - 1, 2 ** 30, 2 ** 30 + 1, 2 ** 31 - 1, 2 ** 31,
               2 ** 31 + 1, 2 ** 32, 2 ** 62, 2 ** 63 - 1, 2 ** 63, 2 ** 64, 3 ** 50]


@st.composite
def matmul_operands(draw):
    rows, inner = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4)) if inner else 0
    entry = st.one_of(st.integers(-3, 3), st.builds(
        lambda mag, sign: sign * mag, st.sampled_from(_MAGNITUDES), st.sampled_from([1, -1])))
    a = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner),
                      min_size=rows, max_size=rows))
    b = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=inner, max_size=inner))
    return a, b


@seed(20261022)
@settings(max_examples=300, deadline=None, database=None)
@given(matmul_operands())
@example(([], []))
@example(([[], []], []))
@example(([[0, 0]], [[0, 0], [0, 0]]))
@example(([[2 ** 31]], [[2 ** 31]]))  # 2^62 exactly: the object path
@example(([[2 ** 31 - 1]], [[2 ** 31]]))  # just below: the int64 path
@example(([[2 ** 31, 2 ** 31]], [[2 ** 31], [2 ** 31]]))  # the sum overflows int64
@example(([[-2 ** 63, 1]], [[-1], [2 ** 63]]))
def test_int_matmul_matches_the_triple_loop(operands):
    a, b = operands
    assert int_matmul(a, b) == matmul_reference(a, b)
    assert int_matmul(np.array(a, dtype=object), np.array(b, dtype=object)) == \
        matmul_reference(a, b)


@st.composite
def zero_one_times_integer(draw):
    """A square 0/1 matrix (any pattern, empty rows included) and an
    integer matrix, small or past int64."""
    n = draw(st.integers(1, 8))
    a = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n))
    entry = st.integers(-9, 9) | st.integers(-2 ** 70, 2 ** 70)
    p = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return a, p


@seed(20261025)
@settings(max_examples=100, deadline=None, database=None)
@given(zero_one_times_integer())
def test_adjacency_times_matches_the_triple_loop(case):
    a, p = case
    table = neighbour_table(np.array(a, dtype=np.int64))
    assert adjacency_times(table, np.array(p, dtype=object)).tolist() == matmul_reference(a, p)
    if all(abs(x) <= 9 for row in p for x in row):
        assert adjacency_times(table, np.array(p, dtype=np.int64)).tolist() == \
            matmul_reference(a, p)


_FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_VALUES = st.builds(lambda a, b, m: QuadraticNumber(a, b if m else 0, m),
                    _FRACTIONS, _FRACTIONS, st.sampled_from([None, 2, 3, 5]))


@st.composite
def spectra(draw):
    """from_pairs spectra; about half mirror some of their pairs, with
    the same or a changed multiplicity, so both answers occur."""
    pairs = draw(st.lists(st.tuples(_VALUES, st.integers(1, 3)), max_size=6))
    if draw(st.booleans()):
        pairs += [(-v, m + draw(st.sampled_from([0, 0, 0, 1]))) for v, m in pairs]
    return Spectrum.from_pairs(pairs)


@seed(20261023)
@settings(max_examples=300, deadline=None, database=None)
@given(spectra())
def test_is_symmetric_matches_the_multiset_definition(spec):
    mults = dict(spec.entries)
    assert spec.is_symmetric() == (mults == {-v: m for v, m in spec.entries})
