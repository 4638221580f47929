"""Exact algebra: polynomials, charpoly routes, spectrum extraction,
quadratic integers, cyclotomics.

Cross-checks in here are dual-route: the CRT charpoly against the
rational Hessenberg oracle and the Bareiss determinant-interpolation
route, the moment route against the CRT charpoly and Bareiss, the
Miller-Rabin prime search against trial division, extraction against
reassembly and against sympy's factorization over Z, ring membership
against the monic quadratic minimal polynomial, and the Hessenberg
reduction over F_2 against the CRT charpoly mod 2.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from walklab import exact, graphs, oracles
from walklab.exact import (
    _BerlekampMassey,
    Poly,
    QuadraticNumber,
    Spectrum,
    Unresolved,
    _SCREEN_POINTS,
    _is_prime,
    _newton,
    _primes_below,
    _trace_form,
    _vanishes_at,
    charpoly_mod_2,
    cyclotomic,
    min_poly_2cos,
    min_poly_factors,
    moment_route,
    squarefree_part,
)
from walklab.feasibility import REALIZATIONS
from walklab.expressions import parse_expr, read_expr
from walklab.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle,
    hypercube,
    line_graph,
    petersen,
)
from walklab.oracles import (
    _totient,
    build_walk_matrices,
    charpoly,
    closed_walk_traces,
    cyclotomic_sieve,
    derivative,
    eval_poly_at_matrix,
    exact_div,
    extract_spectrum,
    gcd,
    is_quadratic_algebraic_integer,
    mat_identity,
    min_poly_route,
    radical,
)

from oracles import (
    bareiss_det,
    charpoly_bareiss,
    cyclotomic_by_division,
    dimension,
    hessenberg_charpoly,
    kernel_dim,
    min_poly_2cos_by_poly,
    mod_2_bits,
    order_of_cos_pair,
    random_regular,
    rank,
    spectrum_charpoly,
)


def _adj(g):
    return g.adjacency.tolist()


# ---------------------------------------------------------------------------
# polynomials


def test_poly_basics():
    p = Poly([1, 0, 1])
    assert p.degree() == 2 and p.is_monic() and p.is_integral()
    assert str(Poly([-4, 0, 1])) == "x^2 - 4"
    assert Poly([0, 0, 0]).is_zero()
    assert (Poly([1, 1]) * Poly([-1, 1])) == Poly([-1, 0, 1])


def test_poly_divmod_exact():
    a = Poly([2, 3, 1]) * Poly([5, -1, 2]) + Poly([7])
    q, r = divmod(a, Poly([2, 3, 1]))
    assert q == Poly([5, -1, 2]) and r == Poly([7])
    with pytest.raises(ValueError):
        exact_div(Poly([1, 1, 1]), Poly([1, 1]))


def test_poly_deflate():
    f = Poly([-2, 0, 1])
    p = f ** 3 * Poly([1, 1])
    assert p.deflate(f) == (Poly([1, 1]), 3)
    q, m = p.deflate(Poly([3, 1]))
    assert m == 0 and q is p
    # a rational dividend deflates over Q
    assert (p * Fraction(1, 3)).deflate(f) == (Poly([Fraction(1, 3), Fraction(1, 3)]), 3)
    # the zero polynomial, a constant divisor, a divisor that is not monic
    for dividend, divisor in ((Poly.zero(), f), (p, Poly.one()), (p, Poly([1, 2]))):
        with pytest.raises(ValueError):
            dividend.deflate(divisor)


def test_integral_values_are_python_ints_and_floats_are_refused():
    p = Poly([Fraction(6, 3), np.int64(1)])
    assert p.coeffs == (2, 1) and all(type(c) is int for c in p.coeffs)
    with pytest.raises(TypeError):
        Poly([0.5])
    with pytest.raises(TypeError):
        QuadraticNumber(0.5)
    # a divisor that is not monic divides over Q, as before
    num = Poly([1, 0, 0, 1])
    q, r = divmod(num, Poly([1, 2]))
    assert q.coeffs == (Fraction(1, 8), Fraction(-1, 4), Fraction(1, 2))
    assert r.coeffs == (Fraction(7, 8),)
    assert q * Poly([1, 2]) + r == num
    assert gcd(Poly([2, 4]) * Poly([1, 3]), Poly([3, 6])).coeffs == (Fraction(1, 2), 1)
    half = QuadraticNumber(3) / 2
    assert type(half.a) is Fraction and half.a == Fraction(3, 2)
    assert type((half * 2).a) is int
    assert type(QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 9).a) is int  # 1/2 + 3/2


def test_poly_pow_and_eval():
    p = Poly([1, 1]) ** 3
    assert p == Poly([1, 3, 3, 1])
    assert p(Fraction(1, 2)) == Fraction(27, 8)


# ---------------------------------------------------------------------------
# charpoly


def test_charpoly_cycle4():
    # eigenvalues of C4 are 2, 0, 0, -2 by hand
    assert charpoly(_adj(cycle(4))) == Poly([0, 0, -4, 0, 1])


def test_charpoly_zero_matrix():
    for n in (1, 3, 5):
        assert charpoly([[0] * n for _ in range(n)]) == Poly([0] * n + [1])


def test_charpoly_k2():
    assert charpoly([[0, 1], [1, 0]]) == Poly([-1, 0, 1])


def test_charpoly_three_routes_agree():
    rng = random.Random(20240601)
    for _ in range(25):
        n = rng.randint(1, 7)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        p = charpoly(m)
        assert p == charpoly_bareiss(m)
        assert p == hessenberg_charpoly(m)
        assert p.is_monic() and p.is_integral()


def test_charpoly_of_a_cubic_graph_on_20_vertices_needs_one_prime(monkeypatch):
    # the bound C(n,i) (F/n)^(i/2) is about 10^8 here, below one word-size prime
    calls = []
    real = oracles._charpoly_mod
    monkeypatch.setattr(oracles, "_charpoly_mod", lambda mat, p: calls.append(p) or real(mat, p))
    m = _adj(random_regular(20, 3, random.Random(1)))
    assert charpoly(m) == hessenberg_charpoly(m)
    assert len(calls) == 1


def test_charpoly_rational_entries():
    m = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
    assert charpoly(m) == Poly([0, -1, 1])


def test_numpy_integers_give_the_same_poly_and_charpoly_as_python_ints():
    # a numpy int64 kept inside a Fraction would wrap at 2^63
    big = np.int64(2 ** 62)
    assert Poly([big, np.int64(3)]) * 4 == Poly([2 ** 62, 3]) * 4 == Poly([2 ** 64, 12])
    assert QuadraticNumber(big, big, np.int64(8)) * 4 == QuadraticNumber(2 ** 62, 2 ** 62, 8) * 4
    m = [[Fraction(1, 3), big], [big, np.int64(5)]]
    assert charpoly(m) == charpoly([[Fraction(1, 3), 2 ** 62], [2 ** 62, 5]])
    assert charpoly(np.array([[0, 1], [1, 0]])) == charpoly([[0, 1], [1, 0]])


def test_cayley_hamilton_on_graphs():
    for g in (cycle(4), cycle(6), complete_bipartite(3, 3), hypercube(3),
              petersen(), line_graph(hypercube(3))):
        a = _adj(g)
        p = charpoly(a)
        value = eval_poly_at_matrix(p, a)
        assert all(x == 0 for row in value for x in row)


def test_bareiss_det():
    assert bareiss_det([[2, 0], [0, 3]]) == 6
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        p = charpoly(m)
        # det = (-1)^n * p(0)
        assert bareiss_det(m) == (-1) ** n * p.coeffs[0]


def _trial_division_is_prime(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def test_miller_rabin_matches_trial_division():
    assert [p for p in range(20000) if _is_prime(p)] == \
        [p for p in range(20000) if _trial_division_is_prime(p)]
    # strong pseudoprimes to some of the bases 2, 7, 61; 3215031751 fools 2, 3, 5 and 7
    for n in (2047, 3277, 4033, 4681, 8321, 3215031751):
        assert not _is_prime(n)
    # the primes the CRT charpoly uses, near the int64-safe limit 2^31
    near = [p for p in range(2 ** 31 - 1, 2 ** 31 - 400, -1) if _trial_division_is_prime(p)]
    primes = _primes_below(2 ** 31)
    assert [next(primes) for _ in near] == near
    assert list(_primes_below(12)) == [11, 7, 5, 3, 2]


def test_prime_search_refuses_to_pass_the_miller_rabin_limit():
    with pytest.raises(AssertionError):
        _primes_below(4_759_123_142)


# ---------------------------------------------------------------------------
# the moment route


def _hypercube_charpoly(d):
    # Q_d has eigenvalue d - 2i with multiplicity C(d, i)
    out = Poly.one()
    for i in range(d + 1):
        out = out * Poly([-(d - 2 * i), 1]) ** math.comb(d, i)
    return out


def test_moment_route_certifies_the_minimal_polynomial_of_q7():
    moments = moment_route(hypercube(7).neighbour_table)
    assert moments is not None
    assert moments.min_poly.degree() == 8
    assert moments.min_poly == math.prod((Poly([-(7 - 2 * i), 1]) for i in range(8)), start=Poly.one())
    assert moments.charpoly == _hypercube_charpoly(7)


def _count_streams(monkeypatch):
    """Wrap the trace stream to record the prime of each stream started."""
    real, primes = exact._trace_stream, []

    def counting(table, q):
        primes.append(q)
        return real(table, q)

    monkeypatch.setattr(exact, "_trace_stream", counting)
    return primes


def test_moment_route_equals_hessenberg_and_bareiss_on_the_bench_shape_graph(monkeypatch):
    # the (5, 42) period-random shape: s = n, so no recurrence is certified
    # by t_42.  n * 5^r passes 2^62 at r = 25, but 5^21 < 2^62 bounds every
    # power that t_0 .. t_42 read: they are exact from limbs, and p_A comes
    # from one prime's stream (four, with t_25 .. t_42 as CRT lifts, before)
    streams = _count_streams(monkeypatch)
    g = random_regular(42, 5, random.Random(7))
    assert 42 * 5 ** 25 > 2 ** 62 > 5 ** 21
    moments = moment_route(g.neighbour_table)
    assert moments.min_poly is None and len(streams) == 1
    p = moments.charpoly
    assert p == charpoly(_adj(g)) == hessenberg_charpoly(_adj(g)) == charpoly_bareiss(_adj(g))
    assert moments.traces == tuple(closed_walk_traces(g, 43))
    # past t_n the stream is residues again, and m_A still certifies
    assert min_poly_route(g.neighbour_table) == radical(p) == p


def test_the_limb_inner_product_is_exact_near_2_62():
    rng = np.random.default_rng(20261102)
    for shape in ((1,), (7,), (42, 42), (3, 200)):
        for low in (0, 2 ** 62 - 2 ** 40, 2 ** 62 - 2):
            x = rng.integers(low, 2 ** 62, size=shape, dtype=np.int64)
            y = rng.integers(low, 2 ** 62, size=shape, dtype=np.int64)
            exact_xy = sum(int(a) * int(b) for a, b in zip(x.flat, y.flat))
            assert exact._limb_vdot(x, y, 2 ** 62 - 1) == exact_xy
            assert exact._limb_vdot(x, x, 2 ** 62 - 1) == sum(int(a) ** 2 for a in x.flat)
    # entries within the stated top: fewer limbs, the same sum
    x = rng.integers(0, 5 ** 21 + 1, size=(42, 42), dtype=np.int64)
    assert exact._limb_vdot(x, x, 5 ** 21) == sum(int(a) ** 2 for a in x.flat)


def test_a_cubic_graph_on_128_vertices_keeps_residues_past_the_int64_line(monkeypatch):
    # 3^64 > 2^62: the stream is exact only while n 3^r < 2^62, r <= 34, and
    # a residue mod q from t_35 on, as it was before exact streams to t_n
    g = random_regular(128, 3, random.Random(1))
    source, q = exact._TableSource(g.neighbour_table), 2 ** 31 - 1
    assert [source.exact(c) for c in range(1, 300)] == \
        [128 * 3 ** (c - 1) < 2 ** 62 for c in range(1, 300)]
    assert source.exact(35) and not source.exact(36)
    truth = closed_walk_traces(g, 41)
    stream = list(itertools.islice(source.stream(q), 41))
    assert stream[:35] == truth[:35] and truth[35] > q
    assert stream[35:] == [t % q for t in truth[35:]]


def test_moment_route_certifies_q8_past_the_int64_line():
    # Q8 needs t_18, and n * delta^18 = 2^8 * 8^18 is 2^62: t_18 is a
    # residue.  Bareiss interpolation on 256 vertices is out of reach, and
    # Q8's charpoly has a closed form.
    g = hypercube(8)
    moments = moment_route(g.neighbour_table)
    roots = (Poly([-(8 - 2 * i), 1]) for i in range(9))
    assert moments.min_poly == math.prod(roots, start=Poly.one())
    assert moments.charpoly == _hypercube_charpoly(8) == charpoly(g.adjacency)


def test_certificate_runs_exact_below_2_62_and_mod_q_past_it():
    # K4 has m_A = x^2 - 2x - 3, and c = x^j m_A has sum |c_i| 3^i = 2 * 3^(j+2):
    # below 2^62 for j = 36, past it for j = 37
    table, q = complete_graph(4).neighbour_table, 2 ** 31 - 1
    for j, exact_steps in ((36, True), (37, False)):
        c = [0] * j + [-3 % q, -2 % q, 1]
        assert _vanishes_at(table, c, q) == (True, exact_steps)
        c[j] += 1  # x^j (x^2 - 2x - 2)
        assert _vanishes_at(table, c, q) == (False, False)


def test_a_forged_recurrence_is_rejected_by_the_certificate(monkeypatch):
    # every candidate Berlekamp-Massey offers is replaced by one with a
    # wrong constant term: none passes c(A) = 0, so Petersen reaches t_10
    # and gets its charpoly from the traces alone, with no m_A
    g = petersen()
    real = _BerlekampMassey.candidate

    def forged(self):
        c = real(self)
        return None if c is None else [c[0] + 1] + c[1:]

    monkeypatch.setattr(_BerlekampMassey, "candidate", forged)
    moments = moment_route(g.neighbour_table)
    assert moments.min_poly is None
    assert moments.charpoly == charpoly(_adj(g))
    monkeypatch.undo()
    assert moment_route(g.neighbour_table).min_poly == Poly([6, -5, -2, 1])


def test_the_trace_form_is_the_squared_norm_of_c_of_a():
    # K4 has t_r = 3^r + 3(-1)^r and m_A = x^2 - 2x - 3; m_A + 1 maps A to I,
    # whose squared norm is tr I^2 = 4
    traces, q = [4, 0, 12, 24, 84], 2 ** 31 - 1
    m_a = [-3 % q, -2 % q, 1]
    assert _trace_form(m_a, traces, q) == 0
    assert _trace_form([m_a[0] + 1] + m_a[1:], traces, q) == 4


def _count_horner(monkeypatch):
    """Wrap the Horner certificate to record each call's prime and result."""
    real, calls = exact._vanishes_at, []

    def counting(table, c, q):
        result = real(table, c, q)
        calls.append((q, result))
        return result

    monkeypatch.setattr(exact, "_vanishes_at", counting)
    return calls


def test_the_trace_form_certifies_m_a_on_the_analyze_families_graphs(monkeypatch):
    # the bench's analyze graphs: every trace up to t_2s is exact, so no
    # candidate needs Horner, and all but C8 (2s >= n) certify m_A by t_n
    horner = _count_horner(monkeypatch)
    graphs = [parse_expr(expr) for _, expr in REALIZATIONS.values()]
    graphs += [petersen(), hypercube(6), line_graph(hypercube(4))]
    certified = 0
    for g in graphs:
        moments = moment_route(g.neighbour_table)
        assert moments.charpoly == charpoly(g.adjacency)
        if moments.min_poly is not None:
            assert moments.min_poly == radical(moments.charpoly)
            certified += 1
    assert certified == len(graphs) - 1
    assert horner == []


def _count_trace_forms(monkeypatch):
    """Wrap the trace form to record each call's modulus."""
    real, calls = exact._trace_form, []

    def counting(c, traces, q):
        calls.append(q)
        return real(c, traces, q)

    monkeypatch.setattr(exact, "_trace_form", counting)
    return calls


def test_an_expression_accepts_m_a_on_its_first_prime(monkeypatch):
    # the bench's analyze expressions: one run and one trace form each, as
    # one prime bounds every coefficient of a monic polynomial of degree s
    # with roots in [-delta, delta]
    forms = _count_trace_forms(monkeypatch)
    real_run, runs = exact._prime_run, []

    def counting(source, q, terms):
        runs.append(q)
        return real_run(source, q, terms)

    monkeypatch.setattr(exact, "_prime_run", counting)
    exprs = [expr for _, expr in REALIZATIONS.values()]
    exprs += ["petersen()", "hypercube(6)", "line(hypercube(4))"]
    for expr in exprs:
        forms.clear()
        runs.clear()
        m = read_expr(expr).min_poly
        assert m == radical(charpoly(parse_expr(expr).adjacency.tolist())), expr
        assert (len(runs), len(forms)) == (1, 1), expr


def test_the_trace_form_waits_for_a_lift_that_can_be_final(monkeypatch):
    # the cubic graph of 256 vertices certifies no m_A by t_256, so m_A
    # comes from its traces continued by p_A's recurrence; m_A = p_A has
    # coefficients of 211 bits, so its lifts change for seven primes of 31
    # bits, and the trace form runs once the eighth repeats the lift
    g = random_regular(256, 3, random.Random(1))
    assert g._moments.min_poly is None
    forms = _count_trace_forms(monkeypatch)
    assert g.min_poly == g.charpoly
    assert len(forms) <= 2


def test_a_forged_recurrence_is_rejected_at_every_prime(monkeypatch):
    # with every candidate forged, no prime certifies: each run reaches
    # t_(2n+1), and once the failed primes would multiply past the Hankel
    # determinant's bound the route reports a broken invariant.  Each
    # forged candidate goes to Horner, which finds c(A) != 0 mod q
    real_candidate = _BerlekampMassey.candidate

    def forged(self):
        c = real_candidate(self)
        return None if c is None else [c[0] + 1] + c[1:]

    monkeypatch.setattr(_BerlekampMassey, "candidate", forged)
    horner = _count_horner(monkeypatch)
    with pytest.raises(AssertionError, match="Hankel"):
        min_poly_route(petersen().neighbour_table)
    assert len({q for q, _ in horner}) > 10
    assert all(result == (False, False) for _, result in horner)


def _record_prime_runs(monkeypatch):
    """Monkeypatch the route's primes to those below 128 and record, for
    each run that looks for a recurrence, its prime and the degree found."""
    monkeypatch.setattr(exact, "_ROUTE_PRIMES_BELOW", 128)
    real, runs = exact._prime_run, []

    def recording(table, q, terms):
        traces, c, zero = real(table, q, terms)
        runs.append((q, None if c is None else len(c) - 1))
        return traces, c, zero

    monkeypatch.setattr(exact, "_prime_run", recording)
    return runs


@pytest.mark.parametrize("seed, n, k, bad", [
    (8, 12, 4, [(127, 11)]),  # the first prime certifies too short a recurrence
    (19, 18, 3, [(109, None), (107, None), (97, 16)]),  # two fail, one is short
])
def test_moment_route_drops_bad_primes_near_100(monkeypatch, seed, n, k, bad):
    g = random_regular(n, k, random.Random(seed))
    p = charpoly(_adj(g))
    m = radical(p)
    runs = _record_prime_runs(monkeypatch)
    moments = moment_route(g.neighbour_table)
    assert moments.min_poly is None and moments.charpoly == p
    assert min_poly_route(g.neighbour_table) == m
    assert [r for r in runs if r[1] != m.degree()][-len(bad):] == bad


def test_moment_route_lifts_traces_and_recurrences_over_primes_near_100(monkeypatch):
    runs = _record_prime_runs(monkeypatch)
    horner = _count_horner(monkeypatch)
    for g in (hypercube(6), cycle(8), random_regular(16, 3, random.Random(1)), petersen()):
        p = charpoly(_adj(g))
        m = radical(p)
        moments = moment_route(g.neighbour_table)
        assert moments.charpoly == p and moments.min_poly in (None, m)
        assert min_poly_route(g.neighbour_table) == m
    assert len({q for q, _ in runs}) > 3  # Q6's m_A takes the CRT of several
    # a coefficient past q/2 lifts to a c with F(c) = 0 mod q but not over Z:
    # only Horner shows c(A) = 0 mod q there
    assert any(zero_mod_q for _, (zero_mod_q, _) in horner)


@pytest.mark.parametrize("name, g", [
    ("C8", cycle(8)),
    ("K2,2", complete_bipartite(2, 2)),
    ("cubic n=40", random_regular(40, 3, random.Random(3))),
    ("4-regular n=30", random_regular(30, 4, random.Random(5))),
])
def test_min_poly_route_matches_p_over_gcd_past_t_n(name, g):
    # no recurrence is certified by t_n: 2 deg m_A >= n
    moments = moment_route(g.neighbour_table)
    assert moments.min_poly is None
    p = moments.charpoly
    assert min_poly_route(g.neighbour_table) == radical(p) == g.min_poly


@pytest.mark.parametrize("name, g", [
    ("K2", complete_graph(2)),
    ("C7", cycle(7)),
    ("C9", cycle(9)),
    ("C64", cycle(64)),
    ("cubic n=20", random_regular(20, 3, random.Random(1))),
    ("4-regular n=30", random_regular(30, 4, random.Random(5))),
])
def test_m_a_past_t_n_streams_the_matrix_once(monkeypatch, name, g):
    # p_A(A) = 0 continues t_0 .. t_n with no matrix: once the route has
    # run, m_A needs no second trace stream and no Horner step
    assert g._moments.min_poly is None

    def refused(*args):
        raise AssertionError("the matrix was read again")

    monkeypatch.setattr(exact, "_trace_stream", refused)
    monkeypatch.setattr(exact, "_vanishes_at", refused)
    assert g.min_poly == oracles.radical(g.charpoly)


def test_moment_route_runs_on_residues_below_the_int64_line(monkeypatch):
    # with the exact line lowered to 2^31 nearly every power, trace and
    # Horner step runs mod q, also on graphs far below 2^62
    monkeypatch.setattr(exact, "_INT64_SAFE", 2 ** 31)
    for g in (petersen(), hypercube(5), cycle(8), random_regular(16, 3, random.Random(1))):
        p = charpoly(_adj(g))
        m = radical(p)
        moments = moment_route(g.neighbour_table)
        assert moments.charpoly == p and moments.min_poly in (None, m)
        assert min_poly_route(g.neighbour_table) == m


def test_newton_refuses_traces_of_no_integer_matrix():
    assert _newton([2, 0, 2]) == Poly([-1, 0, 1])  # K2
    with pytest.raises(AssertionError, match="remainder"):
        _newton([2, 0, 1])  # 2 a_2 = -1
    # from m_A = x^2 - 1 and t_0, t_1: K2, and tr A = 1, which no
    # integer A of order 2 with A^2 = I has (2 a_2 = -1)
    assert _newton([2, 0], [-1, 0, 1]) == Poly([-1, 0, 1])
    with pytest.raises(AssertionError, match="remainder"):
        _newton([2, 1], [-1, 0, 1])


def test_moment_route_matches_the_crt_and_bareiss_on_the_graph_atlas():
    nx = pytest.importorskip("networkx")
    certified = 0
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() == 0:
            continue
        g = Graph.from_edges(h.number_of_nodes(), h.edges())
        moments = moment_route(g.neighbour_table)
        p = charpoly(_adj(g))
        assert moments.charpoly == p == charpoly_bareiss(_adj(g)), h.name
        m = radical(p)
        if moments.min_poly is not None:
            assert moments.min_poly == m, h.name
            factors, reference = min_poly_factors(m, moments.traces), extract_spectrum(p)
            if isinstance(reference, Spectrum):
                assert Spectrum.from_factors(factors) == reference, h.name
            else:
                assert factors is None, h.name
            certified += 1
        assert min_poly_route(g.neighbour_table) == m == g.min_poly, h.name
        assert charpoly_mod_2(g.neighbour_table) == mod_2_bits(p), h.name
    assert certified == 53  # the others reach t_n first (2s >= n)


def test_the_multiplicities_on_m_a_are_solved_from_traces():
    # Q10: m_A = prod_i (x - (10 - 2i)) and t_0 .. t_10 give C(10, i)
    g = hypercube(10)
    moments = moment_route(g.neighbour_table)
    assert len(moments.traces) == moments.min_poly.degree() == 11
    factors = min_poly_factors(moments.min_poly, moments.traces)
    assert Spectrum.from_factors(factors).entries == tuple(
        (QuadraticNumber(10 - 2 * i), math.comb(10, i)) for i in range(11))
    # C8xJ3: the conjugate pair ±3√2 shares one multiplicity
    moments = moment_route(parse_expr("tensorj(cycle(8),3)").neighbour_table)
    factors = min_poly_factors(moments.min_poly, moments.traces)
    assert (Poly([-18, 0, 1]), 2) in factors
    assert Spectrum.from_factors(factors).render() == "{[±6]^1, [±3√2]^2, [0]^18}"


def test_the_multiplicities_on_m_a_refuse_traces_of_no_integer_matrix():
    # K4: m_A = (x - 3)(x + 1) and t_0, t_1 = 4, 0.  With t_1 = 1 the
    # multiplicities would be 5/4 and 11/4; with t_1 = -12, -2 and 6
    m = Poly([-3, -2, 1])
    assert min_poly_factors(m, (4, 0)) == [(Poly([1, 1]), 3), (Poly([-3, 1]), 1)]
    for traces in ((4, 1), (4, -12)):
        with pytest.raises(AssertionError, match="multiplicity"):
            min_poly_factors(m, traces)
    # m_A of C9xJ2 has the cubic factor of 2cos(2pi/9): nothing is solved
    moments = moment_route(parse_expr("tensorj(cycle(9),2)").neighbour_table)
    assert min_poly_factors(moments.min_poly, moments.traces) is None


def test_a_quadratic_residual_is_the_last_pair_without_a_search(monkeypatch):
    # m_A of C8xJ5 is x(x - 10)(x + 10)(x^2 - 50): once the integer roots
    # are stripped, x^2 - 50 is taken as it is, so no quadratic candidate
    # is deflated (the search would try about 400 before c = -50)
    real, divisors = Poly.deflate, []

    def recording(self, f):
        divisors.append(f.degree())
        return real(self, f)

    monkeypatch.setattr(Poly, "deflate", recording)
    m = Poly([0, -100, 0, 1]) * Poly([-50, 0, 1])
    assert extract_spectrum(m).render() == "{[±10]^1, [±5√2]^1, [0]^1}"
    assert divisors == [1, 1]
    # a quadratic residual with no real roots stays unresolved
    assert extract_spectrum(Poly([-9, 0, 1]) * Poly([1, 1, 1])) == Unresolved(
        ((QuadraticNumber(3), 1), (QuadraticNumber(-3), 1)), Poly([1, 1, 1]))


# ---------------------------------------------------------------------------
# spectrum extraction


def test_extract_biquadratic():
    s = extract_spectrum(Poly([0, 0, -4, 0, 1]))
    assert isinstance(s, Spectrum)
    assert s.multiplicity(2) == 1 and s.multiplicity(-2) == 1
    assert s.multiplicity(0) == 2


def test_extract_c8_has_sqrt2():
    s = extract_spectrum(charpoly(_adj(cycle(8))))
    assert isinstance(s, Spectrum)
    root2 = QuadraticNumber.sqrt(2)
    assert s.multiplicity(root2) == 2 and s.multiplicity(-root2) == 2
    assert s.render() == "{[±2]^1, [±√2]^2, [0]^2}"


# x^3 - 3x + 1: irreducible, with the three real roots 2cos(2πj/9), j = 1, 2, 4
CUBIC_2COS9 = Poly([1, -3, 0, 1])


def test_extract_unresolved_real_cubic():
    out = extract_spectrum(CUBIC_2COS9)
    assert isinstance(out, Unresolved)
    assert out.residual == CUBIC_2COS9 and out.partial == ()
    # C9: (x - 2)(x + 1)^2 (x^3 - 3x + 1)^2
    out = extract_spectrum(charpoly(_adj(cycle(9))))
    assert isinstance(out, Unresolved)
    assert out.residual == CUBIC_2COS9 ** 2
    assert Spectrum.from_pairs(out.partial) == Spectrum.from_pairs([(2, 1), (-1, 2)])


def test_extract_mixed_resolved_and_real_cubic():
    p = CUBIC_2COS9 * Poly([-2, 0, 1])
    out = extract_spectrum(p)
    assert isinstance(out, Unresolved)
    assert out.residual == CUBIC_2COS9
    assert (QuadraticNumber.sqrt(2), 1) in out.partial
    assert (-QuadraticNumber.sqrt(2), 1) in out.partial


def test_extract_rejects_a_negative_sum_of_squared_roots():
    # x^2 + 1: the squared roots sum to -2, so the roots are not real
    with pytest.raises(ValueError):
        extract_spectrum(Poly([1, 0, 1]))


def test_extract_golden_ratio_pair():
    # x^2 - x - 1 has roots (1 +- sqrt5)/2
    s = extract_spectrum(Poly([-1, -1, 1]))
    assert isinstance(s, Spectrum)
    phi = QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 5)
    assert s.multiplicity(phi) == 1


def test_extract_reassembles_graph_charpolys():
    for g in (cycle(5), cycle(6), cycle(8), complete_bipartite(3, 3),
              hypercube(3), petersen(), line_graph(hypercube(3))):
        p = charpoly(_adj(g))
        s = extract_spectrum(p)
        assert isinstance(s, Spectrum), f"unresolved for {g}"
        assert dimension(s) == g.n
        assert spectrum_charpoly(s) == p


def test_extract_reassembles_random_products():
    rng = random.Random(4242)
    for _ in range(30):
        p = Poly.one()
        dim = 0
        for _ in range(rng.randint(1, 3)):
            r = rng.randint(-6, 6)
            e = rng.randint(1, 2)
            p = p * Poly([-r, 1]) ** e
            dim += e
        for _ in range(rng.randint(0, 2)):
            b = rng.randint(-4, 4)
            c = rng.randint(-8, 8)
            if b * b - 4 * c <= 0 or math.isqrt(b * b - 4 * c) ** 2 == b * b - 4 * c:
                continue
            p = p * Poly([c, b, 1])
            dim += 2
        s = extract_spectrum(p)
        assert isinstance(s, Spectrum)
        assert dimension(s) == dim == p.degree()
        assert spectrum_charpoly(s) == p


def _extraction_from_factor_list(p, sympy):
    """What `extract_spectrum` must return for p, read off sympy's
    factorization over Z: the roots of the linear and quadratic factors,
    and the product of the factors of degree >= 3."""
    pairs, residual = [], Poly.one()
    _, factors = sympy.Poly([int(c) for c in reversed(p.coeffs)], sympy.Symbol("x")).factor_list()
    for f, e in factors:
        cs = [int(c) for c in reversed(f.all_coeffs())]
        assert cs[-1] == 1
        if len(cs) == 2:
            pairs.append((QuadraticNumber(-cs[0]), e))
        elif len(cs) == 3:
            c, b = cs[0], cs[1]
            m, s = squarefree_part(b * b - 4 * c)
            pairs.append((QuadraticNumber(Fraction(-b, 2), Fraction(s, 2), m), e))
            pairs.append((QuadraticNumber(Fraction(-b, 2), Fraction(-s, 2), m), e))
        else:
            residual = residual * Poly(cs) ** e
    return pairs, residual


def test_extract_agrees_with_sympy_factor_list():
    sympy = pytest.importorskip("sympy")
    nx = pytest.importorskip("networkx")
    graphs = [parse_expr(expr) for _, expr in REALIZATIONS.values()]
    graphs += [cycle(n) for n in range(3, 13)]
    rng = random.Random(20261018)
    graphs += [random_regular(n, k, rng) for k in (3, 4)
               for n in range(k + 1, 21) if n * k % 2 == 0]
    # the shapes of the period-random bench graphs
    graphs += [random_regular(n, k, rng) for k, n in ((3, 16), (3, 20), (5, 42))
               for _ in range(3)]
    graphs += [Graph.from_edges(h.number_of_nodes(), h.edges())
               for h in nx.graph_atlas_g() if h.number_of_nodes() > 0]
    unresolved = 0
    for p in {g.charpoly for g in graphs}:
        pairs, residual = _extraction_from_factor_list(p, sympy)
        out = extract_spectrum(p)
        if residual.degree() == 0:
            assert out == Spectrum.from_pairs(pairs), p
        else:
            assert isinstance(out, Unresolved), p
            assert out.residual == residual, p
            assert Spectrum.from_pairs(out.partial) == Spectrum.from_pairs(pairs), p
            unresolved += 1
    assert unresolved > 0


def test_screen_passes_a_candidate_that_the_division_rejects():
    # r = f*x^3 + prod_v (x - v) agrees with f*x^3 at every screen point v,
    # so f(v) | r(v) there, yet f = x^2 - 2 does not divide r
    f = Poly([-2, 0, 1])
    w = Poly.one()
    for v in _SCREEN_POINTS:
        w = w * Poly([-v, 1])
    r = f * Poly.x() ** 3 + w
    assert r == Poly([-36, 0, 49, -2, -14, 1, 1])
    assert all(r(v) % f(v) == 0 for v in _SCREEN_POINTS)
    assert not f.divides(r)
    # f is a candidate: c = -2 divides a_0 and b^2 = 0 <= S + 2c = 29 - 4
    assert r.coeffs[0] % 2 == 0 and r.coeffs[5] ** 2 - 2 * r.coeffs[4] == 29
    # r is irreducible over Z (sympy's factor_list), so nothing resolves
    assert extract_spectrum(r) == Unresolved((), r)


# ---------------------------------------------------------------------------
# square-free parts and ring membership


def test_squarefree_part_examples():
    assert squarefree_part(12) == (3, 2)
    assert squarefree_part(2) == (2, 1)
    assert squarefree_part(48) == (3, 4)
    assert squarefree_part(1) == (1, 1)


def test_squarefree_part_random():
    rng = random.Random(5)
    for _ in range(300):
        d = rng.randint(1, 100000)
        m, s = squarefree_part(d)
        assert s * s * m == d
        for p in range(2, 60):
            assert m % (p * p) != 0


def test_algebraic_integer_examples():
    golden = QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 5)
    assert is_quadratic_algebraic_integer(golden)
    assert not is_quadratic_algebraic_integer(QuadraticNumber(0, Fraction(1, 2), 3))
    assert is_quadratic_algebraic_integer(QuadraticNumber(7))
    assert not is_quadratic_algebraic_integer(QuadraticNumber(Fraction(1, 2)))


def test_algebraic_integer_against_minimal_quadratic():
    # x = p + q sqrt(m) is an algebraic integer iff its monic minimal
    # quadratic x^2 - 2p x + (p^2 - q^2 m) has integer coefficients
    rng = random.Random(31337)
    squarefree = [m for m in range(2, 60) if squarefree_part(m)[0] == m]
    checked = 0
    while checked < 1000:
        p = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        q = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        m = rng.choice(squarefree)
        if q == 0:
            continue
        x = QuadraticNumber(p, q, m)
        trace = 2 * p
        norm = p * p - q * q * m
        expected = trace.denominator == 1 and norm.denominator == 1
        assert is_quadratic_algebraic_integer(x) == expected, (p, q, m)
        checked += 1


# ---------------------------------------------------------------------------
# quadratic numbers


def test_quadratic_number_ordering():
    r2 = QuadraticNumber.sqrt(2)
    assert QuadraticNumber(Fraction(7, 5)) < r2 < QuadraticNumber(Fraction(3, 2))
    assert QuadraticNumber.sqrt(3) > QuadraticNumber(Fraction(12, 7))
    assert -r2 < QuadraticNumber(0) < r2
    vals = sorted([r2, QuadraticNumber(1), -r2, QuadraticNumber(2)])
    assert vals[0] == -r2 and vals[-1] == QuadraticNumber(2)


def test_quadratic_number_arithmetic():
    r2 = QuadraticNumber.sqrt(2)
    assert r2 * r2 == QuadraticNumber(2)
    assert (r2 + 1) * (r2 - 1) == QuadraticNumber(1)
    assert (QuadraticNumber(1) / (1 + r2)) == r2 - 1
    assert (r2 ** 4) == QuadraticNumber(4)
    assert QuadraticNumber.sqrt(8) == 2 * r2  # radicand normalization
    assert QuadraticNumber.sqrt(9) == QuadraticNumber(3)
    with pytest.raises(ValueError):
        _ = r2 + QuadraticNumber.sqrt(3)


def test_quadratic_number_cross_field_ordering():
    r2, r3 = QuadraticNumber.sqrt(2), QuadraticNumber.sqrt(3)
    golden = QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 5)
    assert r2 < golden < r3
    assert -r3 < -golden < -r2
    assert sorted([r3, golden, r2]) == [r2, golden, r3]
    assert QuadraticNumber.sqrt(5, 2) > QuadraticNumber.sqrt(3, 2)  # 2sqrt5 > 2sqrt3


def test_quadratic_number_str():
    assert str(QuadraticNumber(Fraction(1, 3))) == "1/3"
    assert str(QuadraticNumber.sqrt(2, 3)) == "3√2"
    assert str(-QuadraticNumber.sqrt(2)) == "-√2"
    assert str(QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 5)) == "1/2+1/2√5"


# ---------------------------------------------------------------------------
# cyclotomics


def test_cyclotomic_small():
    assert cyclotomic(1) == Poly([-1, 1])
    assert cyclotomic(6) == Poly([1, -1, 1])
    assert cyclotomic(12) == Poly([1, 0, -1, 0, 1])


def test_cyclotomic_product_identity():
    for n in range(1, 101):
        prod = Poly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == Poly([-1] + [0] * (n - 1) + [1])


def test_min_poly_2cos_values():
    assert min_poly_2cos(1) == Poly([-2, 1])
    assert min_poly_2cos(2) == Poly([2, 1])
    assert min_poly_2cos(6) == Poly([-1, 1])
    assert min_poly_2cos(8) == Poly([-2, 0, 1])
    assert min_poly_2cos(12) == Poly([-3, 0, 1])


def test_cyclotomic_and_min_poly_2cos_match_the_poly_constructions():
    for d in range(1, 201):
        assert cyclotomic(d) == cyclotomic_by_division(d), d
        assert min_poly_2cos(d) == min_poly_2cos_by_poly(d), d


def test_cyclotomic_degree_is_totient():
    for d in range(1, 80):
        assert cyclotomic(d).degree() == _totient(d)


def test_modular_charpoly_matches_hessenberg_at_scale():
    # one large structured case through both exact routes
    from walklab.graphs import tensor_allones, cycle
    g = tensor_allones(cycle(6), 3)
    ku = build_walk_matrices(g).scaled_evolution()
    assert len(ku) == 108
    assert charpoly(ku) == hessenberg_charpoly(ku)


def test_min_poly_2cos_degree():
    for d in range(3, 51):
        phi_deg = cyclotomic(d).degree()
        assert min_poly_2cos(d).degree() == phi_deg // 2


def test_min_poly_2cos_substitution_identity():
    # z^(deg psi) * psi(z + 1/z) must reproduce the cyclotomic polynomial
    for d in range(3, 31):
        psi = min_poly_2cos(d)
        half = psi.degree()
        acc = Poly.zero()
        pw = Poly.one()
        for j in range(half + 1):
            acc = acc + psi.coeffs[j] * Poly((0,) * (half - j) + pw.coeffs)
            pw = pw * Poly([1, 0, 1])
        assert acc == cyclotomic(d), d


def test_order_of_cos_pair():
    assert order_of_cos_pair(QuadraticNumber.sqrt(2), 20) == 8
    assert order_of_cos_pair(QuadraticNumber(1), 20) == 6
    assert order_of_cos_pair(QuadraticNumber(0), 20) == 4
    assert order_of_cos_pair(QuadraticNumber(2), 20) == 1
    assert order_of_cos_pair(QuadraticNumber(-2), 20) == 2


# ---------------------------------------------------------------------------
# cyclotomic sieve


def test_sieve_full():
    p = Poly([-1, 1]) ** 2 * Poly([1, 1, 1])
    out = cyclotomic_sieve(p)
    assert out.full and out.orders_dict() == {1: 2, 3: 1}
    assert out.order_lcm() == 3


def test_sieve_partial():
    out = cyclotomic_sieve(Poly([0, -1, 1]))
    assert not out.full
    assert out.orders_dict() == {1: 1}
    assert out.residual == Poly([0, 1])


def test_sieve_mixed_orders():
    p = Poly([1, -1, 1]) ** 2 * Poly([1, 0, 1])
    out = cyclotomic_sieve(p)
    assert out.full and out.orders_dict() == {6: 2, 4: 1}
    assert out.order_lcm() == 12


def test_sieve_reassembles():
    rng = random.Random(77)
    for _ in range(20):
        orders = {}
        p = Poly.one()
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(1, 15)
            orders[d] = orders.get(d, 0) + 1
            p = p * cyclotomic(d)
        out = cyclotomic_sieve(p)
        assert out.full and out.orders_dict() == orders


# ---------------------------------------------------------------------------
# linear algebra helpers


def test_kernel_dim():
    a = _adj(complete_bipartite(3, 3))
    shifted = [[a[i][j] + (3 if i == j else 0) for j in range(6)] for i in range(6)]
    assert kernel_dim(shifted) == 1
    assert kernel_dim([[0] * 4 for _ in range(4)]) == 4
    assert kernel_dim(mat_identity(5)) == 0


def test_rank_rational():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2, 1)]]
    assert rank(m) == 2
    assert rank([[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]]) == 1


def _gauss_rank(mat):
    """Plain fraction Gauss elimination, as an independent rank oracle."""
    m = [[Fraction(x) for x in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                for j in range(c, cols):
                    m[i][j] -= f * m[r][j]
        r += 1
    return r


def test_rank_against_gauss_oracle():
    rng = random.Random(1618)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        assert rank(m) == _gauss_rank(m), m


def test_poly_gcd_and_derivative():
    a = Poly([-1, 1]) ** 2 * Poly([2, 1])
    b = Poly([-1, 1]) * Poly([3, 1]) * 5
    assert gcd(a, b) == Poly([-1, 1])
    assert gcd(b, a) == Poly([-1, 1])
    assert gcd(a, derivative(a)) == Poly([-1, 1])
    assert gcd(a * Fraction(1, 3), b) == Poly([-1, 1])
    assert gcd(Poly([1, 1]), Poly([2, 1])) == Poly.one()
    assert gcd(a, Poly.zero()) == a
    assert gcd(Poly.zero(), Poly.zero()) == Poly.zero()
    assert derivative(Poly([5, 0, 0, 2])) == Poly([0, 0, 6])
    assert derivative(Poly([7])) == Poly.zero()


def test_hoffman_polynomial_evaluation():
    # q(x) = x (x + 3) at the adjacency of K_{3,3} equals 3 J
    a = _adj(complete_bipartite(3, 3))
    value = eval_poly_at_matrix(Poly([0, 3, 1]), a)
    assert all(x == 3 for row in value for x in row)
    value = eval_poly_at_matrix(Poly([0, 3, 1]) * Fraction(1, 6), a)
    assert all(x == Fraction(1, 2) for row in value for x in row)
    assert eval_poly_at_matrix(Poly.zero(), a) == [[0] * 6 for _ in range(6)]
