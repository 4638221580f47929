"""Walk engine: matrix invariants, the spectral mapping against the
direct characteristic polynomial, periodicity decisions against the
matrix-power oracle, the eigenvalue gate, and the structural identity
checks."""

import math
import random
from fractions import Fraction

import pytest

from walklab import exact, graphs, walk
from walklab.exact import (
    Poly,
    QuadraticNumber,
    Spectrum,
    cyclotomic,
    min_poly_2cos,
)
from walklab.feasibility import REALIZATIONS
from walklab.expressions import parse_expr
from walklab.graphs import (
    Graph,
    bipartite_double,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    count_quadrangles,
    cycle,
    hamming,
    hypercube,
    line_graph,
    petersen,
    tensor_allones,
)
from walklab.walk import (
    NotConnectedError,
    NotPeriodic,
    NotRegularError,
    Periodic,
    decide_periodic,
    walk_regularity_check,
)
from walklab.oracles import (
    SpectrumShapeError,
    _selfcheck_catalog,
    arc_space,
    build_walk_matrices,
    charpoly,
    cyclotomic_sieve,
    derivative,
    eigenvalue_gate,
    eval_poly_at_matrix,
    exact_div,
    extract_spectrum,
    gcd,
    hoffman_check,
    int_mat_power,
    int_matmul,
    period_oracle,
    power_sum,
    u_charpoly_direct,
    u_charpoly_via_mapping,
    u_spectrum_model,
    verify_biadjacency_identities,
)

from oracles import (
    decide_periodic_by_fractions,
    kernel_dim,
    mod_2_bits,
    order_of_cos_pair,
    orders_dict,
    random_regular,
    scaled,
    spectral_quadrangles,
    spectrum_charpoly,
    witness_by_spectrum,
)

SMALL_REGULAR = [
    ("K2", complete_graph(2)),
    ("C4", cycle(4)),
    ("C5", cycle(5)),
    ("C6", cycle(6)),
    ("C8", cycle(8)),
    ("K3,3", complete_bipartite(3, 3)),
    ("Q3", hypercube(3)),
    ("petersen", petersen()),
    ("L(Q3)", line_graph(hypercube(3))),
    ("C6xJ2", tensor_allones(cycle(6), 2)),
    ("C8xJ2", tensor_allones(cycle(8), 2)),
    ("H(4,2)", hamming(4, 2)),
]


# ---------------------------------------------------------------------------
# walk matrices


def test_build_walk_matrices_c6():
    wm = build_walk_matrices(cycle(6))
    assert wm.degree == 2
    assert len(wm.time_evolution) == 12
    # T = A/2 exactly
    for i in range(6):
        for j in range(6):
            assert wm.discriminant[i][j] == Fraction(cycle(6).adjacency[i][j], 2)


def test_walk_matrices_invariants():
    for name, g in SMALL_REGULAR:
        wm = build_walk_matrices(g)
        m = len(wm.shift)
        assert m == 2 * g.edge_count
        s = [list(r) for r in wm.shift]
        s2 = int_matmul(s, s)
        assert all(s2[i][j] == (1 if i == j else 0) for i in range(m)
                   for j in range(m)), name
        assert all(wm.shift[i][j] == wm.shift[j][i] for i in range(m)
                   for j in range(m)), name
        ku = wm.scaled_evolution()
        kut = [list(r) for r in zip(*ku)]
        prod = int_matmul(kut, ku)
        k2 = wm.degree ** 2
        assert all(prod[i][j] == (k2 if i == j else 0) for i in range(m)
                   for j in range(m)), name


def test_discriminant_matches_arc_counts():
    # (d S d*)[x][y] counts arcs with terminus x and origin y, over deg
    for name, g in SMALL_REGULAR[:6]:
        k = sum(g.adjacency[0])
        space = arc_space(g)
        wm = build_walk_matrices(g)
        for x in range(g.n):
            for y in range(g.n):
                arcs = sum(1 for origin, terminus in space.arcs
                           if terminus == x and origin == y)
                assert wm.discriminant[x][y] * k == arcs


def test_build_walk_matrices_k2_is_shift():
    # for degree 1 the reflection is the identity, so U = S
    wm = build_walk_matrices(complete_graph(2))
    assert [list(r) for r in wm.time_evolution] == [list(r) for r in wm.shift]


def test_build_rejects_irregular_and_disconnected():
    with pytest.raises(NotRegularError):
        build_walk_matrices(complete_bipartite(1, 3))
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                         (3, 4), (4, 5), (3, 5)])
    with pytest.raises(NotConnectedError):
        build_walk_matrices(two_triangles)


# ---------------------------------------------------------------------------
# spectral mapping


def test_mapping_c6_factorization():
    model = u_spectrum_model(cycle(6))
    expected = (Poly([-1, 1]) ** 2 * Poly([1, 1]) ** 2
                * cyclotomic(6) ** 2 * cyclotomic(3) ** 2)
    assert model.u_charpoly == expected
    assert model.u_charpoly.degree() == 12
    assert model.m_plus == 1 and model.m_minus == 1


def test_mapping_k2_collapse():
    model = u_spectrum_model(complete_graph(2))
    assert model.u_charpoly == Poly([-1, 1]) * Poly([1, 1])
    assert model.m_plus == 0 and model.m_minus == 0


def test_mapping_blowup_gains_quarter_turns():
    # the new zero eigenvalues of the blow-up contribute x^2 + 1 factors
    model = u_spectrum_model(tensor_allones(cycle(6), 2))
    quarters = 0
    residual = model.u_charpoly
    while cyclotomic(4).divides(residual):
        residual = exact_div(residual, cyclotomic(4))
        quarters += 1
    assert quarters == 6  # one conjugate pair per new zero eigenvalue


def test_mapping_equals_direct_charpoly():
    for name, g in SMALL_REGULAR:
        if 2 * g.edge_count > 200:
            continue
        assert u_charpoly_direct(g) == u_spectrum_model(g).u_charpoly, name


def test_mapping_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        u_charpoly_via_mapping(Poly([-1, 0, 1]), 1, 1, 3, 0)


# ---------------------------------------------------------------------------
# periodicity


def test_periodic_c6():
    v = decide_periodic(cycle(6))
    assert isinstance(v, Periodic)
    assert v.period == 6 and orders_dict(v) == {1: 2, 2: 2, 3: 2, 6: 2}


def test_periodic_blowups_of_c6():
    for m in (2, 3):
        v = decide_periodic(tensor_allones(cycle(6), m))
        assert isinstance(v, Periodic) and v.period == 12, m


def test_periodic_c8_family():
    for m in (1, 2, 3):
        v = decide_periodic(tensor_allones(cycle(8), m))
        assert isinstance(v, Periodic) and v.period == 8, m


def test_not_periodic_petersen():
    v = decide_periodic(petersen())
    assert isinstance(v, NotPeriodic)
    assert v.witness == QuadraticNumber(Fraction(1, 3))
    assert v.render() == "NOT PERIODIC witness=1/3"


def test_not_periodic_q3():
    v = decide_periodic(hypercube(3))
    assert isinstance(v, NotPeriodic)
    assert v.witness == QuadraticNumber(Fraction(1, 3))


def test_the_witness_is_the_first_eigenvalue_whose_double_is_no_algebraic_integer():
    # C4 x C3 (k = 4) has eigenvalues 4, 2, 1, 0, -1, -3: 2*2/4 = 1 is an
    # integer and 2*1/4 = 1/2 is not, so the witness is 1/4; 2/4 is not one
    v = decide_periodic(cartesian_product(cycle(4), cycle(3)))
    assert isinstance(v, NotPeriodic)
    assert v.witness == QuadraticNumber(Fraction(1, 4))


def test_the_witness_is_the_first_failing_eigenvalue_of_the_sorted_spectrum():
    # the decision takes the largest root of the factors that fail the
    # integrality test; the oracle scans the whole sorted spectrum
    nx = pytest.importorskip("networkx")
    graphs = [(f"atlas {h.name}", Graph.from_edges(h.number_of_nodes(), h.edges()))
              for h in nx.graph_atlas_g()
              if h.number_of_nodes() > 1 and nx.is_connected(h)
              and len({d for _, d in h.degree()}) == 1]
    graphs += list(_selfcheck_catalog())
    graphs += [(label, parse_expr(expr)) for label, expr in REALIZATIONS.values()]
    graphs += [(expr, parse_expr(expr)) for expr in (
        "cart(cycle(4),cycle(3))", "hypercube(4)", "hypercube(5)", "line(hypercube(4))",
        "complete(7)", "hamming(3,3)", "kron(petersen(),complete(2))")]
    rng = random.Random(20261019)
    graphs += [(f"random k={k} n={n} #{i}", random_regular(n, k, rng))
               for k, sizes in ((3, (6, 8, 10, 12)), (4, (7, 8, 9, 10, 12)), (5, (8, 10, 12)))
               for n in sizes for i in range(3)]
    compared = 0
    for name, g in graphs:
        verdict = decide_periodic(g)
        if isinstance(verdict, Periodic) or not isinstance(g.spectrum, Spectrum):
            continue
        assert verdict.witness == witness_by_spectrum(g.spectrum, g.regularity), name
        compared += 1
    assert compared == 27


def test_periodic_line_graph_of_q3():
    v = decide_periodic(line_graph(hypercube(3)))
    assert isinstance(v, Periodic) and v.period == 12


def test_periodic_odd_cycle():
    # all cycles are periodic with period n (odd ones via the m=1 mod 4 ring)
    for n in (3, 4, 5, 6, 8, 12):
        v = decide_periodic(cycle(n))
        assert isinstance(v, Periodic) and v.period == n, n


def _circulant(n, jumps):
    edges = set()
    for i in range(n):
        for j in jumps:
            a, b = i, (i + j) % n
            edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(n, sorted(edges))


def test_not_periodic_with_residual_certificate():
    # the 9-vertex circulant (1,2) has an unresolvable vertex spectrum;
    # the integrality test still refutes periodicity, and 4 does not
    # divide 2n = 18: the coefficient of x^7 in p_2T is -2n/k = -9/2
    v = decide_periodic(_circulant(9, (1, 2)))
    assert isinstance(v, NotPeriodic)
    assert v.witness is None and v.coefficient == (7, Fraction(-9, 2))
    assert v.render() == "NOT PERIODIC coefficient=x^7:-9/2"
    assert v == decide_periodic_by_fractions(_circulant(9, (1, 2)))
    assert period_oracle(_circulant(9, (1, 2)), 200) is None


def test_a_constant_term_alone_off_the_integers_refutes_periodicity():
    # no connected regular graph of the atlas has a p_2T that fails to be
    # integral only in a_0 2^n / k^n, so the cached charpoly of C6xJ2,
    # x^12 - 24x^10 + 144x^8 - 256x^6, is given a_0 = 1.  The route
    # certifies m_A for C6xJ2, and its factors never read the charpoly, so
    # they are set to those of that charpoly to force the p_A path
    g = tensor_allones(cycle(6), 2)
    g.__dict__["charpoly"] = Poly((1,) + g.charpoly.coeffs[1:])
    assert decide_periodic(g).render() == "PERIODIC period=12 orders={1,2,3,4,6}"
    g.__dict__["factors"] = exact._factors(g.charpoly)
    verdict = decide_periodic(g)
    assert verdict.render() == "NOT PERIODIC coefficient=x^0:1/4096"
    assert verdict == decide_periodic_by_fractions(g)


def test_the_psi_d_of_degree_at_most_2_are_the_nine_orders_of_the_table():
    # phi(d) > 4 for every d > 12
    table = {}
    for d in range(1, 31):
        psi = min_poly_2cos(d)
        if psi.degree() <= 2:
            assert d <= 12
            table[psi.coeffs] = d
    assert table == walk._ORDER_OF_PSI
    assert sorted(table.values()) == [1, 2, 3, 4, 5, 6, 8, 10, 12]


def _assert_vertex_decision_matches_u_side(name, g):
    """The vertex-side decision against the U-side oracles: the cyclotomic
    sieve of the mapped U-charpoly and, up to 200 arcs, the direct
    U-charpoly and the matrix-power period."""
    verdict = decide_periodic(g)
    model = u_spectrum_model(g)
    sieve = cyclotomic_sieve(model.u_charpoly)
    assert isinstance(verdict, Periodic) == sieve.full, name
    if sieve.full:
        assert verdict.cyclotomic_orders == sieve.orders, name
        assert verdict.period == sieve.order_lcm(), name
    if 2 * g.edge_count > 200:
        return
    assert u_charpoly_direct(g) == model.u_charpoly, name
    if isinstance(verdict, Periodic):
        assert period_oracle(g, 2 * verdict.period) == verdict.period, name
    else:
        assert period_oracle(g, 24) is None, name


def test_vertex_decision_matches_u_side_oracles():
    graphs = list(_selfcheck_catalog())
    graphs += [(label, parse_expr(expr)) for label, expr in REALIZATIONS.values()]
    graphs += [(f"C{n}", cycle(n)) for n in range(3, 13)]
    graphs += [(f"circulant({n};1,2)", _circulant(n, (1, 2))) for n in (8, 9)]
    rng = random.Random(20211)
    graphs += [(f"random k={k} n={n} #{i}", random_regular(n, k, rng))
               for k, sizes in ((3, (6, 8, 10, 12)), (4, (7, 8, 9, 10, 11, 12)))
               for n in sizes for i in range(2)]
    for name, g in graphs:
        _assert_vertex_decision_matches_u_side(name, g)


def test_vertex_decision_matches_u_side_on_the_graph_atlas():
    nx = pytest.importorskip("networkx")
    checked = 0
    for h in nx.graph_atlas_g():
        degrees = {d for _, d in h.degree()}
        if h.number_of_nodes() < 2 or len(degrees) != 1 or degrees == {0}:
            continue
        if not nx.is_connected(h):
            continue
        g = Graph.from_edges(h.number_of_nodes(), h.edges())
        _assert_vertex_decision_matches_u_side(f"atlas {h.name}", g)
        checked += 1
    assert checked == 15


def test_integer_decision_matches_the_fraction_route_and_the_period_oracle():
    # the integrality test over Z and the deflation sieve against p_2T in
    # Fractions with one divmod per trial, and against U^tau = I
    graphs = [(f"C{n}", cycle(n)) for n in range(3, 31)]
    rng = random.Random(20261018)
    graphs += [(f"random k={k} n={n}", random_regular(n, k, rng))
               for k, sizes in ((3, (8, 10, 12, 16, 20)), (4, (9, 10, 12, 15)), (5, (12,)))
               for n in sizes]
    graphs += [(label, parse_expr(expr)) for label, expr in REALIZATIONS.values()]
    graphs.append(("circulant(9;1,2)", _circulant(9, (1, 2))))
    for name, g in graphs:
        verdict = decide_periodic(g)
        assert verdict == decide_periodic_by_fractions(g), name
        if 2 * g.edge_count > 200:
            continue
        if isinstance(verdict, Periodic):
            assert period_oracle(g, verdict.period) == verdict.period, name
        else:
            assert period_oracle(g, 24) is None, name


def test_the_mod_2_certificate_only_certifies_a_residual_of_p_a():
    # the bench's period-random shapes and a few more, several seeds each:
    # where p_A mod 2, read off the table, keeps a factor of degree >= 3,
    # the factor search leaves a residual of degree >= 3, and every verdict
    # equals the Fraction route's, also on the cycles, whose p_2T is
    # integral, and on C6xJ2 and C7xJ3, whose routes certify m_A (C7xJ3
    # keeps the cubic factor of 2cos(2pi/7) mod 2, with p_2T integral)
    rng = random.Random(20261102)
    graphs = [(f"k={k} n={n}", random_regular(n, k, rng))
              for k, n in ((3, 16), (3, 20), (5, 42), (4, 15), (3, 26)) for _ in range(4)]
    graphs += [(f"C{n}", cycle(n)) for n in range(3, 13)]
    graphs += [("C6xJ2", tensor_allones(cycle(6), 2)), ("C7xJ3", tensor_allones(cycle(7), 3))]
    certified = 0
    for name, g in graphs:
        assert g.charpoly_mod_2 == mod_2_bits(g.charpoly), name
        if not walk._splits_mod_2(g.charpoly_mod_2):
            assert exact._factors(g.charpoly)[1].degree() >= 3, name
            certified += 1
        assert decide_periodic(g) == decide_periodic_by_fractions(g), name
    assert certified >= 18


def test_not_periodic_with_irrational_witness():
    v = decide_periodic(_circulant(8, (1, 2)))
    assert isinstance(v, NotPeriodic)
    assert v.witness is not None and not v.witness.is_rational
    assert str(v.witness) == "1/4√2"


def test_periodic_circulant():
    g = _circulant(12, (1, 5))
    v = decide_periodic(g)
    assert isinstance(v, Periodic) and v.period == 12
    assert period_oracle(g, 12) == 12


def test_periodic_blowup_of_odd_cycle():
    g = tensor_allones(cycle(7), 2)
    v = decide_periodic(g)
    assert isinstance(v, Periodic) and v.period == 28
    assert period_oracle(g, 28) == 28


def test_complete_graph_periodicity():
    # K2 and K3 are periodic; beyond that the discriminant eigenvalue
    # -1/(n-1) violates the algebraic-integer condition
    v2 = decide_periodic(complete_graph(2))
    assert isinstance(v2, Periodic) and v2.period == 2
    v3 = decide_periodic(complete_graph(3))
    assert isinstance(v3, Periodic) and v3.period == 3
    for n in (4, 5, 6):
        v = decide_periodic(complete_graph(n))
        assert isinstance(v, NotPeriodic)
        assert v.witness == QuadraticNumber(Fraction(-1, n - 1))


def test_complete_bipartite_periodicity():
    for p in (2, 3, 4, 5):
        v = decide_periodic(complete_bipartite(p, p))
        assert isinstance(v, Periodic) and v.period == 4, p
    assert period_oracle(complete_bipartite(3, 3), 4) == 4


def test_decide_rejects_bad_inputs():
    with pytest.raises(NotRegularError):
        decide_periodic(complete_bipartite(1, 3))
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                         (3, 4), (4, 5), (3, 5)])
    with pytest.raises(NotConnectedError):
        decide_periodic(two_triangles)


def test_verdict_rendering():
    assert decide_periodic(tensor_allones(cycle(6), 2)).render() == \
        "PERIODIC period=12 orders={1,2,3,4,6}"


def test_period_oracle_examples():
    assert period_oracle(cycle(6), 24) == 6
    assert period_oracle(complete_bipartite(2, 2), 8) == 4
    assert period_oracle(petersen(), 1000) is None


def test_period_oracle_size_limit():
    with pytest.raises(ValueError):
        period_oracle(cartesian_product(complete_bipartite(4, 4),
                                        complete_bipartite(4, 4)), 4)


def test_decision_consistent_with_oracle():
    # decided period p satisfies U^p = I and no smaller power does
    for name, g in SMALL_REGULAR:
        if 2 * g.edge_count > 200:
            continue
        v = decide_periodic(g)
        if isinstance(v, Periodic):
            assert period_oracle(g, v.period) == v.period, name
        else:
            assert period_oracle(g, 48) is None, name


def test_period_divides_all_identity_powers():
    # U^tau = I exactly when the period divides tau
    g = tensor_allones(cycle(6), 2)
    v = decide_periodic(g)
    assert isinstance(v, Periodic)
    ku = build_walk_matrices(g).scaled_evolution()
    k = 4
    for tau in (v.period, 2 * v.period):
        power = int_mat_power(ku, tau)
        scale = k ** tau
        assert all(power[i][j] == (scale if i == j else 0)
                   for i in range(len(ku)) for j in range(len(ku)))
    power = int_mat_power(ku, v.period // 2)
    scale = k ** (v.period // 2)
    assert any(power[i][j] != (scale if i == j else 0)
               for i in range(len(ku)) for j in range(len(ku)))


# ---------------------------------------------------------------------------
# eigenvalue gate


def test_gate_admissible_values():
    assert eigenvalue_gate(6, QuadraticNumber(3))
    assert eigenvalue_gate(6, QuadraticNumber.sqrt(2, 3))
    assert eigenvalue_gate(6, QuadraticNumber.sqrt(3, 3))
    assert eigenvalue_gate(2, QuadraticNumber(1))
    assert eigenvalue_gate(2, QuadraticNumber.sqrt(2))
    assert eigenvalue_gate(2, QuadraticNumber.sqrt(3))


def test_gate_rejections():
    assert not eigenvalue_gate(5, QuadraticNumber(Fraction(5, 2)))  # odd degree
    assert not eigenvalue_gate(4, QuadraticNumber(1))  # ratio 1/2 not integral
    assert not eigenvalue_gate(6, QuadraticNumber(2))  # ratio 2/3
    assert not eigenvalue_gate(4, QuadraticNumber(4))  # ratio not below 2
    assert not eigenvalue_gate(4, QuadraticNumber.sqrt(2))  # ratio sqrt2/2
    assert not eigenvalue_gate(4, QuadraticNumber.sqrt(5, 2))  # sqrt5 above window
    with pytest.raises(ValueError):
        eigenvalue_gate(4, QuadraticNumber(-1))


def test_gate_rejects_half_integer_ring_elements():
    # (1+sqrt5)/2 is an algebraic integer inside the window, but it is
    # not a pure surd, so no admissible eigenvalue ratio produces it
    golden = QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 5)
    from walklab.oracles import is_quadratic_algebraic_integer
    assert is_quadratic_algebraic_integer(golden)
    assert not eigenvalue_gate(2, golden)  # ratio would be golden itself


def test_cos_pair_orders_match_sieve():
    # independent route: each discriminant eigenvalue's conjugate pair
    # order from the minimal polynomials of 2cos(2*pi/d)
    g = tensor_allones(cycle(6), 2)
    verdict = decide_periodic(g)
    assert isinstance(verdict, Periodic)
    orders = set(orders_dict(verdict))
    pair_orders = set()
    for t_eig in scaled(g.spectrum, Fraction(1, 4)).values():
        d = order_of_cos_pair(t_eig * 2, 100)
        assert d is not None
        pair_orders.add(d)
    # the flat +-1 parts add orders 1 and 2 beyond the cos pairs
    assert pair_orders | {1, 2} == orders
    assert verdict.period == math.lcm(*pair_orders, 2)


def test_gate_on_decided_builtins():
    # every periodic bipartite builtin with the 4/5-eigenvalue shape
    # passes the gate with its actual second-largest eigenvalue
    for g in (cycle(6), cycle(8), tensor_allones(cycle(6), 2),
              tensor_allones(cycle(8), 3), hamming(4, 2),
              bipartite_double(line_graph(hypercube(3)))):
        spec = extract_spectrum(charpoly(g.adjacency.tolist()))
        k = sum(g.adjacency[0])
        positives = [v for v in spec.values() if v.sign() > 0 and v != QuadraticNumber(k)]
        theta = max(positives)
        assert isinstance(decide_periodic(g), Periodic)
        assert eigenvalue_gate(k, theta), g


# ---------------------------------------------------------------------------
# structural checks


def test_walk_regularity():
    assert walk_regularity_check(tensor_allones(cycle(6), 2))
    assert not walk_regularity_check(complete_bipartite(1, 3), 4)
    for n in (4, 5, 6, 8):
        assert walk_regularity_check(cycle(n))
    assert walk_regularity_check(petersen())


def test_walk_regularity_gathers_once_per_two_depths(monkeypatch):
    # W_2i is read before the gather that forms A^(i+1), so the depths
    # 2 .. r take floor((r - 1)/2) row gathers, and an early exit fewer
    real, calls = graphs.adjacency_times, []

    def counting(table, p):
        calls.append(p.shape)
        return real(table, p)

    monkeypatch.setattr(graphs, "adjacency_times", counting)
    for g in (hypercube(9), petersen(), cycle(7)):
        for r in range(2, 13):
            calls.clear()
            assert walk_regularity_check(g, r)
            assert len(calls) == (r - 1) // 2, (g, r)
    calls.clear()
    assert not walk_regularity_check(CUBIC8_NOT_WALK_REGULAR, 9)
    assert len(calls) == 1  # cubic, but vertex 2 is on two triangles and vertex 0 on one
    calls.clear()
    assert not walk_regularity_check(complete_bipartite(1, 3), 9)
    assert calls == []


def test_hoffman_examples():
    assert hoffman_check(complete_bipartite(3, 3))
    assert hoffman_check(cycle(6))
    assert hoffman_check(cycle(7))  # the spectrum does not resolve
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                         (3, 4), (4, 5), (3, 5)])
    assert not hoffman_check(two_triangles)


def test_hoffman_on_catalog():
    for name, g in SMALL_REGULAR:
        assert hoffman_check(g), name


# two copies of K4 minus an edge, their degree-2 vertices joined across:
# connected and cubic, but vertex 0 lies on one triangle and vertex 2 on two
CUBIC8_NOT_WALK_REGULAR = Graph.from_edges(8, [
    (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
    (0, 4), (1, 5)])

DERIVATION_GRAPHS = _selfcheck_catalog() + [
    ("C7", cycle(7)), ("C9", cycle(9)), ("cubic8", CUBIC8_NOT_WALK_REGULAR)]


def test_minus_k_multiplicity_equals_kernel_dim():
    for name, g in DERIVATION_GRAPHS:
        k = g.degree(0)
        shifted = [[x + (k if i == j else 0) for j, x in enumerate(row)]
                   for i, row in enumerate(g.adjacency)]
        ker = kernel_dim(shifted)
        assert u_spectrum_model(g).m_minus == g.edge_count - g.n + ker, name


def test_min_poly_from_the_charpoly():
    for name, g in DERIVATION_GRAPHS:
        m, p = g.min_poly, g.charpoly
        assert m.is_monic() and m.divides(p), name
        assert all(x == 0 for row in eval_poly_at_matrix(m, g.adjacency) for x in row), name
        # squarefree with every eigenvalue as a root: nothing is missing
        assert gcd(m, derivative(m)) == Poly.one(), name
        assert p.divides(m ** g.n), name
        if isinstance(g.spectrum, Spectrum):
            distinct = Spectrum.from_pairs((v, 1) for v in g.spectrum.values())
            assert m == spectrum_charpoly(distinct), name
    assert not isinstance(cycle(7).spectrum, Spectrum)


def _hoffman_reference(g):
    # q(A) = (q(k)/n) J over Q, entry by entry
    k = g.degree(0)
    q = exact_div(g.min_poly, Poly([-k, 1]))
    return all(x == q(k) / g.n for row in eval_poly_at_matrix(q, g.adjacency) for x in row)


def test_hoffman_matches_the_rational_reference_on_both_sides_of_the_int64_bound():
    rng = random.Random(20261018)
    graphs = [(label, parse_expr(expr)) for label, expr in REALIZATIONS.values()]
    graphs += [(f"random cubic n={n}", random_regular(n, 3, rng)) for n in (16, 24, 36, 40)]
    graphs += [("two triangles", Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                                       (3, 4), (4, 5), (3, 5)])),
               ("CUBIC8", CUBIC8_NOT_WALK_REGULAR), ("complete(9)", complete_graph(9))]
    past_bound = 0
    for name, g in graphs:
        k = g.degree(0)
        q = exact_div(g.min_poly, Poly([-k, 1]))
        past_bound += sum(abs(c) * k ** i for i, c in enumerate(q.coeffs)) >= 2 ** 62
        assert hoffman_check(g) == _hoffman_reference(g), name
    assert past_bound >= 2  # the object-dtype products ran


def test_walk_regularity_matches_matrix_powers_past_the_int64_bound():
    # Petersen reaches 3^40 > 2^62 and K20 reaches 19^15 > 2^62 before r_max
    for g, r_max in ((petersen(), 45), (complete_graph(20), 20), (CUBIC8_NOT_WALK_REGULAR, 45),
                     (cycle(7), 70)):
        adj = g.adjacency.tolist()
        expected = all(len({int_mat_power(adj, r)[i][i] for i in range(g.n)}) == 1
                       for r in range(2, r_max + 1))
        assert walk_regularity_check(g, r_max) == expected


def test_walk_regularity_default_depth_matches_2n():
    for name, g in DERIVATION_GRAPHS:
        assert walk_regularity_check(g) == walk_regularity_check(g, 2 * g.n), name
    assert not walk_regularity_check(CUBIC8_NOT_WALK_REGULAR)
    assert hoffman_check(CUBIC8_NOT_WALK_REGULAR)


def test_quadrangle_report_table_rows():
    # k=6, n=24 candidate: q integral but q_x = 69/2 kills the row
    spec = Spectrum.from_pairs([
        (QuadraticNumber(6), 1), (QuadraticNumber(-6), 1),
        (QuadraticNumber(3), 4), (QuadraticNumber(-3), 4),
        (QuadraticNumber(0), 14)])
    assert spectral_quadrangles(power_sum(spec, 4), 24, 6) == (207, Fraction(69, 2))
    # k=6, n=216 candidate: negative quadrangle count
    spec = Spectrum.from_pairs([
        (QuadraticNumber(6), 1), (QuadraticNumber(-6), 1),
        (QuadraticNumber(3), 68), (QuadraticNumber(-3), 68),
        (QuadraticNumber(0), 78)])
    assert spectral_quadrangles(power_sum(spec, 4), 216, 6)[0] == -81


def test_quadrangle_report_against_brute_force():
    for name, g in SMALL_REGULAR:
        spec = extract_spectrum(charpoly(g.adjacency.tolist()))
        if not isinstance(spec, Spectrum):
            continue
        k = sum(g.adjacency[0])
        q_spectral, qx_spectral = spectral_quadrangles(power_sum(spec, 4), g.n, k)
        q, per_vertex = count_quadrangles(g)
        assert q_spectral == q, name
        assert all(c == per_vertex[0] for c in per_vertex)
        assert qx_spectral == Fraction(4 * q, g.n)


def test_biadjacency_identities():
    assert verify_biadjacency_identities(cycle(6))
    assert verify_biadjacency_identities(tensor_allones(cycle(6), 2))
    assert verify_biadjacency_identities(hamming(4, 2))
    assert verify_biadjacency_identities(bipartite_double(line_graph(hypercube(3))))
    assert verify_biadjacency_identities(cycle(8))


def test_biadjacency_shape_errors():
    with pytest.raises(SpectrumShapeError):
        verify_biadjacency_identities(complete_bipartite(3, 3))  # 3 eigenvalues
    with pytest.raises(SpectrumShapeError):
        verify_biadjacency_identities(petersen())  # not bipartite
