"""Acceptance suite: one test per criterion, each printing a PASS line.

Every assertion is exact (integer/rational equality); the only
tolerances are the stated runtime budgets.
"""

import time
from fractions import Fraction

from walklab.exact import (
    QuadraticNumber,
    Spectrum,
)
from walklab.feasibility import (
    REFERENCE_TABLE,
    ThetaClass,
    enumerate_rows,
    render_tables,
)
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
    is_bipartite,
    is_connected,
    line_graph,
    petersen,
    regularity,
    tensor_allones,
)
from walklab.walk import (
    NotPeriodic,
    Periodic,
    decide_periodic,
    walk_regularity_check,
)
from walklab.oracles import (
    build_walk_matrices,
    charpoly,
    classify_four_eigenvalue,
    eigenvalue_gate,
    extract_spectrum,
    hoffman_check,
    int_matmul,
    period_oracle,
    power_sum,
    u_charpoly_direct,
    u_spectrum_model,
    verify_biadjacency_identities,
)

from oracles import distinct_count, spectral_quadrangles


def _builtins() -> list[tuple[str, Graph]]:
    c6, c8 = cycle(6), cycle(8)
    return [
        ("K2", complete_graph(2)),
        ("K2,2", complete_bipartite(2, 2)),
        ("C4", cycle(4)),
        ("C5", cycle(5)),
        ("C6", c6),
        ("C8", c8),
        ("K3,3", complete_bipartite(3, 3)),
        ("K4,4", complete_bipartite(4, 4)),
        ("Q3", hypercube(3)),
        ("petersen", petersen()),
        ("L(Q3)", line_graph(hypercube(3))),
        ("C6xJ2", tensor_allones(c6, 2)),
        ("C6xJ3", tensor_allones(c6, 3)),
        ("C8xJ2", tensor_allones(c8, 2)),
        ("C8xJ3", tensor_allones(c8, 3)),
        ("H(4,2)", hamming(4, 2)),
        ("L(Q3)xK2", bipartite_double(line_graph(hypercube(3)))),
        ("H(4,2)xJ2", tensor_allones(hamming(4, 2), 2)),
        ("H(3,3)xK2", bipartite_double(hamming(3, 3))),
        ("K4,4xK4,4", cartesian_product(complete_bipartite(4, 4),
                                        complete_bipartite(4, 4))),
    ]


def _spectrum(g: Graph) -> Spectrum:
    s = extract_spectrum(charpoly(g.adjacency.tolist()))
    assert isinstance(s, Spectrum)
    return s


def _shape_k_theta(spec: Spectrum, k: int):
    """(theta, distinct_count) for spectra of the form {±k, ±θ[, 0]}."""
    positives = [v for v in spec.values()
                 if v.sign() > 0 and v != QuadraticNumber(k)]
    if len(positives) != 1:
        return None
    return positives[0], distinct_count(spec)


def test_criterion_1_period_reproduction():
    budget = 10.0
    cases = []
    for m in (1, 2, 3):
        cases.append((tensor_allones(cycle(6), m), 12 if m >= 2 else 6))
    for m in (1, 2, 3):
        cases.append((tensor_allones(cycle(8), m), 8))
    for g, expected in cases:
        start = time.monotonic()
        verdict = decide_periodic(g)
        elapsed = time.monotonic() - start
        assert isinstance(verdict, Periodic)
        assert verdict.period == expected
        assert elapsed < budget, f"decision took {elapsed:.1f}s"
        assert period_oracle(g, 2 * expected) == expected
    print("ACCEPTANCE 1: PASS - periods 6/12 for C6 blow-ups and 8 for C8 "
          "blow-ups, oracle-confirmed")


def test_criterion_2_spectral_mapping_identity():
    checked = 0
    for name, g in _builtins():
        if not regularity(g) or not is_connected(g) or 2 * g.edge_count > 200:
            continue
        model = u_spectrum_model(g)
        assert u_charpoly_direct(g) == model.u_charpoly, name
        assert model.u_charpoly.degree() == 2 * g.edge_count
        checked += 1
    assert checked >= 15
    print(f"ACCEPTANCE 2: PASS - mapped charpoly equals direct charpoly "
          f"coefficient-for-coefficient on {checked} builtins")


def test_criterion_3_eigenvalue_gate_and_witnesses():
    gated = 0
    for name, g in _builtins():
        k = regularity(g)
        if not k or not is_connected(g) or is_bipartite(g) is None:
            continue
        spec = _spectrum(g)
        if distinct_count(spec) not in (4, 5):
            continue
        shape = _shape_k_theta(spec, k)
        if shape is None:
            continue
        verdict = decide_periodic(g)
        if isinstance(verdict, Periodic):
            theta, _ = shape
            assert eigenvalue_gate(k, theta), name
            gated += 1
    assert gated >= 8
    # negative certificates: a witness with 2*lambda outside the ring
    for g, expected_witness in ((petersen(), Fraction(1, 3)),
                                (hypercube(3), Fraction(1, 3))):
        verdict = decide_periodic(g)
        assert isinstance(verdict, NotPeriodic)
        assert verdict.witness == QuadraticNumber(expected_witness)
    # K3,3 minus a perfect matching is the 6-cycle: periodic, gate passes
    shaved = Graph.from_edges(6, [(0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)])
    assert _spectrum(shaved) == _spectrum(cycle(6))
    verdict = decide_periodic(shaved)
    assert isinstance(verdict, Periodic) and verdict.period == 6
    assert eigenvalue_gate(2, QuadraticNumber(1))
    print(f"ACCEPTANCE 3: PASS - gate holds on {gated} periodic bipartite "
          f"builtins; witnesses 1/3 for petersen and Q3; K3,3 minus a "
          f"matching is periodic C6")


def test_criterion_4_four_eigenvalue_classification():
    rows = classify_four_eigenvalue(100)
    assert len(rows) == 1
    k, n, spec = rows[0]
    assert (k, n) == (2, 6)
    assert spec.render() == "{[±2]^1, [±1]^2}"
    assert spec == _spectrum(cycle(6))
    print("ACCEPTANCE 4: PASS - classification returns exactly (2, 6) with "
          "the C6 spectrum")


def test_criterion_5_table_regeneration():
    start = time.monotonic()
    expected_columns = {
        (ThetaClass.HALF, 4): [12, 16, 24, 32, 48, 64, 96],
        (ThetaClass.HALF, 6): [18, 24, 36, 54, 72, 108, 162, 216, 324],
        (ThetaClass.HALF, 8): [24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768],
        (ThetaClass.HALF, 10): [30, 40, 50, 60, 100, 120, 150, 200, 250, 300,
                                500, 600, 750, 1000, 1250, 1500],
        (ThetaClass.SQRT2, 2): [8],
        (ThetaClass.SQRT2, 4): [16, 32, 64],
        (ThetaClass.SQRT2, 6): [18, 24, 36, 48, 54, 72, 108, 144, 162, 216],
        (ThetaClass.SQRT2, 8): [32, 64, 128, 256, 512],
        (ThetaClass.SQRT2, 10): [40, 50, 80, 100, 200, 250, 400, 500, 1000],
        (ThetaClass.SQRT3, 4): [32],
        (ThetaClass.SQRT3, 8): [64, 256],
        (ThetaClass.SQRT3, 10): [50, 200, 500],
    }
    for (cls, k), ns in expected_columns.items():
        assert [r.n for r in enumerate_rows(cls, k)] == ns, (cls, k)
    # elimination annotations agree with the reference comment column
    # wherever it states a quadrangle reason, except the two flagged rows
    flagged = {(ThetaClass.SQRT3, 10, 50), (ThetaClass.SQRT3, 10, 200)}
    for (cls, k, n), ann in REFERENCE_TABLE.items():
        if ann.elimination is None or (cls, k, n) in flagged:
            continue
        row = next(r for r in enumerate_rows(cls, k) if r.n == n)
        assert row.elimination() == ann.elimination, (cls, k, n)
    # flagged discrepancies are reported with the exact values
    sqrt3_10 = {r.n: r for r in enumerate_rows(ThetaClass.SQRT3, 10)}
    assert sqrt3_10[50].q == 4125 and sqrt3_10[50].q_x == 330
    assert sqrt3_10[200].q == 14625 and sqrt3_10[200].q_x == Fraction(585, 2)
    render_tables(10, "csv")  # realization re-verification included
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"table regeneration took {elapsed:.1f}s"
    print(f"ACCEPTANCE 5: PASS - tables regenerated for k<=10 with matching "
          f"eliminations in {elapsed:.1f}s; flagged rows report q=4125/q_x=330 "
          f"and q=14625/q_x=585/2")


def test_criterion_6_quadrangle_lemma():
    checked = 0
    for name, g in _builtins():
        if g.n > 64:
            continue
        if not regularity(g) or not walk_regularity_check(g, min(2 * g.n, 12)):
            continue
        k = regularity(g)
        spec = _spectrum(g)
        q_spectral, _ = spectral_quadrangles(power_sum(spec, 4), g.n, k)
        q, per_vertex = count_quadrangles(g)
        assert q_spectral == q, name
        assert all(c == per_vertex[0] for c in per_vertex), name
        assert all(c == Fraction(4 * q, g.n) for c in per_vertex), name
        checked += 1
    assert checked >= 15
    print(f"ACCEPTANCE 6: PASS - spectral quadrangle count equals brute "
          f"force with constant per-vertex 4q/n on {checked} walk-regular "
          f"builtins")


def test_criterion_7_invariant_suite():
    ortho = 0
    for name, g in _builtins():
        k = regularity(g)
        spec = extract_spectrum(charpoly(g.adjacency.tolist()))
        assert isinstance(spec, Spectrum), name
        if k:
            assert power_sum(spec, 2) == g.n * k, name
        if is_bipartite(g) is not None:
            assert spec.is_symmetric(), name
        if k and is_connected(g):
            assert hoffman_check(g), name
        if k and is_connected(g) and 2 * g.edge_count <= 200:
            wm = build_walk_matrices(g)
            m = len(wm.shift)
            s = [list(r) for r in wm.shift]
            s2 = int_matmul(s, s)
            assert all(s2[i][j] == (1 if i == j else 0)
                       for i in range(m) for j in range(m)), name
            ku = wm.scaled_evolution()
            kut = [list(r) for r in zip(*ku)]
            prod = int_matmul(kut, ku)
            assert all(prod[i][j] == (k * k if i == j else 0)
                       for i in range(m) for j in range(m)), name
            ortho += 1
    for g in (cycle(6), tensor_allones(cycle(6), 2), hamming(4, 2),
              bipartite_double(line_graph(hypercube(3)))):
        assert verify_biadjacency_identities(g)
    print(f"ACCEPTANCE 7: PASS - orthogonality/involution on {ortho} "
          f"builtins, power sums, bipartite symmetry, hoffman, and "
          f"biadjacency identities all exact")


def test_criterion_8_construction_spectra():
    assert _spectrum(bipartite_double(line_graph(hypercube(3)))).render() == \
        "{[±4]^1, [±2]^8, [0]^6}"
    assert _spectrum(hamming(4, 2)).render() == "{[±4]^1, [±2]^4, [0]^6}"
    big = cartesian_product(complete_bipartite(4, 4), complete_bipartite(4, 4))
    assert _spectrum(big).render() == "{[±8]^1, [±4]^12, [0]^38}"
    print("ACCEPTANCE 8: PASS - exact spectra for L(Q3)xK2, H(4,2), and "
          "K4,4 square K4,4")
