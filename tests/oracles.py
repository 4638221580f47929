"""Independent oracles and the random graph generator shared by the test
modules."""

import csv
import io
import math
import string
from fractions import Fraction
from functools import lru_cache

import numpy as np

from walklab.exact import (
    Poly,
    QuadraticNumber,
    Spectrum,
    min_poly_2cos,
)
from walklab.expressions import _BUILDERS, ExprError, _parse
from walklab.feasibility import CSV_FIELDS, FeasibleRow, ThetaClass
from walklab.graphio import GRAPH6_HEADER, _g6_encode_size
from walklab.graphs import (Graph, GraphError, PartiteSplit, _check_vertex_count, is_connected,
                            regularity)
from walklab.oracles import _clear_denominators, exact_div, is_quadratic_algebraic_integer, scale_arg
from walklab.walk import NotPeriodic, Periodic


def dimension(spec: Spectrum) -> int:
    """The number of eigenvalues of spec, counted with multiplicity."""
    return sum(mult for _, mult in spec.entries)


def distinct_count(spec: Spectrum) -> int:
    """The number of distinct eigenvalues of spec."""
    return len(spec.entries)


def orders_dict(verdict: Periodic) -> dict[int, int]:
    """The cyclotomic orders of a periodic verdict with their
    multiplicities."""
    return dict(verdict.cyclotomic_orders)


def spectral_quadrangles(s4, n, k):
    """(q, q_x) of a k-regular graph on n vertices from s4 = tr A^4, as
    Fractions: the closed 4-walks at a vertex are 2k^2 - k degenerate
    ones plus two traversals of each quadrangle through it."""
    q = Fraction(s4 - n * (2 * k * k - k), 8)
    return q, 4 * q / n


# ASCII only: str.isalnum and str.isdigit also accept digits of other
# scripts, fullwidth forms and superscripts
_NAME_CHARS = string.ascii_letters + string.digits + "_"


def tokenize_by_scan(text: str) -> list[str]:
    """Reference for `expressions._tokenize`: one scan over the characters,
    skipping whitespace, each name, number and one of "()," a token, and
    any other character refused where it stands."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "(),":
            tokens.append(ch)
            i += 1
        elif ch in string.ascii_letters:
            j = i
            while j < len(text) and text[j] in _NAME_CHARS:
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch in string.digits:
            j = i
            while j < len(text) and text[j] in string.digits:
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ExprError(f"unexpected character {ch!r} in expression")
    return tokens


def parse_tree(text: str) -> tuple:
    """A builder expression as nested, hashable nodes (name, args), one
    key for the graph however the text is spaced: the builder grammar
    (`expressions._parse`) with no constructor run."""
    return _parse(text, lambda name, args: (name, tuple(args)))


def build_as_read(text: str) -> Graph:
    """Reference for the refusals of `expressions.read_expr`: the graph of
    a builder expression, each node built by its constructor as soon as
    it is read, so each refusal is the constructor's own, at its node."""
    return _parse(text, lambda name, args: _BUILDERS[name][2](*args))


def colouring_by_search(g):
    """Reference for `graphs.is_connected` and `graphs.is_bipartite`: a
    stack search from each uncoloured vertex in turn over the rows of
    the adjacency, giving (is_connected, PartiteSplit or None)."""
    neighbours = [np.flatnonzero(row).tolist() for row in g.adjacency]
    color = [-1] * g.n
    components, odd_cycle = 0, False
    for start in range(g.n):
        if color[start] != -1:
            continue
        components += 1
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in neighbours[v]:
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    odd_cycle = True
    if odd_cycle:
        return components == 1, None
    return components == 1, PartiteSplit(tuple(v for v in range(g.n) if color[v] == 0),
                                         tuple(v for v in range(g.n) if color[v] == 1))


def colouring_by_levels(g):
    """Reference for `graphs.colouring`: its former numpy search, level by
    level.  A step gathers the frontier's table rows, keeps the vertices
    not reached yet and drops repeats by index (`slot`).  Returns the
    number of components and the colours, with colour 2 at the padding n."""
    table, n = g.neighbour_table, g.n
    colour = np.full(n + 1, -1, dtype=np.int8)  # -1: not reached yet
    colour[n] = 2
    slot = np.empty(n + 1, dtype=np.intp)
    components, start = 0, 0
    while start < n:
        components += 1
        frontier, side = np.array([start]), 0
        while frontier.size:
            colour[frontier] = side
            reached = table.take(frontier, axis=0).ravel()
            reached = reached[colour.take(reached) < 0]
            if reached.size > 1:  # a repeat needs two entries
                order = np.arange(reached.size)
                slot[reached] = order  # of a vertex's writes, one stands
                reached = reached[slot.take(reached) == order]
            frontier, side = reached, 1 - side
        while start < n and colour[start] >= 0:
            start += 1
    return components, colour


def graph6_matrix(line: str) -> np.ndarray:
    """Reference for `graphio.from_graph6`: its former dense decode into
    the n x n uint8 adjacency, with its checks in the same order and the
    same error texts (character, size, body length, padding bits, vertex
    cap, no vertices)."""
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    values = np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32).astype(np.int64) - 63
    invalid = np.flatnonzero((values < 0) | (values > 63))
    if invalid.size:
        raise GraphError(f"invalid graph6 character {s[invalid[0]]!r}")
    if not s:
        raise GraphError("empty graph6 string")
    if s[0] != chr(126):
        n, rest = ord(s[0]) - 63, s[1:]
    else:
        skip, width = (2, 6) if s[1:2] == chr(126) else (1, 3)
        size, rest = s[skip:skip + width], s[skip + width:]
        if len(size) != width:
            raise GraphError("truncated graph6 size")
        n = 0
        for ch in size:
            n = (n << 6) | (ord(ch) - 63)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(rest) != need:
        raise GraphError(f"graph6 body has {len(rest)} characters, expected {need}")
    body = values[len(s) - len(rest):].astype(np.uint8)
    bits = np.unpackbits(body[:, None], axis=1)[:, 2:].ravel()
    pairs = n * (n - 1) // 2
    if bits[pairs:].any():
        raise GraphError("nonzero padding bits in graph6 body")
    _check_vertex_count(n)
    if n == 0:
        raise GraphError("graph has no vertices")
    adj, lower = np.zeros((n, n), dtype=np.uint8), np.tri(n, k=-1, dtype=bool)
    adj[lower] = adj.T[lower] = bits[:pairs]
    return adj


def graph6_of_matrix(a) -> str:
    """The graph6 line of a symmetric 0/1 matrix: its strict lower
    triangle row by row, six bits a character, after the size."""
    a = np.asarray(a)
    n = len(a)
    bits = a[np.tri(n, k=-1, dtype=bool)].tolist()
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[i:i + 6])), 2))
                   for i in range(0, len(bits), 6))
    return _g6_encode_size(n) + body


def line_graph_dense(g: Graph) -> Graph:
    """Reference for `graphs.line_graph`: the former dense build, a 1 in
    every pair of edges at each vertex, then the diagonal cleared."""
    _check_vertex_count(g.edge_count)
    ends = np.array(g.edges(), dtype=np.int64).reshape(-1, 2)
    adj = np.zeros((len(ends), len(ends)), dtype=np.int64)
    for v in range(g.n):
        at_v = np.flatnonzero((ends == v).any(axis=1))
        adj[np.ix_(at_v, at_v)] = 1
    np.fill_diagonal(adj, 0)
    return Graph(adj)


def tensor_allones_dense(g: Graph, m: int) -> Graph:
    """Reference for `graphs.tensor_allones`: A(g) tensor J_m by np.kron."""
    _check_vertex_count(g.n * m)
    return Graph(np.kron(g.adjacency, np.ones((m, m), dtype=np.int64)))


def cartesian_product_dense(g: Graph, h: Graph) -> Graph:
    """Reference for `graphs.cartesian_product`: A(g) tensor I + I tensor
    A(h) by np.kron."""
    _check_vertex_count(g.n * h.n)
    return Graph(np.kron(g.adjacency, np.eye(h.n, dtype=np.int64))
                 + np.kron(np.eye(g.n, dtype=np.int64), h.adjacency))


def kronecker_product_dense(g: Graph, h: Graph) -> Graph:
    """Reference for `graphs.kronecker_product`: A(g) tensor A(h) by
    np.kron."""
    _check_vertex_count(g.n * h.n)
    return Graph(np.kron(g.adjacency, h.adjacency))


def multiplicities(k: int, theta_sq: int, n: int) -> tuple[int, int] | None:
    """Multiplicities (a, b) of (±θ, 0) forced by the power sums, when
    both are positive integers: a = (nk - 2k²)/(2θ²), b = n - 2 - 2a."""
    if theta_sq <= 0:
        raise ValueError("theta^2 must be positive")
    a, rem = divmod(n * k - 2 * k * k, 2 * theta_sq)
    if rem or a <= 0:
        return None
    b = n - 2 - 2 * a
    if b <= 0:
        return None
    return a, b


def n_bounds(k: int, theta_sq: int) -> tuple[int, int]:
    """The least and the largest integer n in the vertex-count window
    2(k²+θ²)/k <= n <= 2k(k²-θ²).  The lower end is exactly the
    condition a >= 1, which `multiplicities` enforces."""
    if theta_sq >= k * k:
        raise ValueError("theta^2 must be below k^2")
    return -(-2 * (k * k + theta_sq) // k), 2 * k * (k * k - theta_sq)


def read_tables_csv(text: str) -> list[dict[str, str]]:
    """The records of `tables --format csv`, checking its header."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_FIELDS:
        raise ValueError("unexpected CSV header")
    return list(reader)


def scaled(spec: Spectrum, factor: int | Fraction) -> Spectrum:
    """The spectrum of factor * M for M of spectrum spec (factor != 0)."""
    if factor == 0:
        raise ValueError("zero scaling collapses the spectrum")
    return Spectrum.from_pairs((v * factor, m) for v, m in spec.entries)


def order_of_cos_pair(two_cos: QuadraticNumber, d_max: int = 1000) -> int | None:
    """Smallest d such that two_cos equals 2cos(2*pi*j/d) for some j
    coprime to d, found by exact evaluation of the minimal polynomials."""
    for d in range(1, d_max + 1):
        mp = min_poly_2cos(d)
        value = mp(two_cos)
        if isinstance(value, QuadraticNumber):
            if value == QuadraticNumber(0):
                return d
        elif value == 0:
            return d
    return None


@lru_cache(maxsize=None)
def cyclotomic_by_division(d):
    """Reference for `exact.cyclotomic`: x^d - 1 divided by Phi_e for each
    proper divisor e of d, one `exact_div` each."""
    p = Poly([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            p = exact_div(p, cyclotomic_by_division(e))
    return p


def min_poly_2cos_by_poly(d):
    """Reference for `exact.min_poly_2cos`: the Vieta-Lucas basis
    v_(j+1) = x v_j - v_(j-1) built in Poly arithmetic from
    cyclotomic_by_division."""
    if d <= 2:
        return Poly([-2, 1]) if d == 1 else Poly([2, 1])
    phi = cyclotomic_by_division(d)
    half = phi.degree() // 2
    v = [Poly([2]), Poly.x()]
    while len(v) <= half:
        v.append(Poly.x() * v[-1] - v[-2])
    out = Poly([phi.coeffs[half]])
    for j in range(1, half + 1):
        out = out + phi.coeffs[half + j] * v[j]
    return out


def witness_by_spectrum(spec, k):
    """Reference for the witness of `walk.decide_periodic`: the first
    lambda/k of the sorted spectrum with 2*lambda/k not an algebraic
    integer, or None."""
    for t_eig in scaled(spec, Fraction(1, k)).values():
        if not is_quadratic_algebraic_integer(t_eig * 2):
            return t_eig
    return None


def decide_periodic_by_fractions(g):
    """Reference for `walk.decide_periodic` on a connected regular graph:
    p_2T = (2/k)^n p_A(kx/2) built in Fraction arithmetic (`scale_arg`),
    integrality read off its coefficients, the certificate its non-integral
    coefficient of highest degree, and the psi_d sieve by one `divmod` per
    trial with min_poly_2cos_by_poly."""
    k, n = regularity(g), g.n
    p2t = scale_arg(g.charpoly, Fraction(k, 2)) * Fraction(2 ** n, k ** n)
    if not p2t.is_integral():
        spec = g.spectrum
        witness = witness_by_spectrum(spec, k) if isinstance(spec, Spectrum) else None
        if witness is not None:
            return NotPeriodic(witness=witness, coefficient=None)
        exponent = max(i for i, c in enumerate(p2t.coeffs) if not isinstance(c, int))
        return NotPeriodic(witness=None, coefficient=(exponent, p2t.coeffs[exponent]))
    mult = {}
    residual, d = p2t, 1
    while residual.degree() > 0:
        psi = min_poly_2cos_by_poly(d)
        quot, rem = divmod(residual, psi)
        while not rem:
            residual = quot
            mult[d] = mult.get(d, 0) + 1
            quot, rem = divmod(residual, psi)
        d += 1
    mult[1] = mult.get(1, 0) + g.edge_count - n + 1
    mult[2] = 2 * mult.get(2, 0) + g.edge_count - n
    orders = tuple(sorted((d, m) for d, m in mult.items() if m))
    return Periodic(period=math.lcm(*(d for d, _ in orders)), cyclotomic_orders=orders)


def mod_2_bits(p):
    """Reference for `exact.charpoly_mod_2`: the integer polynomial p
    reduced mod 2, as the bitmask of its odd coefficients."""
    return sum(1 << i for i, c in enumerate(p.coeffs) if c % 2)


def poly_str_by_fractions(p):
    """Reference for `Poly.__str__`: each coefficient compared, negated
    and printed as the int or Fraction it is."""
    if not p.coeffs:
        return "0"
    parts = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        if c < 0:
            sign = " - " if parts else "-"
        else:
            sign = " + " if parts else ""
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            xpart = "x" if i == 1 else f"x^{i}"
            body = xpart if mag == 1 else f"{mag}*{xpart}"
        parts.append(f"{sign}{body}")
    return "".join(parts)


def hessenberg_charpoly(mat):
    """Reference for `charpoly`: similarity reduction to Hessenberg form
    over Q, then the standard principal-minor recurrence."""
    n = len(mat)
    if n == 0:
        return Poly.one()
    h = [[Fraction(x) for x in row] for row in mat]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j] != 0), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for r in range(n):
                h[r][piv], h[r][j + 1] = h[r][j + 1], h[r][piv]
        d = h[j + 1][j]
        for i in range(j + 2, n):
            if h[i][j] == 0:
                continue
            t = h[i][j] / d
            hi, hp = h[i], h[j + 1]
            for c in range(j, n):
                if hp[c]:
                    hi[c] -= t * hp[c]
            for r in range(n):
                if h[r][i]:
                    h[r][j + 1] += t * h[r][i]
    # p_m(x) over leading principal minors of the Hessenberg form
    polys = [[Fraction(1)]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = [Fraction(0)] * (m + 1)
        hmm = h[m - 1][m - 1]
        for i, c in enumerate(prev):
            cur[i + 1] += c
            if hmm:
                cur[i] -= hmm * c
        prod = Fraction(1)
        for idx in range(m - 2, -1, -1):
            prod *= h[idx + 1][idx]
            if prod == 0:
                break
            coeff = h[idx][m - 1] * prod
            if coeff:
                for i, c in enumerate(polys[idx]):
                    if c:
                        cur[i] -= coeff * c
        polys.append(cur)
    return Poly(polys[n])


def rank(mat):
    """Exact rank by fraction-free (Bareiss) elimination on the
    denominator-cleared integer matrix."""
    if not mat:
        return 0
    m, _ = _clear_denominators(mat)
    rows, cols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r


def kernel_dim(mat):
    """dim Ker(mat) = n - rank(mat) for a square matrix."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("kernel_dim requires a square matrix")
    return n - rank(mat)


def bareiss_det(mat):
    """Exact determinant of an integer matrix, fraction-free."""
    n = len(mat)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def charpoly_bareiss(mat):
    """Reference for `charpoly` on integer matrices: evaluate
    det(xI - mat) at n+1 integer points with Bareiss determinants and
    interpolate exactly (Newton divided differences over Q)."""
    n = len(mat)
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        shifted = [[(x if i == j else 0) - mat[i][j] for j in range(n)] for i in range(n)]
        ys.append(bareiss_det(shifted))
    # Newton coefficients
    coeffs = [Fraction(y) for y in ys]
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    poly = Poly.zero()
    basis = Poly.one()
    for i in range(n + 1):
        poly = poly + coeffs[i] * basis
        basis = basis * Poly([-xs[i], 1])
    return poly


def spectrum_charpoly(spec):
    """Reassembly oracle for `extract_spectrum`: the product of
    (x - value)^mult over a spectrum, conjugate surds paired into one
    rational quadratic factor."""
    out = Poly.one()
    seen = set()
    for value, mult in spec.entries:
        if value in seen:
            continue
        if value.is_rational:
            out = out * Poly([-value.a, 1]) ** mult
        else:
            conj = value.conjugate()
            if spec.multiplicity(conj) != mult:
                raise ValueError("conjugate multiplicities differ")
            quad = Poly([value.a * value.a - value.b * value.b * value.m, -2 * value.a, 1])
            out = out * quad ** mult
            seen.add(conj)
        seen.add(value)
    return out


def closed_walks_integral(k, theta_sq, n):
    """Whether (2 k^{2r} + (nk - 2k²) θ^{2r-2}) / n is an integer for
    every positive r, decided exactly.

    The pair (k^{2r} mod n, θ^{2r-2} mod n) evolves by fixed
    multiplications, so it is eventually periodic: checking each state
    until one repeats covers all r.
    """
    if theta_sq <= 0 or int(theta_sq) != theta_sq:
        raise ValueError("theta^2 must be a positive integer")
    ksq = (k * k) % n
    tsq = theta_sq % n
    coeff = (n * k - 2 * k * k) % n
    state = (ksq % n, 1 % n)
    seen = set()
    while state not in seen:
        seen.add(state)
        u, v = state
        if (2 * u + coeff * v) % n:
            return False
        state = ((u * ksq) % n, (v * tsq) % n)
    return True


def enumerate_rows_by_window(theta_class: ThetaClass, k: int):
    """Reference for `enumerate_rows`: n runs over the whole vertex-count
    window, filtered by parity, integral multiplicities and integral
    closed-walk counts; each row comes with its (q, q_x) from
    `spectral_quadrangles`."""
    if k < 2 or k % 2:
        raise ValueError("degree must be even and at least 2")
    theta_sq = theta_class.theta_sq(k)
    lo, hi = n_bounds(k, theta_sq)
    rows = []
    for n in range(lo, hi + 1):
        if n % 2:
            continue
        mult = multiplicities(k, theta_sq, n)
        if mult is None:
            continue
        if not closed_walks_integral(k, theta_sq, n):
            continue
        a, b = mult
        q, q_x = spectral_quadrangles(2 * k ** 4 + 2 * a * theta_sq ** 2, n, k)
        rows.append((FeasibleRow(theta_class, k, n, a, b, int(8 * q)), q, q_x))
    return rows


def spectrum_realizes(g, row):
    """Reference for `feasibility.realizes`: the CRT charpoly of g,
    extracted into an exact spectrum, equals the row's spectrum."""
    return g.spectrum == row.spectrum()


def matmul_reference(a, b):
    """Reference for `int_matmul`: the r x p by p x c product by the
    triple loop over Python ints (c = len(b[0]), or 0 when b is empty)."""
    cols = len(b[0]) if b else 0
    return [[sum(row[t] * b[t][j] for t in range(len(b))) for j in range(cols)]
            for row in a]


def random_regular(n, k, rng):
    """Connected simple k-regular graph on n vertices: configuration model,
    rejecting loops, repeated edges and disconnected pairings."""
    while True:
        stubs = [v for v in range(n) for _ in range(k)]
        rng.shuffle(stubs)
        edges = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2])}
        if len(edges) == n * k // 2 and all(u != v for u, v in edges):
            g = Graph.from_edges(n, sorted(edges))
            if is_connected(g):
                return g
