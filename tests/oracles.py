"""Independent oracles shared by the test modules."""

from walklab.exact import QuadraticNumber, min_poly_2cos


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
