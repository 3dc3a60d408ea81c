"""Table-driven arithmetic for small finite fields GF(p^k).

Elements are ints in [0, q): the base-p digits of an element are the k
coefficients, lowest first, of a polynomial over GF(p) reduced modulo a
fixed monic x^k + tail, the first in the order of the tail's code whose
product table has no zero divisors.  For k = 1 that is x, so GF(p) is
the integers mod p.  Intended for tiny q only.
"""

from functools import lru_cache


def _factor_prime_power(q):
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    k = 0
    n = q
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise ValueError(f"not a prime power: {q}")
    return p, k


def _encode(coeffs, p):
    """The element whose base-p digits, lowest first, are ``coeffs``."""
    return sum(c * p ** i for i, c in enumerate(coeffs))


def _mul_table(vecs, add, tail, p):
    """Products of the coefficient vectors ``vecs`` modulo x^k + tail, by
    Horner's rule on the digits of the left factor, or None at the first
    zero product of two nonzero elements."""
    # x·v shifts v up one degree, and x^k ≡ -tail
    times_x = [_encode([(y - v[-1] * t) % p
                        for y, t in zip([0] + v[:-1], tail)], p)
               for v in vecs]
    scaled = [[_encode([c * y % p for y in v], p) for v in vecs]
              for c in range(p)]
    table = []
    for a, u in enumerate(vecs):
        row = []
        for b in range(len(vecs)):
            c = 0
            for d in reversed(u):
                c = add[times_x[c]][scaled[d][b]]
            if c == 0 and a and b:
                return None
            row.append(c)
        table.append(row)
    return table


class GF:
    """Finite field with q elements.  Its tables are its interface:
    ``add[a][b]``, ``mul[a][b]``, ``neg[a]`` and ``inv[a]``, with
    ``inv[0]`` None, so that 0's inverse fails where it is used."""

    def __init__(self, q):
        self.q = q
        self.p, self.k = _factor_prime_power(q)
        p, k = self.p, self.k
        vecs = [[a // p ** i % p for i in range(k)] for a in range(q)]
        self.add = [[_encode([(x + y) % p for x, y in zip(u, v)], p)
                     for v in vecs] for u in vecs]
        # the first monic x^k + tail with no zero divisors: the quotient
        # ring is then a field, so the modulus is irreducible
        tail = 0
        while (mul := _mul_table(vecs, self.add, vecs[tail], p)) is None:
            tail += 1
        self.mul = mul
        # each row of a field table holds 0 once, and each row of mul but
        # row 0 holds 1 once
        self.neg = [row.index(0) for row in self.add]
        self.inv = [None] + [row.index(1) for row in mul[1:]]

    def dot(self, u, v, weights):
        """Weighted bilinear form sum_i w_i * u_i * v_i."""
        acc = 0
        for x, y, w in zip(u, v, weights):
            acc = self.add[acc][self.mul[w][self.mul[x][y]]]
        return acc


@lru_cache(maxsize=None)
def field(q):
    return GF(q)
