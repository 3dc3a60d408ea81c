"""Table-driven arithmetic for small finite fields GF(p^k).

Elements are ints in [0, q).  For prime fields the encoding is the obvious
one; for prime powers an element encodes the coefficient vector of a
polynomial over GF(p) in base p, reduced modulo a fixed irreducible monic
polynomial found by scan.  Intended for tiny q only.
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


class GF:
    """Finite field with q elements; add/mul/inverse via precomputed tables."""

    def __init__(self, q):
        self.q = q
        self.p, self.k = _factor_prime_power(q)
        if self.k == 1:
            self._add = [[(a + b) % q for b in range(q)] for a in range(q)]
            self._mul = [[(a * b) % q for b in range(q)] for a in range(q)]
        else:
            modulus = self._find_irreducible()
            self._add = [[self._poly_add(a, b) for b in range(q)]
                         for a in range(q)]
            self._mul = [[self._poly_mul_mod(a, b, modulus) for b in range(q)]
                         for a in range(q)]
        self._neg = [0] * q
        self._inv = [0] * q
        for a in range(q):
            for b in range(q):
                if self._add[a][b] == 0:
                    self._neg[a] = b
                if a and self._mul[a][b] == 1:
                    self._inv[a] = b
        self.nonzero = list(range(1, q))
        self.squares = sorted({self._mul[a][a] for a in self.nonzero})

    # -- polynomial helpers for prime-power fields (coefficients base p) --

    def _coeffs(self, a):
        p = self.p
        out = []
        while a:
            out.append(a % p)
            a //= p
        return out

    def _encode(self, coeffs):
        out = 0
        for c in reversed(coeffs):
            out = out * self.p + c
        return out

    def _poly_add(self, a, b):
        p = self.p
        ca, cb = self._coeffs(a), self._coeffs(b)
        n = max(len(ca), len(cb))
        ca += [0] * (n - len(ca))
        cb += [0] * (n - len(cb))
        return self._encode([(x + y) % p for x, y in zip(ca, cb)])

    def _poly_mul_mod(self, a, b, modulus):
        p = self.p
        ca, cb = self._coeffs(a), self._coeffs(b)
        prod = [0] * (len(ca) + len(cb))
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the monic irreducible of degree k
        deg = self.k
        # low-to-high incl. leading 1; _coeffs drops high zero coefficients
        mod = self._coeffs(modulus)
        mod += [0] * (deg - len(mod)) + [1]
        for i in range(len(prod) - 1, deg - 1, -1):
            c = prod[i]
            if c:
                for j in range(deg + 1):
                    prod[i - deg + j] = (prod[i - deg + j] - c * mod[j]) % p
        return self._encode(prod[:deg])

    def _find_irreducible(self):
        """Monic irreducible of degree k over GF(p), encoded without the
        leading coefficient (low k coefficients, base p)."""
        p, k = self.p, self.k
        for tail in range(p ** k):
            if self._is_irreducible(tail):
                return tail
        raise AssertionError("no irreducible polynomial found")

    def _is_irreducible(self, tail):
        p, k = self.p, self.k
        coeffs = self._coeffs(tail) + [0] * (k - len(self._coeffs(tail))) + [1]
        # no roots is enough for k <= 3; also reject reducible quartics by
        # trial division with monic quadratics
        for x in range(p):
            v = 0
            for c in reversed(coeffs):
                v = (v * x + c) % p
            if v == 0:
                return False
        if k >= 4:
            for d in range(2, k // 2 + 1):
                for divisor_tail in range(p ** d):
                    if self._poly_divides(divisor_tail, d, coeffs):
                        return False
        return True

    def _poly_divides(self, divisor_tail, d, coeffs):
        p = self.p
        div = self._coeffs(divisor_tail)
        div += [0] * (d - len(div)) + [1]
        rem = list(coeffs)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c:
                for j in range(d + 1):
                    rem[i - d + j] = (rem[i - d + j] - c * div[j]) % p
        return not any(rem[:d])

    # -- field API --

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def dot(self, u, v, weights):
        """Weighted bilinear form sum_i w_i * u_i * v_i."""
        acc = 0
        for x, y, w in zip(u, v, weights):
            acc = self.add(acc, self.mul(w, self.mul(x, y)))
        return acc


@lru_cache(maxsize=None)
def field(q):
    return GF(q)
