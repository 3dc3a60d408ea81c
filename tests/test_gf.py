"""Field axioms of GF(q), checked exhaustively for every prime power q ≤ 27."""

import pytest

from platlab.gf import GF

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_field_axioms(q):
    F = GF(q)
    assert F.p ** F.k == q
    E = range(q)
    for a in E:
        assert F.add(a, 0) == a and F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        assert F.sub(a, a) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        acc = 0
        for _ in range(F.p):
            acc = F.add(acc, a)
        assert acc == 0   # characteristic p
        for b in E:
            ab, ba = F.add(a, b), F.mul(a, b)
            assert ab == F.add(b, a) and ba == F.mul(b, a)
            assert 0 <= ab < q and 0 <= ba < q
            assert (ba == 0) == (a == 0 or b == 0)   # no zero divisors
            for c in E:
                assert F.add(ab, c) == F.add(a, F.add(b, c))
                assert F.mul(ba, c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b),
                                                      F.mul(a, c))


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_multiplicative_group_is_cyclic(q):
    # a finite field's nonzero elements form a cyclic group of order q - 1
    F = GF(q)

    def order(a):
        n, x = 1, a
        while x != 1:
            x = F.mul(x, a)
            n += 1
        return n

    assert max(order(a) for a in F.nonzero) == q - 1
    assert len(F.squares) == (q - 1 if F.p == 2 else (q - 1) // 2)


def test_non_prime_powers_are_rejected():
    for q in (0, 1, 6, 10, 12, 18, 20, 24, 26):
        with pytest.raises(ValueError, match="not a prime power"):
            GF(q)
