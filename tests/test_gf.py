"""Field axioms of GF(q), checked exhaustively for every prime power q ≤ 27,
and the add and mul tables of each pinned by digest."""

import hashlib

import pytest

from platlab.gf import GF

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27]

# sha256 of repr((F.add, F.mul)): the modulus, and so every table the
# traces read, is pinned, not only the field axioms
TABLE_SHA256 = {
    2: "a2e7c0a8e404532dc556867f72c7921133381c275035e8e7d725ba8bda318034",
    3: "536891ade370f17b493f7edf1665a08f131953757a4e3545a04d1f6aada574aa",
    4: "269c855345c7f4d5e2f5379639e219a42b2f2a69c10cc15fc62ea877963b8ed4",
    5: "083975df8accba363451e037e15cecc31b169869e7c551bb19c36bd103be5771",
    7: "baf1f9430b37504667016a9792d244996b912293163b71af92ee245843ff9b4f",
    8: "a70d7b8aad6645aedd18bf82bf08e114485fce2d6fa672d52f543b52cbe4d5de",
    9: "de8971110108c874291ade94203367e05a698b4b1a9ef63eb5847cd96aedfcf6",
    11: "2af8b2ad704fab1b789d6d0be9dfb6d25b54c8e440cb6438fb39954f2d0cbe48",
    13: "8b116bfcbc785c2abcf0384e8e331a1687e9b6ad4edd66fd87792e46e3bccf04",
    16: "fe624b7458186b0238897a37b449b8e0790b1ce5e76f6bee0cc8770978979cab",
    17: "b27526bdad7f55d68334d76a8699e613524d8f1349339a5eb2063d190f2d6e3c",
    19: "ee64b4aba71e567f0231c1ebd88e7998523f5182e7a3003e0e569af1e0ec6a64",
    23: "4cff0bd079148e0f1c657bf474b3fc97f648c2aac373672ff88e3bfeeccb9f68",
    25: "c7c9ab10633cb714f24cdcf81b49bcf3b521a880b52ccd624e4623b06d3e3696",
    27: "7167defc5949cb431ab2e54c6620e487da23e3b65dbd5d87cb55fea8068f736e",
}


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_field_axioms(q):
    F = GF(q)
    add, mul = F.add, F.mul
    assert F.p ** F.k == q
    assert F.inv[0] is None
    E = range(q)
    for a in E:
        assert add[a][0] == a and mul[a][1] == a
        assert add[a][F.neg[a]] == 0
        if a:
            assert mul[a][F.inv[a]] == 1
        acc = 0
        for _ in range(F.p):
            acc = add[acc][a]
        assert acc == 0   # characteristic p
        for b in E:
            ab, ba = add[a][b], mul[a][b]
            assert ab == add[b][a] and ba == mul[b][a]
            assert 0 <= ab < q and 0 <= ba < q
            assert (ba == 0) == (a == 0 or b == 0)   # no zero divisors
            for c in E:
                assert add[ab][c] == add[a][add[b][c]]
                assert mul[ba][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_multiplicative_group_is_cyclic(q):
    # a finite field's nonzero elements form a cyclic group of order q - 1
    F = GF(q)

    def order(a):
        n, x = 1, a
        while x != 1:
            x = F.mul[x][a]
            n += 1
        return n

    assert max(order(a) for a in range(1, q)) == q - 1
    squares = {F.mul[a][a] for a in range(1, q)}
    assert len(squares) == (q - 1 if F.p == 2 else (q - 1) // 2)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_tables_are_pinned(q):
    F = GF(q)
    digest = hashlib.sha256(repr((F.add, F.mul)).encode()).hexdigest()
    assert digest == TABLE_SHA256[q]


def test_non_prime_powers_are_rejected():
    for q in (0, 1, 6, 10, 12, 18, 20, 24, 26):
        with pytest.raises(ValueError, match="not a prime power"):
            GF(q)
