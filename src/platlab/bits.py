"""Bit-vector helpers: a subset of atoms is an int with bit i for atom i."""


def ids(mask):
    """The atom indices of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def rect(mask1, mask2, n2):
    """mask1 × mask2 as a product mask, atom (i, j) at bit i·n2 + j."""
    out = 0
    while mask1:
        low = mask1 & -mask1
        out |= mask2 << ((low.bit_length() - 1) * n2)
        mask1 ^= low
    return out
