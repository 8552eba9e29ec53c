"""0/1 tuples <-> the package's int bit layout, for the tests' tuple
oracles: tuple bit 0 is the int's most significant bit, the order of a
pattern's residues, a dependency string's segments and a CA's cells."""


def pack(bits) -> int:
    """The int of a 0/1 sequence, bit 0 most significant."""
    value = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {tuple(bits)}")
        value = value << 1 | int(bit)
    return value


def unpack(value: int, n: int) -> tuple[int, ...]:
    """The n bits of `value`, most significant first: pack's inverse."""
    if value >> n:  # also nonzero for every negative value
        raise ValueError(f"{value} is not an unsigned {n}-bit value")
    return tuple(value >> (n - 1 - i) & 1 for i in range(n))
