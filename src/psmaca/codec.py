"""Encoders between amino-acid sequences, binary patterns, and numeric
signals.

Input encoding replaces each residue with its hydropathy value; output
encoding maps secondary structure H/E/C to 200/600/800.  Decoding reads one
of two band tables: the literal bands ([0,200] -> H, [600,800] -> E, else
C), or nearest-centroid, the default, with edges at the code midpoints 400
and 700, because coil's own code 800 sits inside the strand band.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import repeat

# Canonical residues in alphabetical order; the position is the residue's
# 5-bit code.  'X' (unknown) and window padding share code 20.
AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
UNKNOWN_RESIDUE = "X"
RESIDUE_BITS = 5  # bits per residue code, so a window of w residues is 5w bits
# Training keeps 256 N-bit ints per byte of the 5w-bit window code
# (`maca.pattern_set`): about 0.48 MiB per window residue at N = 23,310
# windows, so 47 MiB at this ceiling, where window 99999 would need ~47 GiB.
MAX_WINDOW = 99
_CODE = {aa: code for code, aa in enumerate(AMINO_ACIDS + UNKNOWN_RESIDUE)}
_RESIDUES = frozenset(_CODE)

STRUCTURE_LABELS = "HEC"
_LABELS = frozenset(STRUCTURE_LABELS)
# the published structure codes; coil (800) sits on the strand band's top
HELIX_VALUE, STRAND_VALUE, COIL_VALUE = 200.0, 600.0, 800.0
_STRUCTURE_VALUE = {"H": HELIX_VALUE, "E": STRAND_VALUE, "C": COIL_VALUE}

# mode -> (upper edge of each band, one label per band): v decodes as
# labels[bisect_left(edges, v)], so a value on an edge takes the lower band
_DECODE_BANDS = {
    "nearest_centroid": ((400.0, 700.0, math.inf), "HEC"),  # code midpoints
    "paper_bands": ((math.nextafter(0.0, -1.0), 200.0,
                     math.nextafter(600.0, 0.0), 800.0, math.inf), "CHCEC"),
}
DECODE_MODES = tuple(_DECODE_BANDS)

# the one hydropathy scale: Kyte & Doolittle (1982), with 'X' as neutral 0.0
HYDROPATHY_SCALE = "kyte_doolittle"
_HYDROPATHY = {
    "A": 1.8, "C": 2.5, "D": -3.5, "E": -3.5, "F": 2.8, "G": -0.4, "H": -3.2,
    "I": 4.5, "K": -3.9, "L": 3.8, "M": 1.9, "N": -3.5, "P": -1.6, "Q": -3.5,
    "R": -4.5, "S": -0.8, "T": -0.7, "V": 4.2, "W": -0.9, "Y": -1.3,
    UNKNOWN_RESIDUE: 0.0,
}


def _check_letters(s: str, letters: frozenset, text: str, item: str) -> str:
    if not s:
        raise ValueError(f"{text} must be non-empty")
    if not letters.issuperset(s):
        # the slow scan only names the first illegal letter
        for i, c in enumerate(s):
            if c not in letters:
                raise ValueError(f"illegal {item} {c!r} at position {i}")
    return s


def check_sequence(seq: str) -> str:
    return _check_letters(seq, _RESIDUES, "amino-acid sequence", "residue")


def check_window(w) -> int:
    if type(w) is not int or w < 1 or w % 2 == 0:
        raise ValueError(f"window size must be an odd integer >= 1, got {w!r}")
    if w > MAX_WINDOW:
        raise ValueError(f"window size must be at most {MAX_WINDOW}, got {w}")
    return w


def check_structure(s: str) -> str:
    return _check_letters(s, _LABELS, "structure string", "structure label")


def hydropathy_encode(seq: str) -> list[float]:
    """One Kyte-Doolittle hydropathy value per residue; 'X' encodes as 0.0."""
    return [_HYDROPATHY[aa] for aa in check_sequence(seq)]


def structure_encode(s: str) -> list[float]:
    return [_STRUCTURE_VALUE[lab] for lab in check_structure(s)]


def structure_decode(values, mode: str = "nearest_centroid") -> str:
    """Decode a numeric trace back to H/E/C.

    paper_bands: v in [0, 200] -> H, v in [600, 800] -> E, else C.
    nearest_centroid: label of the closest code value, ties to the lower one.
    """
    values = list(values)
    if not values:
        raise ValueError("signal must be non-empty")
    if mode not in DECODE_MODES:
        raise ValueError(f"mode must be one of {DECODE_MODES}, got {mode!r}")
    if not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise ValueError(f"non-finite trace value {bad!r}")
    edges, labels = _DECODE_BANDS[mode]
    return "".join(map(labels.__getitem__,
                       map(bisect_left, repeat(edges), values)))


def window_patterns(seq: str, w: int) -> list[int]:
    """One 5w-bit pattern code per residue: the 5-bit residue codes over the
    window centered at the residue, first residue most significant, with
    terminal overhang padded with code 20."""
    check_window(w)
    check_sequence(seq)
    pad = UNKNOWN_RESIDUE * (w // 2)
    mask = (1 << RESIDUE_BITS * w) - 1
    # shift each residue code into one rolling int: after padded residue
    # i + w - 1 it holds window i, so the first w - 1 values are partial
    codes, code = [], 0
    for aa in pad + seq + pad:
        code = (code << RESIDUE_BITS | _CODE[aa]) & mask
        codes.append(code)
    return codes[w - 1:]
