"""Signal-domain structure prediction.

Pick the most similar training protein as the base, fit a causal FIR
response filter mapping the base's hydropathy signal to its encoded
structure signal (regularized least squares), apply that filter to the
target's hydropathy signal, and band-decode the result.

Similarity is the cosine of k-mer count vectors.  A sequence's counts are
held as layered k-mer sets, int bit sets over one process-wide k-mer
numbering (layer c holds the k-mers counted more than c times), so the
integer dot product of two count vectors is the sum of the popcounts of
the ANDs of their layers.

The filter is short (9 taps by default), so its normal equations are a
small positive definite system, built and solved in plain Python floats:
the Gram matrix from lagged dot products, unpivoted elimination for the
taps, and cyclic Jacobi eigenvalues for the ridge-free conditioning check.

A ResponseFilter, a PipelineConfig and a PredictionResult are
`NamedTuple` records; the first two check their fields on every path that
builds one (`record.checked`).
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .codec import (
    DECODE_MODES,
    HYDROPATHY_SCALE,
    check_sequence,
    hydropathy_encode,
    structure_decode,
    structure_encode,
)
from .record import checked

# ill-conditioning threshold for the unregularized normal matrix
_COND_LIMIT = 1e12
# Jacobi sweeps converge quadratically; the cap only bounds a pathological
# matrix, whose eigenvalues are then as good as the last sweep left them
_JACOBI_SWEEPS = 50
_EPS = sys.float_info.epsilon


class IllConditionedError(ValueError):
    """Normal equations are numerically singular; raise the ridge weight."""


@checked
class ResponseFilter(NamedTuple):
    taps: tuple[float, ...]

    def _check(self):
        if not self.taps:
            raise ValueError("filter needs at least one tap")
        if any(not math.isfinite(t) for t in self.taps):
            raise ValueError("filter taps must be finite")


@checked
class PipelineConfig(NamedTuple):
    """Signal-route settings; `PipelineConfig._field_defaults` holds the
    defaults."""

    filter_length: int = 9
    ridge: float = 1e-6
    decode_mode: str = "nearest_centroid"
    scale_name: str = HYDROPATHY_SCALE
    kmer_size: int = 3

    def _check(self):
        for name in ("filter_length", "kmer_size"):
            value = getattr(self, name)
            if type(value) is not int:  # a bool is refused too
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.filter_length < 1:
            raise ValueError("filter_length must be >= 1")
        # a bound, not math.isfinite, which overflows on an int past floats
        if type(self.ridge) not in (int, float) or not (
                0 <= self.ridge <= sys.float_info.max):
            raise ValueError(f"ridge must be a finite number >= 0, "
                             f"got {self.ridge!r}")
        if self.kmer_size < 1:
            raise ValueError("kmer_size must be >= 1")
        if self.decode_mode not in DECODE_MODES:
            raise ValueError(f"decode_mode must be one of {DECODE_MODES}, "
                             f"got {self.decode_mode!r}")
        if self.scale_name != HYDROPATHY_SCALE:
            raise ValueError(f"unknown hydropathy scale {self.scale_name!r}; "
                             f"the only scale is {HYDROPATHY_SCALE!r}")


class PredictionResult(NamedTuple):
    predicted: str
    trace: tuple[float, ...]
    base_id: str
    similarity_score: float


def kmer_counts(seq: str, k: int) -> Counter:
    if type(k) is not int or k < 1:
        raise ValueError(f"k-mer size must be an int >= 1, got {k!r}")
    if len(seq) < k:
        raise ValueError(f"sequence shorter than k-mer size {k}")
    return Counter(seq[i:i + k] for i in range(len(seq) - k + 1))


class _KmerIds(dict):
    """k-mer -> bit id, the next free id given on first sight."""

    def __missing__(self, kmer: str) -> int:
        self[kmer] = bit = len(self)
        return bit


# one bit numbering for every k-mer set in the process; it only grows
_KMER_BIT = _KmerIds()


@lru_cache(maxsize=None)
def _kmer_vector(seq: str, k: int) -> tuple[tuple[int, ...], int]:
    """k-mer counts of a checked sequence as layered bit sets, and their
    squared norm, computed once per (sequence, k) per process.

    Layer c is an int whose set bits (numbered by `_KMER_BIT`) are the
    k-mers counted more than c times, so a k-mer counted i times lies in
    the first i layers.  A layer is as wide as the number of distinct
    k-mers the process has seen: at most 21^k bits while one k is in use
    (21 residue letters, X included).  Every CLI path uses k = 3, as
    `PipelineConfig.kmer_size` has no flag, so a layer is at most 9,261
    bits, about 1.2 KB.  The table only grows, as this cache does.
    """
    counts = kmer_counts(check_sequence(seq), k)
    pairs = list(zip(map(_KMER_BIT.__getitem__, counts), counts.values()))
    size = (len(_KMER_BIT) + 7) >> 3
    layers = []
    while pairs:
        layer = bytearray(size)
        for bit, _ in pairs:
            layer[bit >> 3] |= 1 << (bit & 7)
        layers.append(int.from_bytes(layer, "little"))
        pairs = [(bit, n - 1) for bit, n in pairs if n > 1]
    return tuple(layers), sum(v * v for v in counts.values())


def similarity(a: str, b: str, k: int = 3) -> float:
    """Cosine similarity of k-mer count vectors, in [0, 1]."""
    (la, na), (lb, nb) = _kmer_vector(a, k), _kmer_vector(b, k)
    # a k-mer counted i times in a and j times in b is in i*j layer pairs
    dot = sum((x & y).bit_count() for x in la for y in lb)
    if dot == 0:
        return 0.0
    # integer product under one sqrt keeps similarity(x, x) exactly 1.0
    return min(dot / math.sqrt(na * nb), 1.0)


def select_base(target: str, training, k: int = 3):
    """Highest-similarity training record with a structure; ties go to the
    lexicographically smallest id.  Returns (record, score)."""
    candidates = [r for r in training if r.structure is not None]
    if not candidates:
        raise ValueError("training set has no records with structures")
    best, best_score = None, -1.0
    for record in sorted(candidates, key=lambda r: r.id):
        if len(record.sequence) < k:
            continue
        score = similarity(target, record.sequence, k)
        if score > best_score:
            best, best_score = record, score
    if best is None:
        raise ValueError(f"no training sequence is at least {k} residues long")
    return best, best_score


def _condition_number(A: list[list[float]]) -> float:
    """2-norm condition number max|lambda| / min|lambda| of the symmetric
    matrix A, its eigenvalues found by cyclic Jacobi rotations; inf when A
    is singular or not finite."""
    if not all(math.isfinite(v) for row in A for v in row):
        return math.inf
    # A is scaled to unit diagonal maximum, so no rotation overflows
    scale = max(abs(row[i]) for i, row in enumerate(A))
    if scale == 0.0:
        return math.inf
    a = [[v / scale for v in row] for row in A]
    L = len(a)
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p in range(L - 1):
            for q in range(p + 1, L):
                apq = a[p][q]
                # rotate off any entry not negligible against its diagonal
                # pair, which keeps small eigenvalues to high relative accuracy
                if abs(apq) <= _EPS * math.sqrt(abs(a[p][p] * a[q][q])):
                    continue
                rotated = True
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for r in range(L):
                    if r != p and r != q:
                        arp, arq = a[r][p], a[r][q]
                        a[r][p] = a[p][r] = c * arp - s * arq
                        a[r][q] = a[q][r] = s * arp + c * arq
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = 0.0
        if not rotated:
            break
    eigen = [abs(row[i]) for i, row in enumerate(a)]
    return max(eigen) / min(eigen) if min(eigen) > 0.0 else math.inf


def _solve(A: list[list[float]], b: list[float]) -> list[float]:
    """Solve A t = b in place, A symmetric positive definite, by elimination
    without pivoting, which is stable for such A (Higham 2002, ch. 10)."""
    L = len(b)
    for k in range(L):
        pivot = A[k]
        if pivot[k] == 0.0:
            raise IllConditionedError(
                "normal matrix is singular; increase the ridge weight")
        for i in range(k + 1, L):
            row = A[i]
            f = row[k] / pivot[k]
            if f != 0.0:
                for j in range(k + 1, L):
                    row[j] -= f * pivot[j]
                b[i] -= f * b[k]
    t = [0.0] * L
    for k in reversed(range(L)):
        row = A[k]
        t[k] = (b[k] - sum(row[j] * t[j] for j in range(k + 1, L))) / row[k]
    return t


def deconvolve(output, input, L: int, ridge: float = 0.0) -> ResponseFilter:
    """Fit length-L causal FIR taps minimizing the squared residual of
    output - input * taps plus a ridge penalty, via the normal equations."""
    y = list(map(float, output))
    x = list(map(float, input))
    n = len(x)
    if len(y) != n:
        raise ValueError("input and output signals must have equal length")
    if L < 1:
        raise ValueError("filter needs at least one tap")
    if n < L:
        raise ValueError(f"signals must be at least L={L} samples long")
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    # normal equations A = X^T X + ridge I, b = X^T y of the convolution
    # matrix X[t][j] = x[t - j] (zero for t < j: causal, zero prehistory).
    # Row 0 of X^T X holds the lagged dot products; each later entry drops
    # the last term of the one up and to its left.
    A = [[0.0] * L for _ in range(L)]
    for j in range(L):
        A[0][j] = A[j][0] = sum(map(mul, x[j:], x))
    for i in range(1, L):
        for j in range(i, L):
            A[i][j] = A[j][i] = A[i - 1][j - 1] - x[n - i] * x[n - j]
    b = [sum(map(mul, x, y[j:])) for j in range(L)]
    if ridge == 0.0:
        cond = _condition_number(A)
        if not math.isfinite(cond) or cond > _COND_LIMIT:
            raise IllConditionedError(
                "normal matrix is singular at ridge=0; increase the ridge weight")
    for i in range(L):
        A[i][i] += ridge
    return ResponseFilter(tuple(_solve(A, b)))


def convolve(input, f: ResponseFilter) -> list[float]:
    """Causal convolution, output length = input length."""
    x = list(map(float, input))
    if not x:
        raise ValueError("input signal must be non-empty")
    # one shifted, scaled copy of the input per tap
    out = [0.0] * len(x)
    for j, h in enumerate(f.taps):
        out[j:] = [o + h * v for o, v in zip(out[j:], x)]
    return out


@lru_cache(maxsize=None)
def _base_filter(sequence: str, structure: str, L: int,
                 ridge: float) -> ResponseFilter:
    """The response filter of one base record, fitted once per (sequence,
    structure, L, ridge) per process, however many targets choose it."""
    return deconvolve(structure_encode(structure), hydropathy_encode(sequence),
                      L, ridge)


def predict_structure(target: str, training,
                      cfg: PipelineConfig | None = None) -> PredictionResult:
    """Run the full base-selection / deconvolution / convolution pipeline."""
    cfg = cfg or PipelineConfig()
    check_sequence(target)

    # deconvolve fits filter_length taps, so a shorter base cannot be used
    long_enough = [r for r in training
                   if len(r.sequence) >= cfg.filter_length]
    if not long_enough:
        raise ValueError("no training sequence is at least filter_length="
                         f"{cfg.filter_length} residues long")
    base, score = select_base(target, long_enough, cfg.kmer_size)
    response = _base_filter(base.sequence, base.structure, cfg.filter_length,
                            cfg.ridge)

    trace = convolve(hydropathy_encode(target), response)
    predicted = structure_decode(trace, cfg.decode_mode)
    return PredictionResult(
        predicted=predicted,
        trace=tuple(trace),
        base_id=base.id,
        similarity_score=score,
    )
