"""Signal-domain structure prediction.

Pick the most similar training protein as the base, fit a causal FIR
response filter mapping the base's hydropathy signal to its encoded
structure signal (regularized least squares), apply that filter to the
target's hydropathy signal, and band-decode the result.

Similarity is the cosine of k-mer count vectors, with k = `KMER_SIZE` (3)
on every route.  `prepare_bases` turns a training set into the bases of
one route, once: the eligible records in id order, each one's k-mer
counts and squared norm, and a posting index of the bases (k-mer -> the
bases holding it, one entry per occurrence, as in the word-hit table of
BLAST, Altschul et al. 1990).  Base selection scores every base at once
from that index, so a target touches only the occurrences it shares with
the bases.  Each chosen base's filter is fitted once per prepared value,
and nothing outlives the value.

The filter is short (9 taps by default) with ridge weight `RIDGE`, so its
normal equations are a small positive definite system, built and solved
in plain Python floats: the Gram matrix from lagged dot products and
unpivoted elimination for the taps.  Only a direct `deconvolve(...,
ridge=0)` call, such as acceptance criterion 6's recovery test, checks
the conditioning, by one more elimination: of A - (F / 1e12) I, with F
the Frobenius norm of the L x L normal matrix A, refused at a pivot <= 0.
By Sylvester's criterion the pivots stay positive exactly when the matrix
is positive definite (Higham 2002, ch. 10), and A's largest eigenvalue
lies in [F / sqrt(L), F], so every A whose condition number is above 1e12
is refused, none below 1e12 / sqrt(L), and some between.

A ResponseFilter, a PipelineConfig, a PredictionResult and a Bases are
`NamedTuple` records; the first two check their fields on every path that
builds one (`record.checked`).
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, compress, repeat
from operator import attrgetter, ge, mul, truediv
from typing import NamedTuple

from .codec import (
    DECODE_MODES,
    check_sequence,
    hydropathy_encode,
    structure_decode,
    structure_encode,
)
from .record import checked

# the unregularized normal matrix is refused at a condition number above
# this, and may be from this / sqrt(L) up (see the module docstring)
_COND_LIMIT = 1e12
# the method's fixed k-mer length of base selection and FIR ridge weight
KMER_SIZE = 3
RIDGE = 1e-6


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
    """The signal-route setting that `train --filter-length` writes;
    `PipelineConfig._field_defaults` holds the default."""

    filter_length: int = 9

    def _check(self):
        # an exact int: a bool is refused too
        if type(self.filter_length) is not int or self.filter_length < 1:
            raise ValueError(f"filter_length must be an int >= 1, "
                             f"got {self.filter_length!r}")


class PredictionResult(NamedTuple):
    predicted: str
    base_id: str
    similarity_score: float


def kmer_counts(seq: str, k: int) -> Counter:
    if type(k) is not int or k < 1:
        raise ValueError(f"k-mer size must be an int >= 1, got {k!r}")
    if len(seq) < k:
        raise ValueError(f"sequence shorter than k-mer size {k}")
    return Counter(map("".join, zip(*[seq[i:] for i in range(k)])))


def _squared_norm(counts: Counter) -> int:
    return sum(v * v for v in counts.values())


class Bases(NamedTuple):
    """A training set prepared for the signal route by `prepare_bases`."""

    records: tuple  # the eligible ProteinRecords, in id order
    counts: tuple[Counter, ...]  # each one's `kmer_counts`
    norms: tuple[int, ...]  # and their squared norms
    # k-mer -> positions of the bases holding it, one entry per occurrence
    postings: dict[str, list[int]]
    cfg: PipelineConfig
    filters: dict  # base record -> its ResponseFilter, fitted on first choice


def prepare_bases(training, cfg: PipelineConfig = PipelineConfig()) -> Bases:
    """The bases of `training` under `cfg`: the records with a structure
    and at least `cfg.filter_length` and `KMER_SIZE` residues, in id order,
    counted and indexed once for every target."""
    # deconvolve fits filter_length taps, so a shorter base cannot be used
    long_enough = [r for r in training
                   if len(r.sequence) >= cfg.filter_length]
    if not long_enough:
        raise ValueError("no training sequence is at least filter_length="
                         f"{cfg.filter_length} residues long")
    candidates = [r for r in long_enough if r.structure is not None]
    if not candidates:
        raise ValueError("training set has no records with structures")
    records = tuple(r for r in sorted(candidates, key=attrgetter("id"))
                    if len(r.sequence) >= KMER_SIZE)
    if not records:
        raise ValueError(
            f"no training sequence is at least {KMER_SIZE} residues long")
    counts = tuple(kmer_counts(r.sequence, KMER_SIZE) for r in records)
    postings: dict[str, list[int]] = {}
    for pos, base in enumerate(counts):
        for kmer in base.elements():
            postings.setdefault(kmer, []).append(pos)
    return Bases(records, counts, tuple(map(_squared_norm, counts)),
                 postings, cfg, {})


def similarity(a: Counter, b: Counter) -> float:
    """Cosine of two k-mer count vectors, in [0, 1]."""
    if len(a) > len(b):  # the dot product walks the shorter vector
        a, b = b, a
    dot = sum(map(mul, a.values(), map(b.get, a, repeat(0))))
    if dot == 0:
        return 0.0
    # integer product under one sqrt keeps similarity(x, x) exactly 1.0
    return min(dot / math.sqrt(_squared_norm(a) * _squared_norm(b)), 1.0)


def select_base(target: str, bases: Bases):
    """Highest-similarity prepared base; ties go to the lexicographically
    smallest id.  Returns (record, score)."""
    counts = kmer_counts(check_sequence(target), KMER_SIZE)
    norm = _squared_norm(counts)
    # the integer dot product of each base sharing a k-mer with the target,
    # in one counting pass; a base sharing none scores 0.0
    dots = Counter(chain.from_iterable(
        map(bases.postings.get, counts.elements(), repeat(()))))
    # their scores before the clamp to 1.0; clamping only the maximum picks
    # the same bases, as every score at or past 1.0 clamps to 1.0
    raw = list(map(truediv, dots.values(), map(math.sqrt, map(
        mul, repeat(norm), map(bases.norms.__getitem__, dots)))))
    best_score = min(max(raw, default=0.0), 1.0)
    # the first maximum in id order: the smallest position scoring it
    best = min(compress(dots, map(ge, raw, repeat(best_score))), default=0)
    # the same score, from the one definition of it
    return bases.records[best], similarity(counts, bases.counts[best])


def _solve(A: list[list[float]], b: list[float]) -> list[float]:
    """Solve A t = b in place, A symmetric positive definite, by elimination
    without pivoting, which is stable for such A (Higham 2002, ch. 10)."""
    L = len(b)
    for k in range(L):
        pivot = A[k]
        if pivot[k] <= 0.0:
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
        # shift: A's Frobenius norm over _COND_LIMIT, each entry scaled
        # before the sum so that no finite A overflows it
        shift = math.hypot(*[v / _COND_LIMIT for v in chain.from_iterable(A)])
        try:
            if not math.isfinite(shift):
                raise IllConditionedError
            _solve([[v - shift if i == j else v for j, v in enumerate(row)]
                    for i, row in enumerate(A)], [0.0] * L)
        except IllConditionedError:
            raise IllConditionedError("normal matrix is singular at ridge=0; "
                                      "increase the ridge weight") from None
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


def predict_structure(target: str, bases: Bases,
                      mode: str = DECODE_MODES[0]) -> PredictionResult:
    """Run the base-selection / deconvolution / convolution pipeline for
    one target against prepared bases, band-decoding in `mode`."""
    base, score = select_base(target, bases)
    response = bases.filters.get(base)
    if response is None:
        response = bases.filters[base] = deconvolve(
            structure_encode(base.structure), hydropathy_encode(base.sequence),
            bases.cfg.filter_length, RIDGE)

    return PredictionResult(
        predicted=structure_decode(
            convolve(hydropathy_encode(target), response), mode),
        base_id=base.id,
        similarity_score=score,
    )
