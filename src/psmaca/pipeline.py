"""Signal-domain structure prediction.

Pick the most similar training protein as the base, fit a causal FIR
response filter mapping the base's hydropathy signal to its encoded
structure signal (regularized least squares), apply that filter to the
target's hydropathy signal, and band-decode the result.

numpy is imported inside the functions that use it, so the tree route and
the CA commands, which import this module through the package, never pay
for loading it.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .codec import (
    DECODE_MODES,
    HYDROPATHY_SCALE,
    check_sequence,
    hydropathy_encode,
    structure_decode,
    structure_encode,
)

# ill-conditioning threshold for the unregularized normal matrix
_COND_LIMIT = 1e12


class IllConditionedError(ValueError):
    """Normal equations are numerically singular; raise the ridge weight."""


@dataclass(frozen=True)
class ResponseFilter:
    taps: tuple[float, ...]

    def __post_init__(self):
        if not self.taps:
            raise ValueError("filter needs at least one tap")
        if any(not math.isfinite(t) for t in self.taps):
            raise ValueError("filter taps must be finite")


@dataclass(frozen=True)
class PipelineConfig:
    filter_length: int = 9
    ridge: float = 1e-6
    decode_mode: str = "nearest_centroid"
    scale_name: str = HYDROPATHY_SCALE
    kmer_size: int = 3

    def __post_init__(self):
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


@dataclass(frozen=True)
class PredictionResult:
    predicted: str
    trace: tuple[float, ...]
    base_id: str
    similarity_score: float


def kmer_counts(seq: str, k: int) -> Counter:
    if len(seq) < k:
        raise ValueError(f"sequence shorter than k-mer size {k}")
    return Counter(seq[i:i + k] for i in range(len(seq) - k + 1))


@lru_cache(maxsize=None)
def _kmer_vector(seq: str, k: int) -> tuple[dict[str, int], int]:
    """k-mer counts of a checked sequence and their squared norm, computed
    once per (sequence, k) per process.  Keys are interned, so the k-mers
    shared by many cached vectors are stored once."""
    counts = {sys.intern(kmer): n
              for kmer, n in kmer_counts(check_sequence(seq), k).items()}
    return counts, sum(v * v for v in counts.values())


def similarity(a: str, b: str, k: int = 3) -> float:
    """Cosine similarity of k-mer count vectors, in [0, 1]."""
    (ca, na), (cb, nb) = _kmer_vector(a, k), _kmer_vector(b, k)
    dot = sum(ca[kmer] * cb[kmer] for kmer in ca.keys() & cb.keys())
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


def _convolution_matrix(input_signal: np.ndarray, L: int) -> np.ndarray:
    import numpy as np

    # X[t, j] = input[t - j], zero for t < j (causal, zero prehistory)
    n = len(input_signal)
    X = np.zeros((n, L))
    for j in range(L):
        X[j:, j] = input_signal[: n - j]
    return X


def deconvolve(output, input, L: int, ridge: float = 0.0) -> ResponseFilter:
    """Fit length-L causal FIR taps minimizing the squared residual of
    output - input * taps plus a ridge penalty, via the normal equations."""
    import numpy as np

    y = np.asarray(output, dtype=float)
    x = np.asarray(input, dtype=float)
    if len(y) != len(x):
        raise ValueError("input and output signals must have equal length")
    if len(x) < L:
        raise ValueError(f"signals must be at least L={L} samples long")
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    X = _convolution_matrix(x, L)
    A = X.T @ X + ridge * np.eye(L)
    if ridge == 0.0:
        with np.errstate(all="ignore"):
            cond = np.linalg.cond(A)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise IllConditionedError(
                "normal matrix is singular at ridge=0; increase the ridge weight")
    taps = np.linalg.solve(A, X.T @ y)
    return ResponseFilter(tuple(float(t) for t in taps))


def convolve(input, f: ResponseFilter) -> list[float]:
    """Causal convolution, output length = input length."""
    import numpy as np

    x = np.asarray(input, dtype=float)
    if len(x) == 0:
        raise ValueError("input signal must be non-empty")
    full = np.convolve(x, np.asarray(f.taps))
    return [float(v) for v in full[: len(x)]]


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
    input_base = hydropathy_encode(base.sequence)
    output_base = structure_encode(base.structure)
    response = deconvolve(output_base, input_base, cfg.filter_length, cfg.ridge)

    trace = convolve(hydropathy_encode(target), response)
    predicted = structure_decode(trace, cfg.decode_mode)
    return PredictionResult(
        predicted=predicted,
        trace=tuple(trace),
        base_id=base.id,
        similarity_score=score,
    )
