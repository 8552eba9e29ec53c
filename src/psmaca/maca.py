"""MACA-style K-class pattern classifier.

A dependency string (a concatenation of nonzero dependency vectors) maps an
n-bit pattern to an m-bit basin signature: one parity bit per segment.  The
2^m signatures act as attractor basins; labeling each basin by its majority
class gives a classifier, and recursive partitioning of impure basins gives
the tree classifier.

Bit layout, for the whole package: a pattern, a dependency string and a
basin signature are each one int, most significant bit first.  A
dependency string is its segments' n-bit concatenation, segment 0 on top,
plus each segment's width; segment j, in place, is mask j, and signature
bit j, from the top, is the parity of `code & masks[j]`.  A CA state
(`ca`) follows the same layout: an n-cell state is one int, cell 0 most
significant.  An int outside its n bits raises ValueError rather than
spilling into a neighbouring value.  As text, an m-bit value is m ASCII
'0'/'1' characters.

Training runs on the same layout transposed (bit-sliced).  `build_tree`
takes N (code, label) pairs and makes them a training set once, with
`pattern_set`; the set keeps only bits: pattern i, in training order, is
bit i of every N-bit int.  Column b is the int whose bit i is bit b of code
i, and each label has a member mask of the patterns it labels.  A tree
node's patterns are a `PatternSet` of four flat fields: `n`, the columns'
byte-XOR tables `byte_xors` and the label masks `labels`, all three shared
by every set cut from one training set, and its own N-bit member mask
`members`.  Signature bit j of every member at once is the XOR of the
columns mask j selects, so `distribute` splits the member mask once per
segment, and a class count is a popcount of the members AND a label's mask,
with no per-pattern loop.  `distribute` and `ga.evolve_maca` take only a
set, whose `n` they read; `ga.fitness` also takes pairs.

A training pair is a plain `(code, label)` tuple.  Nothing in psmaca builds
a `LabeledPattern`: it and `ga.fitness`'s pairs branch stay only for
`perfbench/test_perfbench.py::TestWrappers`, which scores a list of them,
until the benchmark drops that call.

`DependencyString`, `TreeNode` and `PsmacaTree` are immutable `__slots__`
records (`record.Frozen`), as `classify` reads their fields for every
window; `TreeConfig` is a `NamedTuple` that checks its fields on every
path that builds one (`record.checked`).
"""

from __future__ import annotations

import random
from itertools import islice
from typing import NamedTuple

from .record import Frozen, checked


def _check_text(text) -> str:
    if not isinstance(text, str) or text.strip("01"):
        raise ValueError(f"bit text must hold only ASCII 0 or 1, got {text!r}")
    return text


def _check_code(code: int, n: int) -> int:
    if code >> n:  # also nonzero for every negative code
        raise ValueError(f"{code} is not an unsigned {n}-bit value")
    return code


def _check_seed(seed) -> int:
    # Random(-s) seeds like Random(s), and a float or str by its hash
    if type(seed) is not int or seed < 0:
        raise ValueError(f"rng seed must be a non-negative int, got {seed!r}")
    return seed


def _below(rng: random.Random, n: int) -> int:
    # rng.randrange(n)'s value and draws: CPython's _randbelow_with_getrandbits
    # (`ga` draws with it, and `dataio._label_runs` makes its n = 3 draws
    # inline)
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


class DependencyString(Frozen):
    """Ordered nonzero dependency vectors covering an n-bit pattern: `bits`
    is their n-bit concatenation, segment 0 most significant, and `widths`
    holds one width per segment.  Equality, hashing and `repr` read only
    (bits, widths)."""

    # masks: one per segment, over the whole n-bit pattern; the all-zero
    # check needs every mask, so __init__ sets them all.  n: the pattern
    # width, sum(widths), read by every GA operator and kernel
    __slots__ = ("bits", "widths", "masks", "n")
    _fields = ("bits", "widths")

    def __init__(self, bits: int, widths: tuple[int, ...]):
        # exact types: a float or bool is no bits, and only a tuple of
        # widths hashes, as equality and hashing read it
        if type(bits) is not int:
            raise ValueError(f"bits must be an int, got {bits!r}")
        if type(widths) is not tuple:
            raise ValueError(f"widths must be a tuple, got {widths!r}")
        if not widths:
            raise ValueError("dependency string needs at least one segment")
        n = low = sum(widths)
        masks = []
        for width in widths:
            # an exact int >= 1, which keeps `low` >= 0: a width wider
            # than the bits left means that a later width is below 1
            if type(width) is not int or not 0 < width <= low:
                raise ValueError(f"widths must be ints >= 1, got {widths!r}")
            low -= width
            masks.append(bits & ((1 << width) - 1) << low)
        _check_code(bits, n)
        _set = object.__setattr__
        _set(self, "bits", bits)
        _set(self, "widths", widths)
        _set(self, "n", n)
        if not all(masks):
            raise ValueError(f"all-zero segment in {self.bit_strings()}")
        _set(self, "masks", tuple(masks))

    @property
    def m(self) -> int:
        return len(self.widths)

    def bit_strings(self) -> list[str]:
        """The '0'/'1' text of each segment, segment 0 first."""
        digits = iter(format(self.bits, f"0{self.n}b"))
        return ["".join(islice(digits, width)) for width in self.widths]

    @classmethod
    def from_bit_strings(cls, strings) -> "DependencyString":
        strings = [_check_text(s) for s in strings]
        return cls(int("".join(strings) or "0", 2), tuple(map(len, strings)))


def basin_signature(ds: DependencyString, code: int) -> int:
    """Signature bit j = parity of (segment j AND the matching pattern bits)."""
    _check_code(code, ds.n)
    sig = 0
    for mask in ds.masks:
        sig = sig << 1 | (code & mask).bit_count() & 1
    return sig


class LabeledPattern(NamedTuple):
    """A (code, label) training pair; a plain pair trains the same.
    Nothing in psmaca builds one: it stays only for the benchmark's
    `perfbench/test_perfbench.py::TestWrappers`, which scores a list of
    them with `ga.fitness`."""

    code: int
    label: str


class PatternSet:
    """Some patterns of one bit-sliced training set of n-bit codes: pattern
    i is a member when bit i of `members` is set.  Every set cut from the
    same training set shares its `n`, `byte_xors` and `labels`."""

    # byte_xors[k][v] is the XOR of columns 8k + b over the set bits b of
    # v, so a mask's XOR takes one lookup per byte: 256 N-bit ints a byte;
    # labels maps each label, in order of first appearance, to its patterns
    __slots__ = ("n", "byte_xors", "labels", "members")

    def __init__(self, n: int, byte_xors: tuple[list[int], ...],
                 labels: dict[str, int], members: int):
        self.n, self.byte_xors = n, byte_xors
        self.labels, self.members = labels, members

    def __len__(self) -> int:
        return self.members.bit_count()


def pattern_set(patterns, n: int) -> PatternSet:
    """(code, label) pairs as a set over n-bit codes."""
    rows, labels = [], []
    for code, label in patterns:
        rows.append(format(_check_code(code, n), f"0{n}b"))
        labels.append(label)
    # character k of a row is bit n-1-k; the last pattern is each column's
    # most significant bit
    columns = [int("".join(bits), 2) for bits in zip(*reversed(rows))][::-1]
    columns = columns or [0] * n
    byte_xors = []
    for low in range(0, n, 8):
        table = [0]
        for column in columns[low:low + 8]:
            table += [x ^ column for x in table]
        byte_xors.append(table)
    label_masks = {
        label: int("".join(["1" if x == label else "0"
                            for x in reversed(labels)]), 2)
        for label in dict.fromkeys(labels)}
    return PatternSet(n, tuple(byte_xors), label_masks, (1 << len(rows)) - 1)


def distribute(ds: DependencyString,
               patterns: PatternSet) -> dict[int, PatternSet]:
    """Bucket patterns by basin signature, in ascending signature order;
    every pattern lands in exactly one bucket."""
    n, byte_xors, labels = patterns.n, patterns.byte_xors, patterns.labels
    if n != ds.n:
        raise ValueError(f"pattern set holds {n}-bit codes, not {ds.n}-bit")
    buckets = {0: patterns.members}
    for mask in ds.masks:
        # signature bit j of every pattern at once: the parity of the code
        # bits mask j selects is the XOR of their columns
        sig_bit, k = 0, 0
        while mask:
            sig_bit ^= byte_xors[k][mask & 255]
            mask >>= 8
            k += 1
        split = {}
        for sig, members in buckets.items():
            ones = members & sig_bit
            if ones != members:
                split[sig << 1] = members ^ ones
            if ones:
                split[sig << 1 | 1] = ones
        buckets = split
    # each split keeps its buckets' order, 0 before 1: ascending signatures
    return {sig: PatternSet(n, byte_xors, labels, members)
            for sig, members in buckets.items()}


def label_counts(patterns: PatternSet) -> dict[str, int]:
    """Members of each label present, by popcount of the label's mask."""
    members = patterns.members
    return {label: count for label, mask in patterns.labels.items()
            if (count := (members & mask).bit_count())}


def majority_label(counts: dict[str, int]) -> str:
    """The most frequent label of `label_counts`; ties go to the smallest."""
    return min(counts, key=lambda lab: (-counts[lab], lab))


class TreeNode(Frozen):
    """Internal nodes carry a dependency string and children keyed by
    signature; leaves carry only a label.  An internal node's `label` is
    the fallback for signatures never seen in training."""

    __slots__ = _fields = ("label", "ds", "children")

    def __init__(self, label: str, ds: DependencyString | None = None,
                 children: dict[int, TreeNode] | None = None):
        _set = object.__setattr__
        _set(self, "label", label)
        _set(self, "ds", ds)
        # a new dict for each node given none: no two leaves share one
        _set(self, "children", {} if children is None else children)

    @property
    def is_leaf(self) -> bool:
        return self.ds is None


# GA restarts at a node whose best split leaves everything in one basin
SPLIT_RETRIES = 5


@checked
class TreeConfig(NamedTuple):
    """Tree settings; `population_size` to `elitism_count` set the GA run at
    each impure node.  `TreeConfig._field_defaults` holds the defaults."""

    max_depth: int = 8
    min_samples: int = 2
    population_size: int = 30
    generations: int = 40
    crossover_rate: float = 0.9
    mutation_rate: float = 0.02
    elitism_count: int = 2

    def _check(self):
        # exact types: a bool is no int, and a rate may also be an int
        for name, default in self._field_defaults.items():
            kind, value = type(default), getattr(self, name)
            if type(value) not in (int, kind):
                raise ValueError(
                    f"{name} must be {kind.__name__}, got {value!r}")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        for name in ("crossover_rate", "mutation_rate"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 1 <= self.elitism_count < self.population_size:
            raise ValueError("need 1 <= elitism_count < population_size")


class PsmacaTree(Frozen):
    __slots__ = _fields = ("root", "n", "config")

    def __init__(self, root: TreeNode, n: int, config: TreeConfig):
        _set = object.__setattr__
        _set(self, "root", root)
        _set(self, "n", n)
        _set(self, "config", config)


def build_tree(training, n: int, config: TreeConfig | None = None,
               rng_seed: int = 0) -> PsmacaTree:
    """Recursively partition the (code, label) pairs of n-bit codes.

    At each impure node a GA evolves a dependency string with
    m = ceil(log2 K') segments for the node's K' classes; pure buckets
    become leaves, impure ones recurse until max_depth or min_samples.
    """
    from . import ga  # deferred: ga imports this module's types

    rng = random.Random(_check_seed(rng_seed))
    config = config or TreeConfig()
    training = pattern_set(training, n)
    if not training:
        raise ValueError("training set must be non-empty")

    def grow(patterns: PatternSet, depth: int) -> TreeNode:
        classes = label_counts(patterns)
        majority = majority_label(classes)
        if (len(classes) == 1 or depth >= config.max_depth
                or len(patterns) < config.min_samples):
            return TreeNode(label=majority)

        # ceil(log2 K') for K' >= 2 classes
        m = min((len(classes) - 1).bit_length(), n)
        for _ in range(SPLIT_RETRIES):
            best, _ = ga.evolve_maca(patterns, m, config,
                                     rng.getrandbits(32))
            ds = DependencyString(best.bits, best.widths)
            buckets = distribute(ds, patterns)
            if len(buckets) > 1:
                break
        else:
            # no chromosome separated this bucket at all
            return TreeNode(label=majority)

        children = {sig: grow(bucket, depth + 1)
                    for sig, bucket in buckets.items()}
        return TreeNode(label=majority, ds=ds, children=children)

    return PsmacaTree(root=grow(training, 0), n=n, config=config)


def classify(tree: PsmacaTree, code: int) -> str:
    """Walk signatures of an n-bit pattern code from the root to a leaf.
    An unseen signature at an internal node falls back to that node's
    majority label."""
    _check_code(code, tree.n)
    node = tree.root
    while (ds := node.ds) is not None:
        # `basin_signature` inline: one call per window, not one per node
        sig = 0
        for mask in ds.masks:
            sig = sig << 1 | (code & mask).bit_count() & 1
        child = node.children.get(sig)
        if child is None:
            return node.label
        node = child
    return node.label
