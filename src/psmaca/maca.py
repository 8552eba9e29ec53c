"""MACA-style K-class pattern classifier.

A dependency string (a concatenation of nonzero dependency vectors) maps an
n-bit pattern to an m-bit basin signature: one parity bit per segment.  The
2^m signatures act as attractor basins; labeling each basin by its majority
class gives a classifier, and recursive partitioning of impure basins gives
the tree classifier.

Bit layout, for the whole package: a pattern is one n-bit int from
`codec.window_patterns` on; a bucket, a fitness and a tree walk read only
that int.  Tuples remain for dependency-string segments, signatures and CA
cells: an n-bit 0/1 tuple packs to an int with tuple bit 0 most
significant, or is written as n ASCII '0'/'1' characters; (1, 0, 1, 1)
packs to 0b1011 and reads "1011".  Only `pack`, `unpack`, `bit_string` and
`parse_bits` convert between these.  Segment j of a dependency string
becomes a mask over the n pattern bits (its own bits in place, zeros
elsewhere), and signature bit j is the parity of `code & masks[j]`.  Only
0/1 bits pack; any other value raises ValueError instead of spilling into
a neighbouring bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

Bits = tuple[int, ...]

# byte value -> ASCII digit for 0 and 1, and 0xff (not UTF-8) for every
# other value, so decode() rejects it
_DIGITS = bytes(0x30 + v if v < 2 else 0xFF for v in range(256))
_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def bit_string(bits) -> str:
    """The '0'/'1' text of a 0/1 sequence, tuple bit 0 first."""
    bits = tuple(bits)  # bytes() of a buffer (an array) would copy its memory
    try:
        return bytes(bits).translate(_DIGITS).decode()
    except (ValueError, TypeError):
        raise ValueError(f"bits must be 0 or 1, got {bits}") from None


def pack(bits) -> int:
    """The packed int of a 0/1 sequence, tuple bit 0 most significant."""
    return int(bit_string(bits) or "0", 2)


def parse_bits(text: str) -> Bits:
    """The bits of an ASCII '0'/'1' text; any other character raises ValueError."""
    if not isinstance(text, str) or text.strip("01"):
        raise ValueError(f"bit text must hold only ASCII 0 or 1, got {text!r}")
    return tuple(text.encode().translate(_VALUES))


def unpack(value: int, n: int) -> Bits:
    """The n bits of `value`, most significant first: pack's inverse."""
    if value >> n:
        raise ValueError(f"{value} is not an unsigned {n}-bit value")
    return parse_bits(bin(value | 1 << n)[3:])  # 1 << n keeps leading zeros


def dv_is_valid(bits) -> bool:
    """A dependency vector is valid iff it has at least one 1 bit; an
    all-zero vector would collapse its two basins into one.  Bits other
    than 0 and 1 raise ValueError."""
    bits = tuple(bits)
    if len(bits) == 0:
        raise ValueError("dependency vector must be non-empty")
    return pack(bits) != 0


@dataclass(frozen=True)
class DependencyString:
    """Ordered nonzero dependency vectors covering an n-bit pattern."""

    segments: tuple[Bits, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("dependency string needs at least one segment")
        for seg in self.segments:
            if not dv_is_valid(seg):
                raise ValueError(f"invalid (all-zero) dependency vector {seg}")

    @property
    def n(self) -> int:
        return sum(len(s) for s in self.segments)

    @property
    def m(self) -> int:
        return len(self.segments)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """One packed mask per segment, over the whole n-bit pattern."""
        masks = []
        shift = self.n
        for seg in self.segments:
            shift -= len(seg)
            masks.append(pack(seg) << shift)
        return tuple(masks)

    def bit_strings(self) -> list[str]:
        return [bit_string(seg) for seg in self.segments]

    @classmethod
    def from_bit_strings(cls, strings) -> "DependencyString":
        return cls(tuple(parse_bits(s) for s in strings))


def _signature(masks, code: int) -> Bits:
    # the one signature kernel: bit j is the parity of code AND mask j
    return tuple([(code & mask).bit_count() & 1 for mask in masks])


def _check_code(code: int, n: int) -> None:
    if code >> n:  # also nonzero for every negative code
        raise ValueError(f"pattern {code} is not an unsigned {n}-bit code")


def basin_signature(ds: DependencyString, code: int) -> Bits:
    """Signature bit j = parity of (segment j AND the matching pattern bits)."""
    _check_code(code, ds.n)
    return _signature(ds.masks, code)


@dataclass(frozen=True)
class LabeledPattern:
    code: int
    label: str


def distribute(ds: DependencyString, patterns) -> dict[Bits, list[LabeledPattern]]:
    """Bucket patterns by basin signature; every pattern lands in exactly
    one bucket."""
    masks = ds.masks
    buckets: dict[Bits, list[LabeledPattern]] = {}
    for p in patterns:
        buckets.setdefault(_signature(masks, p.code), []).append(p)
    return buckets


def label_counts(patterns) -> dict[str, int]:
    # a plain dict loop: Counter() costs 2-4x more on the small buckets
    # deep in a tree, and fitness counts every bucket of every chromosome
    counts: dict[str, int] = {}
    for p in patterns:
        counts[p.label] = counts.get(p.label, 0) + 1
    return counts


def majority_label(patterns) -> str:
    """Most frequent label; ties broken by the smallest label."""
    counts = label_counts(patterns)
    return min(counts, key=lambda lab: (-counts[lab], lab))


@dataclass(frozen=True)
class TreeNode:
    """Internal nodes carry a dependency string and children keyed by
    signature; leaves carry only a label.  `majority` is the fallback for
    signatures never seen in training."""

    label: str
    ds: DependencyString | None = None
    children: dict[Bits, "TreeNode"] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.ds is None


@dataclass(frozen=True)
class TreeConfig:
    """Tree settings; `population_size` to `elitism_count` set the GA run at
    each impure node."""

    max_depth: int = 8
    min_samples: int = 2
    population_size: int = 30
    generations: int = 40
    crossover_rate: float = 0.9
    mutation_rate: float = 0.02
    elitism_count: int = 2
    # GA restarts at a node whose best split leaves everything in one basin
    split_retries: int = 5

    def __post_init__(self):
        # exact types: a bool is no int, and a rate may also be an int
        for f in fields(self):
            kind, value = type(f.default), getattr(self, f.name)
            if type(value) not in (int, kind):
                raise ValueError(
                    f"{f.name} must be {kind.__name__}, got {value!r}")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.split_retries < 1:
            raise ValueError("split_retries must be >= 1")
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        for name in ("crossover_rate", "mutation_rate"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 1 <= self.elitism_count < self.population_size:
            raise ValueError("need 1 <= elitism_count < population_size")


@dataclass(frozen=True)
class PsmacaTree:
    root: TreeNode
    n: int
    config: TreeConfig


def build_tree(training, n: int, config: TreeConfig | None = None,
               rng_seed: int = 0) -> PsmacaTree:
    """Recursively partition the training set of n-bit patterns.

    At each impure node a GA evolves a dependency string with
    m = ceil(log2 K') segments for the node's K' classes; pure buckets
    become leaves, impure ones recurse until max_depth or min_samples.
    """
    from . import ga  # deferred: ga imports this module's types

    config = config or TreeConfig()
    training = list(training)
    if not training:
        raise ValueError("training set must be non-empty")
    for p in training:
        _check_code(p.code, n)
    rng = random.Random(rng_seed)

    def grow(patterns: list[LabeledPattern], depth: int) -> TreeNode:
        majority = majority_label(patterns)
        classes = {p.label for p in patterns}
        if len(classes) == 1:
            return TreeNode(label=majority)
        if depth >= config.max_depth or len(patterns) < config.min_samples:
            return TreeNode(label=majority)

        m = min(max(1, math.ceil(math.log2(len(classes)))), n)
        buckets = None
        best = None
        for _ in range(config.split_retries):
            best, _ = ga.evolve_maca(patterns, n, m, config,
                                     rng.getrandbits(32))
            candidate = distribute(best.classifier1, patterns)
            if len(candidate) > 1:
                buckets = candidate
                break
        if buckets is None:
            # no chromosome separated this bucket at all
            return TreeNode(label=majority)

        children = {
            sig: grow(bucket, depth + 1)
            for sig, bucket in sorted(buckets.items())
        }
        return TreeNode(label=majority, ds=best.classifier1, children=children)

    return PsmacaTree(root=grow(training, 0), n=n, config=config)


def classify(tree: PsmacaTree, code: int) -> str:
    """Walk signatures of an n-bit pattern code from the root to a leaf.
    An unseen signature at an internal node falls back to that node's
    majority label."""
    _check_code(code, tree.n)
    node = tree.root
    while not node.is_leaf:
        child = node.children.get(_signature(node.ds.masks, code))
        if child is None:
            return node.label
        node = child
    return node.label


def tree_to_dict(tree: PsmacaTree) -> dict:
    """JSON-ready form of a tree (see harness docs for the model schema)."""

    def node_to_dict(node: TreeNode) -> dict:
        if node.is_leaf:
            return {"label": node.label}
        return {
            "label": node.label,
            "ds": node.ds.bit_strings(),
            "children": {
                bit_string(sig): node_to_dict(child)
                for sig, child in sorted(node.children.items())
            },
        }

    return {
        "n": tree.n,
        "config": asdict(tree.config),
        "root": node_to_dict(tree.root),
    }


def tree_from_dict(doc: dict) -> PsmacaTree:
    def node_from_dict(d: dict) -> TreeNode:
        if "ds" not in d:
            return TreeNode(label=d["label"])
        children = {
            parse_bits(sig): node_from_dict(child)
            for sig, child in d["children"].items()
        }
        return TreeNode(
            label=d["label"],
            ds=DependencyString.from_bit_strings(d["ds"]),
            children=children,
        )

    return PsmacaTree(
        root=node_from_dict(doc["root"]),
        n=doc["n"],
        config=TreeConfig(**doc["config"]),
    )
