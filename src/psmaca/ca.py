"""Elementary 1-D cellular automaton engine.

Radius-1 binary rules, each its Wolfram number: bit b of the rule is the
output for neighborhood b, read as a 3-bit number (left, center, right),
from 111 (bit 7) down to 000 (bit 0).  Lattice evolution with null or
periodic boundaries, exhaustive state-transition graphs and attractor-basin
enumeration for small lattice widths.  A graph and a basin are `NamedTuple`
records; a graph checks that it covers every state (`record.checked`).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .maca import _check_code
from .record import checked

BOUNDARIES = ("null", "periodic")

# Widths above this make the 2^n state-transition graph too big to enumerate.
MAX_STG_WIDTH = 20


def _check_rule(rule) -> None:
    if type(rule) is not int or not 0 <= rule <= 255:
        raise ValueError(f"rule number must be in [0, 255], got {rule!r}")


def _periodic(boundary) -> bool:
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")
    return boundary == "periodic"


def _step(state: int, n: int, rule: int, periodic: bool) -> int:
    """`successor` on arguments its callers have checked."""
    # ext >> p & 7 is the neighborhood of the cell at state bit p; the end
    # bits of ext are 0 (null) or the wrapped end cells (periodic)
    ext = state << 1
    if periodic:
        ext |= state >> (n - 1) | (state & 1) << (n + 1)
    out = 0
    for p in range(n):
        out |= (rule >> (ext >> p & 7) & 1) << p
    return out


def successor(state: int, n: int, rule: int, boundary: str = "null") -> int:
    """One synchronous update of an n-cell state, cell 0 its most
    significant bit, under Wolfram rule number `rule`.  Null boundary reads
    missing neighbors as 0; periodic wraps."""
    return evolve(state, n, rule, 1, boundary)[1]


def evolve(state: int, n: int, rule: int, steps: int,
           boundary: str = "null") -> list[int]:
    """Iterate `successor` from an n-cell state, returning the trajectory
    [start, ..., after `steps`]."""
    _check_rule(rule)
    if n < 1:
        raise ValueError("configuration must have at least one cell")
    _check_code(state, n)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    periodic = _periodic(boundary)
    rows = [state]
    for _ in range(steps):
        rows.append(_step(rows[-1], n, rule, periodic))
    return rows


@checked
class StateTransitionGraph(NamedTuple):
    """Deterministic successor map over all 2^n lattice states."""

    n: int
    successor: tuple[int, ...]

    def _check(self):
        if len(self.successor) != 1 << self.n:
            raise ValueError("successor map must cover all 2^n states")


class AttractorBasin(NamedTuple):
    """One attractor cycle together with every state that flows into it."""

    attractor_cycle: tuple[int, ...]
    members: frozenset[int]


def state_transition_graph(rule: int, n: int,
                           boundary: str = "null") -> StateTransitionGraph:
    """Enumerate the successor of every n-cell state (n <= 20)."""
    _check_rule(rule)
    if not 1 <= n <= MAX_STG_WIDTH:
        raise ValueError(f"width must be in [1, {MAX_STG_WIDTH}], got {n}")
    periodic = _periodic(boundary)
    succ = tuple(_step(s, n, rule, periodic) for s in range(1 << n))
    return StateTransitionGraph(n, succ)


def attractor_basins(graph: StateTransitionGraph) -> list[AttractorBasin]:
    """Partition the state space into attractor basins.

    Walks each unvisited state until it meets either its own path (a new
    cycle) or an already-classified state, then labels the whole path.
    Basins are returned ordered by their smallest cycle state.
    """
    total = 1 << graph.n
    basin_of = [-1] * total  # state -> basin index; -2 on the current walk
    cycles: list[tuple[int, ...]] = []

    for start in range(total):
        path = []
        s = start
        while basin_of[s] == -1:
            basin_of[s] = -2
            path.append(s)
            s = graph.successor[s]
        if basin_of[s] == -2:
            # new cycle: the path tail from the first revisit onward
            cycle = path[path.index(s):]
            # canonical rotation: start at the smallest state
            k = cycle.index(min(cycle))
            cycles.append(tuple(cycle[k:] + cycle[:k]))
            idx = len(cycles) - 1
        else:
            idx = basin_of[s]
        for state in path:
            basin_of[state] = idx

    members: list[set[int]] = [set() for _ in cycles]
    for state, idx in enumerate(basin_of):
        members[idx].add(state)
    basins = [
        AttractorBasin(cycle, frozenset(member))
        for cycle, member in zip(cycles, members)
    ]
    basins.sort(key=lambda b: b.attractor_cycle[0])
    return basins


def format_trajectory(rows: Iterable[int], n: int) -> str:
    """Render n-cell states as '0'/'1' text rows, one line per step."""
    return "\n".join(format(_check_code(s, n), f"0{n}b") for s in rows)
