import re

import pytest

from psmaca import ca

from tuple_bits import pack, unpack


def per_cell_step(cells, rule, boundary):
    """The per-cell update loop the CA ran on 0/1 tuples before the packed
    successor, kept as the oracle."""
    n = len(cells)
    out = []
    for i in range(n):
        if boundary == "periodic":
            left = cells[(i - 1) % n]
            right = cells[(i + 1) % n]
        else:
            left = cells[i - 1] if i > 0 else 0
            right = cells[i + 1] if i < n - 1 else 0
        out.append(rule >> ((left << 2) | (cells[i] << 1) | right) & 1)
    return tuple(out)


def brute_force_basins(graph):
    """Independent oracle: walk from every state until a revisit, extract
    the cycle, group states by cycle."""
    total = 1 << graph.n
    groups = {}
    for s in range(total):
        seen = set()
        cur = s
        while cur not in seen:
            seen.add(cur)
            cur = graph.successor[cur]
        cycle = [cur]
        nxt = graph.successor[cur]
        while nxt != cur:
            cycle.append(nxt)
            nxt = graph.successor[nxt]
        groups.setdefault(frozenset(cycle), set()).add(s)
    return {cyc: frozenset(mem) for cyc, mem in groups.items()}


def as_comparable(basins):
    return {frozenset(b.attractor_cycle): b.members for b in basins}


def output(rule, hood):
    """The rule's output for a 3-bit neighborhood, read off the centre cell
    of one 3-cell step (the null boundary pads the ends with 0)."""
    return ca.successor(hood, 3, rule) >> 1 & 1


# each CA entry point, called once with a given rule; evolve takes no step,
# so it must check the rule itself
ENTRY_POINTS = {
    "successor": lambda rule: ca.successor(0b010, 3, rule),
    "evolve": lambda rule: ca.evolve(0b010, 3, rule, 0),
    "state_transition_graph": lambda rule: ca.state_transition_graph(rule, 3),
}


class TestRuleTable:
    """A rule is its Wolfram number: bit b is the output for neighborhood b."""

    def test_rule_30_matches_published_table(self):
        expected = {0b111: 0, 0b110: 0, 0b101: 0, 0b100: 1,
                    0b011: 1, 0b010: 1, 0b001: 1, 0b000: 0}
        for hood, out in expected.items():
            assert output(30, hood) == out

    def test_rule_0_all_zero(self):
        assert [output(0, hood) for hood in range(8)] == [0] * 8

    def test_rule_204_is_identity_on_center(self):
        for hood in range(8):
            assert output(204, hood) == (hood >> 1) & 1

    def test_round_trip_all_256(self):
        # the output for neighborhood b is bit b of the rule number
        for r in range(256):
            assert sum(output(r, b) << b for b in range(8)) == r

    @pytest.mark.parametrize("bad", [-1, 256, 1000])
    def test_out_of_range(self, bad):
        message = f"rule number must be in [0, 255], got {bad}"
        for call in ENTRY_POINTS.values():
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(bad)

    def test_malformed_table(self):
        # an 8-tuple of outputs is no rule number
        with pytest.raises(ValueError):
            ca.successor(0b010, 3, (0, 1))
        with pytest.raises(ValueError):
            ca.successor(0b010, 3, (0, 1, 1, 1, 1, 0, 0, 0))

    @pytest.mark.parametrize("bad", [True, 30.0])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_not_an_exact_int(self, entry, bad):
        message = f"rule number must be in [0, 255], got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ENTRY_POINTS[entry](bad)


class TestStep:
    def test_rule_30_null_boundary(self):
        rule = 30
        assert ca.successor(0b00100, 5, rule) == 0b01110
        assert ca.successor(0b01110, 5, rule) == 0b11001

    def test_rule_0_kills_everything(self):
        rule = 0
        assert ca.successor(0b1011, 4, rule) == 0b0000

    def test_periodic_wraps(self):
        # rule 2: only 001 -> 1, so a lone 1 shifts left under wrap
        rule = 2
        assert ca.successor(0b100, 3, rule, "periodic") == 0b001
        assert ca.successor(0b100, 3, rule, "null") == 0b000

    @pytest.mark.parametrize("boundary", ca.BOUNDARIES)
    def test_matches_per_cell_loop(self, boundary):
        # every rule, width and state; the graph uses the same successor
        for rule in range(256):
            for n in range(1, 9):
                graph = ca.state_transition_graph(rule, n, boundary)
                for s in range(1 << n):
                    expected = pack(per_cell_step(unpack(s, n), rule, boundary))
                    assert ca.evolve(s, n, rule, 1, boundary) == [s, expected]
                    assert graph.successor[s] == expected

    @pytest.mark.parametrize("cells", [(2,), (0, -1, 0)])
    def test_non_binary_cell_rejected(self, cells):
        # the per-cell loop read these as neighborhoods 4 and 7 (-1); shifted
        # into an int state they spill past n bits (2) or go negative (-2)
        state = 0
        for cell in cells:
            state = state << 1 | cell
        with pytest.raises(ValueError, match=f"unsigned {len(cells)}-bit"):
            ca.evolve(state, len(cells), 30, 1)

    def test_bad_boundary(self):
        message = re.escape(f"boundary must be one of {ca.BOUNDARIES}, "
                            "got 'reflect'")
        for call in (lambda: ca.successor(0b10, 2, 30, "reflect"),
                     lambda: ca.evolve(0b10, 2, 30, 1, "reflect"),
                     # no step is taken, but the boundary is still checked
                     lambda: ca.evolve(0b10, 2, 30, 0, "reflect"),
                     lambda: ca.state_transition_graph(30, 2, "reflect")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()


class TestEvolve:
    def test_zero_steps(self):
        rule = 30
        assert ca.evolve(0b101, 3, rule, 0) == [0b101]

    def test_rule_30_triangle(self):
        rule = 30
        rows = ca.evolve(0b00100, 5, rule, 2)
        assert rows == [0b00100, 0b01110, 0b11001]
        assert ca.format_trajectory(rows, 5) == "00100\n01110\n11001"

    def test_identity_rule_is_constant(self):
        rule = 204
        rows = ca.evolve(0b1011, 4, rule, 5)
        assert rows == [0b1011] * 6

    def test_negative_steps(self):
        with pytest.raises(ValueError):
            ca.evolve(0b1, 1, 30, -1)

    @pytest.mark.parametrize("state, n", [(-1, 3), (0b1000, 3), (0, 0)],
                             ids=["negative", "one-bit-too-wide", "no-cells"])
    def test_state_outside_n_bits_rejected(self, state, n):
        with pytest.raises(ValueError, match="3-bit|at least one cell"):
            ca.evolve(state, n, 30, 1)

    @pytest.mark.parametrize("state, n", [(-1, 3), (0b1000, 3), (0, 0)],
                             ids=["negative", "one-bit-too-wide", "no-cells"])
    def test_successor_checks_as_evolve_does(self, state, n):
        # bit 3 of 0b1000 must not spill into cell 2 of a 3-cell step
        with pytest.raises(ValueError) as expected:
            ca.evolve(state, n, 30, 1)
        message = re.escape(str(expected.value))
        with pytest.raises(ValueError, match=f"^{message}$"):
            ca.successor(state, n, 30)

    @pytest.mark.parametrize("row", [0b1000, -1])
    def test_format_rejects_row_outside_n_bits(self, row):
        with pytest.raises(ValueError,
                           match=f"^{row} is not an unsigned 3-bit value$"):
            ca.format_trajectory([0b010, row], 3)

    def test_deterministic(self):
        rule = 110
        start = 0b01101001
        assert ca.evolve(start, 8, rule, 10) == ca.evolve(start, 8, rule, 10)


class TestStateTransitionGraph:
    def test_rule_0_maps_all_to_zero(self):
        g = ca.state_transition_graph(0, 2)
        assert g.successor == (0, 0, 0, 0)

    def test_rule_204_is_identity(self):
        g = ca.state_transition_graph(204, 3)
        assert g.successor == tuple(range(8))

    def test_successor_map_must_cover_every_state(self):
        for build in (lambda: ca.StateTransitionGraph(2, (0, 1, 2)),
                      lambda: ca.StateTransitionGraph._make((2, (0, 1, 2))),
                      lambda: ca.state_transition_graph(204, 2)._replace(n=3)):
            with pytest.raises(ValueError, match="all 2\\^n states"):
                build()

    def test_rule_90_periodic_is_neighbor_xor(self):
        n = 4
        g = ca.state_transition_graph(90, n, "periodic")
        for s in range(16):
            cells = unpack(s, n)
            expected = tuple(cells[(i - 1) % n] ^ cells[(i + 1) % n]
                             for i in range(n))
            assert g.successor[s] == pack(expected)

    def test_width_guard(self):
        rule = 30
        with pytest.raises(ValueError):
            ca.state_transition_graph(rule, 0)
        with pytest.raises(ValueError):
            ca.state_transition_graph(rule, 21)


class TestAttractorBasins:
    def test_rule_0_single_basin(self):
        g = ca.state_transition_graph(0, 4)
        basins = ca.attractor_basins(g)
        assert len(basins) == 1
        assert basins[0].attractor_cycle == (0,)
        assert len(basins[0].members) == 16

    def test_rule_204_all_fixed_points(self):
        g = ca.state_transition_graph(204, 4)
        basins = ca.attractor_basins(g)
        assert len(basins) == 16
        assert all(b.members == frozenset(b.attractor_cycle) for b in basins)

    def test_rule_90_matches_brute_force(self):
        g = ca.state_transition_graph(90, 4, "null")
        assert as_comparable(ca.attractor_basins(g)) == brute_force_basins(g)

    @pytest.mark.parametrize("rule", [0, 30, 90, 110, 150, 204, 255])
    @pytest.mark.parametrize("boundary", ca.BOUNDARIES)
    def test_basins_partition_state_space(self, rule, boundary):
        for n in (3, 5, 8):
            g = ca.state_transition_graph(rule, n, boundary)
            basins = ca.attractor_basins(g)
            union = set()
            for b in basins:
                assert b.members.isdisjoint(union)
                assert set(b.attractor_cycle) <= b.members
                union |= b.members
            assert union == set(range(1 << n))

    def test_every_state_reaches_its_cycle(self):
        g = ca.state_transition_graph(110, 6)
        basins = ca.attractor_basins(g)
        cycle_of = {}
        for b in basins:
            for s in b.members:
                cycle_of[s] = set(b.attractor_cycle)
        for s in range(1 << 6):
            cur = s
            for _ in range(1 << 6):
                if cur in cycle_of[s]:
                    break
                cur = g.successor[cur]
            assert cur in cycle_of[s]
