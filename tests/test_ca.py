import pytest

from psmaca import ca
from psmaca.maca import pack, unpack


def per_cell_step(cells, rule, boundary):
    """The per-cell update loop `ca.step` ran before the packed successor,
    kept as the oracle."""
    n = len(cells)
    out = []
    for i in range(n):
        if boundary == "periodic":
            left = cells[(i - 1) % n]
            right = cells[(i + 1) % n]
        else:
            left = cells[i - 1] if i > 0 else 0
            right = cells[i + 1] if i < n - 1 else 0
        out.append(rule.outputs[(left << 2) | (cells[i] << 1) | right])
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


class TestRuleTable:
    def test_rule_30_matches_published_table(self):
        table = ca.rule_from_number(30)
        expected = {0b111: 0, 0b110: 0, 0b101: 0, 0b100: 1,
                    0b011: 1, 0b010: 1, 0b001: 1, 0b000: 0}
        for hood, out in expected.items():
            assert table.outputs[hood] == out

    def test_rule_0_all_zero(self):
        assert ca.rule_from_number(0).outputs == (0,) * 8

    def test_rule_204_is_identity_on_center(self):
        table = ca.rule_from_number(204)
        for hood in range(8):
            assert table.outputs[hood] == (hood >> 1) & 1

    def test_round_trip_all_256(self):
        for r in range(256):
            assert ca.rule_number(ca.rule_from_number(r)) == r

    @pytest.mark.parametrize("bad", [-1, 256, 1000])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            ca.rule_from_number(bad)

    def test_malformed_table(self):
        with pytest.raises(ValueError):
            ca.RuleTable((0, 1))
        with pytest.raises(ValueError):
            ca.RuleTable((0, 1, 2, 0, 0, 0, 0, 0))


class TestStep:
    def test_rule_30_null_boundary(self):
        rule = ca.rule_from_number(30)
        assert ca.step((0, 0, 1, 0, 0), rule) == (0, 1, 1, 1, 0)
        assert ca.step((0, 1, 1, 1, 0), rule) == (1, 1, 0, 0, 1)

    def test_rule_0_kills_everything(self):
        rule = ca.rule_from_number(0)
        assert ca.step((1, 0, 1, 1), rule) == (0, 0, 0, 0)

    def test_periodic_wraps(self):
        # rule 2: only 001 -> 1, so a lone 1 shifts left under wrap
        rule = ca.rule_from_number(2)
        assert ca.step((1, 0, 0), rule, "periodic") == (0, 0, 1)
        assert ca.step((1, 0, 0), rule, "null") == (0, 0, 0)

    @pytest.mark.parametrize("boundary", ca.BOUNDARIES)
    def test_matches_per_cell_loop(self, boundary):
        # every rule, width and state; the graph uses the same successor
        for number in range(256):
            rule = ca.rule_from_number(number)
            for n in range(1, 9):
                graph = ca.state_transition_graph(rule, n, boundary)
                for s in range(1 << n):
                    expected = per_cell_step(unpack(s, n), rule, boundary)
                    assert ca.step(unpack(s, n), rule, boundary) == expected
                    assert graph.successor[s] == pack(expected)

    @pytest.mark.parametrize("cells", [(2,), (0, -1, 0)])
    def test_non_binary_cell_rejected(self, cells):
        # the per-cell loop read these as neighborhoods 4 and 7 (-1)
        with pytest.raises(ValueError, match="0 or 1"):
            ca.step(cells, ca.rule_from_number(30))

    def test_bad_boundary(self):
        with pytest.raises(ValueError):
            ca.step((1, 0), ca.rule_from_number(30), "reflect")


class TestEvolve:
    def test_zero_steps(self):
        rule = ca.rule_from_number(30)
        assert ca.evolve((1, 0, 1), rule, 0) == [(1, 0, 1)]

    def test_rule_30_triangle(self):
        rule = ca.rule_from_number(30)
        rows = ca.evolve((0, 0, 1, 0, 0), rule, 2)
        assert rows == [(0, 0, 1, 0, 0), (0, 1, 1, 1, 0), (1, 1, 0, 0, 1)]
        assert ca.format_trajectory(rows) == "00100\n01110\n11001"

    def test_identity_rule_is_constant(self):
        rule = ca.rule_from_number(204)
        rows = ca.evolve((1, 0, 1, 1), rule, 5)
        assert all(row == (1, 0, 1, 1) for row in rows)

    def test_negative_steps(self):
        with pytest.raises(ValueError):
            ca.evolve((1,), ca.rule_from_number(30), -1)

    def test_deterministic(self):
        rule = ca.rule_from_number(110)
        start = (0, 1, 1, 0, 1, 0, 0, 1)
        assert ca.evolve(start, rule, 10) == ca.evolve(start, rule, 10)


class TestStateTransitionGraph:
    def test_rule_0_maps_all_to_zero(self):
        g = ca.state_transition_graph(ca.rule_from_number(0), 2)
        assert g.successor == (0, 0, 0, 0)

    def test_rule_204_is_identity(self):
        g = ca.state_transition_graph(ca.rule_from_number(204), 3)
        assert g.successor == tuple(range(8))

    def test_rule_90_periodic_is_neighbor_xor(self):
        n = 4
        g = ca.state_transition_graph(ca.rule_from_number(90), n, "periodic")
        for s in range(16):
            cells = unpack(s, n)
            expected = tuple(cells[(i - 1) % n] ^ cells[(i + 1) % n]
                             for i in range(n))
            assert g.successor[s] == pack(expected)

    def test_width_guard(self):
        rule = ca.rule_from_number(30)
        with pytest.raises(ValueError):
            ca.state_transition_graph(rule, 0)
        with pytest.raises(ValueError):
            ca.state_transition_graph(rule, 21)


class TestAttractorBasins:
    def test_rule_0_single_basin(self):
        g = ca.state_transition_graph(ca.rule_from_number(0), 4)
        basins = ca.attractor_basins(g)
        assert len(basins) == 1
        assert basins[0].attractor_cycle == (0,)
        assert len(basins[0].members) == 16

    def test_rule_204_all_fixed_points(self):
        g = ca.state_transition_graph(ca.rule_from_number(204), 4)
        basins = ca.attractor_basins(g)
        assert len(basins) == 16
        assert all(b.members == frozenset(b.attractor_cycle) for b in basins)

    def test_rule_90_matches_brute_force(self):
        g = ca.state_transition_graph(ca.rule_from_number(90), 4, "null")
        assert as_comparable(ca.attractor_basins(g)) == brute_force_basins(g)

    @pytest.mark.parametrize("rule", [0, 30, 90, 110, 150, 204, 255])
    @pytest.mark.parametrize("boundary", ca.BOUNDARIES)
    def test_basins_partition_state_space(self, rule, boundary):
        for n in (3, 5, 8):
            g = ca.state_transition_graph(ca.rule_from_number(rule), n, boundary)
            basins = ca.attractor_basins(g)
            union = set()
            for b in basins:
                assert b.members.isdisjoint(union)
                assert set(b.attractor_cycle) <= b.members
                union |= b.members
            assert union == set(range(1 << n))

    def test_every_state_reaches_its_cycle(self):
        g = ca.state_transition_graph(ca.rule_from_number(110), 6)
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
