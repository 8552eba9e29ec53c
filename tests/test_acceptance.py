"""Acceptance gate: one test per release criterion, each printing a
PASS line (visible with `pytest -s tests/test_acceptance.py`)."""

import random
import time

import numpy as np

from psmaca import ca, codec, dataio, ga, maca, pipeline
from psmaca.cli import run_cli
from psmaca.maca import DependencyString, LabeledPattern, TreeConfig

from tuple_bits import pack


def report(name):
    print(f"ACCEPTANCE: {name}: PASS")


def pointer_doubling_basins(graph):
    """Independent basin oracle: successor^(2^n) via pointer doubling lands
    every state on its cycle; states sharing a cycle share a basin."""
    total = 1 << graph.n
    f = list(graph.successor)
    for _ in range(graph.n):
        f = [f[f[s]] for s in range(total)]
    cycle_cache = {}

    def cycle_of(on_cycle_state):
        if on_cycle_state not in cycle_cache:
            cyc = [on_cycle_state]
            cur = graph.successor[on_cycle_state]
            while cur != on_cycle_state:
                cyc.append(cur)
                cur = graph.successor[cur]
            key = frozenset(cyc)
            for s in cyc:
                cycle_cache[s] = key
        return cycle_cache[on_cycle_state]

    basins = {}
    for s in range(total):
        basins.setdefault(cycle_of(f[s]), set()).add(s)
    return {cyc: frozenset(mem) for cyc, mem in basins.items()}


def test_criterion_1_rule_30_fidelity():
    rule = 30
    expected = {0b111: 0, 0b110: 0, 0b101: 0, 0b100: 1,
                0b011: 1, 0b010: 1, 0b001: 1, 0b000: 0}
    # the output for neighborhood h is the centre cell after one 3-cell step
    assert all(ca.successor(h, 3, rule) >> 1 & 1 == v
               for h, v in expected.items())
    rows = ca.evolve(0b00100, 5, rule, 2)
    assert ca.format_trajectory(rows, 5) == "00100\n01110\n11001"
    report("1 rule-30 fidelity")


def test_criterion_2_basin_oracle_equivalence():
    start = time.monotonic()
    for rule_number in range(256):
        for n in (4, 6, 8):
            for boundary in ca.BOUNDARIES:
                graph = ca.state_transition_graph(rule_number, n, boundary)
                got = {frozenset(b.attractor_cycle): b.members
                       for b in ca.attractor_basins(graph)}
                assert got == pointer_doubling_basins(graph), \
                    (rule_number, n, boundary)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(f"2 basin oracle equivalence ({elapsed:.1f}s)")


def test_criterion_3_equal_split():
    start = time.monotonic()
    rng = random.Random(0)
    for _ in range(1000):
        length = rng.randint(1, 12)
        value = rng.randrange(1, 1 << length)
        dv = tuple((value >> i) & 1 for i in range(length))
        ds = DependencyString(pack(dv), (length,))
        ones = sum(maca.basin_signature(ds, code) == 1
                   for code in range(1 << length))
        assert ones == 1 << (length - 1)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(f"3 equal-split property ({elapsed:.1f}s)")


def test_criterion_4_tree_purity():
    start = time.monotonic()
    config = TreeConfig(population_size=24, generations=30)
    n = 8
    for case in range(200):
        rng = random.Random(case)
        mask_value = rng.randrange(1, 1 << n)
        mask = tuple((mask_value >> i) & 1 for i in range(n))
        patterns = []
        for _ in range(40):
            p = tuple(rng.randint(0, 1) for _ in range(n))
            parity = sum(a & b for a, b in zip(p, mask)) & 1
            patterns.append(LabeledPattern(pack(p), str(parity)))
        tree = maca.build_tree(patterns, n, config, rng_seed=case)
        assert all(maca.classify(tree, p.code) == p.label for p in patterns), case
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(f"4 tree purity on 200 separable sets ({elapsed:.1f}s)")


def test_criterion_5_ga_monotone_and_deterministic():
    rng = random.Random(99)
    patterns = []
    for _ in range(30):
        p = tuple(rng.randint(0, 1) for _ in range(6))
        patterns.append(LabeledPattern(pack(p), str(p[0] ^ p[3])))
    for seed in range(50):
        cfg = TreeConfig(population_size=12, generations=12)
        best1, h1 = ga.evolve_maca(maca.pattern_set(patterns, 6), 2, cfg,
                                   seed)
        best2, h2 = ga.evolve_maca(maca.pattern_set(patterns, 6), 2, cfg,
                                   seed)
        assert all(a <= b for a, b in zip(h1.best, h1.best[1:])), seed
        assert best1 == best2, seed
        assert (h1.best, h1.mean) == (h2.best, h2.mean), seed
    report("5 GA monotonicity and determinism over 50 seeds")


def test_criterion_6_deconvolution_recovery():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    for _ in range(100):
        L = int(rng.integers(1, 17))
        taps = rng.uniform(-1, 1, L)
        x = rng.standard_normal(10 * L + int(rng.integers(0, 20)))
        y = np.convolve(x, taps)[: len(x)]
        f = pipeline.deconvolve(y, x, L, ridge=0.0)
        assert np.max(np.abs(np.array(f.taps) - taps)) <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(f"6 deconvolution recovery x100 ({elapsed:.1f}s)")


def test_criterion_7_encode_decode_round_trip():
    rng = random.Random(1)
    for _ in range(10000):
        s = "".join(rng.choice("HEC") for _ in range(rng.randint(1, 40)))
        assert codec.structure_decode(codec.structure_encode(s),
                                      "nearest_centroid") == s
    report("7 encode/decode round trip x10000")


def test_criterion_8_band_decoder_fidelity():
    assert codec.structure_decode([100.0], "paper_bands") == "H"
    assert codec.structure_decode([700.0], "paper_bands") == "E"
    assert codec.structure_decode([400.0], "paper_bands") == "C"
    report("8 band decoder fidelity")


def test_criterion_9_self_recall_end_to_end(tmp_path, capsys):
    dataset = dataio.make_impulse_dataset(8, 9, seed=0)
    data = tmp_path / "train.txt"
    data.write_text(dataio.dataset_to_paired_text(dataset))
    model = tmp_path / "model.json"
    assert run_cli(["train", "--data", str(data), "--window", "3",
                    "--out", str(model), "--seed", "0",
                    "--population", "15", "--generations", "15"]) == 0
    report_path = tmp_path / "report.tsv"
    assert run_cli(["evaluate", "--model", str(model), "--data", str(data),
                    "--report", str(report_path), "--pipeline"]) == 0
    lines = report_path.read_text().strip().splitlines()
    # every record is its own base: exact recovery across the board
    for line in lines[1:]:
        assert line.split("\t")[1] == "100.00", line
    capsys.readouterr()
    report("9 end-to-end self-recall q3=100.0")


def test_criterion_10_comparison_table_shape(tmp_path, capsys):
    # the paper's benchmark accuracies are not reproducible (datasets are
    # unidentified); the deliverable is the comparison-table skeleton
    dataset = dataio.make_impulse_dataset(4, 9, seed=1)
    data = tmp_path / "train.txt"
    data.write_text(dataio.dataset_to_paired_text(dataset))
    model = tmp_path / "model.json"
    assert run_cli(["train", "--data", str(data), "--window", "3",
                    "--out", str(model), "--seed", "1",
                    "--population", "10", "--generations", "10"]) == 0
    cmp_path = tmp_path / "cmp.tsv"
    assert run_cli(["evaluate", "--model", str(model), "--data", str(data),
                    "--report", str(tmp_path / "r.tsv"),
                    "--comparison", str(cmp_path)]) == 0
    lines = cmp_path.read_text().strip().splitlines()
    assert lines[0].startswith("method\t")
    methods = [line.split("\t")[0] for line in lines[1:]]
    assert methods == ["DSP", "PHD", "SAM-T99", "SSPro", "PSMACA"]
    assert lines[-1].split("\t")[1] != "NA"
    capsys.readouterr()
    report("10 comparison table shape (benchmark accuracies not reproducible)")
