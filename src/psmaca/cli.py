"""Command-line harness.

Subcommands: simulate (CA space-time grid), basins (attractor enumeration),
train (evolve a classifier tree from paired data), predict (tree or signal
pipeline), evaluate (Q3 report TSV/JSON plus a comparison-table skeleton).

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import ca, dataio, maca
from .codec import DECODE_MODES, RESIDUE_BITS, check_window, window_patterns
from .pipeline import PipelineConfig, predict_structure, prepare_bases

# train flag -> TreeConfig field; each flag's default is the field's
_TREE_FLAGS = {
    "--population": "population_size",
    "--generations": "generations",
    "--crossover-rate": "crossover_rate",
    "--mutation-rate": "mutation_rate",
    "--elitism": "elitism_count",
    "--max-depth": "max_depth",
    "--min-samples": "min_samples",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # a flag is spelled whole: a prefix would pass for another flag
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="psmaca", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    automaton = argparse.ArgumentParser(add_help=False)
    automaton.add_argument("--rule", type=int, required=True)
    automaton.add_argument("--width", type=int, required=True)
    automaton.add_argument("--boundary", choices=ca.BOUNDARIES, default="null")

    routed = argparse.ArgumentParser(add_help=False)
    routed.add_argument("--model", required=True)
    routed.add_argument("--pipeline", action="store_true",
                        help="use the signal pipeline instead of the tree")
    routed.add_argument("--train-data", default=None,
                        help="paired training data for --pipeline")
    routed.add_argument("--no-verify", action="store_true",
                        help="skip training-data fingerprint verification")
    routed.add_argument("--mode", choices=DECODE_MODES, default=None,
                        help="band decode mode for --pipeline")

    p = sub.add_parser("simulate", parents=[automaton],
                       help="print a CA space-time grid")
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(run=cmd_simulate)

    p = sub.add_parser("basins", parents=[automaton],
                       help="print attractor cycles and basin sizes")
    p.set_defaults(run=cmd_basins)

    p = sub.add_parser("train", help="train a classifier tree on paired data")
    p.add_argument("--data", required=True)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    for flag, name in _TREE_FLAGS.items():
        default = maca.TreeConfig._field_defaults[name]
        p.add_argument(flag, dest=name, type=type(default), default=default)
    p.add_argument("--filter-length", type=int,
                   default=PipelineConfig._field_defaults["filter_length"])
    p.set_defaults(run=cmd_train)

    p = sub.add_parser("predict", parents=[routed],
                       help="predict structures for FASTA input")
    p.add_argument("--fasta", required=True)
    p.set_defaults(run=cmd_predict)

    p = sub.add_parser("evaluate", parents=[routed],
                       help="Q3 report against labeled data")
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True, help="per-record Q3 TSV path")
    p.add_argument("--json", dest="json_out", default=None)
    p.add_argument("--comparison", default=None,
                   help="write a method-comparison table skeleton here")
    p.set_defaults(run=cmd_evaluate)
    return parser


def cmd_simulate(args) -> int:
    if args.width < 1:
        raise ValueError(f"width must be >= 1, got {args.width}")
    start = 1 << (args.width - 1 - args.width // 2)
    rows = ca.evolve(start, args.width, args.rule, args.steps, args.boundary)
    print(ca.format_trajectory(rows, args.width))
    return 0


def cmd_basins(args) -> int:
    graph = ca.state_transition_graph(args.rule, args.width, args.boundary)
    for basin in ca.attractor_basins(graph):
        cycle = " -> ".join(format(s, f"0{args.width}b")
                            for s in basin.attractor_cycle)
        print(f"cycle [{cycle}] basin size {len(basin.members)}")
    return 0


def _tree_config(args) -> maca.TreeConfig:
    return maca.TreeConfig(**{name: getattr(args, name)
                              for name in _TREE_FLAGS.values()})


def _file_key(path: str):
    # an existing file is its inode, so a hard link matches it too
    try:
        stat = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return stat.st_dev, stat.st_ino


def _check_outputs(outputs, inputs) -> None:
    """Check the (flag, path) outputs before any file is read: a path that
    cannot take its output, or that names the same file as an input or
    another output, fails now, not after the work."""
    taken = {_file_key(path): flag
             for flag, path in inputs if path is not None}
    for flag, path in outputs:
        if path is None:
            continue
        folder, name = os.path.split(path)
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path} is a directory")
        if not name:
            raise ValueError(f"{flag} {path!r} names no file")
        if not os.path.isdir(folder or "."):
            raise ValueError(f"{flag} {path}: no directory {folder}")
        key = _file_key(path)
        if key in taken:
            raise ValueError(f"{flag} {path} is the same file as "
                             f"{taken[key]}")
        taken[key] = flag


def cmd_train(args) -> int:
    check_window(args.window)
    maca._check_seed(args.seed)
    config = _tree_config(args)
    pipeline = PipelineConfig(filter_length=args.filter_length)
    _check_outputs([("--out", args.out)], [("--data", args.data)])
    text = dataio.read_text(args.data)
    pairs = [pair for record in dataio.parse_paired(text)
             for pair in zip(window_patterns(record.sequence, args.window),
                             record.structure)]
    tree = maca.build_tree(pairs, RESIDUE_BITS * args.window, config,
                           rng_seed=args.seed)
    model = dataio.ModelFile(
        tree=tree,
        window=args.window,
        pipeline=pipeline,
        seed=args.seed,
        training_fingerprint=dataio.fingerprint(text),
    )
    dataio.save_model(model, args.out)
    print(f"wrote model to {args.out}")
    return 0


def _load_training(model, path, no_verify):
    text = dataio.read_text(path)
    if not no_verify and dataio.fingerprint(text) != model.training_fingerprint:
        raise dataio.ParseError(
            f"training data {path} does not match the model's fingerprint "
            "(pass --no-verify to override)")
    return dataio.parse_paired(text)


def _route(args, base_file, outputs=(), inputs=()):
    """Check the route flags and the (flag, path) outputs against the
    inputs, load the model, and return its route as a
    `record -> (structure, notes)` function: the tree, or the signal
    pipeline over the bases of `base_file`, prepared here once, so a
    training set without a usable base fails before any target is read.
    A record that fails is named."""
    # flags that only the signal route reads would be ignored by the tree
    for flag, given in (("--mode", args.mode is not None),
                        ("--train-data", args.train_data is not None),
                        ("--no-verify", args.no_verify)):
        if given and not args.pipeline:
            raise UsageError(f"{flag} requires --pipeline")
    if args.pipeline and base_file is None:
        raise UsageError("--pipeline requires --train-data")
    _check_outputs(outputs, inputs)
    model = dataio.load_model(args.model)
    if not args.pipeline:
        def predict(sequence):
            # maca.classify is looked up per record, so a wrapper installed
            # on it after the model loads still sees every window
            codes = window_patterns(sequence, model.window)
            return ("".join(map(partial(maca.classify, model.tree), codes)),
                    ["method: tree"])
    else:
        bases = prepare_bases(
            _load_training(model, base_file, args.no_verify), model.pipeline)
        mode = args.mode or DECODE_MODES[0]

        def predict(sequence):
            result = predict_structure(sequence, bases, mode)
            return result.predicted, [
                f"method: pipeline base={result.base_id} "
                f"similarity={result.similarity_score:.4f}"]

    def route(record):
        try:
            return predict(record.sequence)
        except ValueError as e:
            raise ValueError(f"record {record.id!r}: {e}") from e
    return route


def cmd_predict(args) -> int:
    route = _route(args, args.train_data)
    blocks = []
    for record in dataio.parse_fasta(dataio.read_text(args.fasta)):
        predicted, notes = route(record)
        blocks.append(dataio.format_paired(
            dataio.ProteinRecord(record.id, record.sequence, predicted),
            annotations=notes))
    print("\n".join(blocks), end="")
    return 0


def cmd_evaluate(args) -> int:
    if args.comparison:  # the table's header names --data
        dataio.tsv_cell(args.data, "--data")
    # a bad output path fails now, before any record is predicted
    route = _route(args, args.train_data or args.data, outputs=(
        ("--report", args.report), ("--json", args.json_out),
        ("--comparison", args.comparison)), inputs=(
        ("--model", args.model), ("--data", args.data),
        ("--train-data", args.train_data)))
    records = dataio.parse_paired(dataio.read_text(args.data))
    if any(record.id == dataio.TOTAL_ID for record in records):
        raise ValueError(f"record {dataio.TOTAL_ID!r} in {args.data} has the "
                         "id of the report's total row")
    rows = [dataio.q3(route(record)[0], record.structure, record.id)
            for record in records]
    report = dataio.aggregate_metrics(rows)
    dataio.write_text(args.report, dataio.metrics_tsv(report))
    if args.json_out:
        dataio.write_text(args.json_out, dataio.metrics_json(report))
    if args.comparison:
        dataio.write_text(args.comparison,
                          dataio.comparison_tsv(args.data, report.total.q3))
    # Q3 says what it measures: recall of the evaluated records, or a
    # prediction against a separate base set
    route_note = ""
    if args.pipeline:
        route_note = (f" (bases from {args.train_data})" if args.train_data
                      else " (self-recall: each record is its own base)")
    print(f"q3 {report.total.q3:.2f} over {len(rows)} records{route_note}; "
          f"report at {args.report}")
    return 0


def run_cli(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:  # ParseError, ModelFormatError too
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # invariant violation
        print(f"internal error: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
