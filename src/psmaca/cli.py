"""Command-line harness.

Subcommands: simulate (CA space-time grid), basins (attractor enumeration),
train (evolve a classifier tree from paired data), predict (tree or signal
pipeline), evaluate (Q3 report TSV/JSON plus a comparison-table skeleton).

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import ca, dataio, maca
from .codec import DECODE_MODES, RESIDUE_BITS, window_patterns
from .pipeline import PipelineConfig, predict_structure

# train flag -> TreeConfig field; each flag's default is the field's.  The
# GA fields, with --seed, are also the model's ga_config block.
_GA_FLAGS = {
    "--population": "population_size",
    "--generations": "generations",
    "--crossover-rate": "crossover_rate",
    "--mutation-rate": "mutation_rate",
    "--elitism": "elitism_count",
}
_TREE_FLAGS = {**_GA_FLAGS, "--max-depth": "max_depth",
               "--min-samples": "min_samples"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="psmaca", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="print a CA space-time grid")
    p.add_argument("--rule", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--boundary", choices=ca.BOUNDARIES, default="null")

    p = sub.add_parser("basins", help="print attractor cycles and basin sizes")
    p.add_argument("--rule", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--boundary", choices=ca.BOUNDARIES, default="null")

    p = sub.add_parser("train", help="train a classifier tree on paired data")
    p.add_argument("--data", required=True)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    for flag, name in _TREE_FLAGS.items():
        default = getattr(maca.TreeConfig, name)
        p.add_argument(flag, dest=name, type=type(default), default=default)
    p.add_argument("--filter-length", type=int,
                   default=PipelineConfig.filter_length)

    p = sub.add_parser("predict", help="predict structures for FASTA input")
    p.add_argument("--model", required=True)
    p.add_argument("--fasta", required=True)
    p.add_argument("--pipeline", action="store_true",
                   help="use the signal pipeline instead of the tree")
    p.add_argument("--mode", choices=DECODE_MODES, default=None,
                   help="band decode mode for --pipeline")
    p.add_argument("--train-data", default=None,
                   help="paired training data (required with --pipeline)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip training-data fingerprint verification")

    p = sub.add_parser("evaluate", help="Q3 report against labeled data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True, help="per-record Q3 TSV path")
    p.add_argument("--json", dest="json_out", default=None)
    p.add_argument("--comparison", default=None,
                   help="write a method-comparison table skeleton here")
    p.add_argument("--pipeline", action="store_true")
    p.add_argument("--train-data", default=None)
    p.add_argument("--no-verify", action="store_true")
    return parser


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise dataio.ParseError(f"cannot read {path}: {e.strerror}") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cmd_simulate(args) -> int:
    rule = ca.rule_from_number(args.rule)
    if args.width < 1:
        raise UsageError("--width must be >= 1")
    cells = tuple(1 if i == args.width // 2 else 0 for i in range(args.width))
    rows = ca.evolve(cells, rule, args.steps, args.boundary)
    print(ca.format_trajectory(rows))
    return 0


def cmd_basins(args) -> int:
    rule = ca.rule_from_number(args.rule)
    graph = ca.state_transition_graph(rule, args.width, args.boundary)
    for basin in ca.attractor_basins(graph):
        cycle = " -> ".join(maca.bit_string(maca.unpack(s, args.width))
                            for s in basin.attractor_cycle)
        print(f"cycle [{cycle}] basin size {len(basin.members)}")
    return 0


def _training_patterns(records, window: int):
    patterns = []
    for record in records:
        if record.structure is None:
            raise dataio.ParseError(f"record {record.id!r} has no structure")
        for code, label in zip(window_patterns(record.sequence, window),
                               record.structure):
            patterns.append(maca.LabeledPattern(code, label))
    return patterns


def _tree_config(args) -> maca.TreeConfig:
    return maca.TreeConfig(**{name: getattr(args, name)
                              for name in _TREE_FLAGS.values()})


def cmd_train(args) -> int:
    text = _read(args.data)
    records = dataio.parse_paired(text)
    patterns = _training_patterns(records, args.window)
    config = _tree_config(args)
    tree = maca.build_tree(patterns, RESIDUE_BITS * args.window, config,
                           rng_seed=args.seed)
    model = dataio.ModelFile(
        tree=tree,
        window=args.window,
        pipeline=PipelineConfig(filter_length=args.filter_length),
        ga_config={**{name: getattr(config, name)
                      for name in _GA_FLAGS.values()}, "rng_seed": args.seed},
        training_fingerprint=dataio.fingerprint(text),
    )
    dataio.save_model(model, args.out)
    print(f"wrote model to {args.out}")
    return 0


def _load_training(model, path, no_verify):
    text = _read(path)
    if not no_verify and dataio.fingerprint(text) != model.training_fingerprint:
        raise dataio.ParseError(
            f"training data {path} does not match the model's fingerprint "
            "(pass --no-verify to override)")
    return dataio.parse_paired(text)


def _pipeline_config(model, mode):
    if mode is None:
        return model.pipeline
    return replace(model.pipeline, decode_mode=mode)


def _predict_record(record, model, use_pipeline, training, cfg):
    if use_pipeline:
        result = predict_structure(record.sequence, training, cfg)
        notes = [f"method: pipeline base={result.base_id} "
                 f"similarity={result.similarity_score:.4f}"]
        return result.predicted, notes
    predicted = "".join(
        maca.classify(model.tree, code)
        for code in window_patterns(record.sequence, model.window))
    return predicted, ["method: tree"]


def _check_route_flags(args) -> None:
    # flags that only the signal route reads would be ignored by the tree
    for flag, given in (("--mode", getattr(args, "mode", None) is not None),
                        ("--train-data", args.train_data is not None),
                        ("--no-verify", args.no_verify)):
        if given and not args.pipeline:
            raise UsageError(f"{flag} requires --pipeline")


def cmd_predict(args) -> int:
    _check_route_flags(args)
    if args.pipeline and args.train_data is None:
        raise UsageError("--pipeline requires --train-data")
    model = dataio.load_model(args.model)
    records = dataio.parse_fasta(_read(args.fasta))
    training, cfg = None, None
    if args.pipeline:
        training = _load_training(model, args.train_data, args.no_verify)
        cfg = _pipeline_config(model, args.mode)
    blocks = []
    for record in records:
        predicted, notes = _predict_record(record, model, args.pipeline,
                                           training, cfg)
        blocks.append(dataio.format_paired(
            dataio.ProteinRecord(record.id, record.sequence, predicted),
            annotations=notes))
    print("\n".join(blocks), end="")
    return 0


def cmd_evaluate(args) -> int:
    _check_route_flags(args)
    model = dataio.load_model(args.model)
    records = dataio.parse_paired(_read(args.data))
    training, cfg, route = None, None, ""
    if args.pipeline:
        train_path = args.train_data or args.data
        training = _load_training(model, train_path, args.no_verify)
        cfg = model.pipeline
        # Q3 says what it measures: recall of the evaluated records, or a
        # prediction against a separate base set
        route = (f" (bases from {args.train_data})" if args.train_data
                 else " (self-recall: each record is its own base)")
    rows = []
    for record in records:
        predicted, _ = _predict_record(record, model, args.pipeline,
                                       training, cfg)
        rows.append(dataio.q3(predicted, record.structure, record.id))
    report = dataio.aggregate_metrics(rows)
    _write(args.report, dataio.metrics_tsv(report))
    if args.json_out:
        _write(args.json_out, dataio.metrics_json(report))
    if args.comparison:
        _write(args.comparison, dataio.comparison_tsv(args.data, report.q3))
    print(f"q3 {report.q3:.2f} over {len(rows)} records{route}; "
          f"report at {args.report}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "basins": cmd_basins,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
}


def run_cli(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (dataio.ParseError, dataio.ModelFormatError, ValueError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # invariant violation
        print(f"internal error: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())
