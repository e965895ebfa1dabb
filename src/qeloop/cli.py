"""Command-line entry point.

Subcommands: train, ablate, evaluate, replay, export, gradcheck. One JSON
config file drives everything (``--config``), dotted-key overrides come via
repeatable ``--set key=value`` flags, and unknown keys are hard errors.
Exit codes: 0 success; 1 a ``ConfigError`` (a config, override, command
line or event log to export that qeloop cannot use), or a replayed feedback
file with no good line; 2 an ``InputError`` (a checkpoint or knowledge
snapshot it cannot take) or an ``OSError``. Any other exception is a fault of
qeloop itself and ends the command with its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import domain, qe_env, rewards, trainer
from .config import ConfigError
from .domain import InputError
from .knowledge import KnowledgeStore
from .rl_core import gradient_check

GRADCHECK_TOLERANCE = 1e-4


def _parse_override(item: str) -> tuple[list[str], object]:
    if "=" not in item:
        raise ConfigError("", f"override {item!r} is not of the form key=value")
    key, raw = item.split("=", 1)
    key = key.strip()
    if not key:
        raise ConfigError("", f"override {item!r} has an empty key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def load_config(path: str, overrides: tuple[str, ...] = ()) -> trainer.RunConfig:
    """Parse the JSON config, apply dotted overrides, validate every bound."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read config {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError("", f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("", f"config {path} must hold a JSON object")
    for item in overrides:
        keys, value = _parse_override(item)
        node = raw
        for part in keys[:-1]:
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise ConfigError(".".join(keys), f"{part!r} is not a section")
            node = nxt
        node[keys[-1]] = value
    return trainer.RunConfig.from_dict(raw).validate()


def _provenance(exc: BaseException) -> str:
    return f"{type(exc).__module__}.{type(exc).__name__}"


def _cmd_train(args: argparse.Namespace, config: trainer.RunConfig) -> int:
    out_dir = args.out or config.output_dir
    with trainer.EventLog(out_dir) as events:
        system = trainer.TrainingSystem(config, events=events)
        metrics = system.run()
    paths = system.tables.write(out_dir)
    system.checkpoint(os.path.join(out_dir, "checkpoint.json"))
    final = trainer.final_window_mean(metrics, "r_total", 30)
    blocks = trainer.block_means(metrics, "r_total")
    curve = " -> ".join(f"{b:.3f}" for b in blocks[:: max(1, len(blocks) // 6)])
    print(f"trained {len(metrics)} episodes; final-window mean reward {final:.4f}")
    print(f"reward curve (25-episode blocks): {curve}")
    print(f"metrics: {paths['metrics']}")
    return 0


def _cmd_ablate(args: argparse.Namespace, config: trainer.RunConfig) -> int:
    out_dir = args.out or config.output_dir
    result = trainer.run_ablation_suite(config, n_seeds=args.seeds)
    os.makedirs(out_dir, exist_ok=True)
    table_path = os.path.join(out_dir, "ablation.csv")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write(result.csv_text())
    print(result.table_text())
    print(f"table: {table_path}")
    return 0


def _cmd_evaluate(args: argparse.Namespace, config: trainer.RunConfig) -> int:
    if not args.checkpoint:
        raise ConfigError("checkpoint", "evaluate requires --checkpoint PATH")
    out_dir = args.out or config.output_dir
    episodes = args.episodes or config.episode_count
    frozen = trainer.AblationFlags(disable_ppo=True, disable_dqn=True, no_feedback=True)
    # The log truncates its files, so it opens only once the checkpoint has
    # restored: a bad checkpoint leaves the files in ``out_dir`` as they were.
    system = trainer.TrainingSystem.restore(args.checkpoint)
    system.config = replace(system.config, ablation=frozen)
    system.deterministic_policy = True
    with trainer.EventLog(out_dir) as events:
        for event in system.events:
            events.append(event)
        system.events = events
        evaluated = system.run(episodes=episodes)
    paths = system.tables.write(out_dir)
    mean_reward = sum(m.r_total for m in evaluated) / len(evaluated)
    print(f"evaluated {len(evaluated)} greedy episodes; mean reward {mean_reward:.4f}")
    print(f"metrics: {paths['metrics']}")
    return 0


def _cmd_replay(args: argparse.Namespace, config: trainer.RunConfig) -> int:
    if not args.input_path:
        raise ConfigError("input", "replay requires a feedback JSONL path")
    out_dir = args.out or config.output_dir
    if args.kb_path:
        store = KnowledgeStore.load_snapshot(args.kb_path)
    else:
        store = KnowledgeStore(config.kb.d_emb, config.kb.initial_params)
    issues: list[InputError] = []
    records = list(qe_env.replay_feedback(args.input_path, on_error=issues.append))
    for issue in issues:
        print(f"skipped {_provenance(issue)}: {issue}", file=sys.stderr)
    if not records:
        print("no valid feedback records in file")
        return 0 if not issues else 1
    touched = replay_into_store(store, records, config.kb.edge_learning_rate)
    # Replay has no reward history, so its adaptation term is 0.
    breakdown = rewards.batch_reward(records, config.rewards.severity, config.rewards.weights, ())
    os.makedirs(out_dir, exist_ok=True)
    snapshot_path = os.path.join(out_dir, "kb_after_replay.json")
    store.save_snapshot(snapshot_path)
    print(
        f"replayed {len(records)} records; reward total {breakdown.total:.4f} "
        f"(effectiveness {breakdown.effectiveness:.4f}); edges touched {touched}"
    )
    print(f"knowledge snapshot: {snapshot_path}")
    return 0


def replay_into_store(
    store: KnowledgeStore, records: list[domain.FeedbackRecord], eta: float
) -> int:
    """Apply the knowledge-evolution path of a feedback stream to a store.

    Contributing context for each record is its test node plus that node's
    direct graph neighbors; records whose test is absent from the graph
    touch nothing.
    """
    touched = 0
    for record in records:
        test_id = record.test_case_ref
        if not store.has_node(test_id):
            continue
        context = {test_id}
        context.update(nbr for nbr, _ in store.neighbors(test_id))
        touched += store.reinforce_edges(record, context, eta)
    return touched


def _cmd_export(args: argparse.Namespace, config: trainer.RunConfig) -> int:
    if not args.input_path:
        raise ConfigError("input", "export requires an events JSONL path")
    out_dir = args.out or config.output_dir
    tables = trainer.RunTables()
    line_number = 0
    # Lines are decoded one by one, so a byte that is not UTF-8 is named with its line.
    with open(args.input_path, "rb") as fh:
        try:
            for line_number, line in enumerate(fh, start=1):
                if line.strip():
                    tables.append(trainer.read_event(json.loads(line.decode("utf-8"))))
        except (UnicodeDecodeError, json.JSONDecodeError, InputError) as exc:
            raise ConfigError(f"input line {line_number}", f"malformed event log: {exc!r}") from exc
    if not tables.metrics:
        raise ConfigError("input", "event log contains no complete episodes")
    paths = tables.write(out_dir)
    print(f"derived {len(tables.metrics)} episode rows")
    print(f"metrics: {paths['metrics']}")
    return 0


def _cmd_gradcheck(args: argparse.Namespace, config: trainer.RunConfig) -> int:
    worst = gradient_check()
    print(f"gradient check: max relative error {worst:.3e} (tolerance {GRADCHECK_TOLERANCE:.0e})")
    if worst < GRADCHECK_TOLERANCE:
        print("gradient check PASS")
        return 0
    print("gradient check FAIL")
    return 2


_COMMANDS = {
    "train": _cmd_train,
    "ablate": _cmd_ablate,
    "evaluate": _cmd_evaluate,
    "replay": _cmd_replay,
    "export": _cmd_export,
    "gradcheck": _cmd_gradcheck,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qeloop")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (default: config output_dir)")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted-key config override, repeatable",
        )
        if name == "ablate":
            p.add_argument("--seeds", type=_positive_int, default=5)
        if name == "evaluate":
            p.add_argument("--checkpoint", required=True)
            p.add_argument("--episodes", type=_positive_int, default=None)
        if name == "replay":
            p.add_argument("input_path", help="feedback JSONL file")
            p.add_argument("--kb", dest="kb_path", default=None, help="knowledge snapshot to evolve")
        if name == "export":
            p.add_argument("input_path", help="events JSONL file")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        config = load_config(args.config, tuple(args.overrides))
        return _COMMANDS[args.subcommand](args, config)
    except ConfigError as exc:
        print(f"{_provenance(exc)}: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print(f"{_provenance(exc)}: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
