"""Command-line entry point.

Subcommands: train, ablate, evaluate, replay, export, gradcheck. One JSON
config file drives everything (``--config``), dotted-key overrides come via
repeatable ``--set key=value`` flags, and unknown keys are hard errors.
Exit codes: 0 success, 1 validation/config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import domain, qe_env, rewards, trainer
from .config import ConfigTypeError, UnknownConfigKey
from .knowledge import KnowledgeStore
from .rl_core import gradient_check

GRADCHECK_TOLERANCE = 1e-4


class CliError(Exception):
    pass


class ParseError(CliError):
    pass


class ValidationError(CliError):
    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


class UnknownKey(CliError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(f"unknown config key {key!r}")


@dataclass(frozen=True)
class CliInvocation:
    subcommand: str
    config_path: str
    overrides: tuple[str, ...] = ()
    output_dir: str | None = None
    seeds: int | None = None
    checkpoint: str | None = None
    episodes: int | None = None
    input_path: str | None = None
    kb_path: str | None = None


def _parse_override(item: str) -> tuple[list[str], object]:
    if "=" not in item:
        raise ParseError(f"override {item!r} is not of the form key=value")
    key, raw = item.split("=", 1)
    key = key.strip()
    if not key:
        raise ParseError(f"override {item!r} has an empty key")
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
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"config {path} must hold a JSON object")
    for item in overrides:
        keys, value = _parse_override(item)
        node = raw
        for part in keys[:-1]:
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise ValidationError(".".join(keys), f"{part!r} is not a section")
            node = nxt
        node[keys[-1]] = value
    try:
        config = trainer.RunConfig.from_dict(raw)
    except UnknownConfigKey as exc:
        raise UnknownKey(exc.key) from exc
    except ConfigTypeError as exc:
        raise ValidationError(exc.key, exc.problem) from exc
    try:
        config.validate()
    except (ValueError, qe_env.BadConfig) as exc:
        raise ValidationError(_guess_key(str(exc)), str(exc)) from exc
    return config


def _guess_key(message: str) -> str:
    for key in ("learning_rate", "epsilon", "clip", "seed", "episode_count", "weights"):
        if key in message:
            return key
    return "config"


def _provenance(exc: BaseException) -> str:
    return f"{type(exc).__module__}.{type(exc).__name__}"


def _cmd_train(invocation: CliInvocation, config: trainer.RunConfig) -> int:
    out_dir = invocation.output_dir or config.output_dir
    system = trainer.TrainingSystem(config)
    system.run(output_dir=out_dir)
    result = trainer.RunResult(
        config, system.metrics_history, system.events, system.ppo_rows, system.dqn_rows, system
    )
    paths = trainer.export_metrics(result, out_dir)
    system.checkpoint(os.path.join(out_dir, "checkpoint.json"))
    final = trainer.final_window_mean(result.metrics, "r_total", 30)
    blocks = trainer.block_means(result.metrics, "r_total")
    curve = " -> ".join(f"{b:.3f}" for b in blocks[:: max(1, len(blocks) // 6)])
    print(f"trained {len(result.metrics)} episodes; final-window mean reward {final:.4f}")
    print(f"reward curve (25-episode blocks): {curve}")
    print(f"metrics: {paths['metrics']}")
    return 0


def _cmd_ablate(invocation: CliInvocation, config: trainer.RunConfig) -> int:
    out_dir = invocation.output_dir or config.output_dir
    n_seeds = invocation.seeds or 5
    result = trainer.run_ablation_suite(config, n_seeds=n_seeds)
    os.makedirs(out_dir, exist_ok=True)
    table_path = os.path.join(out_dir, "ablation.csv")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write(result.csv_text())
    print(result.table_text())
    print(f"table: {table_path}")
    return 0


def _cmd_evaluate(invocation: CliInvocation, config: trainer.RunConfig) -> int:
    if not invocation.checkpoint:
        raise ValidationError("checkpoint", "evaluate requires --checkpoint PATH")
    out_dir = invocation.output_dir or config.output_dir
    system = trainer.TrainingSystem.restore(invocation.checkpoint)
    episodes = invocation.episodes or config.episode_count
    frozen = trainer.AblationFlags(disable_ppo=True, disable_dqn=True, no_feedback=True)
    system.config = replace(system.config, ablation=frozen)
    system.deterministic_policy = True
    start = len(system.metrics_history)
    system.run(episodes=episodes, output_dir=out_dir)
    evaluated = system.metrics_history[start:]
    result = trainer.RunResult(
        system.config, evaluated, system.events, system.ppo_rows, system.dqn_rows, system
    )
    paths = trainer.export_metrics(result, out_dir)
    mean_reward = sum(m.r_total for m in evaluated) / len(evaluated)
    print(f"evaluated {len(evaluated)} greedy episodes; mean reward {mean_reward:.4f}")
    print(f"metrics: {paths['metrics']}")
    return 0


def _cmd_replay(invocation: CliInvocation, config: trainer.RunConfig) -> int:
    if not invocation.input_path:
        raise ValidationError("input", "replay requires a feedback JSONL path")
    out_dir = invocation.output_dir or config.output_dir
    if invocation.kb_path:
        store = KnowledgeStore.load_snapshot(invocation.kb_path)
    else:
        store = KnowledgeStore(config.kb.d_emb, config.kb.initial_params)
    issues: list[qe_env.QEEnvError] = []
    records = list(qe_env.replay_feedback(invocation.input_path, on_error=issues.append))
    for issue in issues:
        print(f"skipped {_provenance(issue)}: {issue}", file=sys.stderr)
    if not records:
        print("no valid feedback records in file")
        return 0 if not issues else 1
    touched = replay_into_store(store, records, config.kb.edge_learning_rate)
    breakdown = replay_reward(records, config)
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
        context.update(nbr for nbr, _ in store._incidence.get(test_id, ()))
        touched += store.reinforce_edges(record, context, eta)
    return touched


def replay_reward(records: list[domain.FeedbackRecord], config: trainer.RunConfig):
    return rewards.combine(
        rewards.effectiveness_reward(records, config.rewards.severity),
        rewards.coverage_reward(records),
        rewards.efficiency_reward(records),
        rewards.compliance_reward(records),
        0.0,
        config.rewards.weights,
    )


def _cmd_export(invocation: CliInvocation, config: trainer.RunConfig) -> int:
    if not invocation.input_path:
        raise ValidationError("input", "export requires an events JSONL path")
    out_dir = invocation.output_dir or config.output_dir
    events = []
    with open(invocation.input_path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                events.append(json.loads(line))
    metrics = trainer.derive_metrics_from_events(events)
    if not metrics:
        raise ValidationError("input", "event log contains no complete episodes")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "metrics.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trainer.metrics_csv_text(metrics))
    print(f"derived {len(metrics)} episode rows")
    print(f"metrics: {path}")
    return 0


def _cmd_gradcheck(invocation: CliInvocation, config: trainer.RunConfig) -> int:
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
            p.add_argument("--seeds", type=int, default=5)
        if name == "evaluate":
            p.add_argument("--checkpoint", required=True)
            p.add_argument("--episodes", type=int, default=None)
        if name == "replay":
            p.add_argument("input_path", help="feedback JSONL file")
            p.add_argument("--kb", dest="kb_path", default=None, help="knowledge snapshot to evolve")
        if name == "export":
            p.add_argument("input_path", help="events JSONL file")
    return parser


def invocation_from_args(args: argparse.Namespace) -> CliInvocation:
    return CliInvocation(
        subcommand=args.subcommand,
        config_path=args.config,
        overrides=tuple(args.overrides),
        output_dir=args.out,
        seeds=getattr(args, "seeds", None),
        checkpoint=getattr(args, "checkpoint", None),
        episodes=getattr(args, "episodes", None),
        input_path=getattr(args, "input_path", None),
        kb_path=getattr(args, "kb_path", None),
    )


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    invocation = invocation_from_args(args)
    try:
        config = load_config(invocation.config_path, invocation.overrides)
    except CliError as exc:
        print(f"{_provenance(exc)}: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[invocation.subcommand](invocation, config)
    except (CliError, UnknownConfigKey) as exc:
        print(f"{_provenance(exc)}: {exc}", file=sys.stderr)
        return 1
    except (
        trainer.TrainerError,
        qe_env.QEEnvError,
        domain.DomainError,
        rewards.RewardError,
        OSError,
        ValueError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"{_provenance(exc)}: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
