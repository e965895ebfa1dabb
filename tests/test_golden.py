"""Pinned ``metrics.csv``, ``checkpoint.json`` and knowledge-snapshot
(``kb.json``) bytes for two short runs of ``configs/default.json``.

The determinism contract says (seed, config) fixes every byte of
``metrics.csv``; these pins make that hold across code changes too. The
checkpoint pin also sees last-bit drift in network weights and Adam moments,
which can leave ``metrics.csv`` unchanged for hundreds of episodes. The
snapshot pin is the text ``save_snapshot`` writes for the run's store, the
format ``qeloop replay`` reads and writes. A change that moves the bytes on
purpose (reordering a float sum, say) must say why and re-pin here in the
same change.

Float results can differ between numpy and BLAS builds and between the
kernels BLAS picks for a CPU, so pins are keyed by that environment, the
same way ``perfbench/golden.json`` keys its pins. An environment without
pins skips and names its key.
"""

import functools
import hashlib
import platform
from pathlib import Path

import numpy as np
import pytest

from qeloop import cli
from qeloop.knowledge import KnowledgeStore
from qeloop.trainer import TrainingSystem, metrics_csv_text, run_training

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"

# IntegrationPoint, the role that acts least (2 slots an episode), makes its
# first PPO update in episode 32; 35 episodes cover every role's update and
# the DQN controller's training, in about a second per run.
EPISODES = 35

RUNS = {
    "seed0-full": ("seed=0",),
    "seed1-scalar_reward": ("seed=1", "ablation.scalar_reward=true"),
}

PINS = {
    "numpy 2.4.6 | scipy-openblas 0.3.31.188.0 | Intel(R) Xeon(R) Processor": {
        "seed0-full": {
            "metrics.csv": "ab3d8f931cad19fbb640a78f368bcc8480655b636e150e09ab80d171d5a0afff",
            "checkpoint.json": "1e4ee1c26bea5612041f7f7c3a72a259550dcc8cbed3af85d1ad3174614dffbe",
            "kb.json": "b815aa67baff76ff80c27da665bb8819ce739df442bd765ebb0361ee13f1b1de",
        },
        "seed1-scalar_reward": {
            "metrics.csv": "d431998881d85df5ced8c6f345c39b0d86e00f82dd8bd2d6f3ce9fc0cae7b8f4",
            "checkpoint.json": "751bf332cf2736f94e9261028e3d8ff2d39788e9cfc3b203bdfbbc90e517e569",
            "kb.json": "0af7905b211ea761d94a7ea12e5f6ea57ea368bc2a1d7b86e037871ae2b40ab3",
        },
    },
}


def environment_key() -> str:
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return f"numpy {np.__version__} | {blas} | {cpu_model}"


def pins_for(run: str) -> dict[str, str]:
    key = environment_key()
    if key not in PINS:
        pytest.skip(f"no pins for environment {key!r}")
    return PINS[key][run]


@functools.cache
def trained(run: str) -> TrainingSystem:
    config = cli.load_config(str(CONFIG), RUNS[run] + (f"episode_count={EPISODES}",))
    return run_training(config)


def sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_metrics_csv_matches_pin(run):
    pins = pins_for(run)
    csv_text = metrics_csv_text(trained(run).tables.metrics)
    assert sha256(csv_text.encode("utf-8")) == pins["metrics.csv"]


@pytest.mark.parametrize("run", sorted(RUNS))
def test_checkpoint_matches_pin(run, tmp_path):
    pins = pins_for(run)
    path = tmp_path / "checkpoint.json"
    trained(run).checkpoint(path)
    assert sha256(path.read_bytes()) == pins["checkpoint.json"]


@pytest.mark.parametrize("run", sorted(RUNS))
def test_knowledge_snapshot_matches_pin(run, tmp_path):
    pins = pins_for(run)
    path = tmp_path / "kb.json"
    trained(run).kb.save_snapshot(path)
    assert sha256(path.read_bytes()) == pins["kb.json"]


# Reading goes through rl_core.parse_json, which shares one float among equal
# number texts; what is read must write back to the same bytes on any
# environment, pinned or not.
@pytest.mark.parametrize("run", sorted(RUNS))
def test_knowledge_snapshot_load_then_save_keeps_its_bytes(run, tmp_path):
    first, second = tmp_path / "kb.json", tmp_path / "again.json"
    trained(run).kb.save_snapshot(first)
    KnowledgeStore.load_snapshot(first).save_snapshot(second)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_checkpoint_restore_then_checkpoint_keeps_its_bytes(run, tmp_path):
    first, second = tmp_path / "checkpoint.json", tmp_path / "again.json"
    trained(run).checkpoint(first)
    TrainingSystem.restore(first).checkpoint(second)
    assert second.read_bytes() == first.read_bytes()
