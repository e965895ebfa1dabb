"""Pinned ``metrics.csv`` and ``checkpoint.json`` bytes for two short runs
of ``configs/default.json``.

The determinism contract says (seed, config) fixes every byte of
``metrics.csv``; these pins make that hold across code changes too. The
checkpoint pin also sees last-bit drift in network weights and Adam moments,
which can leave ``metrics.csv`` unchanged for hundreds of episodes. A change
that moves the bytes on purpose (reordering a float sum, say) must say why
and re-pin here in the same change.

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
            "checkpoint.json": "0fb2e934525b750724663a01dfdfb296ef0bc09e6439bebb13c07184a524710a",
        },
        "seed1-scalar_reward": {
            "metrics.csv": "d431998881d85df5ced8c6f345c39b0d86e00f82dd8bd2d6f3ce9fc0cae7b8f4",
            "checkpoint.json": "fc5ebf9f8ceff07230d28672064825d96920ac39e12978aed6c19583657648ed",
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
