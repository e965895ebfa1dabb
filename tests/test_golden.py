"""Pinned ``metrics.csv`` bytes for two short runs of ``configs/default.json``.

The determinism contract says (seed, config) fixes every byte of
``metrics.csv``; these pins make that hold across code changes too. A change
that moves the bytes on purpose (reordering a float sum, say) must say why
and re-pin here in the same change.

Float results can differ between numpy and BLAS builds and between the
kernels BLAS picks for a CPU, so pins are keyed by that environment, the
same way ``perfbench/golden.json`` keys its pins. An environment without
pins skips and names its key.
"""

import hashlib
import platform
from pathlib import Path

import numpy as np
import pytest

from qeloop import cli
from qeloop.trainer import metrics_csv_text, run_training

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
        "seed0-full": "ab3d8f931cad19fbb640a78f368bcc8480655b636e150e09ab80d171d5a0afff",
        "seed1-scalar_reward": "d431998881d85df5ced8c6f345c39b0d86e00f82dd8bd2d6f3ce9fc0cae7b8f4",
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


@pytest.mark.parametrize("run", sorted(RUNS))
def test_metrics_csv_matches_pin(run):
    key = environment_key()
    if key not in PINS:
        pytest.skip(f"no metrics.csv pins for environment {key!r}")
    config = cli.load_config(str(CONFIG), RUNS[run] + (f"episode_count={EPISODES}",))
    csv_text = metrics_csv_text(run_training(config).metrics)
    assert hashlib.sha256(csv_text.encode("utf-8")).hexdigest() == PINS[key][run]
