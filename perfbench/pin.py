"""Re-pin the output digests committed in ``perfbench/golden.json``.

    python3 perfbench/pin.py

Runs one repetition of every pinned (workload, seed), at smoke size and at
full size, and writes the sha256 of each pinned output (``metrics.csv`` on
train_*, the written snapshot on replay) into ``perfbench/golden.json``
under this environment's key. Run it only when a change to qeloop is meant
to change those bytes, and commit the new pins with that change and the
reason for it. Takes about six minutes on a 2-core machine.
"""

import shutil
import sys

import run  # pins the BLAS threads before numpy is imported

SMOKE_SEEDS = (3,)
FULL_SEEDS = tuple(range(10))


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    pins: dict[str, str] = {}
    run.WORK.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        for smoke, seeds in ((True, SMOKE_SEEDS), (False, FULL_SEEDS)):
            for seed in seeds:
                gate = workloads.Gate({}, pins)
                scratch = run.WORK / "pin"
                scratch.mkdir(exist_ok=True)
                try:
                    workload = workloads.WORKLOADS[name](name, run.ROOT, scratch, seed, smoke)
                    workload.rep(gate, workloads.Samples())
                finally:
                    shutil.rmtree(scratch, ignore_errors=True)
                if gate.failed:
                    print("\n".join(gate.messages), file=sys.stderr)
                    return 1
                print(f"{name} seed {seed}{' smoke' if smoke else ''}: pinned", flush=True)
    golden = run.read_json(run.GOLDEN)
    golden[run.pin_environment(run.environment())] = pins
    run.write_json(run.GOLDEN, golden)
    print(f"{len(pins)} digests written to {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
