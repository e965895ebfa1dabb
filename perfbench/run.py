"""qeloop benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train_default --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. The run imports qeloop from ``src/``,
generates its inputs from ``--seed``, performs the workload's set-up several
times, then repeats the workload's measured work until ``--seconds`` would
be exceeded by one more repetition (at least one repetition always runs).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs untraced
repetitions for half the time (at least one), then exactly one repetition
with every layer function wrapped in a span, and reports the per-layer
metrics, the tracing overhead and the share of traced wall time the spans'
self times cover. A traced run can therefore take half of ``--seconds``
plus one traced repetition.
``--smoke`` shrinks every workload so that a run takes seconds.

Human-readable lines start with ``#``; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Outputs are checked against the digests committed in
``perfbench/golden.json`` (``perfbench/pin.py`` re-pins them). Everything
the run writes (local pins, spans, a full result record) goes under
``.perfbench_work/`` in the checkout.
"""

import os

# Pin BLAS and OpenMP pools to one thread before numpy is first imported.
# On a 2-core machine, two identical 150-episode train_kb_uncapped runs took
# 18.1 s and 24.5 s with default threading, and 20.0 s and 21.5 s with one
# OpenBLAS thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
LOCAL_GOLDEN = WORK / "golden.json"
# Set-up is timed at least SETUP_MIN times and until SETUP_BUDGET_S has
# passed (at most SETUP_MAX times); its median is reported.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 200, 1.0

# Every end-to-end metric: name -> unit. See DESIGN.md for definitions.
END_TO_END_UNITS = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "state_bytes": "count",
}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile q in [0, 100] of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def environment() -> dict:
    import numpy as np

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
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def pin_environment(env: dict) -> str:
    """The key of this environment's committed pins. Float results can
    change with the numpy and BLAS builds and with the kernels BLAS picks
    for the CPU, so pins from another environment are not compared."""
    return f"numpy {env['numpy']} | {env['blas']} | {env['cpu_model']}"


def read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def write_json(path: Path, data: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def run_reps(workload, gate, samples, seconds: float) -> None:
    """Repeat until one more repetition would overrun ``seconds``, but at
    least once.

    Each repetition starts after a full garbage collection, as a fresh
    process would, so garbage from the previous one is not charged to it.
    """
    start = perf_counter()
    while True:
        gc.collect()
        rep_start = perf_counter()
        workload.rep(gate, samples)
        rep = perf_counter() - rep_start
        samples.rep_wall_s.append(rep)
        if gate.failed or perf_counter() - start + rep > seconds:
            return


def end_to_end_metrics(samples) -> dict:
    return {
        "setup_s": statistics.median(samples.setup_s),
        "records_per_s": samples.step_records / samples.step_busy_s,
        "step_ms_p50": percentile(samples.step_ms, 50),
        "step_ms_p90": percentile(samples.step_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "state_bytes": statistics.median(samples.state_bytes),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, traced_wall_s: float, untraced_walls, rep_counts) -> dict:
    """Every per-layer metric, name -> (value, unit); absent layers read 0."""
    from tracing import SPAN_NAMES

    stats = tracer.span_stats()
    out = {}
    for name in SPAN_NAMES:
        s = stats.get(name, {"calls": 0, "self_s": 0.0, "p50_us": 0.0})
        out[f"{name}.calls"] = (s["calls"], "count")
        out[f"{name}.self_s"] = (s["self_s"], "s")
        out[f"{name}.p50_us"] = (s["p50_us"], "us")
    c = tracer.counts

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    out.update(
        {
            "knowledge.vector_query.records_in_store": (c["knowledge.vector_query.records_in_store"], "count"),
            "knowledge.graph_traverse.nodes_returned": (c["knowledge.graph_traverse.nodes_returned"], "count"),
            "knowledge.reinforce_edges.edges_in_store": (c["knowledge.reinforce_edges.edges_in_store"], "count"),
            "knowledge.reinforce_edges.edges_touched": (c["knowledge.reinforce_edges.edges_touched"], "count"),
            "knowledge.snapshot_bytes": (c["knowledge.snapshot_bytes"], "count"),
            "domain.validate_feedback.catalog_size": (
                _ratio(c["domain.validate_feedback.catalog_entries"], calls("domain.validate_feedback")),
                "count",
            ),
            "agents.retrieval_hit_ratio": (
                _ratio(c["agents.retrieval_hits"], calls("agents.generate_test_cases")),
                "ratio",
            ),
            "qe_env.execute_test.detections_per_test": (
                _ratio(c["qe_env.execute_test.detections"], calls("qe_env.execute_test")),
                "ratio",
            ),
            "qe_env.replay_feedback.records": (c["qe_env.replay_feedback.records"], "count"),
            "qe_env.replay_feedback.rejected": (c["qe_env.replay_feedback.rejected"], "count"),
            "trainer.events": (rep_counts.get("events", 0), "count"),
            "trainer.test_catalog_size": (rep_counts.get("test_catalog_size", 0), "count"),
            # A process's first repetition grows the heap from nothing and
            # can run slower (12 % on train_kb_uncapped), so it is left out
            # of the baseline when later repetitions exist.
            "trace.overhead_s": (traced_wall_s - statistics.median(untraced_walls[1:] or untraced_walls), "s"),
            "trace.self_coverage": (
                _ratio(sum(s["self_s"] for s in stats.values()), traced_wall_s),
                "ratio",
            ),
        }
    )
    return out


def measure(args, workload, gate):
    """Time set-up, then run repetitions untraced or traced; return the
    untraced samples and the metrics to report."""
    from tracing import Tracer
    from workloads import Samples

    samples = Samples()
    setup_start = perf_counter()
    while len(samples.setup_s) < SETUP_MIN or (
        perf_counter() - setup_start < SETUP_BUDGET_S and len(samples.setup_s) < SETUP_MAX
    ):
        samples.setup_s.append(workload.setup())

    if not args.trace:
        run_reps(workload, gate, samples, args.seconds)
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end_metrics(samples).items()
        }
        return samples, metrics

    run_reps(workload, gate, samples, args.seconds / 2)
    tracer = Tracer()
    traced = Samples()
    tracer.install()
    gc.collect()
    start = perf_counter()
    workload.rep(gate, traced)
    traced_wall = perf_counter() - start
    tracer.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.csv")
    layered = per_layer_metrics(tracer, traced_wall, samples.rep_wall_s, traced.counts)
    return samples, {name: {"value": value, "unit": unit} for name, (value, unit) in layered.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qeloop" / "__init__.py").is_file():
        print(f"qeloop sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = environment()
    gate = workloads.Gate(read_json(GOLDEN).get(pin_environment(env), {}), read_json(LOCAL_GOLDEN))
    # Checkpoints and snapshots are large; each run writes them to its own
    # directory and removes it at the end.
    scratch = WORK / f"run-{os.getpid()}"
    scratch.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.workload, ROOT, scratch, args.seed, args.smoke)
        samples, metrics = measure(args, workload, gate)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    write_json(LOCAL_GOLDEN, gate.local)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env,
        "samples": {
            "setup": len(samples.setup_s),
            "repetitions": len(samples.rep_wall_s),
            "steps": len(samples.step_ms),
            "records": samples.step_records,
        },
        "rep_wall_s": samples.rep_wall_s,
        "state_save_s": samples.state_save_s,
        "state_restore_s": samples.state_restore_s,
        "counts": samples.counts,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "error_rate": gate.failed / gate.attempted if gate.attempted else 0.0,
        "failures": gate.messages,
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )

    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    print(f"# samples: {json.dumps(record['samples'])} rep_wall_s={[round(w, 3) for w in samples.rep_wall_s]}")
    print(f"# counts per repetition: {json.dumps(samples.counts, sort_keys=True)}")
    if samples.state_save_s and samples.state_restore_s:
        print(
            f"# state save median {statistics.median(samples.state_save_s):.4f} s, "
            f"restore median {statistics.median(samples.state_restore_s):.4f} s (not gated, see DESIGN.md)"
        )
    print(
        f"# golden: {gate.committed_checks} digests checked against perfbench/golden.json "
        f"for {pin_environment(env)!r}, {gate.local_checks} against local pins"
    )
    print(f"# error_rate: {record['error_rate']} ({gate.failed} failed / {gate.attempted} attempted)")
    for message in gate.messages:
        print(f"# FAILED: {message}")
    print(
        json.dumps(
            {
                "correct": gate.failed == 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
