"""Span tracing of qeloop's layers, installed from outside the package.

``Tracer.install`` replaces each layer function listed in ``LAYER_SPANS``
with a wrapper that records one span per call (name, parent, start, end)
and, for some functions, a work count taken from the call's arguments or
result. Spans live in compact in-memory arrays until ``write_spans``.

Self time is a span's duration minus the time its child spans cover. The
program is single-threaded, so children never overlap and the covered
time is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns


def _vector_query(counts, args, kwargs, result):
    # The size of the store searched; as for reinforce_edges below, how much
    # of it a query visits shows in self_s, not in a count.
    counts["knowledge.vector_query.records_in_store"] += args[0].vector_count


def _graph_traverse(counts, args, kwargs, result):
    counts["knowledge.graph_traverse.nodes_returned"] += len(result)


def _reinforce_edges(counts, args, kwargs, result):
    store, feedback = args[0], args[1]
    # The size of the store a call with defect reports searches for
    # contributing edges; how many of them it visits is not observable
    # from outside and shows in self_s instead.
    if feedback.defects:
        counts["knowledge.reinforce_edges.edges_in_store"] += store.edge_count
    counts["knowledge.reinforce_edges.edges_touched"] += result


def _save_snapshot(counts, args, kwargs, result):
    counts["knowledge.snapshot_bytes"] += os.path.getsize(args[1])


def _validate_feedback(counts, args, kwargs, result):
    counts["domain.validate_feedback.catalog_entries"] += len(args[1])


def _generate_test_cases(counts, args, kwargs, result):
    counts["agents.retrieval_hits"] += 1 if result[1] else 0


def _execute_test(counts, args, kwargs, result):
    counts["qe_env.execute_test.detections"] += len(result.true_defects())


# (span name, "module:attribute path", probe run after each call). One span
# name may cover several functions; its metrics then add up over them.
LAYER_SPANS = (
    ("knowledge.vector_query", "qeloop.knowledge:KnowledgeStore.vector_query", _vector_query),
    ("knowledge.graph_traverse", "qeloop.knowledge:KnowledgeStore.graph_traverse", _graph_traverse),
    ("knowledge.reinforce_edges", "qeloop.knowledge:KnowledgeStore.reinforce_edges", _reinforce_edges),
    ("knowledge.mean_edge_weight", "qeloop.knowledge:KnowledgeStore.mean_edge_weight", None),
    ("knowledge.update_usefulness", "qeloop.knowledge:KnowledgeStore.update_usefulness", None),
    ("knowledge.insert_vector", "qeloop.knowledge:KnowledgeStore.insert_vector", None),
    ("knowledge.embed", "qeloop.knowledge:embed", None),
    ("knowledge.load_snapshot", "qeloop.knowledge:KnowledgeStore.load_snapshot", None),
    ("knowledge.save_snapshot", "qeloop.knowledge:KnowledgeStore.save_snapshot", _save_snapshot),
    ("domain.validate_feedback", "qeloop.domain:validate_feedback", _validate_feedback),
    ("agents.featurize_state", "qeloop.agents:featurize_state", None),
    ("agents.Agent.act", "qeloop.agents:Agent.act", None),
    ("agents.generate_test_cases", "qeloop.agents:generate_test_cases", _generate_test_cases),
    ("agents.record_feedback", "qeloop.agents:record_feedback", None),
    ("qe_env.execute_test", "qeloop.qe_env:execute_test", _execute_test),
    ("qe_env.replay_feedback", "qeloop.qe_env:replay_feedback", None),
    ("rewards.combine", "qeloop.rewards:combine", None),
    ("rewards.components", "qeloop.rewards:effectiveness_reward", None),
    ("rewards.components", "qeloop.rewards:coverage_reward", None),
    ("rewards.components", "qeloop.rewards:efficiency_reward", None),
    ("rewards.components", "qeloop.rewards:compliance_reward", None),
    ("rewards.components", "qeloop.rewards:adaptation_reward", None),
    ("ppo.ppo_update", "qeloop.ppo:ppo_update", None),
    ("ppo.compute_gae", "qeloop.ppo:compute_gae", None),
    ("rl_core.Adam.step", "qeloop.rl_core:Adam.step", None),
    ("dqn.train_step", "qeloop.dqn:DQNController.train_step", None),
    ("dqn.select_action", "qeloop.dqn:DQNController.select_action", None),
    ("trainer.init", "qeloop.trainer:TrainingSystem.__init__", None),
    ("trainer.run_episode", "qeloop.trainer:TrainingSystem.run_episode", None),
    ("trainer.checkpoint", "qeloop.trainer:TrainingSystem.checkpoint", None),
    ("trainer.restore", "qeloop.trainer:TrainingSystem.restore", None),
    ("cli.replay_into_store", "qeloop.cli:replay_into_store", None),
)

# Generator functions: each ``next`` on the generator is one span, so the
# span count is the number of records yielded plus the final exhausted call.
_GENERATORS = {"qe_env.replay_feedback"}

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYER_SPANS))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, probe):
        name_id = self._intern(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if probe is not None:
                probe(counts, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        name_id = self._intern(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_error = kwargs.get("on_error")
            if on_error is not None:

                def counting_on_error(err):
                    counts[f"{name}.rejected"] += 1
                    on_error(err)

                kwargs["on_error"] = counting_on_error
            gen = fn(*args, **kwargs)
            while True:
                idx = self._open(name_id)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                counts[f"{name}.records"] += 1
                yield item

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in LAYER_SPANS, wherever qeloop binds it,
        for the rest of the process.

        A target that no longer exists is skipped, so its layer reads 0.
        """
        for name, target, probe in LAYER_SPANS:
            module_name, path = target.split(":")
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name, None)
                raw = getattr(owner, "__dict__", {}).get(attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, probe))
                else:
                    wrapped = self._wrap(name, raw, probe)
                setattr(owner, attr, wrapped)
                continue
            fn = getattr(module, path, None)
            if fn is None:
                continue
            wrapped = (
                self._wrap_generator(name, fn) if name in _GENERATORS else self._wrap(name, fn, probe)
            )
            # Modules that imported the function by name hold their own
            # binding; replace each one so every caller goes through the span.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "qeloop" and getattr(mod, path, None) is fn:
                    setattr(mod, path, wrapped)

    # -- results -----------------------------------------------------------

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and median inclusive duration (us)."""
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        self_ns: dict[int, int] = defaultdict(int)
        durations: dict[int, list[int]] = defaultdict(list)
        for i in range(n):
            dur = self.end[i] - self.start[i]
            self_ns[self.name_id[i]] += dur - child_ns[i]
            durations[self.name_id[i]].append(dur)
        out = {}
        for nid, name in enumerate(self.names):
            durs = durations.get(nid, [])
            out[name] = {
                "calls": len(durs),
                "self_s": self_ns.get(nid, 0) / 1e9,
                "p50_us": statistics.median(durs) / 1e3 if durs else 0.0,
            }
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.names[self.name_id[i]]},{self.start[i]},{self.end[i]}\n"
                )
