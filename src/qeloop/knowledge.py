"""Hybrid vector-graph knowledge store.

Two retrieval surfaces over one store: an exact cosine-similarity scan over
unit-norm hashed embeddings, and a typed, weighted relationship graph walked
breadth-first with multiplicative path scoring. Both are deterministic:
ties always break by ascending id, and the embedding is platform-stable
signed feature hashing (no learned model, no process-salted ``hash()``).

Embeddings are held once, as rows of one append-only float64 matrix with a
per-row norm computed at insert; a query is one matrix-vector product plus
a partial selection of the best ``top_k`` rows, so only the scan itself
grows with the store.

Edge weights and retrieval parameters are the knobs the learning loop turns:
``apply_kb_action`` moves one retrieval parameter by a fixed step, and
``reinforce_edges`` nudges contributing edge weights toward 1 (true defect
found) or 0 (false positives only) with an exponential moving average.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .atomic import atomic_open, dump_json
from .config import ConfigCodec
from .domain import FeedbackRecord, RetrievalMode, check_keys


class KnowledgeError(Exception):
    """Base class for knowledge-store failures."""


class EmptyInput(KnowledgeError):
    """An embedding was requested for an empty token list."""


class UnknownNode(KnowledgeError):
    """A traversal seed does not exist in the graph."""


class EdgeType(IntEnum):
    Covers = 0
    Impacts = 1
    DependsOn = 2
    DetectedBy = 3


class KBAction(IntEnum):
    """Closed action set over retrieval parameters: 4 + 2*|edge types| + 1."""

    RaiseThreshold = 0
    LowerThreshold = 1
    IncreaseTopK = 2
    DecreaseTopK = 3
    BoostCovers = 4
    BoostImpacts = 5
    BoostDependsOn = 6
    BoostDetectedBy = 7
    DecayCovers = 8
    DecayImpacts = 9
    DecayDependsOn = 10
    DecayDetectedBy = 11
    NoOp = 12


KB_ACTION_COUNT = len(KBAction)

THRESHOLD_STEP = 0.02
TOP_K_STEP = 1
EDGE_WEIGHT_STEP = 0.05
TOP_K_MIN, TOP_K_MAX = 1, 64
DEPTH_MIN, DEPTH_MAX = 0, 4


def boost_action(edge_type: EdgeType) -> KBAction:
    return KBAction(KBAction.BoostCovers + int(edge_type))


def decay_action(edge_type: EdgeType) -> KBAction:
    return KBAction(KBAction.DecayCovers + int(edge_type))


def action_edge_type(action: KBAction) -> EdgeType | None:
    """The edge type an action adjusts, or None for non-edge actions."""
    if KBAction.BoostCovers <= action <= KBAction.BoostDetectedBy:
        return EdgeType(int(action) - int(KBAction.BoostCovers))
    if KBAction.DecayCovers <= action <= KBAction.DecayDetectedBy:
        return EdgeType(int(action) - int(KBAction.DecayCovers))
    return None


@dataclass(frozen=True)
class RetrievalParams(ConfigCodec):
    """Tunable retrieval knobs; every mutation goes through clamping."""

    similarity_threshold: float = 0.35
    top_k: int = 8
    traversal_depth: int = 2
    edge_type_weights: Mapping[EdgeType, float] = field(
        default_factory=lambda: {et: 0.6 for et in EdgeType}
    )

    def validate(self) -> "RetrievalParams":
        if not 0.0 <= self.similarity_threshold <= 1.0:
            raise ValueError(f"similarity_threshold {self.similarity_threshold} outside [0, 1]")
        if not TOP_K_MIN <= self.top_k <= TOP_K_MAX:
            raise ValueError(f"top_k {self.top_k} outside [{TOP_K_MIN}, {TOP_K_MAX}]")
        if not DEPTH_MIN <= self.traversal_depth <= DEPTH_MAX:
            raise ValueError(f"traversal_depth {self.traversal_depth} outside [{DEPTH_MIN}, {DEPTH_MAX}]")
        for et in EdgeType:
            w = self.edge_type_weights[et]
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"edge_type_weights[{et.name}] {w} outside [0, 1]")
        return self


def apply_kb_action(action: KBAction, params: RetrievalParams) -> RetrievalParams:
    """Move exactly one retrieval knob by its fixed step, then clamp.

    NoOp returns the params unchanged. Edge-type weight actions adjust the
    per-type traversal weights; the graph itself is never touched here.
    """
    action = KBAction(action)
    if action == KBAction.NoOp:
        return params
    if action == KBAction.RaiseThreshold:
        t = min(1.0, params.similarity_threshold + THRESHOLD_STEP)
        return replace(params, similarity_threshold=t)
    if action == KBAction.LowerThreshold:
        t = max(0.0, params.similarity_threshold - THRESHOLD_STEP)
        return replace(params, similarity_threshold=t)
    if action == KBAction.IncreaseTopK:
        return replace(params, top_k=min(TOP_K_MAX, params.top_k + TOP_K_STEP))
    if action == KBAction.DecreaseTopK:
        return replace(params, top_k=max(TOP_K_MIN, params.top_k - TOP_K_STEP))
    et = action_edge_type(action)
    step = EDGE_WEIGHT_STEP if action <= KBAction.BoostDetectedBy else -EDGE_WEIGHT_STEP
    weights = dict(params.edge_type_weights)
    weights[et] = min(1.0, max(0.0, weights[et] + step))
    return replace(params, edge_type_weights=weights)


@dataclass(frozen=True)
class VectorRecord:
    """One embedded item; usefulness is an EMA of reward attribution.

    The embedding itself lives only in the store's matrix.
    """

    id: str
    payload_ref: str
    usefulness: float = 0.5


@dataclass(frozen=True)
class GraphEdge:
    source: str
    target: str
    edge_type: EdgeType
    weight: float

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "target": self.target,
            "edge_type": self.edge_type.name,
            "weight": self.weight,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "GraphEdge":
        check_keys("graph edge", d, _EDGE_KEYS)
        return cls(d["source"], d["target"], EdgeType[d["edge_type"]], float(d["weight"]))


EdgeKey = tuple[str, str, EdgeType]

_EDGE_KEYS = frozenset({"source", "target", "edge_type", "weight"})
_RECORD_KEYS = frozenset({"id", "embedding", "payload_ref"})
_RECORD_OPTIONAL_KEYS = frozenset({"usefulness"})
_SNAPSHOT_KEYS = frozenset(
    {"schema_version", "d_emb", "vector_records", "graph_nodes", "graph_edges", "retrieval_params"}
)


def _feature_hash(feature: str) -> int:
    return int.from_bytes(hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest(), "big")


def embed(tokens: Sequence[str], d_emb: int) -> np.ndarray:
    """Signed feature hashing of token unigrams and bigrams, L2-normalized.

    Uses blake2b so the mapping is identical across runs and platforms.
    """
    if d_emb < 8:
        raise ValueError(f"d_emb must be >= 8, got {d_emb}")
    tokens = [str(t) for t in tokens]
    if not tokens:
        raise EmptyInput("cannot embed an empty token list")
    features = list(tokens)
    features.extend(f"{a} {b}" for a, b in zip(tokens, tokens[1:]))
    vec = np.zeros(d_emb, dtype=np.float64)
    for feat in features:
        h = _feature_hash(feat)
        bucket = h % d_emb
        sign = 1.0 if (h >> 63) & 1 else -1.0
        vec[bucket] += sign
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        # All signs cancelled; fall back to a deterministic single bucket.
        vec[_feature_hash(features[0] + "#") % d_emb] = 1.0
        norm = 1.0
    return vec / norm


class KnowledgeStore:
    """Exact-scan vector store plus typed weighted graph, queried together.

    Concurrency contract: any number of concurrent reads OR one exclusive
    mutation; no internal threads.
    """

    SCHEMA_VERSION = 1

    def __init__(self, d_emb: int = 256, params: RetrievalParams | None = None):
        self.d_emb = d_emb
        self.params = (params or RetrievalParams()).validate()
        self._records: dict[str, VectorRecord] = {}
        # Row i of _matrix[:len(_ids)] is the embedding of _ids[i], and
        # _norms[i] its norm; rows past len(_ids) are spare capacity.
        self._ids: list[str] = []
        self._row: dict[str, int] = {}
        self._matrix = np.zeros((0, d_emb), dtype=np.float64)
        self._norms = np.zeros(0, dtype=np.float64)
        self._nodes: set[str] = set()
        self._edges: dict[EdgeKey, float] = {}
        self._incidence: dict[str, list[tuple[str, EdgeKey]]] = {}
        self._mean_edge_weight: float | None = None

    # -- vector side ---------------------------------------------------

    def insert_vector(
        self, record_id: str, embedding: np.ndarray, payload_ref: str, usefulness: float = 0.5
    ) -> VectorRecord:
        emb = np.asarray(embedding, dtype=np.float64)
        if emb.shape != (self.d_emb,):
            raise ValueError(f"embedding shape {emb.shape} != ({self.d_emb},)")
        norm = float(np.linalg.norm(emb))
        if not abs(norm - 1.0) <= 1e-6:
            raise ValueError(f"embedding norm {norm} not within 1e-6 of 1")
        row = self._row.get(record_id)
        if row is None:
            row = len(self._ids)
            if row == len(self._matrix):
                self._grow()
            self._ids.append(record_id)
            self._row[record_id] = row
        self._matrix[row] = emb
        # The same row-wise call as a norm over the whole matrix, so each
        # row's norm carries the bits a batched computation would give it.
        self._norms[row] = np.linalg.norm(self._matrix[row : row + 1], axis=1)[0]
        record = VectorRecord(record_id, payload_ref, usefulness)
        self._records[record_id] = record
        return record

    def _grow(self) -> None:
        capacity = max(16, 2 * len(self._matrix))
        matrix = np.zeros((capacity, self.d_emb), dtype=np.float64)
        norms = np.zeros(capacity, dtype=np.float64)
        n = len(self._ids)
        matrix[:n] = self._matrix[:n]
        norms[:n] = self._norms[:n]
        self._matrix, self._norms = matrix, norms

    @property
    def vector_count(self) -> int:
        return len(self._ids)

    def get_record(self, record_id: str) -> VectorRecord | None:
        return self._records.get(record_id)

    def vector_query(
        self, query: np.ndarray, params: RetrievalParams | None = None
    ) -> list[tuple[VectorRecord, float]]:
        """Records with cosine similarity >= threshold, best first, top_k kept.

        Ties break by ascending id so repeated calls are identical. Only the
        records at or above the k-th best similarity are sorted, ties at
        that similarity included, so the id tie-break sees every candidate.
        """
        params = params or self.params
        n = len(self._ids)
        if not n:
            return []
        q = np.asarray(query, dtype=np.float64)
        qn = float(np.linalg.norm(q))
        if qn == 0.0:
            return []
        sims = self._matrix[:n] @ q / (self._norms[:n] * qn)
        rows = np.flatnonzero(sims >= params.similarity_threshold)
        k = params.top_k
        if len(rows) > k:
            cand = sims[rows]
            kth_best = np.partition(cand, len(cand) - k)[len(cand) - k]
            rows = rows[cand >= kth_best]
        ids = self._ids
        ranked = sorted(zip(sims[rows].tolist(), rows.tolist()), key=lambda p: (-p[0], ids[p[1]]))
        return [(self._records[ids[row]], sim) for sim, row in ranked[:k]]

    def update_usefulness(self, record_ids: Iterable[str], target: float, eta: float) -> None:
        """EMA each named record's usefulness toward target (0 or 1)."""
        for rid in sorted(set(record_ids)):
            rec = self._records.get(rid)
            if rec is None:
                continue
            u = rec.usefulness + eta * (target - rec.usefulness)
            self._records[rid] = VectorRecord(rec.id, rec.payload_ref, min(1.0, max(0.0, u)))

    # -- graph side ----------------------------------------------------

    def add_node(self, node_id: str) -> None:
        self._nodes.add(node_id)

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def upsert_edge(self, source: str, target: str, edge_type: EdgeType, weight: float) -> None:
        """Insert or overwrite the unique edge (source, target, type)."""
        if source == target:
            raise ValueError(f"self-loop on {source!r} rejected")
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"edge weight {weight} outside [0, 1]")
        key = (source, target, EdgeType(edge_type))
        is_new = key not in self._edges
        self._edges[key] = float(weight)
        self._mean_edge_weight = None
        if is_new:
            self._nodes.add(source)
            self._nodes.add(target)
            self._incidence.setdefault(source, []).append((target, key))
            self._incidence.setdefault(target, []).append((source, key))

    def neighbors(self, node_id: str) -> Sequence[tuple[str, EdgeKey]]:
        """(neighbor, edge key) for each edge incident to a node, either
        direction, in insertion order; empty for an unknown node.

        The returned sequence is the store's own and must not be modified.
        """
        return self._incidence.get(node_id, ())

    def edge_weight(self, source: str, target: str, edge_type: EdgeType) -> float | None:
        return self._edges.get((source, target, EdgeType(edge_type)))

    def edges(self) -> list[GraphEdge]:
        return [
            GraphEdge(s, t, et, w)
            for (s, t, et), w in sorted(self._edges.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2]))
        ]

    def mean_edge_weight(self) -> float:
        """Mean of all edge weights (0 without edges); cached between edge writes.
        The exactly rounded ``fsum`` does not depend on edge insertion order,
        so a restored store gives the bits of the store it was saved from."""
        if self._mean_edge_weight is None:
            self._mean_edge_weight = math.fsum(self._edges.values()) / len(self._edges) if self._edges else 0.0
        return self._mean_edge_weight

    def graph_traverse(
        self, seed_nodes: Sequence[str], params: RetrievalParams | None = None
    ) -> list[tuple[str, float]]:
        """Breadth-limited walk from the seeds with multiplicative scoring.

        Edges are walked in both directions (direction is relationship
        metadata, not a traversal constraint). A path's score is the product
        of ``weight * edge_type_weights[edge_type]`` over its edges; each
        reached node keeps the best score over all paths of length <=
        traversal_depth. Seeds score 1.0 (empty product).
        """
        params = params or self.params
        for seed in seed_nodes:
            if seed not in self._nodes:
                raise UnknownNode(f"seed {seed!r} not in graph")
        best: dict[str, float] = {}
        level: dict[str, float] = {}
        for seed in seed_nodes:
            best[seed] = 1.0
            level[seed] = 1.0
        for _ in range(params.traversal_depth):
            nxt: dict[str, float] = {}
            for node in sorted(level):
                score = level[node]
                for neighbor, key in self.neighbors(node):
                    factor = self._edges[key] * params.edge_type_weights[key[2]]
                    cand = score * factor
                    if cand > nxt.get(neighbor, -1.0):
                        nxt[neighbor] = cand
            for node, score in nxt.items():
                if score > best.get(node, -1.0):
                    best[node] = score
            level = nxt
            if not level:
                break
        return sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))

    # -- combined ------------------------------------------------------

    def hybrid_retrieve(
        self,
        query: np.ndarray,
        seeds: Sequence[str],
        mode: RetrievalMode,
        params: RetrievalParams | None = None,
    ) -> list[tuple[str, float]]:
        """Retrieve context as (id, score) pairs under the requested mode.

        Hybrid scores the union of both sides at 0.5*similarity +
        0.5*path_score with a missing side contributing 0, re-ranks, and
        truncates to top_k.
        """
        params = params or self.params
        mode = RetrievalMode(mode)
        if mode == RetrievalMode.VectorOnly:
            return [(rec.id, sim) for rec, sim in self.vector_query(query, params)]
        if mode == RetrievalMode.GraphOnly:
            return self.graph_traverse(seeds, params)
        vec_scores = {rec.id: sim for rec, sim in self.vector_query(query, params)}
        graph_scores = dict(self.graph_traverse(seeds, params))
        combined = {
            node_id: 0.5 * vec_scores.get(node_id, 0.0) + 0.5 * graph_scores.get(node_id, 0.0)
            for node_id in set(vec_scores) | set(graph_scores)
        }
        ranked = sorted(combined.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[: params.top_k]

    def reinforce_edges(
        self, feedback: FeedbackRecord, contributing_context: Iterable[str], eta: float
    ) -> int:
        """EMA contributing edge weights toward 1 (true defect) or 0 (FP only).

        Contributing edges are those with both endpoints in the retrieval
        context that produced the fed-back test case; they are found by
        walking the context nodes' incident edges. Each update reads only
        its own edge's weight, so the order of updates does not matter.
        Feedback with no defect reports at all leaves every weight
        unchanged. Returns the number of edges touched.
        """
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"eta {eta} outside (0, 1]")
        true_count = len(feedback.true_defects())
        fp_count = len(feedback.false_positives())
        if true_count > 0:
            target = 1.0
        elif fp_count > 0:
            target = 0.0
        else:
            return 0
        context = set(contributing_context)
        keys = {key for node in context for nbr, key in self.neighbors(node) if nbr in context}
        for key in keys:
            w = self._edges[key]
            self._edges[key] = min(1.0, max(0.0, w + eta * (target - w)))
        if keys:
            self._mean_edge_weight = None
        return len(keys)

    # -- snapshot ------------------------------------------------------

    def snapshot_dict(self) -> dict:
        return {
            "schema_version": self.SCHEMA_VERSION,
            "d_emb": self.d_emb,
            "vector_records": [self._record_dict(rid) for rid in sorted(self._records)],
            "graph_nodes": sorted(self._nodes),
            "graph_edges": [e.to_dict() for e in self.edges()],
            "retrieval_params": self.params.to_dict(),
        }

    def _record_dict(self, record_id: str) -> dict:
        record = self._records[record_id]
        return {
            "id": record.id,
            "embedding": self._matrix[self._row[record_id]].tolist(),
            "payload_ref": record.payload_ref,
            "usefulness": record.usefulness,
        }

    def save_snapshot(self, path) -> None:
        """Write the snapshot JSON; the previous file survives a failed write."""
        with atomic_open(path) as fh:
            dump_json(self.snapshot_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_snapshot_dict(cls, d: Mapping) -> "KnowledgeStore":
        """Rebuild a store; a missing or unknown key anywhere is rejected."""
        version = d.get("schema_version")
        if version != cls.SCHEMA_VERSION:
            raise ValueError(f"unsupported knowledge snapshot schema_version {version!r}")
        check_keys("knowledge snapshot", d, _SNAPSHOT_KEYS)
        params = RetrievalParams.from_dict(d["retrieval_params"]).validate()
        store = cls(d_emb=int(d["d_emb"]), params=params)
        for rec_d in d["vector_records"]:
            check_keys("vector record", rec_d, _RECORD_KEYS, _RECORD_OPTIONAL_KEYS)
        store._load_records(d["vector_records"])
        for node in d["graph_nodes"]:
            store.add_node(node)
        for edge_d in d["graph_edges"]:
            e = GraphEdge.from_dict(edge_d)
            store.upsert_edge(e.source, e.target, e.edge_type, e.weight)
        return store

    def _load_records(self, records: Sequence[Mapping]) -> None:
        """Fill an empty store from snapshot records: one matrix build and one
        norm call for all of them. Rejects what ``insert_vector`` rejects and
        a repeated id, naming the record."""
        ids = [rec_d["id"] for rec_d in records]
        try:
            matrix = np.array([rec_d["embedding"] for rec_d in records], dtype=np.float64)
        except (TypeError, ValueError):
            matrix = None
        if matrix is None or matrix.shape != (len(ids), self.d_emb):
            # Ragged, non-numeric or wrong-length: find the record to name.
            for rid, rec_d in zip(ids, records):
                try:
                    shape = np.asarray(rec_d["embedding"], dtype=np.float64).shape
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"vector record {rid!r}: embedding is not a vector of numbers: {exc}") from exc
                if shape != (self.d_emb,):
                    raise ValueError(f"vector record {rid!r}: embedding shape {shape} != ({self.d_emb},)")
            matrix = np.zeros((0, self.d_emb), dtype=np.float64)
        norms = np.linalg.norm(matrix, axis=1)
        off_unit = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-6))
        if len(off_unit):
            row = int(off_unit[0])
            raise ValueError(f"vector record {ids[row]!r}: embedding norm {norms[row]} not within 1e-6 of 1")
        row_of = {rid: row for row, rid in enumerate(ids)}
        if len(row_of) != len(ids):
            duplicate = next(rid for row, rid in enumerate(ids) if row_of[rid] != row)
            raise ValueError(f"vector record {duplicate!r}: duplicate id")
        self._ids, self._row, self._matrix, self._norms = ids, row_of, matrix, norms
        self._records = {
            rid: VectorRecord(rid, rec_d["payload_ref"], float(rec_d.get("usefulness", 0.5)))
            for rid, rec_d in zip(ids, records)
        }

    @classmethod
    def load_snapshot(cls, path) -> "KnowledgeStore":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_snapshot_dict(json.load(fh))
