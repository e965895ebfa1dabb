"""Hybrid vector-graph knowledge store.

Two retrieval surfaces over one store: an exact cosine-similarity scan over
unit-norm hashed embeddings, and a typed, weighted relationship graph walked
breadth-first with multiplicative path scoring. Both are deterministic:
ties always break by ascending id, and the embedding is platform-stable
signed feature hashing (no learned model, no process-salted ``hash()``).

Embeddings are held once, as rows of one append-only float64 matrix with a
per-row norm computed at insert; a query is one matrix-vector product plus
a partial selection of the best ``top_k`` rows, so only the scan itself
grows with the store. The product's result is kept per query until the next
matrix write, so a query repeated against an unchanged store skips the scan.

Edge weights and retrieval parameters are the knobs the learning loop turns:
``apply_kb_action`` moves one retrieval parameter by a fixed step, and
``reinforce_edges`` nudges contributing edge weights toward 1 (true defect
found) or 0 (false positives only) with an exponential moving average.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import IntEnum
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .atomic import atomic_open
from .config import ConfigCodec
from .domain import FeedbackRecord, InputError, RetrievalMode, check_keys, read_json, stable_hash
from .rl_core import load_numbers, parse_json


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
# The fewest dimensions ``embed`` hashes into; every embedded width
# (``kb.d_emb``, and ``env.d_cov`` for the modifiers' nudges) is at least this.
EMBED_DIM_MIN = 8
# Distinct queries whose similarity vectors a store keeps between writes; a
# run queries once per requirement, so this is far above a run's need.
SIMILARITY_CACHE_SIZE = 256


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
    """One embedded item. ``usefulness`` is carried through snapshots as
    written (0.5 unless given); nothing learns or reads it.

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
    def from_dict(cls, d: Mapping, what: str = "graph edge") -> "GraphEdge":
        """``to_dict`` output; a missing or unknown key, an end that is not a
        string, an unknown edge type and a weight that is not a finite JSON
        number are rejected, named with their path under ``what``."""
        check_keys(what, d, _EDGE_KEYS)
        return cls(
            read_json(d["source"], str, what, "source"),
            read_json(d["target"], str, what, "target"),
            read_json(d["edge_type"], EdgeType, what, "edge_type"),
            read_json(d["weight"], float, what, "weight"),
        )


EdgeKey = tuple[str, str, EdgeType]

_EDGE_KEYS = frozenset({"source", "target", "edge_type", "weight"})
_RECORD_KEYS = frozenset({"id", "embedding", "payload_ref"})
_RECORD_OPTIONAL_KEYS = frozenset({"usefulness"})
_SNAPSHOT_KEYS = frozenset(
    {"schema_version", "d_emb", "vector_records", "graph_nodes", "graph_edges", "retrieval_params"}
)


def embed(tokens: Sequence[str], d_emb: int) -> np.ndarray:
    """Signed feature hashing of token unigrams and bigrams, L2-normalized.

    Uses ``stable_hash`` so the mapping is identical across runs and platforms.
    """
    if d_emb < EMBED_DIM_MIN:
        raise ValueError(f"d_emb must be >= {EMBED_DIM_MIN}, got {d_emb}")
    tokens = [str(t) for t in tokens]
    if not tokens:
        raise ValueError("cannot embed an empty token list")
    features = list(tokens)
    features.extend(f"{a} {b}" for a, b in zip(tokens, tokens[1:]))
    vec = np.zeros(d_emb, dtype=np.float64)
    for feat in features:
        h = stable_hash(feat)
        bucket = h % d_emb
        sign = 1.0 if (h >> 63) & 1 else -1.0
        vec[bucket] += sign
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        # All signs cancelled; fall back to a deterministic single bucket.
        vec[stable_hash(features[0] + "#") % d_emb] = 1.0
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
        # Similarity vectors of recent queries against the current matrix,
        # keyed by the query's bytes; every matrix write clears it.
        self._sims: dict[bytes, np.ndarray] = {}
        self._nodes: set[str] = set()
        self._edges: dict[EdgeKey, float] = {}
        self._incidence: dict[str, list[tuple[str, EdgeKey]]] = {}
        self._mean_edge_weight: float | None = None

    # -- vector side ---------------------------------------------------

    def insert_vector(
        self, record_id: str, embedding: np.ndarray, payload_ref: str, usefulness: float = 0.5
    ) -> None:
        """Add one record; rejects what ``_add_rows`` rejects."""
        self._add_rows([VectorRecord(record_id, payload_ref, usefulness)], [embedding])

    def _add_rows(self, records: Sequence[VectorRecord], embeddings: Sequence) -> None:
        """Append ``embeddings[i]`` as the row of ``records[i]``, with one matrix
        build and one row-norm call; an empty store takes the built rows as
        its matrix. Rejects, naming the record, an embedding that is not
        ``d_emb`` numbers of unit norm (within 1e-6) and an id that is
        stored or repeated; a rejected call adds nothing."""
        ids = [record.id for record in records]
        try:
            rows = load_numbers(embeddings, np.float64, "embeddings", "matrix of numbers")
        except ValueError:
            rows = None
        if rows is None or rows.shape != (len(ids), self.d_emb):
            # Ragged, non-numeric or wrong-length: find the record to name.
            for rid, embedding in zip(ids, embeddings):
                what = f"vector record {rid!r}: embedding"
                shape = load_numbers(embedding, np.float64, what, "vector of numbers").shape
                if shape != (self.d_emb,):
                    raise ValueError(f"{what} shape {shape} != ({self.d_emb},)")
            rows = np.zeros((0, self.d_emb), dtype=np.float64)
        # A row's norm from the row-wise call has the same bits whatever the
        # number of rows, so rows added one at a time or all at once agree.
        row_norms = np.linalg.norm(rows, axis=1)
        unit = np.abs(row_norms - 1.0) <= 1e-6
        if not unit.all():
            row = int(np.argmin(unit))
            raise ValueError(f"vector record {ids[row]!r}: embedding norm {row_norms[row]} not within 1e-6 of 1")
        n = len(self._ids)
        row_of = {rid: row for row, rid in enumerate(ids, n)}
        if len(row_of) != len(ids) or not self._row.keys().isdisjoint(row_of):
            duplicate = next(rid for row, rid in enumerate(ids, n) if rid in self._row or row_of[rid] != row)
            raise ValueError(f"vector record {duplicate!r}: duplicate id")
        if not n:
            self._matrix, self._norms = rows, row_norms
        else:
            end = n + len(ids)
            if end > len(self._matrix):
                capacity = max(16, 2 * len(self._matrix), end)
                matrix, norms = np.zeros((capacity, self.d_emb)), np.zeros(capacity)
                matrix[:n], norms[:n] = self._matrix[:n], self._norms[:n]
                self._matrix, self._norms = matrix, norms
            self._matrix[n:end] = rows
            self._norms[n:end] = row_norms
        self._ids.extend(ids)
        self._row.update(row_of)
        self._records.update(zip(ids, records))
        self._sims.clear()

    @property
    def vector_count(self) -> int:
        return len(self._ids)

    def vector_query(
        self, query: np.ndarray, params: RetrievalParams | None = None
    ) -> list[tuple[str, float]]:
        """(id, similarity) of the records with cosine similarity >=
        threshold, best first, top_k kept.

        Ties break by ascending id so repeated calls are identical. Only the
        records at or above the k-th best similarity are sorted, ties at
        that similarity included, so the id tie-break sees every candidate.
        """
        params = params or self.params
        n = len(self._ids)
        if not n:
            return []
        q = np.asarray(query, dtype=np.float64)
        key = q.tobytes()
        sims = self._sims.get(key)
        if sims is None:
            qn = float(np.linalg.norm(q))
            if qn == 0.0:
                return []
            if len(self._sims) >= SIMILARITY_CACHE_SIZE:
                self._sims.clear()
            sims = self._sims[key] = self._matrix[:n] @ q / (self._norms[:n] * qn)
            sims.flags.writeable = False
        rows = np.flatnonzero(sims >= params.similarity_threshold)
        k = params.top_k
        if len(rows) > k:
            cand = sims[rows]
            kth_best = np.partition(cand, len(cand) - k)[len(cand) - k]
            rows = rows[cand >= kth_best]
        ids = self._ids
        ranked = sorted(zip(sims[rows].tolist(), rows.tolist()), key=lambda p: (-p[0], ids[p[1]]))
        return [(ids[row], sim) for sim, row in ranked[:k]]

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
                raise ValueError(f"seed {seed!r} not in graph")
        best: dict[str, float] = {}
        level: dict[str, float] = {}
        for seed in seed_nodes:
            best[seed] = 1.0
            level[seed] = 1.0
        for _ in range(params.traversal_depth):
            nxt: dict[str, float] = {}
            for node, score in level.items():
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
            return self.vector_query(query, params)
        if mode == RetrievalMode.GraphOnly:
            return self.graph_traverse(seeds, params)
        vec_scores = dict(self.vector_query(query, params))
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
        """The snapshot document. Records whose embeddings have the same bytes
        share one embedding list, which ``save_snapshot`` then encodes once;
        the document's lists are read-only."""
        records = [self._records[rid] for rid in sorted(self._records)]
        embeddings = _shared_tolist(self._matrix[self._row[record.id]] for record in records)
        return {
            "schema_version": self.SCHEMA_VERSION,
            "d_emb": self.d_emb,
            "vector_records": [
                {
                    "id": record.id,
                    "embedding": embedding,
                    "payload_ref": record.payload_ref,
                    "usefulness": record.usefulness,
                }
                for record, embedding in zip(records, embeddings)
            ],
            "graph_nodes": sorted(self._nodes),
            "graph_edges": [e.to_dict() for e in self.edges()],
            "retrieval_params": self.params.to_dict(),
        }

    def save_snapshot(self, path) -> None:
        """Write the snapshot JSON; the previous file survives a failed write."""
        with atomic_open(path) as fh:
            _SnapshotWriter(fh.write).dump(self.snapshot_dict())
            fh.write("\n")

    @classmethod
    def from_snapshot_dict(cls, d: Mapping, what: str = "knowledge snapshot") -> "KnowledgeStore":
        """Rebuild a store. A missing or unknown key anywhere, a value that
        ``read_json`` rejects as the kind its writer gives it (sections are
        lists, ``d_emb`` an integer, ids, payload references and nodes strings,
        weights and usefulness finite numbers), a ``d_emb`` below ``EMBED_DIM_MIN``
        and what the retrieval parameters' codec, ``_add_rows`` and ``upsert_edge``
        reject are named with their dotted path under ``what``, each an
        ``InputError``."""
        version = d.get("schema_version") if isinstance(d, Mapping) else None
        if version != cls.SCHEMA_VERSION:
            raise InputError(f"unsupported {what} schema_version {version!r}")
        check_keys(what, d, _SNAPSHOT_KEYS)
        vector_records, graph_nodes, graph_edges = (
            read_json(d[name], list, what, name) for name in ("vector_records", "graph_nodes", "graph_edges")
        )
        try:
            params = RetrievalParams.from_dict(d["retrieval_params"]).validate()
        except ValueError as exc:
            raise InputError(f"{what}.retrieval_params: {exc}") from None
        d_emb = read_json(d["d_emb"], int, what, "d_emb")
        if d_emb < EMBED_DIM_MIN:
            raise InputError(f"{what}.d_emb must be >= {EMBED_DIM_MIN}, got {d_emb}")
        store = cls(d_emb=d_emb, params=params)
        records = []
        for i, rec_d in enumerate(vector_records):
            where = f"{what}.vector_records[{i}]"
            check_keys(where, rec_d, _RECORD_KEYS, _RECORD_OPTIONAL_KEYS)
            records.append(
                VectorRecord(
                    read_json(rec_d["id"], str, where, "id"),
                    read_json(rec_d["payload_ref"], str, where, "payload_ref"),
                    read_json(rec_d["usefulness"], float, where, "usefulness") if "usefulness" in rec_d else 0.5,
                )
            )
        try:
            store._add_rows(records, [rec_d["embedding"] for rec_d in vector_records])
        except ValueError as exc:
            raise InputError(f"{what}.vector_records: {exc}") from None
        for i, node in enumerate(graph_nodes):
            store.add_node(read_json(node, str, f"{what}.graph_nodes", i))
        for i, edge_d in enumerate(graph_edges):
            where = f"{what}.graph_edges[{i}]"
            e = GraphEdge.from_dict(edge_d, where)
            try:
                store.upsert_edge(e.source, e.target, e.edge_type, e.weight)
            except ValueError as exc:
                raise InputError(f"{where}: {exc}") from None
        return store

    @classmethod
    def load_snapshot(cls, path) -> "KnowledgeStore":
        """Read the snapshot at ``path``; a file that is not UTF-8 JSON text is
        an ``InputError`` naming the path and the decoder's position."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = parse_json(fh.read())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InputError(f"knowledge snapshot {path} is not valid JSON: {exc}") from None
        return cls.from_snapshot_dict(doc)


def _shared_tolist(rows: Iterable[np.ndarray]) -> list[list]:
    """``row.tolist()`` of each of ``rows``; rows with the same bytes share
    one list. Comparing bytes keeps ``-0.0`` and ``0.0`` apart."""
    lists: dict[bytes, list] = {}
    out = []
    for row in rows:
        key = row.tobytes()
        values = lists.get(key)
        if values is None:
            values = lists[key] = row.tolist()
        out.append(values)
    return out


@lru_cache(maxsize=None)
def _indentation(depth: int) -> tuple[json.JSONEncoder, str, str]:
    """At ``depth``: the encoder of a leaf, whose item separator carries the
    indentation, the text after an opening bracket and before a closing one."""
    opening = "\n" + "  " * (depth + 1)
    return json.JSONEncoder(sort_keys=True, separators=("," + opening, ": ")), opening, opening[:-2]


class _SnapshotWriter:
    """Writes the bytes of ``json.dump(doc, fh, indent=2, sort_keys=True)``
    for dicts with string keys, lists, tuples and JSON scalars; any other
    value, a key that is not a string included, raises ``TypeError``.

    ``json.dump`` runs the pure-Python encoder once it indents, so this walks
    the containers itself and hands each leaf (a container that holds none,
    such as an embedding list) to the C encoder in one call. The text goes
    out one container at a time and is never held whole. Only a leaf object
    met a second time at the same depth keeps its text, so a leaf shared by
    many records is encoded twice at most.
    """

    def __init__(self, write: Callable[[str], object]):
        self._write = write
        # Leaves by (id, depth): None once met, their text once met twice. The
        # caller holds the document for the whole dump, so ids are not reused.
        self._leaves: dict[tuple[int, int], str | None] = {}

    def dump(self, value, depth: int = 0) -> None:
        encoder, opening, closing = _indentation(depth)
        is_dict = isinstance(value, dict)
        if not is_dict and not isinstance(value, (list, tuple)):
            self._write(encoder.encode(value))
            return
        if not value:
            self._write("{}" if is_dict else "[]")
            return
        memo = (id(value), depth)
        text = self._leaves.get(memo)
        children = value.values() if is_dict else value
        if text is None and not any(issubclass(t, (dict, list, tuple)) for t in set(map(type, children))):
            # The C encoder would spell an int or float key as a string.
            if is_dict and not all(isinstance(key, str) for key in value):
                raise TypeError(f"keys must be str, got {[key for key in value if not isinstance(key, str)]!r}")
            text = encoder.encode(value)
            text = f"{text[0]}{opening}{text[1:-1]}{closing}{text[-1]}"
            self._leaves[memo] = text if memo in self._leaves else None
        if text is not None:
            self._write(text)
            return
        # encode_basestring_ascii, json.dump's key encoder, raises TypeError
        # on a key that is not a string.
        separator = ("{" if is_dict else "[") + opening
        for key, child in sorted(value.items()) if is_dict else enumerate(value):
            self._write(f"{separator}{encode_basestring_ascii(key)}: " if is_dict else separator)
            separator = encoder.item_separator
            self.dump(child, depth + 1)
        self._write(closing + ("}" if is_dict else "]"))
