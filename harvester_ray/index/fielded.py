"""BM25F fielded index: per-field postings in the engine's own segment
format + the single-process fielded ranker.

The reference's index document is many-field (map_couch_to_solr_doc
emits title/creator/subject/description fields,
/root/reference/harvester/solr_updater.py:64-134,688-745) and the Solr
tier it delegates to boosts across them (qf=title^2 body). The engine's
analog stores ONE standard index per field — the per-field postings
reuse the exact bucket/segment layout, lineage, varint blocks and (doc/term/
grid) sharding of the single-field index — and a ``FieldedIndex``
combines them at query time with BM25F (Robertson/Zaragoza): per-field
weighted, length-normalized tfs are summed BEFORE the k1 saturation,
idf comes from the whole-document dictionary.

Scale story: a field is just another index, so each field shards along
both axes of the serving grid (index/serving.py, payload ``bm25f``: a
cell loads the ``term_shard``/``shard`` slice of the main AND every
field index, and ships ``FieldedIndex.term_contributions``) with no new
machinery; the only cross-field state a cell needs is the per-field
(weight, b, avgdl) triple.

Exactness contract (shared with pipelines.fulltext.bm25f_topk and the
BM25F_TOPK DuckDB oracle): the per-(term, doc) contribution is a single
float expression mirrored term by term across all three, fixed-pointed
at the row (``_FP8``), then integer-summed — so ranks are bit-stable
across the pipeline, this class, and any sharded composition of it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import ray.data

from harvester_ray.config import DEFAULT_INDEX_CONFIG, IndexConfig
from harvester_ray.index.build import IndexPaths, build_index
from harvester_ray.index.query import InvertedIndex

_FP8 = 100_000_000


@dataclass(frozen=True)
class FieldSpec:
    """One field's ranking parameters."""

    name: str
    weight: float = 1.0
    b: float = 0.75


def split_title_body(
    docs: "ray.data.Dataset", title_tokens: int
) -> "ray.data.Dataset":
    """(doc_id, title, body) — deterministic positional field split:
    ``title`` is the doc's first ``title_tokens`` analyzer tokens
    re-joined with single spaces, ``body`` the rest. Re-tokenizing a
    joined field reproduces its token stream exactly (tokens are
    [a-z0-9]+), so field postings built from these strings equal
    postings of the positional token split."""
    import pyarrow as pa

    from harvester_ray.functions.text import flatten_tokens, tokenize_column

    def split(t: pa.Table) -> pa.Table:
        toks, parent = flatten_tokens(tokenize_column(t["text"]))
        parent_np = parent.to_numpy(zero_copy_only=False).astype(np.int64)
        tok_list = toks.to_pylist()
        titles = [""] * t.num_rows
        bodies = [""] * t.num_rows
        n = len(parent_np)
        if n:
            change = np.r_[True, parent_np[1:] != parent_np[:-1]]
            starts = np.flatnonzero(change)
            ends = np.r_[starts[1:], n]
            for s, e in zip(starts, ends):
                row = int(parent_np[s])
                cut = min(s + title_tokens, e)
                titles[row] = " ".join(tok_list[s:cut])
                bodies[row] = " ".join(tok_list[cut:e])
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "title": pa.array(titles, pa.string()),
                "body": pa.array(bodies, pa.string()),
            }
        )

    return docs.map_batches(split, batch_format="pyarrow")


def build_field_indexes(
    docs: "ray.data.Dataset",
    out_dir: str,
    title_tokens: int,
    cfg: IndexConfig = DEFAULT_INDEX_CONFIG,
) -> dict[str, IndexPaths]:
    """Build one standard index per field under ``out_dir/<field>``.

    ``n_docs`` is pinned to the full corpus count for BOTH field
    indexes (a doc with an empty body still counts in N and in the
    body avgdl denominator), matching the BM25F corpus statistics.

    The split dataset is deliberately NOT materialized between the two
    build passes: re-tokenizing the pruned (doc_id, text) read twice
    streams, while materializing would write a corpus-sized
    (title, body) copy through the object store/spill path — the wrong
    trade at 100 TB. Accepting 2× tokenize cost is the scale choice."""
    n_docs = docs.count()
    fielded = split_title_body(docs, title_tokens)
    return build_field_indexes_from(
        fielded, out_dir, ("title", "body"), n_docs, cfg
    )


def build_field_indexes_from(
    fielded_docs: "ray.data.Dataset",
    out_dir: str,
    field_cols: tuple[str, ...],
    n_docs: int,
    cfg: IndexConfig = DEFAULT_INDEX_CONFIG,
) -> dict[str, IndexPaths]:
    """One standard index per EXPLICIT field column of
    ``fielded_docs`` (doc_id + one string column per field) — for
    documents whose fields are real (extracted HTML <title> vs body)
    rather than positionally split."""
    out: dict[str, IndexPaths] = {}
    for fname in field_cols:
        fdocs = fielded_docs.map_batches(
            lambda t, f=fname: t.select(["doc_id", f]).rename_columns(
                ["doc_id", "text"]
            ),
            batch_format="pyarrow",
        )
        out[fname] = build_index(
            fdocs, os.path.join(out_dir, fname), cfg, n_docs=n_docs
        )
    return out


class FieldedIndex:
    """BM25F serving over per-field indexes.

    ``main`` supplies whole-document df / N for idf (for a positional
    field split, df over any field == df over the full text, so the
    main single-field index's dictionary is the exact idf source).
    Each entry of ``fields`` maps a FieldSpec to the InvertedIndex of
    that field's postings — which may itself be loaded doc-sharded
    (``shard=``) or term-sharded (``term_shard=``); contributions are
    row-local and sums are integers, so any sharded composition
    reproduces single-process ranks bit for bit."""

    def __init__(
        self,
        main: InvertedIndex,
        fields: list[tuple[FieldSpec, InvertedIndex]],
        k1: float | None = None,
    ):
        self.main = main
        self.fields = fields
        self.k1 = float(main.k1 if k1 is None else k1)
        # exact avg field length: integer total_tokens / integer n_docs
        # from the field index's stats (same division as the pipeline)
        self._avg: dict[str, float] = {
            spec.name: idx.stats["total_tokens"] / idx.stats["n_docs"]
            for spec, idx in fields
        }

    def term_contributions(
        self, term: str
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """(doc_ids, fp8 contributions) for one query term, or None if
        the term is absent from the whole-document dictionary."""
        meta = self.main.dictionary.get(term)
        if meta is None:
            return None
        idf = self.main.idf(meta[1])
        parts = []
        for spec, idx in self.fields:
            p = idx.postings(term)
            if p is not None and len(p.doc_ids):
                parts.append((spec, p))
        if not parts:
            return None
        ids_u = parts[0][1].doc_ids
        for _, p in parts[1:]:
            ids_u = np.union1d(ids_u, p.doc_ids)
        tfw = np.zeros(len(ids_u), dtype=np.float64)
        for spec, p in parts:
            pos = np.searchsorted(ids_u, p.doc_ids)
            avg = self._avg[spec.name]
            tfw[pos] += (spec.weight * p.tfs.astype(np.float64)) / (
                (1.0 - spec.b)
                + spec.b * (p.doc_lens.astype(np.float64) / avg)
            )
        contrib = idf * (tfw / (self.k1 + tfw))
        return ids_u, np.floor(contrib * _FP8 + 0.5).astype(np.int64)

    def search(self, query: str, k: int = 10) -> list[tuple[int, int, int]]:
        """[(rank, doc_id, score_fp)] — BM25F top-k, rank by integer
        score DESC then doc_id ASC (the shared ranking rule). Queries
        tokenize with the MAIN index's analyzer (the same one the
        field builds record), so non-default analyzers stem/stop the
        query exactly like the postings."""
        id_parts, fp_parts = [], []
        for t in sorted(set(self.main.analyzer.tokenize(query))):
            c = self.term_contributions(t)
            if c is not None:
                id_parts.append(c[0])
                fp_parts.append(c[1])
        return _topk_from_contributions(id_parts, fp_parts, k)


def _topk_from_contributions(
    id_parts: list[np.ndarray], fp_parts: list[np.ndarray], k: int
) -> list[tuple[int, int, int]]:
    """Shared fused-ranking tail: integer-sum contributions per doc,
    rank by score_fp DESC then doc_id ASC."""
    if not id_parts:
        return []
    ids = np.concatenate(id_parts)
    fps = np.concatenate(fp_parts)
    uids, inv = np.unique(ids, return_inverse=True)
    sums = np.zeros(len(uids), dtype=np.int64)
    np.add.at(sums, inv, fps)
    order = np.lexsort((uids, -sums))[:k]
    return [
        (r, int(uids[i]), int(sums[i]))
        for r, i in enumerate(order, start=1)
    ]
