"""Sharded query serving: one restartable cell, one router.

The reference hands ranking to a sharded Solr collection — one query
tier, partitioned by documents and by vocabulary (SURVEY.md §2.7
top-k row). Here that tier is a T × S grid of ``ServingCell`` actors:
cell (s, c) loads the intersection of term row s (term buckets with
``bucket % T == s``) and doc chunk c of S, so cell memory is
∝ vocab/T + postings/(T·S). The doc-sharded tier is the grid with
T = 1, the vocabulary-sharded tier the grid with S = 1.

Each grid serves one payload; each payload has a per-term unit and a
merge:

- ``bm25``: (doc_ids, BM25 scores) -> query.rank_scored_postings
- ``bm25f``: (doc_ids, fp8 contributions) ->
  fielded._topk_from_contributions
- ``positions``: (doc per position, position) -> exact phrase
  alignment over (doc, base) keys

The topology picks the path; only a cell that holds every term can
rank on its own. A ``bm25`` grid with T = 1 ranks in every cell and
merges the S·k candidates — lossless, because chunks partition doc
space. Every other grid sends each query term to its row, gathers the
term's unit from every cell of the row, and concatenates the units in
chunk order (chunks are ordered disjoint doc_id ranges, so the result
is doc_id-sorted). It then runs the payload's merge in global
sorted-term order — the single-process accumulation order, so ranks
and scores are bit-identical to one process
(tests/test_term_sharded.py). For AND across term rows the same
partition-then-intersect shape is HERO's (SIGMOD'24).

Fault tolerance: a cell's state derives entirely from the immutable
index files, and its constructor takes plain values, so a crashed
cell restarts and reloads while in-flight calls retry
(max_restarts/max_task_retries). On a real cluster a lost node
degrades to a reload, never to a wrong or partial result (Solr
shards.tolerant=false semantics).
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray

from harvester_ray.functions.text import get_analyzer, hash64
from harvester_ray.index.fielded import (
    FieldedIndex,
    FieldSpec,
    _topk_from_contributions,
)
from harvester_ray.index.maintenance import source_dirs
from harvester_ray.index.positional import _positions_subdir
from harvester_ray.index.query import InvertedIndex, rank_scored_postings

PAYLOADS = ("bm25", "bm25f", "positions")
_U64 = 0xFFFFFFFFFFFFFFFF


def term_row(term: str, num_term_buckets: int, n_term_shards: int) -> int:
    """The term row that serves ``term``: its build bucket
    ``hash64(term) (as uint64) % num_term_buckets`` — the assignment
    the segment files (``part-bucket{b}c{c}``, bucketed by
    build.make_spimi_with_sides) and the positional store
    (positional.make_positions_batch) are written under — then
    ``bucket % n_term_shards``."""
    return ((hash64(term) & _U64) % num_term_buckets) % n_term_shards


def _layout(
    roots: list[str], payload: str, n_term_shards: int, n_doc_shards: int
) -> tuple[int, str]:
    """(num_term_buckets, analyzer name) of a grid over ``roots`` (the
    first root's analyzer). Term rows need ONE bucket count in every
    source of every root; doc chunks need one set of chunk bounds
    across roots (a bm25f grid's main and field indexes)."""
    key = "num_buckets" if payload == "positions" else "num_term_buckets"
    nbs, bounds, analyzer = set(), set(), None
    for root in roots:
        for i, src in enumerate(source_dirs(root)):
            with open(os.path.join(src, "stats.json")) as f:
                st = json.load(f)
            nbs.add(st.get(key))
            if i == 0:
                bounds.add(tuple(st.get("chunk_bounds") or ()))
                analyzer = analyzer or st.get("analyzer", "default")
    if n_doc_shards > 1 and len(bounds) > 1:
        raise ValueError(
            "the indexes disagree on chunk_bounds; build the field "
            "indexes with the main build's segment_doc_chunks"
        )
    if n_term_shards == 1:
        return 1, analyzer  # one row: every term routes to it
    if len(nbs) != 1 or None in nbs:
        raise ValueError(
            "term-routed serving needs ONE num_term_buckets recorded in "
            f"every source of every index (got {nbs}); rebuild or merge "
            "with one config"
        )
    nb = nbs.pop()
    if n_term_shards > nb:
        raise ValueError(
            f"n_term_shards={n_term_shards} exceeds num_term_buckets={nb}; "
            "rows beyond the bucket count would be empty"
        )
    return nb, analyzer


@ray.remote(max_restarts=3, max_task_retries=3)
class ServingCell:
    """Cell (s, c) of a T × S serving grid: loads its slice once in
    ``__init__`` and serves the payload's per-term units through
    ``fetch``. A ``bm25`` cell with T = 1 holds the whole vocabulary of
    its doc chunk, so it also serves local ``search`` and the two
    facet phases."""

    def __init__(
        self,
        payload: str,
        root: str,
        fields: list[tuple[FieldSpec, str]],
        term_shard: tuple[int, int],
        doc_shard: tuple[int, int],
    ):
        self.payload = payload
        self.term_shard = term_shard
        if payload == "positions":
            self.root = root
            with open(os.path.join(root, "stats.json")) as f:
                self.num_buckets = int(json.load(f)["num_buckets"])
            return
        ts = term_shard if term_shard[1] > 1 else None
        dc = doc_shard if doc_shard[1] > 1 else None

        def open_(d: str, preload: bool = False) -> InvertedIndex:
            return InvertedIndex(d, preload=preload, term_shard=ts, shard=dc)

        # a bm25f main index only supplies the dictionary (idf)
        self.index = open_(root, preload=payload == "bm25")
        if payload == "bm25f":
            self.fielded = FieldedIndex(
                self.index, [(spec, open_(d)) for spec, d in fields]
            )
        self._match_cache: dict = {}
        self._facet_maps: dict = {}

    def fetch(self, terms: list[str]) -> dict:
        """{term: unit} for the requested terms this cell holds."""
        if self.payload == "positions":
            return self._positions(terms)
        unit = (
            self.index.scored_postings
            if self.payload == "bm25"
            else self.fielded.term_contributions
        )
        got = {t: unit(t) for t in terms}
        return {t: u for t, u in got.items() if u is not None}

    def _positions(self, terms: list[str]) -> dict:
        """term -> (doc per position, position) for the requested terms
        in this cell's buckets: one actor-local read of only the
        buckets they hash to, with a term_id filter pushed to parquet."""
        s, T = self.term_shard
        tids = {
            hash64(t): t
            for t in terms
            if term_row(t, self.num_buckets, T) == s
        }
        base = glob.escape(_positions_subdir(self.root))
        paths = [
            fp
            for b in sorted({(tid & _U64) % self.num_buckets for tid in tids})
            for fp in sorted(
                glob.glob(os.path.join(base, f"bucket={b}", "part-*.parquet"))
            )
        ]
        if not paths:
            return {}
        tbl = pads.dataset(paths).to_table(
            columns=["term_id", "doc_id", "positions"],
            filter=pads.field("term_id").isin(
                pa.array(list(tids), pa.int64())
            ),
        )
        if tbl.num_rows == 0:
            return {}
        plist = tbl["positions"].combine_chunks()
        parent = pc.list_parent_indices(plist).to_numpy(zero_copy_only=False)
        pos = pc.list_flatten(plist).to_numpy(zero_copy_only=False)
        tid = tbl["term_id"].to_numpy(zero_copy_only=False)[parent]
        did = tbl["doc_id"].to_numpy(zero_copy_only=False)[parent]
        return {
            tids[int(t)]: (did[tid == t], pos[tid == t])
            for t in np.unique(tid)
        }

    def describe(self) -> dict:
        """The cell's footprint: owned position buckets, or docs in its
        slots array, dictionary terms and segment files."""
        if self.payload == "positions":
            s, T = self.term_shard
            return {"buckets": list(range(s, self.num_buckets, T))}
        ix = self.index
        return {
            "docs": 0 if ix._slots is None else len(ix._slots),
            "vocab": len(ix.dictionary),
            "segment_files": sum(len(ds.files) for ds in ix._seg_ds),
        }

    def search(
        self, query: str, k: int, mode: str, algorithm: str, after=None
    ) -> list[tuple[int, float]]:
        return self.index.search(
            query, k=k, mode=mode, algorithm=algorithm, after=after
        )

    # ---- distributed faceting (Solr facet.overrequest + facet.refine
    # analog: the reference's solr_updater.py delegates all faceted
    # search to the Solr tier; this is that tier's two-phase protocol
    # over doc chunks) ----------------------------------------------

    def _match_docs(self, query: str, mode: str) -> np.ndarray:
        """This cell's FULL match set (sorted doc_ids) for the query,
        tokenized with the index's own analyzer so facets count
        exactly the docs ``search`` ranks — cached per (query, mode):
        postings live here, so the match set never leaves the cell;
        only bucket partials do."""
        key = (query, mode)
        hit = self._match_cache.get(key)
        if hit is not None:
            return hit
        terms = sorted(set(self.index.analyzer.tokenize(query)))
        parts = []
        for tm in terms:
            p = self.index.postings(tm)
            if p is not None:
                parts.append(p.doc_ids)
        if mode == "and":
            if not terms or len(parts) < len(terms):
                out = np.empty(0, np.int64)
            else:
                out = parts[0]
                for q in parts[1:]:
                    out = np.intersect1d(out, q, assume_unique=False)
        else:
            out = (
                np.unique(np.concatenate(parts))
                if parts
                else np.empty(0, np.int64)
            )
        if len(self._match_cache) >= 32:
            self._match_cache.pop(next(iter(self._match_cache)))
        self._match_cache[key] = out
        return out

    def _facet_map(self, facet_parquet: str, facet_col: str):
        """(sorted doc_ids, codes, dictionary) for this cell's doc
        range — loaded ONCE per cell per facet column. Doc chunks are
        contiguous doc_id ranges (build's bucket strategy), so the read
        is row-group-pruned to this cell's range: per-cell memory is
        |corpus|/S ids + int32 codes, the same budget as its slots
        array."""
        key = (facet_parquet, facet_col)
        hit = self._facet_maps.get(key)
        if hit is not None:
            return hit
        slots = self.index._slots
        if slots is None or len(slots) == 0:
            hit = (np.empty(0, np.int64), np.empty(0, np.int32), [])
            self._facet_maps[key] = hit
            return hit
        lo, hi = int(slots[0]), int(slots[-1])
        flt = (pads.field("doc_id") >= lo) & (pads.field("doc_id") <= hi)
        t = pads.dataset(facet_parquet).to_table(
            columns=["doc_id", facet_col], filter=flt
        )
        idx = pc.sort_indices(t["doc_id"])
        dids = t["doc_id"].take(idx).to_numpy(zero_copy_only=False).astype(np.int64)
        enc = t[facet_col].take(idx).combine_chunks().dictionary_encode()
        codes = np.asarray(enc.indices.to_numpy(zero_copy_only=False), np.int32)
        hit = (dids, codes, enc.dictionary.to_pylist())
        self._facet_maps[key] = hit
        return hit

    def _local_bucket_counts(
        self, query: str, mode: str, facet_parquet: str, facet_col: str
    ) -> dict:
        m = self._match_docs(query, mode)
        dids, codes, vocab = self._facet_map(facet_parquet, facet_col)
        if len(m) == 0 or len(dids) == 0:
            return {}
        pos = np.searchsorted(dids, m)
        ok = (pos < len(dids)) & (dids[np.minimum(pos, len(dids) - 1)] == m)
        cnt = np.bincount(codes[pos[ok]], minlength=len(vocab))
        return {vocab[i]: int(c) for i, c in enumerate(cnt) if c > 0}

    def facet_phase1(
        self,
        query: str,
        mode: str,
        facet_parquet: str,
        facet_col: str,
        limit: int,
    ) -> tuple[list[tuple[str, int]], bool]:
        """Phase 1: this cell's top-``limit`` facet buckets by local
        count (ties value asc) + a truncated flag (True when buckets
        beyond the limit were cut — the router uses it to decide
        whether candidate MEMBERSHIP is provably complete)."""
        counts = self._local_bucket_counts(query, mode, facet_parquet, facet_col)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:limit], len(ranked) > limit

    def facet_refine(
        self,
        query: str,
        mode: str,
        facet_parquet: str,
        facet_col: str,
        buckets: list[str],
    ) -> list[int]:
        """Phase 2: exact local counts for the router's candidate
        buckets this cell did not report (match set + facet map are
        cached, so refinement is a dict lookup per bucket)."""
        counts = self._local_bucket_counts(query, mode, facet_parquet, facet_col)
        return [int(counts.get(b, 0)) for b in buckets]


class ShardedIndex:
    """Scatter-gather router over a T × S grid of ``ServingCell``s
    (module docstring). ``root`` is the index — for ``bm25f`` the main
    index, whose dictionary supplies idf, with ``fields`` mapping each
    FieldSpec to its field index dir — or, for ``positions``, the
    positional store. ``n_doc_shards`` must equal the
    ``segment_doc_chunks`` the index was built with (every cell
    validates it); the positional store has no doc chunks."""

    def __init__(
        self,
        root: str,
        n_term_shards: int = 1,
        n_doc_shards: int = 1,
        payload: str = "bm25",
        fields: "list[tuple[FieldSpec, str]]" = (),
    ):
        if payload not in PAYLOADS:
            raise ValueError(f"payload must be one of {PAYLOADS}: {payload!r}")
        if (payload == "bm25f") != bool(fields):
            raise ValueError("fields are required by, and only by, bm25f")
        if payload == "positions" and n_doc_shards != 1:
            raise ValueError(
                "the positional store has no doc chunks; serve positions "
                "with n_doc_shards=1"
            )
        fields = list(fields)
        self.payload = payload
        self.local = payload == "bm25" and n_term_shards == 1
        self.num_term_buckets, analyzer = _layout(
            [root] + [d for _, d in fields], payload, n_term_shards,
            n_doc_shards,
        )
        self.analyzer = get_analyzer(analyzer)
        self.cells = [
            [
                ServingCell.remote(
                    payload, root, fields, (s, n_term_shards),
                    (c, n_doc_shards),
                )
                for c in range(n_doc_shards)
            ]
            for s in range(n_term_shards)
        ]

    def _gather(self, terms: list[str]) -> dict:
        """term -> unit: each term goes to its row, and the units of
        every cell of that row are concatenated in chunk order."""
        by_row: dict[int, list[str]] = {}
        for t in terms:
            row = term_row(t, self.num_term_buckets, len(self.cells))
            by_row.setdefault(row, []).append(t)
        parts = ray.get(
            [
                cell.fetch.remote(row_terms)
                for row, row_terms in by_row.items()
                for cell in self.cells[row]
            ]
        )
        chunks: dict[str, list] = {}
        for part in parts:  # chunk order within each row
            for t, unit in part.items():
                chunks.setdefault(t, []).append(unit)
        return {
            t: units[0]
            if len(units) == 1
            else tuple(np.concatenate(col) for col in zip(*units))
            for t, units in chunks.items()
        }

    def search(
        self,
        query: str,
        k: int = 10,
        mode: str = "or",
        algorithm: str = "auto",
        after=None,
    ) -> list:
        """``bm25``: top-k [(doc_id, score)] with InvertedIndex.search
        semantics. ``bm25f``: [(rank, doc_id, score_fp)] — disjunctive,
        rank by integer score DESC then doc_id ASC.

        A T = 1 ``bm25`` grid ranks in every cell with ``algorithm`` and
        re-ranks the <= S·k merged candidates by the same rule. A
        search-after cursor applies in every cell: a global
        post-cursor winner is some cell's local post-cursor winner, so
        deep paging is lossless too. Term-routed grids run the
        exhaustive paths: WAND is document-at-a-time, and under term
        partitioning its pruning would need a round trip per pivot."""
        if self.payload == "positions":
            raise ValueError("a positions grid serves phrase_occurrences")
        if self.local:
            parts = ray.get(
                [
                    c.search.remote(query, k, mode, algorithm, after)
                    for c in self.cells[0]
                ]
            )
            cand = [hit for p in parts for hit in p]
            return InvertedIndex._topk(
                np.array([d for d, _ in cand], dtype=np.int64),
                np.array([s for _, s in cand], dtype=np.float64),
                k,
            )
        if self.payload == "bm25f" and (mode != "or" or after is not None):
            raise ValueError("bm25f serves disjunctive top-k only")
        terms = sorted(set(self.analyzer.tokenize(query)))
        got = self._gather(terms)
        if self.payload == "bm25f":
            hits = [got[t] for t in terms if t in got]
            return _topk_from_contributions(
                [ids for ids, _ in hits], [fps for _, fps in hits], k
            )
        return rank_scored_postings(
            [got.get(t) for t in terms], k, mode, after=after
        )

    def phrase_occurrences(self, phrase: str) -> tuple[np.ndarray, np.ndarray]:
        """(sorted doc_ids, overlap-exact occurrence counts) for the
        exact phrase: a doc matches at base b iff positions(term_i, doc)
        holds b + i for every slot i, and its count is the number of
        such bases — identical to positional.phrase_occurrences_multi.
        Empty for no-token or OOV phrases."""
        if self.payload != "positions":
            raise ValueError("phrase_occurrences needs a positions grid")
        terms = self.analyzer.tokenize(phrase)
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        got = self._gather(sorted(set(terms)))
        if not terms or any(t not in got for t in terms):
            return empty
        docs_u = np.unique(got[terms[0]][0])
        keys: np.ndarray | None = None
        for i, t in enumerate(terms):
            d, p = got[t]
            m = np.isin(d, docs_u)
            d, base = d[m], p[m].astype(np.int64) - i
            ok = base >= 0
            idx = np.searchsorted(docs_u, d[ok]).astype(np.int64)
            k = np.unique((idx << 32) | base[ok])
            keys = (
                k
                if keys is None
                else np.intersect1d(keys, k, assume_unique=True)
            )
            if len(keys) == 0:
                return empty
        uniq_idx, counts = np.unique(keys >> 32, return_counts=True)
        return docs_u[uniq_idx], counts.astype(np.int64)

    def phrase_docs(self, phrase: str) -> np.ndarray:
        """Sorted doc_ids matching the exact phrase."""
        return self.phrase_occurrences(phrase)[0]

    def facet_search(
        self,
        query: str,
        facet_parquet: str,
        facet_col: str,
        k: int = 10,
        mode: str = "or",
        overrequest: int = 4,
    ) -> tuple[list[tuple[str, int]], bool]:
        """Exact-refined distributed faceting over the doc chunks of a
        T = 1 ``bm25`` grid (Solr's two-phase facet.overrequest +
        facet.refine protocol): every cell returns its local
        top-(k*overrequest) buckets over its FULL match set; the router
        unions the bucket keys and asks each cell for exact counts of
        candidates it did not report, so every candidate's global count
        is exact. Only bucket partials cross the network — S *
        k*overrequest rows, never the match set.

        Returns (top-k [(value, count)] by count desc / value asc,
        exact) where ``exact`` is True when no cell truncated its
        phase-1 list — then candidate membership is provably complete
        and the result equals the unsharded full facet count. When a
        cell truncated, counts are still exact per candidate but a
        globally-heavy-yet-everywhere-just-below-the-local-limit
        bucket can be missed — the same documented approximation Solr
        ships; raise ``overrequest`` to shrink it."""
        if not self.local:
            raise ValueError("faceting needs a bm25 grid with n_term_shards=1")
        cells = self.cells[0]
        limit = max(1, k * overrequest)
        phase1 = ray.get(
            [
                c.facet_phase1.remote(
                    query, mode, facet_parquet, facet_col, limit
                )
                for c in cells
            ]
        )
        cand = sorted({v for ranked, _tr in phase1 for v, _c in ranked})
        exact = not any(tr for _ranked, tr in phase1)
        totals = {v: 0 for v in cand}
        refine_refs, refine_missing = [], []
        for (ranked, _tr), cell in zip(phase1, cells):
            got = dict(ranked)
            for v, c in got.items():
                totals[v] += c
            missing = [v for v in cand if v not in got]
            if missing:
                refine_refs.append(
                    cell.facet_refine.remote(
                        query, mode, facet_parquet, facet_col, missing
                    )
                )
                refine_missing.append(missing)
        for missing, counts in zip(refine_missing, ray.get(refine_refs)):
            for v, c in zip(missing, counts):
                totals[v] += c
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k], exact

    def describe(self) -> list[list[dict]]:
        """ServingCell.describe for every cell, rows × chunks."""
        return [
            ray.get([c.describe.remote() for c in row]) for row in self.cells
        ]

    def total_docs(self) -> int:
        return sum(c["docs"] for row in self.describe() for c in row)

    def vocab_sizes(self) -> list[int]:
        """Dictionary terms per term row (a row's cells share one
        vocabulary slice)."""
        return [row[0]["vocab"] for row in self.describe()]

    def segment_file_counts(self) -> list[int]:
        """Segment files per cell, row-major."""
        return [c["segment_files"] for row in self.describe() for c in row]

    def shutdown(self) -> None:
        for row in self.cells:
            for c in row:
                ray.kill(c)
        self.cells = []
