"""BM25 query engine over the compressed segments.

Query-time posting-list intersection is "our join" (SURVEY.md §2.5):
k per-term posting lists joined on doc_id inside the query actor —
never a Ray-level shuffle. ``InvertedIndex.search`` has these paths,
all rank-identical:

- ``algorithm="auto"`` (the default) is exact and *dense* when the
  index holds the doc table: each term's per-posting scores are cached
  by doc slot. With the BM25 scorer and no exclusion or cursor it
  scores only docs that can reach the top k: OR is MaxScore (terms
  whose summed upper bounds fall below the largest single-term k-th
  contribution are skipped as candidate sources, then gathered per
  candidate), AND starts from the rarest term's slots. When those
  candidates are not a small share of the docs, or under a custom
  scorer, an exclusion or a cursor, every posting is summed into one
  accumulator per query. Without a doc table (a term-shard cell, or a
  source with no readable doc table) it is *sparse*:
  ``rank_scored_postings`` takes the k-way union (OR) or sorted
  intersection (AND) of the per-term scored postings.
- ``algorithm="wand"`` with ``mode="or"``: Block-Max WAND, document at
  a time with per-term and per-block score upper bounds; it skips
  blocks that cannot enter the top-k.
- ``algorithm="wand"`` with ``mode="and"``: Block-Max AND, a leapfrog
  intersection that skips a candidate whose summed block maxima
  cannot beat the top-k threshold.

A custom scorer, an excluded term or a search-after cursor sends a
``wand`` query to ``auto``'s exhaustive scoring. ``QueryActor`` evaluates a
query table in batches (the stateful stage: a resident actor pool in
the pipelines, a ``map_batches`` actor pool in the CLI — the analog of
the reference's per-run Solr connection,
harvester/solr_updater.py:838).

Ranking rule (shared with the DuckDB oracle SQL): order by
round(score, 6) DESC, doc_id ASC, take k. Rounding makes
mathematically-tied scores compare equal despite float summation-order
differences across engines; doc_id breaks the tie deterministically
(SURVEY.md §7 hard part (c)).
"""

from __future__ import annotations

import heapq
import json
import math
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from harvester_ray.functions.codec import varint_decode
from harvester_ray.functions.text import get_analyzer
from harvester_ray.index.build import (
    SEG_PART_RE,
    bm25_score,
    check_codec,
    string_terms,
)

# per-term-bucket dictionary parts (bucket strategy); with the (bucket,
# chunk) segment parts (build.SEG_PART_RE) the term-shard tier selects
# files by parsing the bucket id out of these
_DICT_PART_RE = re.compile(r"^part-bucket(\d+)\.parquet$")

# When the pruned paths give way to the dense accumulator: a searchsorted
# gather costs more per posting than a bincount, so pruning pays only
# while its candidate work is a small share of the n doc slots. OR: the
# essential terms' postings; AND: the rarest term's postings times the
# term count. Over the 2 500-query serve_zipf stream (70 k docs, seed 1,
# in process, 1-core host) these shares gave p50/p99 0.24/3.1 ms;
# pruning with no fallback 0.24/8.6 ms; the accumulator alone 1.50/4.0.
_OR_SPARSE_SHARE = 1 / 8
_AND_SPARSE_SHARE = 1 / 4
# rank ties are round(score, 6): a score below (k-th score - EPS) rounds
# strictly below it, so it can be dropped before any rounding
_EPS = 1e-6


def tfidf_score(
    tf: np.ndarray,
    doc_len: np.ndarray,
    df: float,
    n_docs: float,
    avgdl: float,
    k1: float,
    b: float,
) -> np.ndarray:
    """SMART-style cosine TF-IDF: (1 + ln tf) · ln((N+1)/(df+1)) / √dl.

    Same signature as bm25_score so it plugs into the SURVEY §2.10
    scorer injection point; k1/b/avgdl are unused by this weighting.
    Shared verbatim (as SQL) with the DuckDB oracle."""
    return (
        (1.0 + np.log(tf.astype(np.float64)))
        * math.log((n_docs + 1.0) / (df + 1.0))
        / np.sqrt(doc_len.astype(np.float64))
    )


# named scorers for actor construction: map_batches actor ctor args must
# be picklable/stable, so QueryActor takes a NAME here rather than a
# callable (None = the default BM25 fast paths, incl. WAND block maxima)
SCORERS: dict[str, "object"] = {"bm25": None, "tfidf": tfidf_score}


def rank_scored_postings(
    parts: "list[tuple[np.ndarray, np.ndarray] | None]",
    k: int,
    mode: str = "or",
    excluded: "np.ndarray | None" = None,
    after=None,
) -> list[tuple[int, float]]:
    """The exhaustive sparse ranker: top-k (doc_id, score) from one
    (doc_id-sorted ids, per-posting scores) pair per query term, in
    sorted-term order (None marks a term absent from the dictionary).
    OR is the k-way union, AND the k-way sorted intersection (any
    absent term -> empty); docs in ``excluded`` (sorted) drop before
    top-k, and ``after`` is the search-after cursor. Accumulating in
    the given term order makes scores bit-identical wherever the same
    per-term units are ranked: InvertedIndex's non-dense paths and the
    term-routed serving grid (index/serving.py)."""
    if mode == "and":
        if not parts or any(p is None for p in parts):
            return []  # conjunctive + missing term -> empty
        ids = parts[0][0]
        for p in parts[1:]:
            ids = np.intersect1d(ids, p[0], assume_unique=True)
        sums = np.zeros(len(ids), dtype=np.float64)
        for p_ids, p_scores in parts:
            sums += p_scores[np.searchsorted(p_ids, ids)]
    else:
        found = [p for p in parts if p is not None]
        if not found:
            return []
        ids, inv = np.unique(
            np.concatenate([p[0] for p in found]), return_inverse=True
        )
        sums = np.zeros(len(ids), dtype=np.float64)
        np.add.at(sums, inv, np.concatenate([p[1] for p in found]))
    if excluded is not None:
        keep = ~np.isin(ids, excluded, assume_unique=True)
        ids, sums = ids[keep], sums[keep]
    return InvertedIndex._topk(ids, sums, k, after)


class _TermPostings:
    """Decoded, globally doc_id-sorted postings of one term."""

    __slots__ = ("doc_ids", "tfs", "doc_lens", "df")

    def __init__(self, doc_ids, tfs, doc_lens, df):
        self.doc_ids = doc_ids
        self.tfs = tfs
        self.doc_lens = doc_lens
        self.df = df


class _TermBlocks:
    """Undecoded block metadata of one term WITHIN ONE SOURCE (base or
    one delta), sorted by first_doc_id: a view into that source's
    _BlockTable, built the first time a query touches the term.

    Doc-chunk runs (and the salt groups / sort runs of legacy indexes)
    are disjoint ordered doc_id ranges, so sorting one source's blocks
    by first_doc_id yields a sorted list regardless of how many
    sub-groups encoded it. Across sources doc ranges may interleave —
    the engine keeps per-source block lists and merges at decode
    (postings) or runs per-source cursors (WAND).

    ``bmax`` holds the idf-free norm maxima (build.bm25_norm) times the
    source's scale: a source built with avgdl_src stores maxima valid
    for avgdl_src, and norm grows monotonically with avgdl, so serving
    under a larger merged avgdl multiplies the bound by at most
    avgdl_merged/avgdl_src — ``scale = max(1, that ratio)`` keeps WAND
    pruning admissible after incremental adds. Callers multiply by the
    term's idf for score upper bounds.

    ``deltas``/``tfs``/``lens`` are (values, offsets) pairs: block i's
    buffer is ``values[offsets[i]:offsets[i + 1]]`` of the source's
    contiguous byte buffer, so a view copies no block bytes.
    """

    __slots__ = ("first", "last", "bmax", "ub_norm", "deltas", "tfs", "lens")

    def __init__(self, first, last, bmax, ub_norm, deltas, tfs, lens):
        self.first = first
        self.last = last
        self.bmax = bmax
        self.ub_norm = ub_norm
        self.deltas = deltas
        self.tfs = tfs
        self.lens = lens

    @staticmethod
    def _buf(col, i: int) -> memoryview:
        values, off = col
        return values[off[i] : off[i + 1]]

    @staticmethod
    def _joined(col) -> memoryview:
        """All block buffers concatenated: the blocks are contiguous in
        the source's values buffer, so this is one zero-copy slice."""
        values, off = col
        return values[off[0] : off[-1]]

    def decode_block(self, i: int):
        ids = (
            varint_decode(self._buf(self.deltas, i)).view(np.int64).cumsum()
            + self.first[i]
        )
        tf = varint_decode(self._buf(self.tfs, i)).astype(np.int64)
        dl = varint_decode(self._buf(self.lens, i)).astype(np.int64)
        return ids, tf, dl

    def decode_all(self):
        """Bulk decode: ONE varint decode per column across all blocks
        (the buffers concatenate), ids reconstructed with a single
        prefix sum. Raises ValueError when the gap stream's block starts
        do not match the block count (corrupt segment bytes)."""
        if not len(self.first):
            z = np.empty(0, np.int64)
            return z, z.copy(), z.copy()
        gaps = varint_decode(self._joined(self.deltas)).view(np.int64)
        tf = varint_decode(self._joined(self.tfs)).astype(np.int64)
        dl = varint_decode(self._joined(self.lens)).astype(np.int64)
        n = len(gaps)
        # doc_ids are strictly increasing within a block, so in-block
        # gaps are >= 1 and gap == 0 appears exactly at block starts
        starts_idx = np.nonzero(gaps == 0)[0]
        if len(starts_idx) != len(self.first):
            raise ValueError(
                f"corrupt block stream: {len(starts_idx)} zero gaps for "
                f"{len(self.first)} blocks"
            )
        cs = np.cumsum(gaps)
        base = np.concatenate(([0], cs[starts_idx[1:] - 1]))
        sizes = np.diff(np.concatenate((starts_idx, [n])))
        ids = cs - np.repeat(base, sizes) + np.repeat(self.first, sizes)
        return ids, tf, dl


# the segment columns a _BlockTable reads (term, salt, block_id and n
# are build-side bookkeeping)
_BLOCK_COLUMNS = [
    "term_id", "first_doc_id", "last_doc_id", "block_max_norm",
    "doc_id_deltas", "tfs", "doc_lens",
]


def _byte_column(
    col: pa.ChunkedArray, order: pa.Array
) -> "tuple[memoryview, np.ndarray]":
    """A binary column taken in ``order`` into one contiguous buffer, as
    (values, int64 offsets). The column is cast to LARGE (int64-offset)
    binary first: past ~2 GB per column per source (hit at the 20 M-doc
    soak) int32 offsets would overflow while the take concatenates."""
    col = col.cast(pa.large_binary()).take(order).combine_chunks()
    _, off_buf, val_buf = col.buffers()
    off = np.frombuffer(off_buf, np.int64)[col.offset : col.offset + len(col) + 1]
    values = memoryview(val_buf if val_buf is not None else b"").cast("B")
    return values, off


class _BlockTable:
    """All segment blocks of one source as columns, lexsorted by
    (term_id, first_doc_id), with a CSR offset index over term_id: the
    blocks of ``tids[i]`` are rows ``starts[i]:starts[i + 1]``.

    There is no per-term object: ``view`` builds a term's _TermBlocks
    from numpy slices on first touch. Block maxima are stored unscaled
    and each term's maximum (``ub_norm``) is reduced once per source;
    the per-source WAND scale is applied in ``view``, so a table stays
    valid when the merged avgdl changes (InvertedIndex.reopen reuses
    it). The same constructor serves a preloaded source (the whole
    segment table) and a lazy read (one term's filtered rows)."""

    __slots__ = ("tids", "starts", "first", "last", "bmax", "ub_norm", "bufs")

    def __init__(self, seg: pa.Table):
        if len(seg) == 0 or "term_id" not in seg.column_names:
            z = np.empty(0, np.int64)
            self.tids, self.starts = z, np.zeros(1, np.int64)
            self.first = self.last = z
            self.bmax = self.ub_norm = np.empty(0, np.float64)
            self.bufs = ((memoryview(b""), np.zeros(1, np.int64)),) * 3
            return
        tid = seg["term_id"].to_numpy()
        first = seg["first_doc_id"].to_numpy()
        order = np.lexsort((first, tid))
        tid = tid[order]
        self.first = first[order]
        self.last = seg["last_doc_id"].to_numpy()[order]
        self.bmax = seg["block_max_norm"].to_numpy().astype(np.float64)[order]
        heads = np.concatenate(([0], np.flatnonzero(np.diff(tid)) + 1))
        self.tids = tid[heads]
        self.starts = np.append(heads, len(tid))
        self.ub_norm = np.maximum.reduceat(self.bmax, heads)
        take = pa.array(order)
        self.bufs = tuple(
            _byte_column(seg[name], take)
            for name in ("doc_id_deltas", "tfs", "doc_lens")
        )

    def view(self, tid: int, scale: float) -> "_TermBlocks | None":
        """Term ``tid``'s blocks in this source, maxima times ``scale``;
        None when the source has no block of the term."""
        i = int(self.tids.searchsorted(tid))
        if i == len(self.tids) or self.tids[i] != tid:
            return None
        s, e = self.starts[i : i + 2].tolist()
        (dv, do), (tv, to), (lv, lo) = self.bufs
        return _TermBlocks(
            self.first[s:e],
            self.last[s:e],
            self.bmax[s:e] * scale,
            float(self.ub_norm[i]) * scale,
            (dv, do[s : e + 1]),
            (tv, to[s : e + 1]),
            (lv, lo[s : e + 1]),
        )


class _Source:
    """One committed source (the base or a delta) as loaded: stats,
    dictionary table, segment dataset, doc ids and, once preloaded, its
    _BlockTable. A committed source never changes (LSM), so
    InvertedIndex.reopen hands an unchanged source to the new index as
    is; ``key`` tells unchanged from rewritten (see _source_key)."""

    __slots__ = (
        "key", "paths", "stats", "dictionary", "segments", "doc_ids", "blocks",
    )

    def __init__(self, key, paths, stats, dictionary, segments, doc_ids):
        self.key = key
        self.paths = paths
        self.stats = stats
        self.dictionary = dictionary
        self.segments = segments
        self.doc_ids = doc_ids
        self.blocks: "_BlockTable | None" = None

    def read_blocks(self, term_id: "int | None" = None) -> _BlockTable:
        """All of this source's blocks, or only ``term_id``'s (a
        predicate-pushdown read of that term's row groups)."""
        if not self.segments.files:  # empty shard/source
            return _BlockTable(pa.table({}))
        return _BlockTable(
            self.segments.to_table(
                columns=_BLOCK_COLUMNS,
                filter=None if term_id is None
                else pads.field("term_id") == term_id,
            )
        )

    def view(self, tid: int, scale: float) -> "_TermBlocks | None":
        """Term ``tid``'s blocks in this source: from the preloaded
        table, or from a one-term read when not preloaded."""
        table = self.blocks
        if table is None:
            table = self.read_blocks(tid)
        return table.view(tid, scale)


def _source_key(src_dir: str) -> tuple:
    """Identity of a committed source: its path plus the device, inode,
    mtime and size of its stats.json (build_index writes that file
    last). A path alone is not enough: a merge renames a new index onto
    the same dir and delta names restart at delta-000, and either
    rewrites stats.json."""
    st = os.stat(os.path.join(src_dir, "stats.json"))
    return (src_dir, st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size)


def _merged_dictionary(tables: "list[pa.Table]") -> dict:
    """term -> (term_id, sum df, sum cf) over the sources' dictionary
    tables, in first-appearance order. One vectorized group-by on
    term_id (build_index rejects term_id collisions) for any number of
    sources; df/cf count tombstoned postings until compaction
    (Lucene-style)."""
    tbl = pa.concat_tables(tables)
    if len(tbl) == 0:
        return {}
    uniq, head, inv = np.unique(
        tbl["term_id"].to_numpy(), return_index=True, return_inverse=True
    )
    df = np.zeros(len(uniq), np.int64)
    cf = np.zeros(len(uniq), np.int64)
    np.add.at(df, inv, tbl["df"].to_numpy())
    np.add.at(cf, inv, tbl["cf"].to_numpy())
    order = np.argsort(head)
    terms = tbl["term"].take(pa.array(head[order])).to_numpy().tolist()
    return dict(
        zip(
            terms,
            zip(
                uniq[order].tolist(),
                df[order].tolist(),
                cf[order].tolist(),
            ),
        )
    )


class InvertedIndex:
    """Loads dictionary + stats eagerly and segment blocks either lazily
    (``preload=False``: one filtered read per term on first touch) or
    all at once (``preload=True``: one columnar _BlockTable per source).
    Either way a term's per-source _TermBlocks view is built the first
    time a query touches it, by the same _BlockTable code, and cached in
    ``_block_cache`` (clearing that cache only costs a rebuild).

    Serves the base index PLUS any delta sources added by
    ``maintenance.add_docs``/``upsert_docs``: dictionaries and global
    stats are merged exactly (sum df/cf/N/token counts), so
    add-then-query is rank- and score-identical to a full rebuild of
    the union. Per-source tombstones are applied at posting decode
    (exhaustive paths) or at pivot scoring (WAND).

    ``reopen()`` is the incremental open after a commit (Lucene's
    ``DirectoryReader.openIfChanged``): committed sources are immutable,
    so the new index reuses every unchanged source's loaded state and
    reads only new sources and the tombstones.

    At 100 TB scale the segments directory is hash-partitioned parquet;
    per-term block fetch is a predicate-pushdown read of only that
    term_id's row groups — a query actor never reads the whole index.
    """

    def __init__(
        self,
        index_dir: str,
        preload: bool = False,
        analyzer=None,
        scorer=None,
        shard: "tuple[int, int] | None" = None,
        term_shard: "tuple[int, int] | None" = None,
        as_of: "int | None" = None,
    ):
        """``preload``: read every source's segments at open, one
        _BlockTable per source (``_preload_segments``); otherwise each
        term's rows are read on first touch. Results are identical.

        ``analyzer``: override the analyzer recorded in stats.json
        (functions.text.Analyzer). ``scorer``: SURVEY §2.10 scorer plug
        point — a callable ``(tf, dl, df, n_docs, avgdl, k1, b) ->
        scores`` replacing BM25 on the exhaustive/dense paths; WAND
        block maxima are BM25-specific, so algorithm="wand" silently
        falls back to the exhaustive path under a custom scorer.

        ``shard=(c, S)``: load ONLY doc_id-chunk ``c`` of ``S`` — a
        doc-chunk cell of the serving grid (index/serving.py): the index
        must be built with the bucket strategy and
        ``segment_doc_chunks == S``, so
        chunk c's postings live in the ``...c{c}.parquet`` segment
        files and this actor's slots array is 1/S of the doc table.
        Global stats/df stay whole-corpus (stats.json + dictionary), so
        per-shard scores equal the unsharded scores exactly; chunks
        partition doc space, so scatter-gather top-k merge is lossless.
        The dictionary is replicated per shard (doc-sharded tier);
        ``term_shard`` is the orthogonal vocabulary tier.

        ``term_shard=(s, T)``: load ONLY the vocabulary slice whose
        term buckets satisfy ``bucket % T == s`` — dictionary parts AND
        segment files are per-term-bucket artifacts of the bucket
        strategy, so a term-shard actor opens ~1/T of the dictionary
        and ~1/T of the segment files (memory ∝ vocab/T: at a 10⁹+
        vocabulary a single actor cannot hold the whole dict — this is
        the tier the doc-shard docstring used to only name). The doc
        table / slots array is NOT loaded (term-shard actors serve
        per-term scored postings to the router, index/serving.py
        ShardedIndex, which owns the cross-term merge); global
        stats N/avgdl and per-term df stay whole-corpus, so shard
        scores equal unsharded scores exactly. Composable with
        ``shard`` (a (term × doc) grid actor loads bucket-and-chunk
        filtered files).
        """
        self._open(
            index_dir, preload, analyzer, scorer, shard, term_shard, as_of, {}
        )

    def reopen(self) -> "InvertedIndex":
        """A new index over the directory's current commit, with the same
        options. Sources whose identity (_source_key) is unchanged are
        reused as loaded — stats, dictionary table, doc ids and, when
        preloaded, the _BlockTable object itself; only new or rewritten
        sources and the tombstone files are read, then the merged
        dictionary, global stats and WAND scales are rebuilt. A merge
        that swaps a new index onto the dir changes every identity, so
        nothing is reused across it. Results equal a fresh open."""
        new = type(self).__new__(type(self))
        new._open(
            self.index_dir, self._preload, self._analyzer_arg, self.scorer,
            self.shard, self.term_shard, self.as_of,
            {s.key: s for s in self._sources},
        )
        return new

    def _open(
        self, index_dir, preload, analyzer, scorer, shard, term_shard,
        as_of, reuse: "dict[tuple, _Source]",
    ) -> None:
        from harvester_ray.index.build import IndexPaths
        from harvester_ray.index.maintenance import (
            deleted_for_source,
            load_tombstones_scoped,
            source_dirs,
        )

        self.index_dir = index_dir
        src_dirs = source_dirs(index_dir)
        # as_of=k: time-travel to source k-1's commit point (Lucene
        # commit-point read): serve sources [0..k) and only tombstones
        # stamped before source k existed — an LSM snapshot is fully
        # determined by its source prefix + stamp-scoped tombstones,
        # so no data is copied or rewritten to read history. The extra
        # point as_of=n_sources+1 is the snapshot AFTER any trailing
        # delete-only commits (all sources + all tombstones == the
        # live view; a tombstone written when n sources existed is
        # stamped seq=n, which as_of=n excludes by design).
        if as_of is not None:
            if not (1 <= as_of <= len(src_dirs) + 1):
                raise ValueError(
                    f"as_of must be in [1, {len(src_dirs) + 1}]: {as_of}"
                )
            src_dirs = src_dirs[:as_of]
        self.as_of = as_of
        self.paths = IndexPaths(index_dir)  # base source (back-compat)
        if shard is not None:
            c, S = shard
            if S < 1 or (S & (S - 1)) or not (0 <= c < S):
                raise ValueError(f"shard must be (c, power-of-two S): {shard}")
        if term_shard is not None:
            ts, T = term_shard
            if T < 1 or not (0 <= ts < T):
                raise ValueError(
                    f"term_shard must be (s, T) with 0 <= s < T: {term_shard}"
                )
        self.shard = shard
        self.term_shard = term_shard
        self._preload = preload
        self._analyzer_arg = analyzer
        self._sources: list[_Source] = []
        for d in src_dirs:
            key = _source_key(d)
            src = reuse.get(key)
            self._sources.append(
                src if src is not None else self._load_source(d, key)
            )
        stats_list = [s.stats for s in self._sources]
        self.stats = dict(stats_list[0])
        self.stats["n_docs"] = sum(s["n_docs"] for s in stats_list)
        self.stats["total_tokens"] = sum(s["total_tokens"] for s in stats_list)
        self.stats["avgdl"] = (
            self.stats["total_tokens"] / self.stats["n_docs"]
            if self.stats["n_docs"]
            else 0.0
        )
        self.n_docs = float(self.stats["n_docs"])
        self.avgdl = float(self.stats["avgdl"])
        self.k1 = float(self.stats["k1"])
        self.b = float(self.stats["b"])
        self.analyzer = analyzer or get_analyzer(
            self.stats.get("analyzer", "default")
        )
        self.scorer = scorer
        self._chunk_bounds = None
        if shard is not None:
            from harvester_ray.index.build import legacy_chunk_bounds

            # absent bounds (pre-round-5 sources) NORMALIZE to the
            # legacy top-bit edges before comparison — a legacy base
            # plus a delta that add_docs aligned to those same edges
            # must load, not spuriously "disagree"
            legacy = (
                tuple(int(x) for x in legacy_chunk_bounds(S))
                if S > 1
                else None
            )
            bounds_seen = set()
            for src in self._sources:
                s = src.stats
                if (
                    s.get("segment_strategy") != "bucket"
                    or s.get("segment_doc_chunks") != S
                ):
                    raise ValueError(
                        f"source {src.paths.root} was not built with the "
                        f"bucket strategy at segment_doc_chunks={S}; "
                        "rebuild with IndexConfig(segment_doc_chunks=S) "
                        "to serve doc-sharded"
                    )
                b = s.get("chunk_bounds")
                bounds_seen.add(
                    tuple(int(x) for x in b) if b else legacy
                )
            if len(bounds_seen) > 1:
                raise ValueError(
                    "sources disagree on chunk_bounds; delta sources "
                    "must be built with the base's persisted bounds "
                    "(maintenance.add_docs passes them through)"
                )
            if S > 1:
                self._chunk_bounds = np.asarray(
                    bounds_seen.pop(), dtype=np.int64
                )
        if term_shard is not None:
            nbs = set()
            for src in self._sources:
                if src.stats.get("segment_strategy") != "bucket":
                    raise ValueError(
                        f"source {src.paths.root} was not built with the "
                        "bucket strategy; term-sharded serving selects "
                        "per-term-bucket dictionary/segment files"
                    )
                nbs.add(src.stats.get("num_term_buckets"))
            if len(nbs) > 1:
                raise ValueError(
                    f"sources disagree on num_term_buckets: {nbs}; "
                    "merge or rebuild with one config before term-"
                    "sharded serving"
                )
            nb = nbs.pop()
            if nb is not None and T > nb:
                raise ValueError(
                    f"n_term_shards={T} exceeds num_term_buckets={nb}; "
                    "shards beyond the bucket count would be empty"
                )
        # admissible WAND-bound rescale per source (see _TermBlocks),
        # applied when a view is built: the tables hold unscaled maxima
        self._bmax_scale = [
            max(1.0, self.avgdl / s["avgdl"]) if s["avgdl"] > 0 else 1.0
            for s in stats_list
        ]
        self.dictionary = _merged_dictionary(
            [s.dictionary for s in self._sources]
        )
        self._seg_ds = [s.segments for s in self._sources]
        # per-source tombstone sets (arrays for isin, sets for WAND),
        # re-read on every open: deletes commit without a new source
        scoped = load_tombstones_scoped(index_dir)
        self._dead = [
            deleted_for_source(index_dir, i, as_of=as_of, scoped=scoped)
            for i in range(len(self._sources))
        ]
        self._dead_sets = [
            set(d.tolist()) if len(d) else None for d in self._dead
        ]
        self._block_cache: dict[int, list[_TermBlocks | None]] = {}
        self._postings_cache: dict[int, _TermPostings] = {}
        # dense scoring state (single-shard path): sorted doc_id slots +
        # per-term (positions, precomputed BM25 scores). At 10^12-doc
        # scale a query actor owns one doc_id shard and this array is
        # that shard's doc table, not the whole corpus. A term-shard
        # actor never loads the doc table: it serves per-term scored
        # postings to the router (serving.ShardedIndex), which owns the
        # cross-term accumulation — actor memory is vocab/T + its
        # segment slice, independent of corpus size.
        self._slots: np.ndarray | None = None
        self._dense_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._bound_cache: dict[tuple[int, int], tuple[float, float]] = {}
        id_parts = [s.doc_ids for s in self._sources]
        if term_shard is None and all(p is not None for p in id_parts):
            self._slots = np.unique(np.concatenate(id_parts))
            if shard is not None and self._chunk_bounds is not None:
                from harvester_ray.index.build import chunk_of_ids

                chunk_of = chunk_of_ids(self._slots, self._chunk_bounds)
                self._slots = self._slots[chunk_of == shard[0]]
        if preload:
            self._preload_segments()

    def _load_source(self, src_dir: str, key: tuple) -> _Source:
        """Read one source's stats, dictionary (term shard: owned
        buckets only), segment dataset (shard-filtered) and doc ids."""
        from harvester_ray.index.build import IndexPaths

        p = IndexPaths(src_dir)
        with open(p.stats) as f:
            stats = json.load(f)
        check_codec(src_dir, stats)
        doc_ids = None
        if self.term_shard is None:
            # no readable doc table: the dense path is off (_slots None)
            try:
                doc_ids = pq.read_table(p.doc_table, columns=["doc_id"])[
                    "doc_id"
                ].to_numpy()
            except (OSError, pa.ArrowException):
                doc_ids = None
        return _Source(
            key, p, stats, self._read_dictionary(p),
            self._segment_dataset(p), doc_ids,
        )

    def _segment_dataset(self, p) -> pads.Dataset:
        """One source's segment files: all of them, or only this cell's
        — chunk c's postings live in the ...c{c}.parquet files (doc
        shard opens 1/S of every source's segment files); bucket b's
        postings live in the part-bucket{b}... files (term shard opens
        ~1/T). A (term × doc) grid actor applies both."""
        shard, term_shard = self.shard, self.term_shard
        if shard is None and term_shard is None:
            return pads.dataset(p.segments)
        suffix = f"c{shard[0]:02d}.parquet" if shard is not None else None

        def _owned(f: str) -> bool:
            if not f.endswith(".parquet"):
                return False
            if suffix is not None and not f.endswith(suffix):
                return False
            if term_shard is not None:
                m = SEG_PART_RE.match(f)
                if m is None:
                    return False
                ts, T = term_shard
                if int(m.group(1)) % T != ts:
                    return False
            return True

        return pads.dataset(
            [
                os.path.join(p.segments, f)
                for f in sorted(os.listdir(p.segments))
                if _owned(f)
            ],
            format="parquet",
        )

    def _preload_segments(self) -> None:
        """Preload: read each source's whole segment dataset ONCE into a
        _BlockTable — one lexsort + take per source, plus a CSR offset
        index over term_id and per-term maxima by one reduceat. No
        per-term object is made at open; a term's view is built on first
        touch (term_blocks_per_source). A source that already holds a
        table (handed over by reopen) is not read again."""
        for src in self._sources:
            if src.blocks is None:
                src.blocks = src.read_blocks()

    def _read_dictionary(self, p) -> pa.Table:
        """One source's dictionary — term-sharded loads ONLY the owned
        per-bucket parts (bucket % T == s), so actor dict memory is
        ∝ vocab/T; unsharded reads the whole directory as before. The
        term column comes back as ``pa.string()`` (older sources may
        hold large_string), so any mix of sources merges."""
        d = p.dictionary
        cols = ["term", "term_id", "df", "cf"]
        if self.term_shard is None or not os.path.isdir(d):
            return string_terms(pq.read_table(d, columns=cols))
        ts, T = self.term_shard
        files = []
        for f in sorted(os.listdir(d)):
            m = _DICT_PART_RE.match(f)
            if m is not None and int(m.group(1)) % T == ts:
                files.append(os.path.join(d, f))
        if not files:
            return pa.table(
                {
                    "term": pa.array([], pa.string()),
                    "term_id": pa.array([], pa.int64()),
                    "df": pa.array([], pa.int64()),
                    "cf": pa.array([], pa.int64()),
                }
            )
        return pa.concat_tables(
            [string_terms(pq.read_table(f, columns=cols)) for f in files]
        )

    @property
    def n_sources(self) -> int:
        return len(self._sources)

    # -- posting access -------------------------------------------------
    def term_blocks_per_source(
        self, term: str
    ) -> "list[_TermBlocks | None] | None":
        """One _TermBlocks (or None) per source for this term, built on
        first touch from each source's preloaded _BlockTable, or from a
        one-term filtered read when the source is not preloaded."""
        meta = self.dictionary.get(term)
        if meta is None:
            return None
        tid = meta[0]
        blocks = self._block_cache.get(tid)
        if blocks is None:
            blocks = [
                src.view(tid, scale)
                for src, scale in zip(self._sources, self._bmax_scale)
            ]
            if not any(blocks):
                return None
            self._block_cache[tid] = blocks
        return blocks

    def term_blocks(self, term: str) -> _TermBlocks | None:
        """Single-source accessor (back-compat; base index only)."""
        blocks = self.term_blocks_per_source(term)
        return blocks[0] if blocks else None

    def postings(self, term: str) -> _TermPostings | None:
        """Merged, tombstone-filtered, doc_id-sorted postings across
        all sources. df comes from the merged dictionary (counts
        tombstoned postings until compaction, Lucene-style)."""
        meta = self.dictionary.get(term)
        if meta is None:
            return None
        cached = self._postings_cache.get(meta[0])
        if cached is not None:
            return cached
        blocks = self.term_blocks_per_source(term)
        if blocks is None:
            return None
        id_parts, tf_parts, dl_parts = [], [], []
        for si, blk in enumerate(blocks):
            if blk is None:
                continue
            ids, tf, dl = blk.decode_all()
            dead = self._dead[si]
            if len(dead):
                keep = ~np.isin(ids, dead)
                ids, tf, dl = ids[keep], tf[keep], dl[keep]
            id_parts.append(ids)
            tf_parts.append(tf)
            dl_parts.append(dl)
        if not id_parts:
            return None
        if len(id_parts) == 1:
            ids, tf, dl = id_parts[0], tf_parts[0], dl_parts[0]
        else:
            ids = np.concatenate(id_parts)
            tf = np.concatenate(tf_parts)
            dl = np.concatenate(dl_parts)
            order = np.argsort(ids, kind="stable")
            ids, tf, dl = ids[order], tf[order], dl[order]
        p = _TermPostings(ids, tf, dl, meta[1])  # df from the dictionary
        self._postings_cache[meta[0]] = p
        return p

    def scored_postings(
        self, term: str
    ) -> "tuple[np.ndarray, np.ndarray] | None":
        """(doc_ids, per-posting BM25 scores) for one term, or None if
        the term is absent from this (shard's) dictionary — the unit a
        term-routed serving cell ships to the ShardedIndex router.
        Scores use the same ``_score`` as the local search paths, so the
        router's sorted-term accumulation reproduces single-process
        scores bit for bit."""
        p = self.postings(term)
        if p is None:
            return None
        return p.doc_ids, self._score(p.tfs, p.doc_lens, p.df)

    def idf(self, df: int) -> float:
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def _score(self, tf, dl, df) -> np.ndarray:
        if self.scorer is not None:
            return self.scorer(
                tf, dl, df, self.n_docs, self.avgdl, self.k1, self.b
            )
        return bm25_score(tf, dl, df, self.n_docs, self.avgdl, self.k1, self.b)

    # -- search ---------------------------------------------------------
    def search(
        self,
        query: str,
        k: int = 10,
        mode: str = "or",
        algorithm: str = "auto",
        exclude: "str | None" = None,
        after: "tuple[float, int] | None" = None,
    ) -> list[tuple[int, float]]:
        """Top-k (doc_id, score). Duplicate query terms are collapsed
        (set semantics); terms are processed in sorted order so float
        accumulation order is deterministic.

        ``exclude``: boolean NOT — docs containing ANY excluded term
        are dropped BEFORE top-k (so the k results are all eligible).
        Exclusion composes with both modes; the WAND paths have no
        valid block maxima under exclusion, so they fall back to the
        exhaustive paths (same rule as a custom scorer).

        ``after``: search-after cursor (score, doc_id) of the LAST hit
        of the previous page — only results strictly after it in the
        rank order (round-6 score DESC, doc_id ASC) are eligible, so
        page n+1 costs the same as page 1 (no deep-offset re-ranking).
        The reference pages exactly this way through Solr's cursorMark
        (harvester/fetcher/solr_fetcher.py:41-44,124-125). WAND's
        threshold invariant doesn't hold under a cursor, so the
        exhaustive paths serve paged queries.

        ``k == 0`` returns []; a negative k raises ValueError."""
        if k < 0:
            raise ValueError(f"k must be >= 0: {k}")
        terms = sorted(set(self.analyzer.tokenize(query)))
        if not terms or k == 0:
            return []
        neg = (
            sorted(set(self.analyzer.tokenize(exclude)) - set(terms))
            if exclude
            else []
        )
        if mode == "and":
            if (
                algorithm == "wand"
                and self.scorer is None
                and not neg
                and after is None
            ):
                return self._search_and_bm(terms, k)
            return self._search_and(terms, k, neg, after)
        if (
            algorithm == "wand"
            and self.scorer is None
            and not neg
            and after is None
        ):
            return self._search_wand(terms, k)
        # auto -> the vectorized paths: numpy decode+score is ~20 ns per
        # posting, while the Python document-at-a-time WAND loop costs
        # ~10 us per visited doc, so "auto" prunes by set operations
        # (MaxScore over cached per-term bounds, or the rarest term's
        # slots for AND) and falls back to the dense accumulator when
        # the candidates are not a small share of the docs. Block-max
        # WAND wins only when it skips >99% of postings (very selective
        # queries over huge df), which a caller opts into.
        return self._search_or(terms, k, neg, after)

    def explain(self, query: str, doc_id: int) -> dict:
        """Per-term score breakdown for one (query, doc) pair — Lucene
        `explain` parity: for every query term present in the doc,
        (tf, df, doc_len, contribution); `total` is the disjunctive
        score and equals search()'s score for the doc bit-for-bit
        (contributions are summed in the same sorted-term order).
        `idf` is the BM25 inverse document frequency — reported as
        None under an injected custom scorer (whose contribution may
        not factor through idf at all)."""
        terms = sorted(set(self.analyzer.tokenize(query)))
        parts = []
        total = 0.0
        for t in terms:
            p = self.postings(t)
            if p is None:
                continue
            i = int(np.searchsorted(p.doc_ids, doc_id))
            if i >= len(p.doc_ids) or int(p.doc_ids[i]) != doc_id:
                continue
            contrib = float(
                self._score(
                    p.tfs[i : i + 1], p.doc_lens[i : i + 1], p.df
                )[0]
            )
            total += contrib
            parts.append(
                {
                    "term": t,
                    "tf": int(p.tfs[i]),
                    "df": int(p.df),
                    "doc_len": int(p.doc_lens[i]),
                    "idf": None if self.scorer is not None
                    else self.idf(p.df),
                    "contribution": contrib,
                }
            )
        return {"doc_id": int(doc_id), "total": total, "terms": parts}

    def _excluded_docs(self, neg: list[str]) -> "np.ndarray | None":
        """Union of doc_ids containing any excluded term (sorted), or
        None when no excluded term exists in this dictionary."""
        parts = []
        for t in neg:
            p = self.postings(t)
            if p is not None:
                parts.append(p.doc_ids)
        if not parts:
            return None
        return np.unique(np.concatenate(parts))

    @staticmethod
    def _topk(doc_ids: np.ndarray, scores: np.ndarray, k: int, after=None):
        """The one top-k of every ranked path: (round-6 score DESC,
        doc_id ASC), after the search-after cursor if given; [] for
        k = 0. A partition on the raw scores keeps those >= kth - _EPS,
        which holds every doc whose rounded score can tie the k-th; only
        those survivors are rounded and lexsorted."""
        if after is not None:
            rounded = np.round(scores, 6)
            cs, cd = float(np.round(after[0], 6)), int(after[1])
            elig = (rounded < cs) | ((rounded == cs) & (doc_ids > cd))
            doc_ids, scores = doc_ids[elig], scores[elig]
        if 0 < k < len(scores):
            kth = np.partition(scores, len(scores) - k)[len(scores) - k]
            keep = scores >= kth - _EPS
            doc_ids, scores = doc_ids[keep], scores[keep]
        order = np.lexsort((doc_ids, -np.round(scores, 6)))[:k]
        return [(int(doc_ids[i]), float(scores[i])) for i in order]

    def _term_dense(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """(slot positions, precomputed per-posting BM25 scores) — BM25
        contributions are query-independent, so they are computed once
        per term and cached (impact-style scoring)."""
        meta = self.dictionary.get(term)
        if meta is None:
            return None
        cached = self._dense_cache.get(meta[0])
        if cached is not None:
            return cached
        p = self.postings(term)
        if p is None:
            return None
        pos = np.searchsorted(self._slots, p.doc_ids).astype(np.int64)
        scores = self._score(p.tfs, p.doc_lens, p.df)
        self._dense_cache[meta[0]] = (pos, scores)
        return pos, scores

    def _term_bounds(self, term: str, scores: np.ndarray, k: int):
        """(largest, k-th largest) per-posting contribution of one term,
        0.0 where it has no posting or fewer than k; cached per
        (term_id, k) beside its dense scores. k docs score at least the
        k-th largest, since no BM25 contribution is negative."""
        key = (self.dictionary[term][0], k)
        b = self._bound_cache.get(key)
        if b is None:
            n = len(scores)
            b = (
                float(scores.max()) if n else 0.0,
                float(np.partition(scores, n - k)[n - k]) if n >= k else 0.0,
            )
            self._bound_cache[key] = b
        return b

    def _topk_dense(self, acc: np.ndarray, mask: np.ndarray, k: int, after=None):
        """Top-k from a dense score accumulator over the doc slots.
        Tombstoned postings were already filtered at decode
        (postings()), so fully-deleted docs never set the mask."""
        cand = np.nonzero(mask)[0]
        return self._topk(self._slots[cand], acc[cand], k, after)

    def _topk_gathered(self, dense, cand: np.ndarray, k: int):
        """Top-k over candidate slots (sorted): each term's contribution
        is gathered by searchsorted into its slot array and added in
        sorted-term order, the accumulator's order, so scores are
        bit-identical to it."""
        acc = np.zeros(len(cand), dtype=np.float64)
        for pos, scores in dense:
            if not len(pos):
                continue  # every posting tombstoned: contributes nothing
            i = np.minimum(np.searchsorted(pos, cand), len(pos) - 1)
            acc += np.where(pos[i] == cand, scores[i], 0.0)
        return self._topk(self._slots[cand], acc, k)

    def _pruned_or(self, found, k: int):
        """MaxScore (Turtle & Flood 1995) over the query's (term, dense
        arrays) pairs, or None when the accumulator is the cheaper path.
        theta, the largest k-th contribution of any one term, bounds the
        k-th score from below; the terms of least upper bound whose
        bounds sum below theta - _EPS are non-essential, as a doc holding
        only them cannot rank in the top k. Candidates are the union of
        the essential terms' slots."""
        dense = [d for _, d in found]
        bounds = [self._term_bounds(t, d[1], k) for t, d in found]
        theta = max(kth for _, kth in bounds) - _EPS
        by_ub = sorted(range(len(dense)), key=lambda i: bounds[i][0])
        cut, total = 0, 0.0
        while cut < len(by_ub):
            total += bounds[by_ub[cut]][0]
            if total >= theta:
                break
            cut += 1
        essential = [dense[i][0] for i in by_ub[cut:]]
        if sum(map(len, essential)) > len(self._slots) * _OR_SPARSE_SHARE:
            return None
        cand = (
            essential[0]
            if len(essential) == 1
            else np.unique(np.concatenate(essential))
        )
        return self._topk_gathered(dense, cand, k)

    def _pruned_and(self, dense, k: int):
        """Conjunctive top-k from the rarest term's slots, kept where
        every other term holds them; None when the accumulator is the
        cheaper path."""
        cand = min((d[0] for d in dense), key=len)
        if len(cand) * len(dense) > len(self._slots) * _AND_SPARSE_SHARE:
            return None
        for pos, _ in dense:
            if not len(cand):
                return []
            i = np.minimum(np.searchsorted(pos, cand), len(pos) - 1)
            cand = cand[pos[i] == cand]
        return self._topk_gathered(dense, cand, k)

    def _search_or(
        self, terms: list[str], k: int, neg: "list[str]" = (), after=None
    ):
        if self._slots is not None:
            found = [
                (t, d) for t in terms if (d := self._term_dense(t)) is not None
            ]
            if not found:
                return []
            if self.scorer is None and not neg and after is None:
                got = self._pruned_or(found, k)
                if got is not None:
                    return got
            n = len(self._slots)
            acc = np.zeros(n, dtype=np.float64)
            hit = np.zeros(n, dtype=bool)
            # sorted order -> deterministic accumulation
            for _, (pos, scores) in found:
                acc += np.bincount(pos, weights=scores, minlength=n)
                hit[pos] = True
            if neg:
                ex = self._excluded_docs(list(neg))
                if ex is not None:
                    hit[np.searchsorted(self._slots, ex)] = False
            return self._topk_dense(acc, hit, k, after)
        return rank_scored_postings(
            [self.scored_postings(t) for t in terms], k, "or",
            self._excluded_docs(list(neg)), after,
        )

    def _search_and(
        self, terms: list[str], k: int, neg: "list[str]" = (), after=None
    ):
        if self._slots is not None:
            dense = [self._term_dense(t) for t in terms]
            if any(d is None for d in dense):
                return []  # conjunctive + missing term -> empty
            if self.scorer is None and not neg and after is None:
                got = self._pruned_and(dense, k)
                if got is not None:
                    return got
            n = len(self._slots)
            acc = np.zeros(n, dtype=np.float64)
            cnt = np.zeros(n, dtype=np.int32)
            # sorted order -> deterministic accumulation
            for pos, scores in dense:
                acc += np.bincount(pos, weights=scores, minlength=n)
                cnt[pos] += 1
            mask = cnt == len(terms)
            if neg:
                ex = self._excluded_docs(list(neg))
                if ex is not None:
                    mask[np.searchsorted(self._slots, ex)] = False
            return self._topk_dense(acc, mask, k, after)
        return rank_scored_postings(
            [self.scored_postings(t) for t in terms], k, "and",
            self._excluded_docs(list(neg)), after,
        )

    # -- Block-Max AND (conjunctive leapfrog with block-max pruning) -----
    def _search_and_bm(self, terms: list[str], k: int):
        """Conjunctive top-k with block skipping: leapfrog
        intersection driven by candidate alignment, plus the block-max
        prune — once the heap holds k results, a candidate whose
        summed per-term current-block maxima cannot beat the threshold
        is skipped WITHOUT decoding, jumping to the earliest current
        block boundary (the bounds hold until some term's block
        changes). Rank- and score-identical to the dense AND path
        (same sorted-term accumulation order).

        Incremental sources: one cursor per (term, source) grouped per
        term; a doc matches a term if ANY source holds a live
        (non-tombstoned) posting for it."""
        INF = 2**63 - 1
        groups: list[list[_WandCursor]] = []
        for t in terms:
            blocks_per_src = self.term_blocks_per_source(t)
            meta = self.dictionary.get(t)
            if blocks_per_src is None or meta is None:
                return []  # conjunctive + missing term -> empty
            subs = [
                _WandCursor(b, meta[1], self.idf(meta[1]), self._dead_sets[si])
                for si, b in enumerate(blocks_per_src)
                if b is not None and len(b.first)
            ]
            if not subs:
                return []
            groups.append(subs)
        heap: list[tuple[float, int, float]] = []
        eps = 1e-6

        def gdoc(subs):
            return min((s.doc for s in subs if not s.done), default=INF)

        candidate = max(gdoc(subs) for subs in groups)
        while candidate < INF:
            for subs in groups:
                for s in subs:
                    if not s.done and s.doc < candidate:
                        s.seek(candidate)
            docs = [gdoc(subs) for subs in groups]
            m = max(docs)
            if m == INF:
                break
            if m != candidate or any(d != candidate for d in docs):
                candidate = m
                continue
            theta = (heap[0][0] - eps) if len(heap) >= k else -math.inf
            ub = 0.0
            for subs in groups:
                for s in subs:
                    s.seek_block(candidate)
                ub += max(
                    (
                        s.current_block_max(candidate)
                        for s in subs
                        if not s.done
                    ),
                    default=0.0,
                )
            if ub > theta:
                score = 0.0
                matched = True
                for subs in groups:  # sorted-term order (groups order)
                    contrib = 0.0
                    live = False
                    for s in subs:
                        if s.done or s.doc != candidate:
                            continue
                        if s.dead is not None and candidate in s.dead:
                            continue
                        contrib += s.score_current(self)
                        live = True
                    if not live:
                        matched = False
                        break
                    score += contrib
                if matched:
                    entry = (round(score, 6), -candidate, score)
                    if len(heap) < k:
                        heapq.heappush(heap, entry)
                    elif entry[:2] > heap[0][:2]:
                        heapq.heapreplace(heap, entry)
                candidate += 1
            else:
                # shared-block skip: every doc up to the earliest
                # current-block end has the same per-term bounds
                d_next = min(
                    s.current_block_last()
                    for subs in groups
                    for s in subs
                    if not s.done
                )
                candidate = max(candidate + 1, d_next + 1)
        out = sorted(heap, key=lambda e: (-e[0], -e[1]))
        return [(-neg_doc, score) for _r, neg_doc, score in out][:k]

    # -- Block-Max WAND --------------------------------------------------
    def _search_wand(self, terms: list[str], k: int):
        """Block-Max WAND (Ding & Suel 2011) for disjunctive top-k.

        Heap threshold uses ROUNDED scores (matching the ranking rule)
        minus an epsilon so candidates that round equal to the current
        k-th score are still evaluated and doc_id tie-breaking stays
        exact vs the exhaustive path.

        Incremental sources: ONE cursor per (term, source). A doc's
        postings for a term live in exactly one source, so the summed
        per-cursor upper bounds remain a valid doc score bound, and the
        at-pivot sum collects the doc's real contributions; per-source
        tombstones exclude a dead source's contribution at scoring
        while the same doc_id re-added in a later source still counts.
        """
        cursors = []
        for t in terms:
            blocks_per_src = self.term_blocks_per_source(t)
            meta = self.dictionary.get(t)
            if blocks_per_src is None or meta is None:
                continue
            for si, blocks in enumerate(blocks_per_src):
                if blocks is not None and len(blocks.first):
                    cursors.append(
                        _WandCursor(
                            blocks, meta[1], self.idf(meta[1]),
                            self._dead_sets[si],
                        )
                    )
        if not cursors:
            return []
        # heap of (rounded_score, -doc_id) so the weakest entry pops first
        heap: list[tuple[float, int]] = []
        eps = 1e-6
        while True:
            live = [c for c in cursors if not c.done]
            if not live:
                break
            live.sort(key=lambda c: c.doc)
            theta = (heap[0][0] - eps) if len(heap) >= k else -math.inf
            # find pivot: smallest prefix whose summed term UBs exceed theta
            acc = 0.0
            pivot_idx = -1
            for i, c in enumerate(live):
                acc += c.ub
                if acc > theta:
                    pivot_idx = i
                    break
            if pivot_idx < 0:
                break  # even all terms together can't beat theta
            pivot_doc = live[pivot_idx].doc
            if live[0].doc == pivot_doc:
                # block-max refinement: tighter UB from current blocks
                block_ub = 0.0
                at_pivot = []
                for c in live:
                    if c.doc > pivot_doc:
                        break
                    c.seek_block(pivot_doc)
                    block_ub += c.current_block_max(pivot_doc)
                    at_pivot.append(c)
                if block_ub > theta:
                    score = 0.0
                    any_live = False
                    for c in at_pivot:
                        # per-source tombstone: skip a dead source's
                        # contribution; other sources still count
                        if c.dead is not None and pivot_doc in c.dead:
                            continue
                        score += c.score_current(self)
                        any_live = True
                    if any_live:
                        entry = (round(score, 6), -pivot_doc, score)
                        if len(heap) < k:
                            heapq.heappush(heap, entry)
                        elif entry[:2] > heap[0][:2]:
                            heapq.heapreplace(heap, entry)
                    for c in at_pivot:
                        c.advance()
                else:
                    # NextShallow (Ding & Suel 2011): every doc up to the
                    # earliest current-block end shares these block maxima
                    # and cannot beat theta — jump all pivot cursors past
                    # it without decoding. Capped at the next cursor's
                    # doc: beyond it another term could lift the bound.
                    d_next = min(c.current_block_last() for c in at_pivot) + 1
                    if len(at_pivot) < len(live):
                        d_next = min(d_next, live[len(at_pivot)].doc)
                    for c in at_pivot:
                        c.seek(max(d_next, pivot_doc + 1))
            else:
                # advance the earliest cursor before the pivot to >= pivot_doc
                for i in range(pivot_idx):
                    if live[i].doc < pivot_doc:
                        live[i].seek(pivot_doc)
                        break
        out = sorted(heap, key=lambda e: (-e[0], -e[1]))
        return [(-neg_doc, score) for _rounded, neg_doc, score in out][:k]


class _WandCursor:
    """Per-term cursor with LAZY block decode: block position moves by
    metadata (first/last doc_id per block); a block's postings are
    decoded only when the cursor must report an exact doc or score.
    This is what makes Block-Max WAND actually skip decode work.
    Upper bounds = term idf × stored idf-free block-max norms."""

    __slots__ = (
        "blocks", "df", "idf", "bi", "pos", "ids", "tf", "dl", "done",
        "ub", "_pending_target", "dead",
    )

    def __init__(
        self,
        blocks: _TermBlocks,
        df: int,
        idf: float,
        dead: "set | None" = None,
    ):
        self.blocks = blocks
        self.df = df
        self.idf = idf
        self.dead = dead  # this SOURCE's tombstoned doc_ids
        self.bi = 0
        self.pos = 0
        self.ids = None  # undecoded
        self.tf = None
        self.dl = None
        self.ub = idf * blocks.ub_norm
        self.done = len(blocks.first) == 0
        # when set, the cursor is logically at the first doc >= target
        # within block bi, but the block is not decoded yet
        self._pending_target: int | None = None

    def _ensure_decoded(self):
        if self.ids is None and not self.done:
            self.ids, self.tf, self.dl = self.blocks.decode_block(self.bi)
            if self._pending_target is not None:
                self.pos = int(
                    np.searchsorted(self.ids, self._pending_target, side="left")
                )
                self._pending_target = None
                if self.pos >= len(self.ids):  # defensive; last >= target
                    self._next_block()

    def _next_block(self):
        self.bi += 1
        self.pos = 0
        self.ids = None
        self._pending_target = None
        if self.bi >= len(self.blocks.first):
            self.done = True

    @property
    def doc(self) -> int:
        """Exact current doc — decodes the block on first access; while
        undecoded with no pending target, the block's first_doc_id IS
        the current doc (pos 0)."""
        if self.done:
            return 2**63 - 1
        if self.ids is None and self._pending_target is None:
            return int(self.blocks.first[self.bi])
        self._ensure_decoded()
        return int(self.ids[self.pos]) if not self.done else 2**63 - 1

    def advance(self):
        self._ensure_decoded()
        self.pos += 1
        if self.pos >= len(self.ids):
            self._next_block()

    def seek(self, target: int):
        """Move to the first posting with doc_id >= target — skipping
        whole blocks by metadata, WITHOUT decoding them."""
        while not self.done and self.blocks.last[self.bi] < target:
            self._next_block()
        if self.done:
            return
        if self.ids is not None:
            self.pos = int(np.searchsorted(self.ids, target, side="left"))
            if self.pos >= len(self.ids):
                self._next_block()
        elif target > int(self.blocks.first[self.bi]):
            self._pending_target = target
        # else: block start already >= target; stay undecoded at pos 0

    def seek_block(self, target: int):
        """Advance whole blocks (metadata only) past those ending before
        ``target``; never decodes."""
        while not self.done and self.blocks.last[self.bi] < target:
            self._next_block()

    def current_block_last(self) -> int:
        return int(self.blocks.last[self.bi]) if not self.done else 2**63 - 1

    def current_block_max(self, _doc: int) -> float:
        return self.idf * float(self.blocks.bmax[self.bi]) if not self.done else 0.0

    def score_current(self, index: InvertedIndex) -> float:
        self._ensure_decoded()
        tf = np.array([self.tf[self.pos]])
        dl = np.array([self.dl[self.pos]])
        return float(index._score(tf, dl, self.df)[0])


class QueryActor:
    """Batch query evaluation, the one stateful batch shape: the index
    loads ONCE per actor in __init__. The pipelines keep a resident pool
    of these (pipelines/fulltext._query_pool); the CLI streams a query
    log of any size through ``queries_ds.map_batches(QueryActor,
    fn_constructor_args=(index_dir,), concurrency=N,
    batch_format="pyarrow")``."""

    def __init__(
        self,
        index_dir: str,
        k: int = 10,
        preload: bool = True,
        algorithm: str = "auto",
        scorer: "str | None" = None,
        as_of: "int | None" = None,
    ):
        self.index = InvertedIndex(
            index_dir,
            preload=preload,
            scorer=SCORERS[scorer] if scorer else None,
            as_of=as_of,
        )
        self.k = k
        self.algorithm = algorithm

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, ranks, doc_ids, scores = [], [], [], []
        modes = (
            batch["mode"].to_pylist()
            if "mode" in batch.column_names
            else ["or"] * len(batch)
        )
        excludes = (
            batch["exclude"].to_pylist()
            if "exclude" in batch.column_names
            else [None] * len(batch)
        )
        afters = (
            [
                None if s is None else (float(s), int(d))
                for s, d in zip(
                    batch["after_score"].to_pylist(),
                    batch["after_doc"].to_pylist(),
                )
            ]
            if "after_score" in batch.column_names
            else [None] * len(batch)
        )
        for qid, q, mode, excl, aft in zip(
            batch["query_id"].to_pylist(),
            batch["query"].to_pylist(),
            modes,
            excludes,
            afters,
        ):
            for rank, (doc_id, score) in enumerate(
                self.index.search(
                    q,
                    k=self.k,
                    mode=mode,
                    algorithm=self.algorithm,
                    exclude=excl,
                    after=aft,
                ),
                start=1,
            ):
                qids.append(qid)
                ranks.append(rank)
                doc_ids.append(doc_id)
                scores.append(score)
        return pa.table(
            {
                "query_id": pa.array(qids, pa.int64()),
                "rank": pa.array(ranks, pa.int32()),
                "doc_id": pa.array(doc_ids, pa.int64()),
                "score": pa.array(scores, pa.float64()),
            }
        )
