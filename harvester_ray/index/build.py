"""Inverted-index build: one SPIMI pass that IS the term shuffle →
{per-bucket dictionary ∥ per-(bucket, doc chunk) block-max segments}.

This is the Ray-Data-native re-expression of the reference's
couch→solr index sync (``sync_couch_collection_to_solr``,
harvester/solr_updater.py:831-872: validate → map → index-write) with
Solr replaced by our own segment format. Pipeline shape (SURVEY.md §7):

    read_parquet(docs)
      → map_batches(make_spimi_with_sides)   # stateless combiner; side-
                                             # writes the doc table and the
                                             # postings hive-partitioned by
                                             # hash(term_id) % num_term_buckets
    then one independent Ray task per present term bucket:
      dictionary/  bucket_dictionary: df/cf group-by of the bucket
      segments/    encode_postings per doc chunk: (term_id, doc_id)
                   lexsort → run split → block encode

The segments are the one stored copy of the postings. The hive-bucketed
SPIMI postings are the shuffle's scratch: ``build_index`` deletes them
once ``segments/`` commits. Every later reader decodes the segments
(``decode_blocks``, ``read_segment_postings``); ``maintenance.
merge_sources`` decodes them per term bucket and re-runs the same two
per-bucket functions, so a merged index and a fresh build encode
identically.

Key design points for 100 TB scale:

- Segments store the *idf-free* BM25 normalization part
  ``(tf·(k1+1))/(tf + k1·(1−b+b·dl/avgdl))`` and its block max; idf is
  a per-term constant applied at query time from the dictionary. This
  removes any df dependency from segment encoding, so the segment
  stage needs NO pre-built dictionary.
- The only all-to-all exchange is the map-side bucket write itself
  (the classic MapReduce index shape); bucket and segment tasks are
  embarrassingly parallel and their block layout is deterministic.
- Head-term skew: ``segment_doc_chunks`` splits each bucket's encode
  into contiguous doc_id-range chunks, so no task has to hold a hot
  term's whole posting list.
- ``doc_id``/``term_id`` are stable blake2b hashes (functions/text.py),
  so two runs or two cluster sizes produce identical ids
  (SURVEY.md §7 hard part (d)).
- Every stage checkpoint goes through ``state.lineage.run_stage``
  (atomic write + lineage record + skip-if-unchanged resume).

Indexes written by the retired sort and salted group-by strategies
(``stats.json`` ``segment_strategy`` other than "bucket") still open
and search single-process; they cannot be sharded or merged. Indexes
written before the scratch was deleted still hold ``spimi/postings``;
nothing reads it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from harvester_ray.config import DEFAULT_INDEX_CONFIG, IndexConfig
from harvester_ray.functions.codec import varint_decode, varint_encode_offsets
from harvester_ray.functions.text import (
    DEFAULT_ANALYZER,
    flatten_tokens,
    get_analyzer,
    hash64_array,
)

ENGINE_VERSION = 4  # v4: stats.json records num_term_buckets (term-shard tier)

# BM25 parameters of every build; stats.json records them and the query
# side reads them from there
BM25_K1 = 1.2
BM25_B = 0.75
# the one posting-block format (LEB128 varint), recorded in stats.json
CODEC = "varint"
# SPIMI batch: the per-batch fixed cost is the side writes (one file per
# term bucket per batch), so batches are large; ~32k docs x ~1KB text
# ≈ 32 MB in flight per task
SPIMI_BATCH_ROWS = 32768
# the columns a build reads (prune-at-the-read rule)
DOC_COLUMNS = ("doc_id", "text")

# Map signed int64 order onto unsigned order (flip the sign bit), so
# top-bit doc chunks (legacy_chunk_bounds) are *ordered, disjoint*
# doc_id ranges in signed order.
_SIGN_FLIP = np.uint64(1) << np.uint64(63)
# driver-side merge guard: tables under this land on the driver, larger
# ones take the distributed path (doc-table validation, chunk bounds)
_DRIVER_MERGE_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class IndexPaths:
    """Layout: stage 1 ("spimi") writes the term-bucketed postings and
    the doc table in ONE pass; dictionary and segments are separate
    resumable stages. ``postings`` is the shuffle's scratch: it exists
    only while a build runs (and in indexes written before it was
    deleted); ``segments`` holds the one stored copy of the postings."""

    root: str

    @property
    def spimi(self) -> str:
        return os.path.join(self.root, "spimi")

    @property
    def postings(self) -> str:
        return os.path.join(self.root, "spimi", "postings")

    @property
    def doc_table(self) -> str:
        return os.path.join(self.root, "spimi", "doc_table")

    @property
    def dictionary(self) -> str:
        return os.path.join(self.root, "dictionary")

    @property
    def segments(self) -> str:
        return os.path.join(self.root, "segments")

    @property
    def stats(self) -> str:
        return os.path.join(self.root, "stats.json")


class _SpimiBatch:
    """Fused per-batch SPIMI state: postings + doc table derived from
    ONE sorted key array (no Arrow group_by — the string-key hash
    aggregate was the measured hot spot at ~0.5 s per 8 k-doc batch;
    the int64-key sort is ~10x cheaper).

    ``doc_len`` rides along on every posting row so scoring needs no
    doc-table join at query time (impact-style layout). ``term`` is
    always ``pa.string()`` whatever the input text type (FIXTURES.md
    §3), so sources built from string and large_string text merge.
    """

    __slots__ = (
        "dictionary", "uniq_hashes", "term_idx", "doc_row", "tf",
        "doc_ids_all", "doc_len_per_row", "n_rows",
    )

    def __init__(self, batch: pa.Table, analyzer=DEFAULT_ANALYZER):
        toks = analyzer.tokenize_column(batch["text"])
        flat, parent = flatten_tokens(toks)
        self.n_rows = len(batch)
        self.doc_ids_all = (
            batch["doc_id"].combine_chunks()
            if isinstance(batch["doc_id"], pa.ChunkedArray)
            else batch["doc_id"]
        ).to_numpy(zero_copy_only=False)
        if len(flat) == 0:
            self.dictionary = pa.array([], pa.string())
            self.uniq_hashes = np.empty(0, np.int64)
            self.term_idx = np.empty(0, np.int64)
            self.doc_row = np.empty(0, np.int64)
            self.tf = np.empty(0, np.int32)
            self.doc_len_per_row = np.zeros(self.n_rows, np.int32)
            return
        # unique terms once per batch (vocabulary-bounded Python hash)
        denc = pc.dictionary_encode(flat)
        self.dictionary = denc.dictionary.cast(pa.string())
        self.uniq_hashes = hash64_array(self.dictionary)
        tidx = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        par = parent.to_numpy(zero_copy_only=False).astype(np.int64)
        # (doc row, term) pair aggregation: one int64 key sort + run-length
        key = np.sort((par << np.int64(32)) | tidx)
        change = np.nonzero(np.diff(key))[0] + 1
        starts = np.concatenate(([0], change))
        self.tf = np.diff(np.concatenate((starts, [len(key)]))).astype(np.int32)
        heads = key[starts]
        self.doc_row = (heads >> np.int64(32)).astype(np.int64)
        self.term_idx = (heads & np.int64(0xFFFFFFFF)).astype(np.int64)
        self.doc_len_per_row = np.bincount(
            par, minlength=self.n_rows
        ).astype(np.int32)

    def postings_table(self, order: np.ndarray | None = None) -> pa.Table:
        """(term, term_id, doc_id, tf, doc_len) rows, optionally in a
        given permutation (bucket order) — the permutation is applied
        to numpy columns and dictionary indices BEFORE string take."""
        ti = self.term_idx if order is None else self.term_idx[order]
        dr = self.doc_row if order is None else self.doc_row[order]
        tf = self.tf if order is None else self.tf[order]
        return pa.table(
            {
                "term": pc.take(self.dictionary, pa.array(ti)),
                "term_id": pa.array(self.uniq_hashes[ti], pa.int64()),
                "doc_id": pa.array(self.doc_ids_all[dr], pa.int64()),
                "tf": pa.array(tf, pa.int32()),
                "doc_len": pa.array(self.doc_len_per_row[dr], pa.int32()),
            }
        )

    def doc_table(self) -> pa.Table:
        """One (doc_id, doc_len) row per doc with >= 1 token."""
        nz = np.nonzero(self.doc_len_per_row)[0]
        return pa.table(
            {
                "doc_id": pa.array(self.doc_ids_all[nz], pa.int64()),
                "doc_len": pa.array(self.doc_len_per_row[nz], pa.int32()),
            }
        )


def spimi_postings_batch(
    batch: pa.Table, analyzer=DEFAULT_ANALYZER
) -> pa.Table:
    """SPIMI combiner: a batch of (doc_id, text) → (term, term_id,
    doc_id, tf, doc_len) posting rows, aggregated within the batch."""
    return _SpimiBatch(batch, analyzer).postings_table()


def bm25_norm(
    tf: np.ndarray, doc_len: np.ndarray, avgdl: float, k1: float, b: float
) -> np.ndarray:
    """The idf-free BM25 term: (tf·(k1+1))/(tf + k1·(1−b+b·dl/avgdl)).
    Segments store this (and its block max); score = idf(df) · norm."""
    tf = tf.astype(np.float64)
    dl = doc_len.astype(np.float64)
    return (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * dl / avgdl))


def bm25_idf(df: float, n_docs: float) -> float:
    """Lucene-style non-negative idf: ln(1 + (N − df + 0.5)/(df + 0.5))."""
    return math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))


def bm25_score(
    tf: np.ndarray,
    doc_len: np.ndarray,
    df: float,
    n_docs: float,
    avgdl: float,
    k1: float,
    b: float,
) -> np.ndarray:
    """Full vectorized BM25 — the single scoring definition shared by
    the query engine, the pure-Python oracle and the DuckDB oracle SQL."""
    return bm25_idf(df, n_docs) * bm25_norm(tf, doc_len, avgdl, k1, b)


_EMPTY_SEGMENT_TABLE = pa.table(
    {
        "term": pa.array([], pa.string()),
        "term_id": pa.array([], pa.int64()),
        "salt": pa.array([], pa.int32()),
        "block_id": pa.array([], pa.int32()),
        "first_doc_id": pa.array([], pa.int64()),
        "last_doc_id": pa.array([], pa.int64()),
        "n": pa.array([], pa.int32()),
        "doc_id_deltas": pa.array([], pa.binary()),
        "tfs": pa.array([], pa.binary()),
        "doc_lens": pa.array([], pa.binary()),
        "block_max_norm": pa.array([], pa.float32()),
    }
)


def _encode_sorted_runs(
    terms_per_run: pa.Array,
    run_starts: np.ndarray,
    run_ends: np.ndarray,
    tid_s: np.ndarray,
    did_s: np.ndarray,
    tf_s: np.ndarray,
    dl_s: np.ndarray,
    avgdl: float,
    k1: float,
    b: float,
    bs: int,
) -> pa.Table:
    """Encode MANY (term_id, doc_id)-sorted posting runs into block rows
    (FIXTURES.md §3 layout, block_max = idf-free norm max) in ONE
    vectorized pass: per-run block boundaries are computed with
    repeat/cumsum arithmetic, then ONE varint encode per column over
    the whole sorted slab is sliced into per-block buffers — no
    per-run numpy work, no per-run table concat (the per-run encode
    loop was ~40% of segment-task time at 1.5 k runs/bucket). The
    ``salt`` column is always 0; it stays in the layout for indexes
    written by the retired salted strategy."""
    n = len(did_s)
    norms = bm25_norm(tf_s, dl_s, avgdl, k1, b)
    run_lens = run_ends - run_starts
    nb_per_run = (run_lens + bs - 1) // bs
    total_blocks = int(nb_per_run.sum())
    first_block_of_run = np.concatenate(([0], np.cumsum(nb_per_run)[:-1]))
    within = np.arange(total_blocks) - np.repeat(first_block_of_run, nb_per_run)
    starts = np.repeat(run_starts, nb_per_run) + within * bs
    ends = np.minimum(starts + bs, np.repeat(run_ends, nb_per_run))
    gaps = np.empty(n, dtype=np.uint64)
    gaps[0] = 0
    np.subtract(did_s[1:], did_s[:-1], out=gaps[1:], casting="unsafe")
    gaps[starts] = 0  # gap[0] of each block is relative to first_doc_id

    def slices(values: np.ndarray) -> list[bytes]:
        buf, value_ends = varint_encode_offsets(values)
        byte_lo = np.concatenate(([0], value_ends[ends[:-1] - 1]))
        byte_hi = value_ends[ends - 1]
        return [buf[a:b_] for a, b_ in zip(byte_lo, byte_hi)]

    gap_col, tf_col, dl_col = slices(gaps), slices(tf_s), slices(dl_s)

    block_max = np.maximum.reduceat(norms, starts).astype(np.float32)
    run_of_block = np.repeat(
        np.arange(len(run_starts), dtype=np.int64), nb_per_run
    )
    term_col = pa.DictionaryArray.from_arrays(
        pa.array(run_of_block, pa.int64()),
        terms_per_run.cast(pa.string()),
    ).cast(pa.string())
    return pa.table(
        {
            "term": term_col,
            "term_id": pa.array(tid_s[starts], pa.int64()),
            "salt": pa.array(np.zeros(total_blocks, np.int32)),
            "block_id": pa.array(within.astype(np.int32)),
            "first_doc_id": pa.array(did_s[starts], pa.int64()),
            "last_doc_id": pa.array(did_s[ends - 1], pa.int64()),
            "n": pa.array((ends - starts).astype(np.int32)),
            "doc_id_deltas": pa.array(gap_col, pa.binary()),
            "tfs": pa.array(tf_col, pa.binary()),
            "doc_lens": pa.array(dl_col, pa.binary()),
            "block_max_norm": pa.array(block_max, pa.float32()),
        }
    )


def encode_postings(
    t: pa.Table,
    avgdl: float,
    k1: float,
    b: float,
    bs: int,
    rows: "np.ndarray | None" = None,
) -> pa.Table:
    """Block rows for posting rows (term, term_id, doc_id, tf, doc_len)
    in any order: one (term_id, doc_id) lexsort, one run per term, one
    ``_encode_sorted_runs`` pass. ``rows`` restricts the encode to
    those row numbers of ``t`` (a doc chunk) without copying it. The
    segment encode of both ``build_index`` and
    ``maintenance.merge_sources``."""
    tid, did, tf, dl = (
        t[c].to_numpy(zero_copy_only=False)
        for c in ("term_id", "doc_id", "tf", "doc_len")
    )
    if rows is not None:
        tid, did, tf, dl = tid[rows], did[rows], tf[rows], dl[rows]
    if len(tid) == 0:
        return _EMPTY_SEGMENT_TABLE
    order = np.lexsort((did, tid))
    tid_s, did_s = tid[order], did[order]
    change = np.nonzero(np.diff(tid_s))[0] + 1
    run_starts = np.concatenate(([0], change))
    run_ends = np.concatenate((change, [len(tid_s)]))
    # the permutation is applied to numpy columns only; the one term
    # string per run is taken from the (possibly chunked) term column
    # (an Arrow Table.take re-copies the string column — measured ~1 s
    # per 6 M rows)
    first_rows = order[run_starts] if rows is None else rows[order[run_starts]]
    terms_per_run = pc.take(t["term"], pa.array(first_rows)).combine_chunks()
    return _encode_sorted_runs(
        terms_per_run, run_starts, run_ends,
        tid_s, did_s, tf[order], dl[order], avgdl, k1, b, bs,
    )


# the segment columns decode_blocks reads
DECODE_COLUMNS = (
    "term", "term_id", "first_doc_id", "n", "doc_id_deltas", "tfs", "doc_lens",
)
# segment part file of (term bucket, doc chunk), as the segments stage
# and merge_sources name it
SEG_PART_RE = re.compile(r"^part-bucket(\d+)c(\d+)\.parquet$")


def _value_bytes(col: "pa.ChunkedArray | pa.Array") -> memoryview:
    """The bytes of a binary column's values, concatenated in row order:
    a zero-copy slice of the Arrow data buffer (a chunked column is
    combined first)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    _, off_buf, val_buf = col.buffers()
    odt = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    off = np.frombuffer(off_buf, odt)[col.offset : col.offset + len(col) + 1]
    values = memoryview(val_buf if val_buf is not None else b"").cast("B")
    return values[int(off[0]) : int(off[-1])]


def decode_blocks(t: pa.Table) -> pa.Table:
    """Posting rows (term, term_id, doc_id, tf, doc_len) of segment block
    rows: the inverse of ``encode_postings``, row for row in (term_id,
    doc_id) order within each file's blocks. One varint decode per binary
    column over its whole data buffer; doc ids are rebuilt with one
    prefix sum, restarted at each block from ``first_doc_id`` (the
    block's first gap is 0 by the format). int64 arithmetic wraps, so
    gaps across the signed range round-trip. The one reader of stored
    postings outside the query engine."""
    t = string_terms(t)
    n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    gaps = varint_decode(_value_bytes(t["doc_id_deltas"])).view(np.int64)
    tf = varint_decode(_value_bytes(t["tfs"])).astype(np.int32)
    dl = varint_decode(_value_bytes(t["doc_lens"])).astype(np.int32)
    total = int(n.sum())
    if not len(gaps) == len(tf) == len(dl) == total:
        raise ValueError(
            f"corrupt segment blocks: n sums to {total}, decoded "
            f"{len(gaps)} gaps, {len(tf)} tfs, {len(dl)} doc_lens"
        )
    cs = np.cumsum(gaps)
    starts = np.cumsum(n) - n
    first = t["first_doc_id"].to_numpy(zero_copy_only=False)
    block = np.repeat(np.arange(len(n), dtype=np.int64), n)
    ids = cs - cs[starts][block] + first[block]
    return pa.table(
        {
            "term": pc.take(t["term"], pa.array(block)),
            "term_id": pa.array(
                t["term_id"].to_numpy(zero_copy_only=False)[block], pa.int64()
            ),
            "doc_id": pa.array(ids, pa.int64()),
            "tf": pa.array(tf, pa.int32()),
            "doc_len": pa.array(dl, pa.int32()),
        }
    )


def read_segment_postings(
    paths: "IndexPaths", terms=None
) -> "ray.data.Dataset":
    """One source's postings as a Dataset of (term, term_id, doc_id, tf,
    doc_len) rows, decoded from its segments in tasks. ``terms``
    restricts the decode to those terms' block rows. The term filter
    runs in the decode task, not in the parquet read: a read filter
    that empties a block hands Ray Data an empty block that skips the
    decode and arrives downstream with no columns, and row-group
    statistics on ``term`` prune little (blocks are in term_id order)."""
    ds = ray.data.read_parquet(paths.segments, columns=list(DECODE_COLUMNS))
    if terms is None:
        return ds.map_batches(decode_blocks, batch_format="pyarrow")
    wanted = pa.array(sorted(set(terms)), pa.string())

    def decode_terms(t: pa.Table) -> pa.Table:
        t = string_terms(t)
        return decode_blocks(t.filter(pc.is_in(t["term"], value_set=wanted)))

    return ds.map_batches(decode_terms, batch_format="pyarrow")


def segment_files_by_bucket(seg_dir: str) -> dict[int, list[str]]:
    """{term bucket: its segment part files, sorted} of one source's
    segments directory (files named by ``SEG_PART_RE``)."""
    out: dict[int, list[str]] = {}
    for f in sorted(os.listdir(seg_dir)):
        m = SEG_PART_RE.match(f)
        if m is not None:
            out.setdefault(int(m.group(1)), []).append(os.path.join(seg_dir, f))
    return out


def bucket_dictionary(t: pa.Table) -> pa.Table:
    """(term, term_id, df, cf) for one term bucket's posting rows. A
    posting row is one (term, doc) pair, so df = rows per term and
    cf = sum of tf. The dictionary aggregate of both ``build_index``
    and ``maintenance.merge_sources``."""
    agg = t.group_by(["term", "term_id"]).aggregate(
        [("term", "count"), ("tf", "sum")]
    )
    return pa.table(
        {
            "term": agg["term"],
            "term_id": agg["term_id"],
            "df": agg["term_count"].cast(pa.int64()),
            "cf": agg["tf_sum"].cast(pa.int64()),
        }
    )


def string_terms(t: pa.Table) -> pa.Table:
    """``t`` with its ``term`` column as ``pa.string()``. Sources
    written before SPIMI fixed the term type carry the input's text
    type (large_string from some writers), and Arrow will not concat
    the two."""
    i = t.schema.get_field_index("term")
    if i < 0 or t.schema.field(i).type == pa.string():
        return t
    return t.set_column(i, "term", t.column(i).cast(pa.string()))


def check_codec(src_dir: str, stats: dict) -> None:
    """Raise ValueError when the source at ``src_dir`` (its parsed
    ``stats.json`` in ``stats``) stores posting blocks in a format other
    than ``CODEC``; a source without the key predates it and is varint."""
    codec = stats.get("codec", CODEC)
    if codec != CODEC:
        raise ValueError(
            f"source {src_dir} stores {codec!r} posting blocks; only "
            f"{CODEC!r} is readable — rebuild it with build_index"
        )


def _present_buckets(post_root: str) -> list[int]:
    """Bucket ids that actually exist under the hive-partitioned
    postings root (``bucket=N`` dirs), sorted. Per-bucket stages fan
    out over these instead of range(num_term_buckets): a small corpus
    fills a fraction of the hash space, and launching a Ray task per
    EMPTY bucket is pure fixed cost. At corpus scale every bucket
    exists and this equals range(num_term_buckets)."""
    try:
        entries = os.listdir(post_root)
    except OSError:
        return []
    out = []
    for e in entries:
        if e.startswith("bucket="):
            try:
                out.append(int(e.split("=", 1)[1]))
            except ValueError:
                continue
    return sorted(out)


def _atomic_side_write(
    tbl: pa.Table, out_dir: str, key: str, row_group_size: int | None = None
) -> None:
    """Idempotent side-output write from inside a map_batches task:
    deterministic content-derived file name + atomic rename, so task
    retries overwrite rather than duplicate (the side-output pattern;
    same shared-storage assumption as write_parquet itself).

    ``row_group_size``: set small when the rows are sorted on a column
    downstream tasks range-filter on (doc_id chunk reads) — row-group
    min/max statistics then prune the read to ~1/chunks of the file."""
    import pyarrow.parquet as pq

    final = os.path.join(out_dir, f"part-{key}.parquet")
    tmp = f"{final}.tmp-{os.getpid()}"
    pq.write_table(tbl, tmp, row_group_size=row_group_size)
    os.replace(tmp, final)


# --- doc-chunk boundaries -------------------------------------------------
# A doc chunk is a CONTIGUOUS signed doc_id range: that property is
# load-bearing (per-term runs from different chunks are disjoint
# ordered ranges that merge at query load, and chunk membership is a
# parquet range filter that row-group statistics prune). Boundaries
# are DATA-DERIVED near-equal-count quantiles of the corpus's actual
# doc_ids, persisted in stats.json as ``chunk_bounds`` (the inclusive
# upper doc_id edge of chunks 0..S-2) — fixed top-bit ranges of the
# int64 space degenerate completely for sequential ids 0..N (every doc
# lands in ONE chunk, found by the 20 M-doc soak). Indexes built
# before ``chunk_bounds`` fall back to the legacy top-bit edges, which
# reproduce the old assignment bit for bit.

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def legacy_chunk_bounds(n_chunks: int) -> np.ndarray:
    """The pre-round-5 fixed edges: chunk = top log2(S) bits of
    sign-flipped doc_id, expressed as inclusive upper bounds."""
    shift = np.uint64(64 - int(math.log2(n_chunks)))
    u = (
        np.arange(1, n_chunks, dtype=np.uint64) << shift
    ) - np.uint64(1)
    return (u ^ _SIGN_FLIP).view(np.int64)


def chunk_of_ids(ids: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Chunk index per doc_id under inclusive-upper-edge bounds."""
    return np.searchsorted(
        bounds, np.asarray(ids, dtype=np.int64), side="left"
    ).astype(np.int64)


def _chunk_signed_range(chunk: int, bounds: np.ndarray) -> tuple[int, int]:
    """Inclusive signed-doc_id range of doc chunk ``chunk`` under
    ``bounds`` (len S-1 inclusive upper edges)."""
    lo = _INT64_MIN if chunk == 0 else int(bounds[chunk - 1]) + 1
    hi = _INT64_MAX if chunk >= len(bounds) else int(bounds[chunk])
    return lo, hi


def compute_chunk_bounds(doc_table_dir: str, n_chunks: int) -> list[int]:
    """Near-equal-count doc-chunk boundaries from the written doc
    table. Deterministic and order-independent. Under the driver merge
    guard: exact rank quantiles of the (unique) doc_ids. Beyond it: a
    distributed equal-width histogram — 65 536 cells spanning the
    observed [min, max] — folded by a (cell)-keyed groupby, so at most
    65 536 rows ever reach the driver; boundaries land on cell edges
    (balance within cell granularity, correctness unconditional: ANY
    consistent bounds give a valid index layout)."""
    import pyarrow.parquet as pq

    files = [
        f for f in sorted(os.listdir(doc_table_dir))
        if f.endswith(".parquet")
    ]
    if not files:
        return [int(b) for b in legacy_chunk_bounds(n_chunks)]
    total_bytes = sum(
        os.path.getsize(os.path.join(doc_table_dir, f)) for f in files
    )
    if total_bytes <= _DRIVER_MERGE_BYTES:
        ids = np.sort(
            pq.read_table(doc_table_dir, columns=["doc_id"])[
                "doc_id"
            ].to_numpy()
        )
        n = len(ids)
        if n < n_chunks:
            return [int(b) for b in legacy_chunk_bounds(n_chunks)]
        bounds = [
            int(ids[(c + 1) * n // n_chunks - 1])
            for c in range(n_chunks - 1)
        ]
    else:
        from ray.data.aggregate import Max, Min, Sum

        ds = ray.data.read_parquet(doc_table_dir, columns=["doc_id"])
        mm = ds.aggregate(
            Min("doc_id", alias_name="lo"), Max("doc_id", alias_name="hi")
        )
        lo, hi = int(mm["lo"]), int(mm["hi"])
        # all arithmetic in the sign-flipped UNSIGNED id space: a
        # signed (d - lo) wraps int64 when ids span more than half the
        # domain (hash-spread ids do)
        lo_u = lo + (1 << 63)  # the sign-flip map as plain arithmetic
        hi_u = hi + (1 << 63)
        n_cells = 1 << 16
        width = max(1, (hi_u - lo_u) // n_cells + 1)
        lo_u64, w_u64 = np.uint64(lo_u), np.uint64(width)

        def cells(t: pa.Table) -> pa.Table:
            d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            du = d.view(np.uint64) ^ _SIGN_FLIP
            c = ((du - lo_u64) // w_u64).astype(np.int64)
            uc, cnt = np.unique(c, return_counts=True)
            return pa.table(
                {
                    "cell": pa.array(uc, pa.int64()),
                    "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
                }
            )

        rows = (
            ds.map_batches(cells, batch_format="pyarrow")
            .groupby("cell")
            .aggregate(Sum("cnt", alias_name="cnt"))
            .take_all()
        )
        rows.sort(key=lambda r: int(r["cell"]))
        cell_ids = np.array([int(r["cell"]) for r in rows], np.int64)
        cum = np.cumsum([int(r["cnt"]) for r in rows])
        n = int(cum[-1]) if len(cum) else 0
        if n < n_chunks:
            return [int(b) for b in legacy_chunk_bounds(n_chunks)]
        bounds = []
        for c in range(n_chunks - 1):
            target = (c + 1) * n // n_chunks
            i = int(np.searchsorted(cum, target, side="left"))
            i = min(i, len(cell_ids) - 1)
            # inclusive upper edge of the cut cell, back to signed
            b_u = min(
                lo_u + (int(cell_ids[i]) + 1) * width - 1, (1 << 64) - 1
            )
            bounds.append(b_u - (1 << 63))  # back to signed
    # strictly increasing (empty chunks are legal) and at most
    # INT64_MAX-1: a forward pass lifts repeats, then a backward pass
    # lowers bounds under the clamp without breaking the increase
    out = [int(b) for b in bounds]
    for i in range(1, len(out)):
        out[i] = max(out[i], out[i - 1] + 1)
    top = _INT64_MAX - 1
    for i in reversed(range(len(out))):
        out[i] = min(out[i], top)
        top = out[i] - 1
    return out


def make_spimi_with_sides(
    doc_dir: str,
    post_dir: str,
    n_buckets: int,
    analyzer=DEFAULT_ANALYZER,
    doc_chunks: int = 1,
):
    """SPIMI batch fn that writes the doc table and the term-bucketed
    postings as idempotent side outputs — one pass over the corpus
    feeds both downstream artifacts.

    Each input row is one doc, so per-batch (doc_id, doc_len) rows are
    globally exact with no dedup shuffle. Postings land
    hive-partitioned by ``hash(term_id) % n_buckets``: the partitioned
    side write IS the index shuffle (map-side partitioning, merged by
    the per-bucket dictionary and segment tasks). The Dataset output is
    one per-batch row count (the pipeline is consumed with a sum).
    """

    def fn(batch: pa.Table) -> pa.Table:
        pa.set_cpu_count(1)  # see encode_bucket_chunk: Arrow pool thrash
        # duplicate doc_ids would encode a 0 doc_id gap that only fails
        # later as an opaque decode assert — fail clearly at build time
        ids_in = batch["doc_id"].to_numpy(zero_copy_only=False)
        if len(np.unique(ids_in)) != len(ids_in):
            raise ValueError(
                "build_index input has duplicate doc_id values within a "
                "batch; doc_id must be unique per document (dedup or "
                "re-derive ids with functions.text.hash64)"
            )
        sb = _SpimiBatch(batch, analyzer)
        if len(sb.term_idx) == 0:
            return pa.table({"rows": pa.array([0], pa.int64())})
        doc_tbl = sb.doc_table()
        min_id = int(doc_tbl["doc_id"].to_numpy().min())
        key = f"{min_id & 0xFFFFFFFFFFFFFFFF:016x}"
        _atomic_side_write(doc_tbl, doc_dir, key)
        # the map task writes its postings split by term bucket
        # DIRECTLY (hive layout), so the stage is one fully streaming
        # pass — no repartition barrier, no second write pass. Bucket
        # assignment is computed per UNIQUE term and scattered; the
        # permutation is applied to numpy columns + dictionary indices
        # before the string take (Table.take on a string column was
        # measured ~1 s per 6 M rows).
        bucket_of_uniq = (
            sb.uniq_hashes.view(np.uint64) % np.uint64(n_buckets)
        ).astype(np.int32)
        b = bucket_of_uniq[sb.term_idx]
        # when the config fans segment encoding out over doc chunks,
        # rows land doc_id-SORTED within each bucket and in small row
        # groups — the chunk tasks' range filters then prune the read
        # to ~1/chunks of each file instead of re-reading the whole
        # bucket per chunk (the ×S read amplification fix). At
        # doc_chunks=1 the cheaper bucket-only sort keeps the SPIMI
        # hot path free of the extra int64 lexsort key.
        if doc_chunks > 1:
            did_rows = sb.doc_ids_all[sb.doc_row]
            order = np.lexsort((did_rows, b))
        else:
            order = np.argsort(b, kind="stable")
        out_sorted = sb.postings_table(order)
        bs = b[order]
        bounds = np.nonzero(np.diff(bs))[0] + 1
        lo = 0
        for hi in list(bounds) + [len(bs)]:
            part = out_sorted.slice(lo, hi - lo)
            bdir = os.path.join(post_dir, f"bucket={bs[lo]}")
            os.makedirs(bdir, exist_ok=True)
            rgs = (
                max(1024, -(-len(part) // (4 * doc_chunks)))
                if doc_chunks > 1
                else None
            )
            _atomic_side_write(part, bdir, key, row_group_size=rgs)
            lo = hi
        return pa.table({"rows": pa.array([len(out_sorted)], pa.int64())})

    return fn


def build_index(
    docs: "ray.data.Dataset",
    out_dir: str,
    cfg: IndexConfig = DEFAULT_INDEX_CONFIG,
    n_docs: int | None = None,
    input_fingerprint: str | None = None,
    chunk_bounds: "list[int] | None" = None,
) -> IndexPaths:
    """Run the full build. ``docs`` must have columns (doc_id, text).

    ``chunk_bounds`` (segment_doc_chunks > 1 only): inclusive upper
    doc_id edges of chunks 0..S-2. Pass the BASE index's persisted
    bounds when building a delta source so chunk files align across
    sources (maintenance.add_docs does); omitted, bounds are derived
    from this corpus's doc_ids (compute_chunk_bounds).

    ``n_docs`` (corpus size incl. zero-token docs — it feeds idf and
    avgdl) can be passed when the caller already knows it; otherwise a
    metadata-cheap ``docs.count()`` runs first.

    Every stage goes through ``state.lineage.run_stage``: output is
    written atomically with a ``_lineage.json`` record, and a re-run
    with an unchanged ``input_fingerprint`` (pass the fingerprint of
    the source parquet, e.g. ``lineage.dir_fingerprint(src)``) resumes
    — completed stages are skipped. With ``input_fingerprint=None`` the
    SPIMI stage always re-runs (unknown provenance), and so do the
    stages after it. The dictionary and segments stages are keyed on
    the SPIMI stage's lineage key, not on its files: the term-bucketed
    postings are scratch, deleted once the segments commit. A re-run
    that must redo either stage after that re-runs the SPIMI pass.
    """
    import pyarrow.parquet as pq

    from harvester_ray.state.lineage import run_stage, stage_is_current

    paths = IndexPaths(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    if n_docs is None:
        n_docs = docs.count()

    # Stage 1 (one pass over the corpus): SPIMI writes the doc table
    # and the postings hive-partitioned by term bucket as idempotent
    # side outputs — the partitioned write IS the index shuffle.
    def write_spimi(tmp: str) -> None:
        post_dir = os.path.join(tmp, "postings")
        doc_dir = os.path.join(tmp, "doc_table")
        os.makedirs(post_dir, exist_ok=True)
        os.makedirs(doc_dir, exist_ok=True)
        docs.map_batches(
            make_spimi_with_sides(
                doc_dir,
                post_dir,
                cfg.num_term_buckets,
                # resolved on the DRIVER and shipped by cloudpickle, so
                # custom analyzers need no worker-side registration for
                # the build (query actors resolve by name from stats)
                analyzer=get_analyzer(cfg.analyzer_name),
                doc_chunks=max(1, cfg.segment_doc_chunks),
            ),
            batch_format="pyarrow",
            # large batches: the side writes (one file per bucket per
            # batch) are the per-batch fixed cost
            batch_size=SPIMI_BATCH_ROWS,
            zero_copy_batch=True,
        ).sum("rows")  # consume the count rows to drive the pass

    def run_spimi() -> str:
        return run_stage(
            "spimi",
            paths.spimi,
            input_fingerprint or f"unfingerprinted-{os.getpid()}-{id(docs)}",
            write_spimi,
            params=f"tokenizer=v{ENGINE_VERSION},analyzer={cfg.analyzer_name}",
        )["key"]

    spimi_key = run_spimi()

    # Cross-batch doc_id uniqueness + total token count in ONE read:
    # every doc-table row is one doc of one batch, so a doc_id
    # appearing in two batches shows up as duplicate rows here.
    # Driver-side under the merge guard (the doc table is 2 ints +
    # 1 int32/doc); beyond it the cheap count invariant (rows <=
    # n_docs) plus a Ray aggregate run instead.
    doc_bytes = sum(
        os.path.getsize(os.path.join(paths.doc_table, f))
        for f in os.listdir(paths.doc_table)
    )
    if doc_bytes <= _DRIVER_MERGE_BYTES:
        dt = pq.read_table(paths.doc_table, columns=["doc_id", "doc_len"])
        dt_ids = dt["doc_id"].to_numpy()
        if len(np.unique(dt_ids)) != len(dt_ids):
            raise ValueError(
                "build_index input has duplicate doc_id values across "
                "batches; doc_id must be globally unique per document"
            )
        n_with_tokens = len(dt_ids)
        total_tokens = int(pc.sum(dt["doc_len"]).as_py() or 0)
        del dt, dt_ids
    else:
        n_with_tokens = sum(
            pq.ParquetFile(os.path.join(paths.doc_table, f)).metadata.num_rows
            for f in os.listdir(paths.doc_table)
            if f.endswith(".parquet")
        )
        total_tokens = int(
            ray.data.read_parquet(paths.doc_table).sum("doc_len") or 0
        )
    if n_with_tokens > n_docs:
        raise ValueError(
            f"doc table has {n_with_tokens} rows but n_docs={n_docs}; "
            "duplicate doc_ids or an understated n_docs"
        )
    avgdl = (total_tokens / n_docs) if n_docs else 0.0

    # doc-chunk boundaries: caller-supplied (delta sources align to
    # their base) or derived from this corpus's actual doc_ids
    n_chunks = max(1, cfg.segment_doc_chunks)
    if n_chunks > 1:
        bounds_arr = np.asarray(
            chunk_bounds
            if chunk_bounds is not None
            else compute_chunk_bounds(paths.doc_table, n_chunks),
            dtype=np.int64,
        )
        if len(bounds_arr) != n_chunks - 1:
            raise ValueError(
                f"chunk_bounds must have {n_chunks - 1} edges, "
                f"got {len(bounds_arr)}"
            )
    else:
        bounds_arr = None

    post_root = paths.postings
    bs = cfg.block_size

    # Raw Ray tasks (not a Dataset op) on purpose: the fan-out unit is
    # a CONTROL row (bucket id), and Ray Data bundles tiny control
    # blocks into one task, serializing the whole stage. Each task
    # reads its bucket's hive partition and writes its own part
    # atomically. Only buckets that exist on disk launch: a small
    # corpus fills a fraction of the hash buckets and the per-task
    # fixed cost (~20 ms) dominates empty launches.

    # Stage 2a: dictionary — one task per term bucket aggregates df/cf
    # straight off that bucket's postings; co-partitioned with the
    # segments, so nothing is merged centrally.
    def write_dictionary(tmp: str) -> None:
        @ray.remote(num_cpus=1)
        def dict_bucket(bk: int) -> int:
            pa.set_cpu_count(1)
            t = pq.read_table(
                os.path.join(post_root, f"bucket={bk}"),
                columns=["term", "term_id", "tf"],
                use_threads=False,
            )
            if len(t) == 0:
                return 0
            out = bucket_dictionary(t)
            _atomic_side_write(out, tmp, f"bucket{bk:05d}")
            return len(out)

        os.makedirs(tmp, exist_ok=True)
        ray.get([dict_bucket.remote(b) for b in _present_buckets(post_root)])

    # Stage 2b: segments — one task per (term bucket, doc chunk): read
    # the chunk's doc range of the bucket, encode_postings. Needs no
    # dictionary (block max stores the idf-free norm). The block layout
    # is deterministic: the lexsort key is a total order and chunks are
    # fixed contiguous doc_id ranges under the persisted bounds. The
    # chunk fan-out keeps parallelism = buckets x chunks even when one
    # term is enormous (per-term runs from different chunks are
    # disjoint ordered doc ranges and merge at query load); memory per
    # task is bounded by the chunk, not the bucket.
    def write_segments(tmp: str) -> None:
        @ray.remote(num_cpus=1)
        def encode_bucket_chunk(bk: int, chunk: int) -> int:
            # cap THIS worker's Arrow pool: concurrent tasks otherwise
            # spin up hardware_concurrency threads each and thrash
            pa.set_cpu_count(1)
            filters = None
            if bounds_arr is not None:
                # the SPIMI side-writes are doc_id-sorted with sized row
                # groups, so this range filter PRUNES the read by
                # row-group statistics to ~1/chunks of the bucket
                lo, hi = _chunk_signed_range(chunk, bounds_arr)
                filters = [("doc_id", ">=", lo), ("doc_id", "<=", hi)]
            t = pq.read_table(
                os.path.join(post_root, f"bucket={bk}"),
                columns=["term", "term_id", "doc_id", "tf", "doc_len"],
                use_threads=False,  # the task owns 1 CPU
                filters=filters,
            )
            if len(t) == 0:
                return 0
            seg = encode_postings(t, avgdl, BM25_K1, BM25_B, bs)
            _atomic_side_write(seg, tmp, f"bucket{bk:05d}c{chunk:02d}")
            return len(seg)

        os.makedirs(tmp, exist_ok=True)
        ray.get(
            [
                encode_bucket_chunk.remote(b, c)
                for b in _present_buckets(post_root)
                for c in range(n_chunks)
            ]
        )

    bounds_tag = (
        hashlib.md5(bounds_arr.tobytes()).hexdigest()[:12]
        if bounds_arr is not None
        else "none"
    )
    seg_params = (
        f"strategy=bucket,bs={cfg.block_size},"
        f"tbuckets={cfg.num_term_buckets},chunks={cfg.segment_doc_chunks},"
        f"bounds={bounds_tag},codec={CODEC},"
        f"k1={BM25_K1},b={BM25_B},avgdl={avgdl!r}"
    )

    # an earlier run of this build deleted the scratch postings: a
    # stage that cannot resume needs them, so redo the SPIMI pass
    if not os.path.isdir(post_root) and not (
        stage_is_current(paths.dictionary, spimi_key)
        and stage_is_current(paths.segments, spimi_key, seg_params)
    ):
        shutil.rmtree(paths.spimi)
        spimi_key = run_spimi()

    # Sequential staging: concurrent stage executions were measured to
    # contend destructively.
    run_stage("dictionary", paths.dictionary, spimi_key, write_dictionary)
    run_stage(
        "segments", paths.segments, spimi_key, write_segments, seg_params
    )
    # the segments are the one stored copy: drop the shuffle's scratch
    shutil.rmtree(post_root, ignore_errors=True)

    # term_id collision check (vocabulary-scale, driver-side; a
    # blake2b-64 collision would silently merge two terms' postings —
    # not expected below ~2^30 terms; swap to a Ray aggregate beyond).
    tid = pq.read_table(paths.dictionary, columns=["term_id"])["term_id"].to_numpy()
    n_terms = len(tid)
    if len(np.unique(tid)) != n_terms:
        raise RuntimeError(
            f"term_id hash collision among {n_terms} terms; rehash with a salt"
        )

    with open(paths.stats, "w") as f:
        json.dump(
            {
                "n_docs": int(n_docs),
                "total_tokens": total_tokens,
                "avgdl": avgdl,
                "n_terms": int(n_terms),
                "k1": BM25_K1,
                "b": BM25_B,
                "block_size": cfg.block_size,
                "analyzer": cfg.analyzer_name,
                # always "bucket"; other values mark indexes written by
                # retired strategies (read-only, single-process)
                "segment_strategy": "bucket",
                "segment_doc_chunks": cfg.segment_doc_chunks,
                # data-derived doc-chunk edges (see compute_chunk_bounds);
                # absent on chunks=1 and on pre-round-5 indexes (legacy
                # top-bit edges apply there)
                "chunk_bounds": (
                    [int(x) for x in bounds_arr]
                    if bounds_arr is not None
                    else None
                ),
                # serving tiers need the bucket count: doc shards select
                # segment files by chunk suffix, term shards by bucket
                # prefix (index/serving.py routes a query term to row
                # (hash(term_id) % num_term_buckets) % n_term_shards)
                "num_term_buckets": cfg.num_term_buckets,
                "codec": CODEC,
                "engine_version": ENGINE_VERSION,
            },
            f,
        )
    return paths
