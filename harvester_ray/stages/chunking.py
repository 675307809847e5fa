"""Training-data chunking / packing operators over `documents`.

Two operators a 100-TB LLM-training pipeline needs between "clean
text" and "tokenized shards":

- ``doc_chunks``: split every document into fixed-size token windows
  with overlap (the RAG / long-context chunking step). Embarrassingly
  parallel — one vectorized map_batches pass, no shuffle.
- ``token_shards``: assign every document a GLOBAL token offset (the
  exclusive prefix sum of token counts in doc_id order) and a shard id
  ``offset // budget`` (the "pack sequential docs into fixed token
  budget shards" step). The prefix sum is distributed as a two-level
  scan: per-range sums -> tiny driver exclusive scan -> per-range
  local cumsum, the textbook parallel-scan shape.

Reference analog: the reference ships documents to Solr in fixed-size
batches counted by rows (harvester/solr_updater.py:900-920 push loop);
these operators are the token-budget generalization a training
pipeline needs.

Both are DuckDB-oracled (pipelines/oracles.py DOC_CHUNKS /
TOKEN_SHARDS) with shared tokenizer + chunk-boundary rules:

- tokens: the analyzer contract (functions/text.py) —
  ``re.findall('[a-z0-9]+', lower(text))``.
- chunk starts: 0, stride, 2·stride, ... while start < n_tokens
  (stride = chunk_size - overlap); a doc with 0 tokens yields no
  chunks; the last chunk may be short (down to 1 token).
- shard of a doc: floor(exclusive_prefix_tokens / budget) — docs are
  never split across shards (sequence packing that respects document
  boundaries).

Scale notes:

- ``doc_chunks`` is a single streaming pass; chunk text is built by
  one vectorized gather + ``binary_join_element_wise``-free
  list-join kernel per batch (no Python loop over rows or chunks).
- ``token_shards``' only communication is P partial sums (P = number
  of doc_id ranges) to the driver and P offsets back — O(P), not
  O(rows). Each range's docs must fit one worker for the local sort +
  cumsum (same contiguous-range trick as index/build.py
  ``_chunk_signed_range``; raise ``num_ranges`` at scale).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from harvester_ray.functions.text import (
    DEFAULT_ANALYZER,
    flatten_tokens,
)

CHUNK_SIZE = 32
CHUNK_OVERLAP = 8
SHARD_TOKEN_BUDGET = 4096
NUM_SCAN_RANGES = 16

_SIGN_FLIP = np.uint64(1) << np.uint64(63)


def _docs_path(sf_dir: str) -> str:
    import os

    return os.path.join(sf_dir, "documents.parquet")


def make_chunker(chunk_size: int, overlap: int, analyzer=DEFAULT_ANALYZER):
    """Vectorized map_batches fn: (doc_id, text) -> one row per chunk
    (doc_id, chunk_id, n_tokens, chunk_text)."""
    if not 0 <= overlap < chunk_size:
        raise ValueError("need 0 <= overlap < chunk_size")
    stride = chunk_size - overlap

    def fn(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "chunk_id": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "chunk_text": pa.array([], pa.string()),
            }
        )
        toks = analyzer.tokenize_column(batch["text"])
        flat, parent = flatten_tokens(toks)
        if len(flat) == 0:
            return empty
        parent_np = parent.to_numpy()
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        # tokens per ROW of the batch (zero for token-free rows)
        row_len = np.zeros(len(batch), dtype=np.int64)
        uniq_rows, counts = np.unique(parent_np, return_counts=True)
        row_len[uniq_rows] = counts
        row_tok_start = np.concatenate(([0], np.cumsum(row_len)[:-1]))
        n_chunks = -(-row_len // stride)  # ceil; 0 tokens -> 0 chunks
        total = int(n_chunks.sum())
        if total == 0:
            return empty
        chunk_row = np.repeat(np.arange(len(batch)), n_chunks)
        chunk_first = np.concatenate(([0], np.cumsum(n_chunks)[:-1]))
        chunk_ord = np.arange(total) - np.repeat(chunk_first, n_chunks)
        s = chunk_ord * stride
        e = np.minimum(s + chunk_size, row_len[chunk_row])
        lengths = e - s
        # gather indices: for each chunk, row_tok_start + [s, e)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        gather = (
            np.arange(offsets[-1])
            - np.repeat(offsets[:-1], lengths)
            + np.repeat(row_tok_start[chunk_row] + s, lengths)
        )
        taken = flat.take(pa.array(gather, pa.int64()))
        lists = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), taken
        )
        chunk_text = pc.binary_join(lists, " ")
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[chunk_row], pa.int64()),
                "chunk_id": pa.array(chunk_ord, pa.int64()),
                "n_tokens": pa.array(lengths, pa.int64()),
                "chunk_text": chunk_text,
            }
        )

    return fn


# process-level cache of the materialized chunk table / dup-chunk set
# — the same sharing contract as fulltext._MATCH_SET_CACHE: keyed by
# (abspath, params), bounded, read-only inputs. Five gate entries
# (doc_chunks, chunk_dups, dup_chunk_filter, passage_topk and
# chunk_dups' second use inside dup_chunk_filter) otherwise re-run the
# identical tokenize+window pass.
_CHUNK_CACHE: dict = {}
_CHUNK_CACHE_MAX = 8


def _chunk_cached(key: tuple, build) -> "ray.data.Dataset":
    hit = _CHUNK_CACHE.get(key)
    if hit is None:
        while len(_CHUNK_CACHE) >= _CHUNK_CACHE_MAX:
            _CHUNK_CACHE.pop(next(iter(_CHUNK_CACHE)))
        hit = _CHUNK_CACHE[key] = build().materialize()
    return hit


def doc_chunks(
    sf_dir: str,
    chunk_size: int = CHUNK_SIZE,
    overlap: int = CHUNK_OVERLAP,
) -> "ray.data.Dataset":
    """(doc_id, chunk_id, n_tokens, chunk_text) token windows."""

    def build():
        ds = ray.data.read_parquet(
            _docs_path(sf_dir), columns=["doc_id", "text"]
        )
        return ds.map_batches(
            make_chunker(chunk_size, overlap),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    return _chunk_cached(
        ("chunks", os.path.abspath(sf_dir), chunk_size, overlap), build
    )


def _token_counts_batch(analyzer=DEFAULT_ANALYZER):
    def fn(batch: pa.Table) -> pa.Table:
        toks = analyzer.tokenize_column(batch["text"])
        _, parent = flatten_tokens(toks)  # non-empty tokens only
        n = np.bincount(
            parent.to_numpy(zero_copy_only=False), minlength=len(batch)
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n, pa.int64()),
            }
        )

    return fn


def token_shards(
    sf_dir: str,
    budget: int = SHARD_TOKEN_BUDGET,
    num_ranges: int = NUM_SCAN_RANGES,
) -> pa.Table:
    """(doc_id, n_tokens, token_offset, shard_id) — the global
    exclusive token prefix sum in doc_id order and the resulting
    fixed-token-budget shard assignment.

    Two-level distributed scan:
      1. one streaming pass computes per-doc token counts AND per-range
         partial sums (range = contiguous signed doc_id interval, the
         top bits of sign-flipped doc_id — ranges are ordered, so their
         sums form the scan's upper level);
      2. the driver exclusive-scans the P range sums (P rows, O(P));
      3. a groupby(range).map_groups pass sorts each range by doc_id,
         local-cumsums, and adds the range's base offset.
    """
    shift = np.uint64(64 - int(np.log2(num_ranges)))

    counts = ray.data.read_parquet(
        _docs_path(sf_dir), columns=["doc_id", "text"]
    ).map_batches(
        _token_counts_batch(), batch_format="pyarrow", zero_copy_batch=True
    )

    def add_range(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        rng = ((did.view(np.uint64) ^ _SIGN_FLIP) >> shift).astype(np.int64)
        return batch.append_column("range_id", pa.array(rng, pa.int64()))

    ranged = counts.map_batches(
        add_range, batch_format="pyarrow", zero_copy_batch=True
    )
    # upper level: P partial sums -> exclusive scan on the driver.
    # materialize() so the shared upstream (read + tokenize) runs once
    # and both consumers (sums, map_groups) reuse its blocks.
    ranged = ranged.materialize()
    sums = ranged.groupby("range_id").sum("n_tokens").take_all()
    base: dict[int, int] = {}
    acc = 0
    for row in sorted(sums, key=lambda r: r["range_id"]):
        base[row["range_id"]] = acc
        acc += int(row["sum(n_tokens)"])

    def scan_group(g: pa.Table) -> pa.Table:
        rid = int(g["range_id"][0].as_py())
        did = g["doc_id"].to_numpy(zero_copy_only=False)
        n = g["n_tokens"].to_numpy(zero_copy_only=False)
        order = np.argsort(did, kind="stable")
        did, n = did[order], n[order]
        excl = np.concatenate(([0], np.cumsum(n)[:-1])) + base[rid]
        return pa.table(
            {
                "doc_id": pa.array(did, pa.int64()),
                "n_tokens": pa.array(n, pa.int64()),
                "token_offset": pa.array(excl, pa.int64()),
                "shard_id": pa.array(excl // budget, pa.int64()),
            }
        )

    out = (
        ranged.groupby("range_id")
        .map_groups(scan_group, batch_format="pyarrow")
        .sort("doc_id")
    )
    parts = list(out.iter_batches(batch_format="pyarrow", batch_size=None))
    if not parts:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "token_offset": pa.array([], pa.int64()),
                "shard_id": pa.array([], pa.int64()),
            }
        )
    return pa.concat_tables(
        [p if isinstance(p, pa.Table) else pa.Table.from_batches([p]) for p in parts]
    ).combine_chunks()


# -- cross-document repeated-span dedup (RefinedWeb line-dedup analog) ----
# The classic web-pipeline "duplicated lines" signals (RefinedWeb /
# MassiveText): a span of text repeated verbatim across documents is
# boilerplate or template noise; documents dominated by such spans are
# dropped. The synthetic corpus has no newline structure, so the span
# unit is the engine's own token-window chunk (doc_chunks) — the same
# detector at chunk granularity, sharing the chunk-boundary contract
# (and therefore the DOC_CHUNKS oracle's chunking SQL).

DUP_FRAC_NUM = 3  # drop a doc when n_dup_chunks/n_chunks > 3/10
DUP_FRAC_DEN = 10  # (RefinedWeb drops past ~30% duplicated lines)
_DUP_SET_GUARD_BYTES = 64 << 20  # dup-text broadcast bound; join past it


def chunk_dups(
    sf_dir: str,
    chunk_size: int = CHUNK_SIZE,
    overlap: int = CHUNK_OVERLAP,
) -> "ray.data.Dataset":
    """(chunk_text, n_docs, n_occ): token-window chunks whose exact
    text appears in >= 2 DISTINCT documents — n_docs the distinct-doc
    count, n_occ the total occurrence count (within-doc repeats
    included). Shuffle shape: one chunking pass, a
    (chunk_text, doc_id) groupby to distinct pairs carrying per-pair
    occurrence counts, then a chunk_text groupby — two hash exchanges
    over the chunk table, never all-pairs. At 100 TB the shuffle key
    would be a 16-byte chunk-text hash with texts resolved at the end;
    here the texts ship directly (~200 B/chunk) so the oracle compares
    them verbatim."""
    from ray.data.aggregate import Count, Sum

    def build():
        pairs = (
            doc_chunks(sf_dir, chunk_size, overlap)
            .groupby(["chunk_text", "doc_id"])
            .aggregate(Count(alias_name="n_occ"))
        )
        agg = pairs.groupby("chunk_text").aggregate(
            Count(alias_name="n_docs"), Sum("n_occ", alias_name="n_occ")
        )

        def finalize(t: pa.Table) -> pa.Table:
            nd = t["n_docs"].cast(pa.int64())
            out = pa.table(
                {
                    "chunk_text": t["chunk_text"].cast(pa.string()),
                    "n_docs": nd,
                    "n_occ": t["n_occ"].cast(pa.int64()),
                }
            )
            return out.filter(pc.greater_equal(nd, 2))

        return agg.map_batches(finalize, batch_format="pyarrow")

    return _chunk_cached(
        ("dups", os.path.abspath(sf_dir), chunk_size, overlap), build
    )


def dup_chunk_filter(
    sf_dir: str,
    chunk_size: int = CHUNK_SIZE,
    overlap: int = CHUNK_OVERLAP,
) -> "ray.data.Dataset":
    """(doc_id): the corpus after the duplicated-span document filter —
    drop every document whose cross-doc duplicated chunks exceed
    DUP_FRAC_NUM/DUP_FRAC_DEN of its chunks (integer-exact:
    drop iff DEN·n_dup > NUM·n_chunks; zero-chunk docs are kept).
    Shuffle shape: the duplicated-text set (already materialized by
    the chunk_dups cache, so its size is known for free) marks the
    chunk table either by a guarded broadcast is_in (zero shuffle —
    the common case: dup chunks are a sliver of the corpus) or, past
    _DUP_SET_GUARD_BYTES, by the hash left-join (chunk-table-sized at
    worst); then one per-doc grouped count, and the engine's hash
    anti-join streams the kept corpus — no unguarded driver
    materialization on any path."""
    from ray.data.aggregate import Count, Sum

    from harvester_ray.config import shuffle_partitions
    from harvester_ray.stages.dedup import anti_join_doc_ids

    chunks = doc_chunks(sf_dir, chunk_size, overlap).select_columns(
        ["doc_id", "chunk_text"]
    )
    from harvester_ray.stages.joins import bounded_side_table

    dup_set = chunk_dups(sf_dir, chunk_size, overlap)
    if dup_set.size_bytes() <= _DUP_SET_GUARD_BYTES:
        dup_texts = pa.array(
            [
                r["chunk_text"]
                for r in bounded_side_table(
                    dup_set, _DUP_SET_GUARD_BYTES, "dup-chunk set"
                )
            ],
            pa.string(),
        )
        dup_ref = ray.put(dup_texts)

        def mark(t: pa.Table) -> pa.Table:
            hit = pc.is_in(t["chunk_text"], value_set=ray.get(dup_ref))
            return pa.table(
                {
                    "doc_id": t["doc_id"].cast(pa.int64()),
                    "is_dup": hit.cast(pa.int64()),
                }
            )

        marked = chunks.map_batches(mark, batch_format="pyarrow")
    else:
        dup = dup_set.select_columns(["chunk_text"]).map_batches(
            lambda t: t.append_column(
                "_dup", pa.array(np.ones(len(t), np.int8), pa.int8())
            ),
            batch_format="pyarrow",
        )
        marked = chunks.join(
            dup,
            join_type="left_outer",
            num_partitions=shuffle_partitions(),
            on=("chunk_text",),
        ).map_batches(
            lambda t: pa.table(
                {
                    "doc_id": t["doc_id"].cast(pa.int64()),
                    "is_dup": pc.fill_null(t["_dup"], 0).cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    stats = marked.groupby("doc_id").aggregate(
        Count(alias_name="n_chunks"), Sum("is_dup", alias_name="n_dup")
    )

    def heavy(t: pa.Table) -> pa.Table:
        nc = t["n_chunks"].to_numpy(zero_copy_only=False).astype(np.int64)
        nd = t["n_dup"].to_numpy(zero_copy_only=False).astype(np.int64)
        over = DUP_FRAC_DEN * nd > DUP_FRAC_NUM * nc
        return pa.table(
            {
                "doc_id": t["doc_id"]
                .cast(pa.int64())
                .filter(pa.array(over))
            }
        )

    drop = stats.map_batches(heavy, batch_format="pyarrow")
    docs = ray.data.read_parquet(_docs_path(sf_dir), columns=["doc_id"])
    return anti_join_doc_ids(docs, drop)


# -- exact repeated-substring spans (Lee et al. 2021 dedup signal) --------

SPAN_L = 16  # minimum duplicated-span length, in analyzer tokens


def _gram_stream(span_l: int, analyzer=DEFAULT_ANALYZER):
    """Vectorized map_batches fn: (doc_id, text) -> one row per
    length-``span_l`` token window at stride 1 — (gram, doc_id, pos).
    Same flatten/gather shape as make_chunker, with constant window
    length and full windows only (docs shorter than span_l emit no
    rows)."""

    def fn(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "gram": pa.array([], pa.string()),
                "doc_id": pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
            }
        )
        toks = analyzer.tokenize_column(batch["text"])
        flat, parent = flatten_tokens(toks)
        if len(flat) == 0:
            return empty
        parent_np = parent.to_numpy()
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        row_len = np.zeros(len(batch), dtype=np.int64)
        uniq_rows, counts = np.unique(parent_np, return_counts=True)
        row_len[uniq_rows] = counts
        row_tok_start = np.concatenate(([0], np.cumsum(row_len)[:-1]))
        n_grams = np.maximum(row_len - span_l + 1, 0)
        total = int(n_grams.sum())
        if total == 0:
            return empty
        gram_row = np.repeat(np.arange(len(batch)), n_grams)
        gram_first = np.concatenate(([0], np.cumsum(n_grams)[:-1]))
        pos = np.arange(total) - np.repeat(gram_first, n_grams)
        start_idx = row_tok_start[gram_row] + pos
        gather = (start_idx[:, None] + np.arange(span_l)).ravel()
        taken = flat.take(pa.array(gather, pa.int64()))
        lists = pa.ListArray.from_arrays(
            pa.array(np.arange(total + 1) * span_l, pa.int32()), taken
        )
        return pa.table(
            {
                "gram": pc.binary_join(lists, " "),
                "doc_id": pa.array(doc_ids[gram_row], pa.int64()),
                "pos": pa.array(pos, pa.int64()),
                # constant per doc; riding the gram row (8 B) saves the
                # second corpus read + doc_id join downstream
                "n_tokens": pa.array(row_len[gram_row], pa.int64()),
            }
        )

    return fn


def dup_span_stats(sf_dir: str, span_l: int = SPAN_L) -> "ray.data.Dataset":
    """Exact repeated-substring coverage (the per-document signal of
    Lee et al. 2021's suffix-array substring dedup): a token is
    DUPLICATED when some length-``span_l`` window covering it occurs
    at least twice in the corpus (any doc, same doc included — exactly
    the spans that method would collapse). Output one row per affected
    doc: (doc_id, n_tokens, n_dup_tokens), n_dup_tokens the size of
    the UNION of duplicated windows (overlaps merged, vectorized:
    span_l + Σ min(gap, span_l) over sorted window starts).

    Shuffle shape: one streaming gram pass (stride-1 windows over the
    token stream), a gram groupby for corpus occurrence counts, a hash
    join of occurrences against the duplicated-gram set, then a
    per-doc grouped interval-union — never all-pairs, nothing on the
    driver. The gram key here is the window TEXT so the DuckDB oracle
    compares verbatim; at 100 TB the key would be a 16-byte gram hash
    (the suffix-array method's fingerprint trick), shrinking shuffle
    bytes ~12× without changing any downstream stage."""
    from ray.data.aggregate import Count

    occ = (
        ray.data.read_parquet(_docs_path(sf_dir), columns=["doc_id", "text"])
        .map_batches(_gram_stream(span_l), batch_format="pyarrow")
        .materialize()  # consumed twice: dup-set build + the join
    )
    dup = (
        occ.groupby("gram")
        .aggregate(Count(alias_name="n"))
        .map_batches(
            lambda t: t.filter(
                pc.greater_equal(t["n"].cast(pa.int64()), 2)
            ).select(["gram"]),
            batch_format="pyarrow",
        )
    )
    from harvester_ray.stages.joins import ds_join

    hits = ds_join(
        occ,
        dup,
        on=("gram",),
        schemas=(
            pa.schema(
                [("gram", pa.string()), ("doc_id", pa.int64()),
                 ("pos", pa.int64()), ("n_tokens", pa.int64())]
            ),
            pa.schema([("gram", pa.string())]),
        ),
    ).select_columns(["doc_id", "pos", "n_tokens"])

    def cover(g: pa.Table) -> pa.Table:
        p = np.sort(g["pos"].to_numpy(zero_copy_only=False).astype(np.int64))
        covered = span_l + int(
            np.minimum(np.diff(p), span_l).sum()
        )
        return pa.table(
            {
                "doc_id": pa.array([int(g["doc_id"][0].as_py())], pa.int64()),
                "n_tokens": pa.array(
                    [int(g["n_tokens"][0].as_py())], pa.int64()
                ),
                "n_dup_tokens": pa.array([covered], pa.int64()),
            }
        )

    return hits.groupby("doc_id").map_groups(cover, batch_format="pyarrow")


PACK_CAPACITY = 512  # token capacity of one packed training sequence


def pack_sequences(
    sf_dir: str, capacity: int = PACK_CAPACITY
) -> "ray.data.Dataset":
    """Greedy document-boundary sequence packing (the "fill a
    fixed-length training sequence with whole docs, start a new one on
    overflow" step of an LLM data pipeline — unlike ``token_shards``'
    offset//budget rule, a doc that WOULD cross the capacity boundary
    restarts the bin, so bins never split docs and never overflow
    unless a single doc alone exceeds capacity).

    Packing is inherently sequential in scan order, so the PARALLEL
    UNIT is the packing key: each `source` group packs independently
    (docs in doc_id order within it), giving (source, doc_id,
    n_tokens, bin_id, bin_offset). At 100 TB the key would be the
    input shard; the per-group scan is O(group) integer ops with no
    allocation — the shuffle (one groupby) dominates, same shape as
    every dictionary build.
    """
    counts = ray.data.read_parquet(
        _docs_path(sf_dir), columns=["doc_id", "source", "text"]
    ).map_batches(
        _counts_with_source(), batch_format="pyarrow", zero_copy_batch=True
    )

    def pack_group(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(g, sort_keys=[("doc_id", "ascending")])
        g = g.take(order)
        n = g["n_tokens"].to_numpy(zero_copy_only=False)
        bins = np.empty(len(n), np.int64)
        offs = np.empty(len(n), np.int64)
        b, filled = 0, 0
        for i, ni in enumerate(n):
            if filled + ni > capacity and filled > 0:
                b += 1
                filled = 0
            bins[i] = b
            offs[i] = filled
            filled += ni
        return pa.table(
            {
                "source": g["source"],
                "doc_id": g["doc_id"],
                "n_tokens": g["n_tokens"],
                "bin_id": pa.array(bins, pa.int64()),
                "bin_offset": pa.array(offs, pa.int64()),
            }
        )

    return counts.groupby("source").map_groups(
        pack_group, batch_format="pyarrow"
    )


def _counts_with_source(analyzer=DEFAULT_ANALYZER):
    base = _token_counts_batch(analyzer)

    def fn(batch: pa.Table) -> pa.Table:
        t = base(batch)
        return t.append_column("source", batch["source"])

    return fn
