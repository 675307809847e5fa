"""Row-group-pruned doc-chunk reads (segment_doc_chunks > 1):

- the SPIMI bucket side-writes (the build's scratch, deleted once the
  segments commit, so these tests write them with
  ``make_spimi_with_sides`` into a directory of their own) are
  doc_id-sorted with sized row groups, and each chunk task's range
  filter prunes its read to a fraction of the bucket's row groups (the
  ×S read-amplification fix),
- the filtered read is EXACTLY equivalent to the old read-everything-
  then-mask logic (segments identical table-for-table),
- a chunked build serves postings/queries identical to an unchunked
  build of the same corpus.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from harvester_ray.config import IndexConfig
from harvester_ray.corpus import generate_zipf_docs
from harvester_ray.index.build import (
    IndexPaths,
    _chunk_signed_range,
    build_index,
    chunk_of_ids,
    make_spimi_with_sides,
)
from harvester_ray.index.query import InvertedIndex

N_CHUNKS = 4
N_DOCS = 2000


def _scattered_docs(seed=11):
    docs = generate_zipf_docs(N_DOCS, vocab_size=500, mean_len=60, seed=seed)
    rng = np.random.default_rng(7)
    # ids uniform over the FULL signed 64-bit range (hash-like), so
    # every chunk holds ~1/N_CHUNKS of the rows
    u = rng.choice(2**62, size=N_DOCS, replace=False).astype(
        np.uint64
    ) * np.uint64(4)
    ids = (u ^ np.uint64(1 << 63)).view(np.int64)
    return docs.set_column(0, "doc_id", pa.array(ids, pa.int64()))


@pytest.fixture(scope="module")
def chunked_build(tmp_path_factory, ray_session):
    root = tmp_path_factory.mktemp("chunkprune")
    docs = _scattered_docs()
    out = str(root / "idx4")
    cfg = IndexConfig(num_term_buckets=4, segment_doc_chunks=N_CHUNKS)
    build_index(ray.data.from_arrow(docs), out, cfg, n_docs=N_DOCS)
    out1 = str(root / "idx1")
    cfg1 = IndexConfig(num_term_buckets=4, segment_doc_chunks=1)
    build_index(ray.data.from_arrow(docs), out1, cfg1, n_docs=N_DOCS)
    return out, out1


@pytest.fixture(scope="module")
def spimi_postings(tmp_path_factory, chunked_build):
    """The chunked build's SPIMI postings: the same side-write function
    over the same docs as one batch (N_DOCS is below SPIMI_BATCH_ROWS,
    so the build also wrote them as one batch), into a directory of
    its own. Returns (postings root, the build's chunk bounds)."""
    root = tmp_path_factory.mktemp("spimi")
    post_root = str(root / "postings")
    os.makedirs(post_root)
    os.makedirs(root / "doc_table")
    write = make_spimi_with_sides(
        str(root / "doc_table"), post_root, 4, doc_chunks=N_CHUNKS
    )
    write(_scattered_docs())
    out, _ = chunked_build
    assert not os.path.exists(IndexPaths(out).postings)
    return post_root, _bounds(out)


def _bounds(out: str) -> np.ndarray:
    import json

    with open(IndexPaths(out).stats) as f:
        return np.asarray(json.load(f)["chunk_bounds"], np.int64)


def _overlapping_row_groups(bucket_dir: str, lo: int, hi: int):
    """(overlapping, total) row groups across the bucket's files for
    the inclusive doc_id range [lo, hi] — what a statistics-pruned
    read actually touches."""
    overlap = total = 0
    for f in sorted(os.listdir(bucket_dir)):
        if not f.endswith(".parquet"):
            continue
        md = pq.ParquetFile(os.path.join(bucket_dir, f)).metadata
        ci = next(
            i
            for i in range(md.row_group(0).num_columns)
            if md.row_group(0).column(i).path_in_schema == "doc_id"
        )
        for g in range(md.num_row_groups):
            st = md.row_group(g).column(ci).statistics
            total += 1
            if st is None or not st.has_min_max:
                overlap += 1
            elif st.min <= hi and st.max >= lo:
                overlap += 1
    return overlap, total


def test_chunk_reads_are_row_group_pruned(spimi_postings):
    post_root, bounds = spimi_postings
    buckets = [
        d for d in os.listdir(post_root) if d.startswith("bucket=")
    ]
    assert buckets
    checked = 0
    for bd in buckets:
        bdir = os.path.join(post_root, bd)
        _, total = _overlapping_row_groups(bdir, -(2**63), 2**63 - 1)
        if total < 2 * N_CHUNKS:
            continue  # too few row groups for pruning to show
        for chunk in range(N_CHUNKS):
            lo, hi = _chunk_signed_range(chunk, bounds)
            overlap, total = _overlapping_row_groups(bdir, lo, hi)
            # a chunk touches ~1/N_CHUNKS of the row groups (+1 file
            # boundary group); well under half the bucket
            assert overlap <= total / 2, (bd, chunk, overlap, total)
            checked += 1
    assert checked > 0, "no bucket had enough row groups to exercise pruning"


def test_filtered_read_equals_mask_logic(spimi_postings):
    """The range filter used by encode_bucket_chunk returns exactly the
    rows the old read-all-then-mask logic kept (same rows, any order)."""
    post_root, bounds = spimi_postings
    for bd in sorted(os.listdir(post_root)):
        if not bd.startswith("bucket="):
            continue
        bdir = os.path.join(post_root, bd)
        full = pq.read_table(bdir, columns=["doc_id"])
        did = full["doc_id"].to_numpy(zero_copy_only=False)
        for chunk in range(N_CHUNKS):
            lo, hi = _chunk_signed_range(chunk, bounds)
            filt = pq.read_table(
                bdir,
                columns=["doc_id"],
                filters=[("doc_id", ">=", lo), ("doc_id", "<=", hi)],
            )["doc_id"].to_numpy(zero_copy_only=False)
            mask = chunk_of_ids(did, bounds) == chunk
            assert sorted(filt.tolist()) == sorted(did[mask].tolist())


def test_chunked_index_identical_to_unchunked(chunked_build, ray_session):
    out4, out1 = chunked_build
    i4 = InvertedIndex(out4, preload=True)
    i1 = InvertedIndex(out1, preload=True)
    assert i4.dictionary == i1.dictionary
    # per-term postings decode to the same (doc_id, tf, dl) streams
    for term in list(i1.dictionary)[:50]:
        p4, p1 = i4.postings(term), i1.postings(term)
        np.testing.assert_array_equal(p4.doc_ids, p1.doc_ids)
        np.testing.assert_array_equal(p4.tfs, p1.tfs)
        np.testing.assert_array_equal(p4.doc_lens, p1.doc_lens)
    for q in ("w0 w1", "w3 w17 w120", "w12 w120"):
        for mode in ("or", "and"):
            assert i4.search(q, k=10, mode=mode) == i1.search(
                q, k=10, mode=mode
            )


def test_sequential_ids_chunk_balanced(tmp_path, ray_session):
    """Regression (20 M-doc soak): sequential doc_ids 0..N-1 used to
    land ENTIRELY in one chunk under the fixed top-bit ranges, making
    doc-sharded serving degenerate. Data-derived bounds must spread
    them near-evenly, and the chunked index must serve identically to
    an unchunked build."""
    import json

    docs = generate_zipf_docs(600, vocab_size=300, mean_len=50, seed=5)
    assert docs["doc_id"].to_pylist()[:3] == [0, 1, 2]  # sequential

    out4 = str(tmp_path / "seq4")
    out1 = str(tmp_path / "seq1")
    build_index(
        ray.data.from_arrow(docs), out4,
        IndexConfig(num_term_buckets=4, segment_doc_chunks=N_CHUNKS),
        n_docs=600,
    )
    build_index(
        ray.data.from_arrow(docs), out1,
        IndexConfig(num_term_buckets=4, segment_doc_chunks=1),
        n_docs=600,
    )

    # every chunk holds a near-equal share of the sequential ids
    bounds = _bounds(out4)
    ids = np.arange(600, dtype=np.int64)
    counts = np.bincount(chunk_of_ids(ids, bounds), minlength=N_CHUNKS)
    assert (counts > 0).all(), counts
    assert counts.max() <= 2 * counts.min(), counts

    # ...and the segment files actually split by chunk on disk
    suffixes = {
        f[-11:] for f in os.listdir(IndexPaths(out4).segments)
        if f.endswith(".parquet")
    }
    assert len(suffixes) == N_CHUNKS, suffixes

    # every shard serves a non-empty slice; the union ranks identically
    # to the unchunked single-process index
    i1 = InvertedIndex(out1, preload=True)
    per_shard = []
    for c in range(N_CHUNKS):
        s = InvertedIndex(out4, preload=True, shard=(c, N_CHUNKS))
        assert s._slots is not None and len(s._slots) > 0
        per_shard.append(len(s._slots))
    assert sum(per_shard) == 600

    from harvester_ray.index.serving import ShardedIndex

    tier = ShardedIndex(out4, n_doc_shards=N_CHUNKS)
    try:
        for q in ("w0 w1", "w3 w17 w120", "w12 w120"):
            for mode in ("or", "and"):
                assert tier.search(q, k=10, mode=mode) == i1.search(
                    q, k=10, mode=mode
                )
    finally:
        tier.shutdown()


def test_distributed_bounds_path_serves_identically(
    tmp_path, ray_session, monkeypatch
):
    """compute_chunk_bounds' beyond-driver-guard histogram path
    (forced via _DRIVER_MERGE_BYTES=0) must yield valid increasing
    bounds, balanced chunks, and an index that serves identically to
    the exact-quantile driver path."""
    from harvester_ray.index import build as build_mod

    docs = _scattered_docs(seed=13)
    out_a = str(tmp_path / "driver")
    build_index(
        ray.data.from_arrow(docs), out_a,
        IndexConfig(num_term_buckets=4, segment_doc_chunks=N_CHUNKS),
        n_docs=N_DOCS,
    )
    monkeypatch.setattr(build_mod, "_DRIVER_MERGE_BYTES", 0)
    out_b = str(tmp_path / "dist")
    build_index(
        ray.data.from_arrow(docs), out_b,
        IndexConfig(num_term_buckets=4, segment_doc_chunks=N_CHUNKS),
        n_docs=N_DOCS,
    )
    bounds = _bounds(out_b)
    assert (np.diff(bounds) > 0).all()
    did = docs["doc_id"].to_numpy()
    counts = np.bincount(
        chunk_of_ids(did, bounds), minlength=N_CHUNKS
    )
    assert (counts > 0).all() and counts.max() <= 2 * counts.min(), counts
    a = InvertedIndex(out_a, preload=True)
    b = InvertedIndex(out_b, preload=True)
    for q in ("w0 w1", "w3 w17 w120"):
        assert a.search(q, k=10) == b.search(q, k=10)


@pytest.mark.parametrize("driver_bytes", [0, None])
def test_chunk_bounds_strictly_increasing_at_int64_top(
    tmp_path, ray_session, monkeypatch, driver_bytes
):
    """Ids crowded at the top of int64: every bound stays <=
    INT64_MAX-1 AND strictly increasing, on the histogram path
    (_DRIVER_MERGE_BYTES=0) and on the exact in-memory quantile path."""
    from harvester_ray.index import build as build_mod

    top = np.iinfo(np.int64).max
    ids = [-5, -4] + [top - i for i in range(6)]
    d = tmp_path / "doc_table"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64())}), d / "part-0.parquet"
    )
    if driver_bytes is not None:
        monkeypatch.setattr(build_mod, "_DRIVER_MERGE_BYTES", driver_bytes)
    bounds = build_mod.compute_chunk_bounds(str(d), 4)
    assert len(bounds) == 3
    assert all(b <= top - 1 for b in bounds), bounds
    assert all(a < b for a, b in zip(bounds, bounds[1:])), bounds
