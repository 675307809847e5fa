"""The segment decoder (``build.decode_blocks`` / ``read_segment_postings``):
the segments are the one stored copy of the postings, so decoding them
must give back exactly the posting rows the encoder was given."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data

from harvester_ray.config import IndexConfig
from harvester_ray.corpus import generate_zipf_docs
from harvester_ray.index.build import (
    DECODE_COLUMNS,
    IndexPaths,
    build_index,
    decode_blocks,
    encode_postings,
    read_segment_postings,
    spimi_postings_batch,
)
from harvester_ray.index.query import InvertedIndex

POSTING_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("term_id", pa.int64()),
        ("doc_id", pa.int64()),
        ("tf", pa.int32()),
        ("doc_len", pa.int32()),
    ]
)


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([("term_id", "ascending"), ("doc_id", "ascending")])


def _assert_same_postings(got: pa.Table, want: pa.Table) -> None:
    assert got.schema == POSTING_SCHEMA
    assert _sorted(got).equals(_sorted(want.cast(POSTING_SCHEMA)))


def _roundtrip(t: pa.Table, bs: int = 128) -> pa.Table:
    return decode_blocks(encode_postings(t, 40.0, 1.2, 0.75, bs))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decode_inverts_encode_on_random_corpora(seed):
    rng = np.random.default_rng(seed)
    docs = generate_zipf_docs(
        int(rng.integers(200, 800)), vocab_size=int(rng.integers(50, 2000)),
        mean_len=int(rng.integers(5, 80)), seed=seed,
    )
    post = spimi_postings_batch(docs)
    for bs in (1, 7, 128):
        _assert_same_postings(_roundtrip(post, bs), post)


def _one_term(ids) -> pa.Table:
    """Posting rows of one term in the docs ``ids``."""
    ids = np.asarray(ids, np.int64)
    n = len(ids)
    return pa.table(
        {
            "term": pa.array(["t"] * n, pa.string()),
            "term_id": pa.array(np.full(n, 42, np.int64)),
            "doc_id": pa.array(ids),
            "tf": pa.array(np.arange(1, n + 1, dtype=np.int32)),
            "doc_len": pa.array(np.arange(n, dtype=np.int32) + 3),
        }
    )


@pytest.mark.parametrize("extra", [0, 1])
def test_runs_of_block_size_and_one_more(extra):
    bs = 16
    post = _one_term(np.arange(bs + extra) * 3 - 5)
    seg = encode_postings(post, 10.0, 1.2, 0.75, bs)
    assert len(seg) == 1 + extra
    assert seg["n"].to_pylist() == [bs] + [1] * extra
    _assert_same_postings(decode_blocks(seg), post)


def test_int64_extreme_doc_ids():
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    ids = [lo, lo + 1, -1, 0, 1, hi - 1, hi]
    post = _one_term(ids)
    for bs in (1, 2, 3, 128):  # gaps across the sign and whole range
        _assert_same_postings(_roundtrip(post, bs), post)


def test_empty_table():
    empty = POSTING_SCHEMA.empty_table()
    seg = encode_postings(empty, 10.0, 1.2, 0.75, 128)
    assert len(seg) == 0
    out = decode_blocks(seg)
    assert len(out) == 0 and out.schema == POSTING_SCHEMA


def test_block_rows_of_a_chunked_read_decode():
    """Block rows as a parquet read or a Ray batch hands them over:
    several chunks per column, and slices that start mid-buffer."""
    docs = generate_zipf_docs(400, vocab_size=300, mean_len=30, seed=9)
    post = spimi_postings_batch(docs)
    seg = encode_postings(post, 30.0, 1.2, 0.75, 8)
    assert len(seg) > 250
    chunked = pa.concat_tables([seg.slice(0, 100), seg.slice(100)])
    assert chunked["tfs"].num_chunks == 2
    _assert_same_postings(decode_blocks(chunked), post)
    parts = [seg.slice(0, 50), seg.slice(50, 200), seg.slice(250)]
    _assert_same_postings(
        pa.concat_tables([decode_blocks(p) for p in parts]), post
    )


def test_corrupt_block_counts_raise():
    post = _one_term(np.arange(10))
    seg = encode_postings(post, 10.0, 1.2, 0.75, 4)
    bad = seg.set_column(
        seg.schema.get_field_index("n"), "n",
        pa.array([4, 4, 3], pa.int32()),
    )
    with pytest.raises(ValueError, match="corrupt"):
        decode_blocks(bad)


@pytest.mark.parametrize("chunks", [1, 4])
def test_built_segments_decode_to_the_spimi_postings(
    tmp_path, ray_session, chunks
):
    """Every segment file of a build (1 and 4 doc chunks) decodes, via
    the Ray reader, to exactly the SPIMI postings of the corpus; the
    build keeps no second copy."""
    docs = generate_zipf_docs(700, vocab_size=900, mean_len=40, seed=21)
    rng = np.random.default_rng(4)
    ids = rng.choice(2**62, size=len(docs), replace=False).astype(np.int64)
    docs = docs.set_column(0, "doc_id", pa.array(ids * 2 - 2**62, pa.int64()))
    out = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(docs), out,
        IndexConfig(num_term_buckets=8, segment_doc_chunks=chunks),
        n_docs=len(docs),
    )
    paths = IndexPaths(out)
    assert not os.path.exists(paths.postings)
    assert os.path.isdir(paths.doc_table)
    got = pa.concat_tables(
        ray.get(read_segment_postings(paths).to_arrow_refs())
    )
    want = spimi_postings_batch(docs)
    _assert_same_postings(got, want)
    # terms= prunes the read to those terms' blocks
    some = sorted(set(want["term"].to_pylist()))[:5]
    sub = pa.concat_tables(
        ray.get(read_segment_postings(paths, some).to_arrow_refs())
    )
    _assert_same_postings(
        sub, want.filter(pc.is_in(want["term"], pa.array(some)))
    )


def test_large_string_term_segments_decode(built_index):
    """Sources written before the term type was fixed hold large_string
    term columns; the decoder returns pa.string() terms."""
    paths = built_index
    f = next(
        os.path.join(paths.segments, n)
        for n in sorted(os.listdir(paths.segments))
        if n.endswith(".parquet")
    )
    seg = pq.read_table(f, columns=list(DECODE_COLUMNS))
    legacy = seg.set_column(0, "term", seg["term"].cast(pa.large_string()))
    assert legacy.schema.field("term").type == pa.large_string()
    got = decode_blocks(legacy)
    assert got.schema == POSTING_SCHEMA
    assert got.equals(decode_blocks(seg))
    # and the decoded postings are what the query engine serves
    idx = InvertedIndex(paths.root, preload=True)
    for term in sorted(set(got["term"].to_pylist()))[:20]:
        p = idx.postings(term)
        rows = got.filter(pc.equal(got["term"], term))
        np.testing.assert_array_equal(rows["doc_id"].to_numpy(), p.doc_ids)
        np.testing.assert_array_equal(rows["tf"].to_numpy(), p.tfs)
        np.testing.assert_array_equal(rows["doc_len"].to_numpy(), p.doc_lens)
