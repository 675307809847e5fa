"""Doc-sharded query serving: multi-shard results must be
rank-identical (ids AND scores) to the single-process index on the
same corpus, across OR / AND / WAND paths, with deltas and deletes."""

import numpy as np
import pytest
import ray.data

from harvester_ray.config import IndexConfig
from harvester_ray.corpus import generate_zipf_docs
from harvester_ray.index.build import build_index
from harvester_ray.index.query import InvertedIndex
from harvester_ray.index.serving import ShardedIndex

N_SHARDS = 4

QUERIES = [
    ("w0 w1", "or", "auto"),
    ("w0 w1", "or", "wand"),
    ("w3 w17 w120", "or", "auto"),
    ("w500 w77", "or", "wand"),
    ("w0 w1", "and", "auto"),
    ("w0 w1", "and", "wand"),
    ("w12 w120", "and", "auto"),
    ("w12 w120", "and", "wand"),
    ("absent w0", "and", "auto"),
]


@pytest.fixture(scope="module")
def sharded_setup(tmp_path_factory, ray_session):
    root = tmp_path_factory.mktemp("shard")
    # doc_ids spread over the full signed range so chunk ranges are
    # non-trivial: mix negative and positive hash-like ids
    docs = generate_zipf_docs(600, vocab_size=600, mean_len=50, seed=9)
    rng = np.random.default_rng(1)
    import pyarrow as pa

    scattered = docs.set_column(
        0,
        "doc_id",
        pa.array(
            rng.choice(2**62, size=600, replace=False).astype(np.int64)
            - 2**61,
            pa.int64(),
        ),
    )
    out = str(root / "idx")
    cfg = IndexConfig(segment_doc_chunks=N_SHARDS)
    build_index(ray.data.from_arrow(scattered), out, cfg, n_docs=600)
    # facet sidecar for the distributed-faceting tests: one value per
    # doc, written doc_id-sorted so shard range reads can prune
    import pyarrow.parquet as pq

    dids = np.sort(scattered["doc_id"].to_numpy())
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(dids, pa.int64()),
                "source": pa.array(
                    [f"s{abs(int(d)) % 7}" for d in dids], pa.string()
                ),
            }
        ),
        out + "_facets.parquet",
    )
    return out


def test_sharded_rank_identical(sharded_setup, ray_session):
    out = sharded_setup
    single = InvertedIndex(out, preload=True)
    tier = ShardedIndex(out, n_doc_shards=N_SHARDS)
    try:
        assert tier.total_docs() == len(single._slots)  # disjoint cover
        for q, mode, algo in QUERIES:
            want = single.search(q, k=10, mode=mode, algorithm=algo)
            got = tier.search(q, k=10, mode=mode, algorithm=algo)
            assert [d for d, _ in got] == [d for d, _ in want], (q, mode, algo)
            for (d1, s1), (d2, s2) in zip(got, want):
                assert s1 == pytest.approx(s2, rel=1e-12)
    finally:
        tier.shutdown()


def test_sharded_rejects_wrong_chunk_count(sharded_setup, ray_session):
    with pytest.raises(ValueError, match="segment_doc_chunks"):
        InvertedIndex(sharded_setup, shard=(0, 8))
    with pytest.raises(ValueError, match="power-of-two"):
        InvertedIndex(sharded_setup, shard=(0, 3))


def test_sharded_search_after_matches_single_process(
    sharded_setup, ray_session
):
    """Deep paging through the doc-sharded tier: page 2 via the cursor
    equals the single-process page 2 (ids and scores)."""
    single = InvertedIndex(sharded_setup, preload=True)
    tier = ShardedIndex(sharded_setup, n_doc_shards=N_SHARDS)
    try:
        for q, mode, algo in [
            ("w0 w1", "or", "auto"),
            ("w0 w1", "and", "auto"),
        ]:
            p1 = single.search(q, k=10, mode=mode)
            cur = (p1[-1][1], p1[-1][0])
            want = single.search(q, k=10, mode=mode, after=cur)
            got = tier.search(q, k=10, mode=mode, after=cur)
            assert [d for d, _ in got] == [d for d, _ in want], (q, mode)
            for (_, s1), (_, s2) in zip(got, want):
                assert s1 == pytest.approx(s2, rel=1e-12)
    finally:
        tier.shutdown()


def _facet_truth(index_dir: str, query: str) -> dict[str, int]:
    """Brute-force global facet counts for an OR query: single-process
    match set -> facet values."""
    import collections

    import pyarrow.parquet as pq

    single = InvertedIndex(index_dir, preload=True)
    parts = []
    for tm in sorted(set(single.analyzer.tokenize(query))):
        p = single.postings(tm)
        if p is not None:
            parts.append(p.doc_ids)
    m = np.unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)
    t = pq.read_table(index_dir + "_facets.parquet")
    by_id = dict(zip(t["doc_id"].to_numpy(), t["source"].to_pylist()))
    return collections.Counter(by_id[d] for d in m)


def test_facet_search_exact_regime(sharded_setup, ray_session):
    """With the phase-1 limit above the bucket count, the two-phase
    protocol (overrequest + refine) must reproduce the global facet
    counts bucket for bucket, and flag the run exact."""
    tier = ShardedIndex(sharded_setup, n_doc_shards=N_SHARDS)
    try:
        for q in ["w0 w1", "w3 w17 w120", "w500 w77"]:
            truth = _facet_truth(sharded_setup, q)
            want = sorted(truth.items(), key=lambda kv: (-kv[1], kv[0]))
            got, exact = tier.facet_search(
                q, sharded_setup + "_facets.parquet", "source",
                k=len(want), mode="or", overrequest=4,
            )
            assert exact, q
            assert got == want, q
    finally:
        tier.shutdown()


def test_facet_search_uses_index_analyzer(tmp_path, ray_session):
    """Facet match sets tokenize with the index's own analyzer: on a
    porter_en index an inflected query ("running dogs" -> run, dog)
    must count exactly the docs the single-process index matches."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    words = ["running", "runs", "dogs", "dog", "cats", "jumping",
             "houses", "trees", "walked", "birds"]
    rng = np.random.default_rng(5)
    ids = np.arange(200, dtype=np.int64) * 7919 - 500
    docs = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": [" ".join(rng.choice(words, size=3)) for _ in ids],
        }
    )
    out = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(docs), out,
        IndexConfig(segment_doc_chunks=2, analyzer_name="porter_en"),
        n_docs=200,
    )
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "source": [f"s{i % 5}" for i in range(200)],
            }
        ),
        out + "_facets.parquet",
    )
    tier = ShardedIndex(out, n_doc_shards=2)
    try:
        for q in ["running dogs", "Walked BIRDS"]:
            truth = _facet_truth(out, q)
            assert sum(truth.values()) > 0, q  # the check is not vacuous
            want = sorted(truth.items(), key=lambda kv: (-kv[1], kv[0]))
            got, exact = tier.facet_search(
                q, out + "_facets.parquet", "source", k=len(want),
            )
            assert exact and got == want, q
    finally:
        tier.shutdown()


def test_facet_refined_counts_exact_when_truncated(sharded_setup, ray_session):
    """Phase-1 truncation (limit=1 per shard) may drop BUCKETS, but
    refinement must make every returned candidate's count globally
    exact — the Solr facet.refine contract."""
    tier = ShardedIndex(sharded_setup, n_doc_shards=N_SHARDS)
    try:
        q = "w0 w1"
        truth = _facet_truth(sharded_setup, q)
        got, exact = tier.facet_search(
            q, sharded_setup + "_facets.parquet", "source",
            k=7, mode="or", overrequest=1,
        )
        assert len(got) >= 1
        for val, cnt in got:
            assert cnt == truth[val], (val, cnt, truth[val])
    finally:
        tier.shutdown()


def test_shard_actor_restart_preserves_results(sharded_setup, ray_session):
    """Serving-tier fault tolerance: kill a shard actor mid-stream —
    state is derived from immutable index files, so Ray restarts it,
    the in-flight call retries, and results stay identical (a lost
    node on a real cluster degrades to a reload, never a wrong or
    partial result)."""
    import ray

    out = sharded_setup
    tier = ShardedIndex(out, n_doc_shards=N_SHARDS)
    try:
        single = InvertedIndex(out, preload=True)
        q = "w0 w1"
        before = tier.search(q, k=10)
        ray.kill(tier.cells[0][1], no_restart=False)
        after = tier.search(q, k=10)
        assert after == before == single.search(q, k=10)
    finally:
        tier.shutdown()
