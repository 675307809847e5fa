"""Term-sharded (vocabulary-partitioned) query serving:

- multi-shard results rank- AND score-identical to the single-process
  index (OR and AND, incl. OOV terms and conjunctive-missing-term),
- per-actor memory ∝ vocab/T: shards load DISJOINT dictionary slices
  that cover the vocabulary, each ≈ |vocab|/T, and disjoint segment
  file subsets,
- works over base+delta sources and after deletes,
- clear rejection of non-bucket-strategy indexes.
"""

import numpy as np
import pytest
import ray.data

from harvester_ray.corpus import generate_zipf_docs
from harvester_ray.index.build import build_index
from harvester_ray.index.query import InvertedIndex
from harvester_ray.index.serving import ShardedIndex

N_SHARDS = 4

QUERIES = [
    ("w0 w1", "or"),
    ("w3 w17 w120", "or"),
    ("w500 w77", "or"),
    ("absent w0 w2", "or"),          # OOV term mixed in
    ("totally absent terms", "or"),  # all OOV -> empty
    ("w0 w1", "and"),
    ("w12 w120", "and"),
    ("absent w0", "and"),            # conjunctive missing -> empty
]


@pytest.fixture(scope="module")
def term_sharded_setup(tmp_path_factory, ray_session):
    root = tmp_path_factory.mktemp("termshard")
    docs = generate_zipf_docs(600, vocab_size=600, mean_len=50, seed=9)
    out = str(root / "idx")
    build_index(ray.data.from_arrow(docs), out, n_docs=600)
    return out


def test_term_sharded_rank_and_score_identical(term_sharded_setup, ray_session):
    out = term_sharded_setup
    single = InvertedIndex(out, preload=True)
    tier = ShardedIndex(out, n_term_shards=N_SHARDS)
    try:
        for q, mode in QUERIES:
            want = single.search(q, k=10, mode=mode)
            got = tier.search(q, k=10, mode=mode)
            assert [d for d, _ in got] == [d for d, _ in want], (q, mode)
            for (d1, s1), (d2, s2) in zip(got, want):
                # same sorted-term accumulation order on both sides —
                # scores are bit-identical, not merely close
                assert s1 == s2, (q, mode, d1)
    finally:
        tier.shutdown()


def test_term_shards_partition_vocabulary(term_sharded_setup, ray_session):
    """Memory-∝-vocab/T claim: shard dictionaries are disjoint, cover
    the vocabulary, and no shard holds more than a balanced share
    (hash-distributed buckets); segment files are disjoint too."""
    out = term_sharded_setup
    single = InvertedIndex(out)
    tier = ShardedIndex(out, n_term_shards=N_SHARDS)
    try:
        sizes = tier.vocab_sizes()
        assert sum(sizes) == len(single.dictionary)  # disjoint cover
        assert all(s > 0 for s in sizes)
        # balanced to within a generous hash-variance factor
        assert max(sizes) <= 2.0 * (len(single.dictionary) / N_SHARDS)
        fcounts = tier.segment_file_counts()
        total_files = sum(len(ds.files) for ds in single._seg_ds)
        assert sum(fcounts) == total_files
        assert max(fcounts) < total_files  # nobody loads everything
    finally:
        tier.shutdown()


def test_term_shard_actor_loads_only_its_slice(term_sharded_setup, ray_session):
    """A term-shard InvertedIndex holds only terms whose bucket ≡ s
    (mod T), and never loads the doc table (slots is None)."""
    from harvester_ray.functions.text import hash64
    import json
    import os

    out = term_sharded_setup
    with open(os.path.join(out, "stats.json")) as f:
        nb = json.load(f)["num_term_buckets"]
    for s in range(N_SHARDS):
        shard = InvertedIndex(out, term_shard=(s, N_SHARDS))
        assert shard._slots is None
        for t in shard.dictionary:
            b = (hash64(t) & 0xFFFFFFFFFFFFFFFF) % nb
            assert b % N_SHARDS == s


def test_term_sharded_with_delta_and_deletes(tmp_path_factory, ray_session):
    import pyarrow.compute as pc

    from harvester_ray.index.maintenance import add_docs, delete_docs

    root = tmp_path_factory.mktemp("termshard_inc")
    docs = generate_zipf_docs(400, vocab_size=300, mean_len=40, seed=3)
    out = str(root / "idx")

    def half(parity):
        t = docs.filter(pc.equal(pc.bit_wise_and(docs["doc_id"], 1), parity))
        return ray.data.from_arrow(t)

    build_index(half(0), out)
    add_docs(out, half(1))
    dead = docs["doc_id"].to_pylist()[:5]
    delete_docs(out, dead)

    single = InvertedIndex(out, preload=True)
    tier = ShardedIndex(out, n_term_shards=N_SHARDS)
    try:
        for q, mode in QUERIES:
            want = single.search(q, k=10, mode=mode)
            got = tier.search(q, k=10, mode=mode)
            assert [d for d, _ in got] == [d for d, _ in want], (q, mode)
            for (d1, s1), (d2, s2) in zip(got, want):
                assert s1 == s2
            assert not any(d in dead for d, _ in got)
    finally:
        tier.shutdown()


def test_term_by_doc_grid_partitions_postings(tmp_path_factory, ray_session):
    """Composability claim: a (term_shard × doc_shard) grid cell loads
    the bucket∩chunk file intersection; for any term, the owning term
    shard's cells partition that term's postings across doc chunks,
    and non-owning term shards don't know the term at all."""
    from harvester_ray.config import IndexConfig

    S = 2  # doc chunks
    T = 2  # term shards
    root = tmp_path_factory.mktemp("grid")
    docs = generate_zipf_docs(300, vocab_size=200, mean_len=30, seed=13)
    out = str(root / "idx")
    build_index(
        ray.data.from_arrow(docs), out,
        IndexConfig(segment_doc_chunks=S), n_docs=300,
    )
    single = InvertedIndex(out, preload=True)
    grid = {
        (ts, c): InvertedIndex(out, term_shard=(ts, T), shard=(c, S))
        for ts in range(T)
        for c in range(S)
    }
    for term in list(single.dictionary)[:30]:
        want = single.postings(term)
        owners = [ts for ts in range(T) if term in grid[(ts, 0)].dictionary]
        assert len(owners) == 1  # exactly one term shard knows the term
        ts = owners[0]
        parts = []
        for c in range(S):
            sp = grid[(ts, c)].scored_postings(term)
            if sp is not None:
                parts.append(sp[0])
        got = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(got, np.sort(want.doc_ids))


def test_grid_tier_rank_and_score_identical(tmp_path_factory, ray_session):
    """The (T×S cells) grid must equal the single process on
    rank AND score, and every cell must load a strict subset of the
    segment files (intersection of its term row and doc column)."""
    from harvester_ray.config import IndexConfig

    T, S = 2, 2
    root = tmp_path_factory.mktemp("grid_tier")
    docs = generate_zipf_docs(500, vocab_size=400, mean_len=40, seed=21)
    out = str(root / "idx")
    build_index(
        ray.data.from_arrow(docs), out,
        IndexConfig(segment_doc_chunks=S), n_docs=500,
    )
    single = InvertedIndex(out, preload=True)
    grid = ShardedIndex(out, T, S)
    try:
        total_files = sum(len(ds.files) for ds in single._seg_ds)
        flat = grid.segment_file_counts()
        assert sum(flat) == total_files  # cells partition the files
        assert max(flat) < total_files
        for q, mode in QUERIES:
            want = single.search(q, k=10, mode=mode)
            got = grid.search(q, k=10, mode=mode)
            assert [d for d, _ in got] == [d for d, _ in want], (q, mode)
            for (d1, s1), (d2, s2) in zip(got, want):
                assert s1 == s2, (q, mode, d1)
    finally:
        grid.shutdown()


def test_grid_cell_restart_preserves_results(tmp_path, ray_session):
    """bm25 term×doc cell fault tolerance: kill one grid cell
    mid-stream; Ray restarts it from the immutable index files, the
    in-flight fetch retries, and every query still equals the single
    process bit for bit."""
    import ray

    from harvester_ray.config import IndexConfig

    docs = generate_zipf_docs(300, vocab_size=300, mean_len=30, seed=23)
    out = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(docs), out,
        IndexConfig(segment_doc_chunks=2), n_docs=300,
    )
    single = InvertedIndex(out, preload=True)
    grid = ShardedIndex(out, n_term_shards=2, n_doc_shards=2)
    try:
        before = [grid.search(q, k=10, mode=mode) for q, mode in QUERIES]
        ray.kill(grid.cells[1][1], no_restart=False)
        after = [grid.search(q, k=10, mode=mode) for q, mode in QUERIES]
        assert after == before == [
            single.search(q, k=10, mode=mode) for q, mode in QUERIES
        ]
    finally:
        grid.shutdown()


def test_term_shard_rejects_bad_config(term_sharded_setup, ray_session):
    with pytest.raises(ValueError, match="0 <= s < T"):
        InvertedIndex(term_sharded_setup, term_shard=(4, 4))
    with pytest.raises(ValueError, match="num_term_buckets"):
        InvertedIndex(term_sharded_setup, term_shard=(0, 1024))


def test_term_shard_rejects_non_bucket_strategy(tmp_path_factory, ray_session):
    """A legacy index (stats.json from a retired strategy) still
    searches single-process, but never term-sharded."""
    import json
    import os

    root = tmp_path_factory.mktemp("termshard_sort")
    docs = generate_zipf_docs(100, vocab_size=80, mean_len=20, seed=5)
    out = str(root / "idx")
    build_index(ray.data.from_arrow(docs), out, n_docs=100)
    fresh = InvertedIndex(out)
    want = {(q, m): fresh.search(q, k=10, mode=m) for q, m in QUERIES}
    stats_path = os.path.join(out, "stats.json")
    with open(stats_path) as f:
        stats = json.load(f)
    stats["segment_strategy"] = "sort"
    with open(stats_path, "w") as f:
        json.dump(stats, f)
    legacy = InvertedIndex(out, preload=True)
    assert any(want.values())
    for q, mode in QUERIES:
        assert legacy.search(q, k=10, mode=mode) == want[q, mode], (q, mode)
    with pytest.raises(ValueError, match="bucket"):
        InvertedIndex(out, term_shard=(0, 2))


def test_term_sharded_search_after_matches_single_process(
    term_sharded_setup, ray_session
):
    out = term_sharded_setup
    single = InvertedIndex(out, preload=True)
    tier = ShardedIndex(out, n_term_shards=N_SHARDS)
    try:
        for q, mode in [("w0 w1", "or"), ("w0 w1", "and")]:
            p1 = single.search(q, k=10, mode=mode)
            cur = (p1[-1][1], p1[-1][0])
            want = single.search(q, k=10, mode=mode, after=cur)
            got = tier.search(q, k=10, mode=mode, after=cur)
            assert [d for d, _ in got] == [d for d, _ in want], (q, mode)
            for (_, s1), (_, s2) in zip(got, want):
                assert s1 == s2  # bit-identical accumulation
    finally:
        tier.shutdown()
