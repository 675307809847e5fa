"""BM25F fielded index: the FieldedIndex serving wrapper must be
rank- and score-identical (fp8 integers) to the oracled bm25f_topk
pipeline on the same corpus, and any doc-sharded composition of the
per-field indexes must reproduce single-process contributions bit for
bit."""

import numpy as np
import pytest
import ray.data

from harvester_ray.config import IndexConfig
from harvester_ray.index.fielded import (
    FieldedIndex,
    FieldSpec,
    build_field_indexes,
    split_title_body,
)
from harvester_ray.index.query import InvertedIndex
from harvester_ray.pipelines.fulltext import (
    BM25F_B_BODY,
    BM25F_B_TITLE,
    BM25F_W_BODY,
    BM25F_W_TITLE,
    TITLE_TOKENS,
    TOP_K,
    bm25f_topk,
    index_for,
    queries_for_mode,
)

SF_DIR = "/root/testdata/sf0.001"
N_SHARDS = 2

SPECS = [
    FieldSpec("title", BM25F_W_TITLE, BM25F_B_TITLE),
    FieldSpec("body", BM25F_W_BODY, BM25F_B_BODY),
]


@pytest.fixture(scope="module")
def field_dirs(tmp_path_factory, ray_session):
    root = tmp_path_factory.mktemp("fielded")
    docs = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    )
    cfg = IndexConfig(segment_doc_chunks=N_SHARDS)
    paths = build_field_indexes(docs, str(root), TITLE_TOKENS, cfg)
    return {name: p.root for name, p in paths.items()}


def _fielded(field_dirs, shard=None):
    main = InvertedIndex(index_for(SF_DIR).root, preload=True)
    return FieldedIndex(
        main,
        [
            (spec, InvertedIndex(field_dirs[spec.name], shard=shard))
            for spec in SPECS
        ],
    )


def test_split_partitions_tokens(ray_session):
    from harvester_ray.functions.text import tokenize

    docs = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    )
    sample = docs.limit(50).to_pandas()
    split = (
        split_title_body(ray.data.from_pandas(sample), TITLE_TOKENS)
        .to_pandas()
        .set_index("doc_id")
    )
    for _, row in sample.iterrows():
        toks = tokenize(row["text"])
        got = split.loc[row["doc_id"]]
        assert tokenize(got["title"]) == toks[:TITLE_TOKENS]
        assert tokenize(got["body"]) == toks[TITLE_TOKENS:]


def test_fielded_matches_pipeline(field_dirs, ray_session):
    fidx = _fielded(field_dirs)
    pipe = bm25f_topk(SF_DIR).to_pandas()
    for qid, q in queries_for_mode("or"):
        want = pipe[pipe["query_id"] == qid].sort_values("rank")
        got = fidx.search(q, k=TOP_K)
        assert [d for _, d, _ in got] == want["doc_id"].tolist(), q


def test_fielded_sharded_bit_identical(field_dirs, ray_session):
    single = _fielded(field_dirs)
    shards = [
        _fielded(field_dirs, shard=(c, N_SHARDS)) for c in range(N_SHARDS)
    ]
    for _, q in queries_for_mode("or"):
        from harvester_ray.functions.text import tokenize

        for t in sorted(set(tokenize(q))):
            whole = single.term_contributions(t)
            parts = [s.term_contributions(t) for s in shards]
            parts = [p for p in parts if p is not None]
            if whole is None:
                assert not parts
                continue
            ids = np.concatenate([p[0] for p in parts])
            fps = np.concatenate([p[1] for p in parts])
            order = np.argsort(ids, kind="stable")
            np.testing.assert_array_equal(ids[order], whole[0])
            np.testing.assert_array_equal(fps[order], whole[1])


def test_fielded_title_boost(tmp_path, ray_session):
    """The point of BM25F: a title occurrence outranks an equal-tf,
    equal-length body occurrence under the title boost. Controlled
    micro-corpus — doc 1 has `apple` among its first TITLE_TOKENS
    tokens (title field), doc 2 has it only past the split (body),
    with identical total lengths."""
    import pyarrow as pa

    from harvester_ray.index.build import build_index

    t1 = "apple w1 w2 w3 w4 w5 w6 w7 w8 w9"   # apple in title slice
    t2 = "w1 w2 w3 w4 w5 apple w6 w7 w8 w9"   # apple in body slice
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array([t1, t2], pa.string()),
            }
        )
    )
    main_dir = str(tmp_path / "main")
    build_index(docs, main_dir, n_docs=2)
    fdirs = build_field_indexes(docs, str(tmp_path / "f"), TITLE_TOKENS)
    fidx = FieldedIndex(
        InvertedIndex(main_dir),
        [
            (spec, InvertedIndex(fdirs[spec.name].root))
            for spec in SPECS
        ],
    )
    assert fidx.search("zzzq_not_a_token") == []
    hits = fidx.search("apple", k=2)
    assert [d for _, d, _ in hits] == [1, 2]
    assert hits[0][2] > hits[1][2]  # strictly better fp8 score


def test_distributed_fielded_bit_identical(field_dirs, ray_session):
    """The bm25f serving grid (actor cells) must reproduce the
    single-process FieldedIndex bit for bit — same ranks AND fp8
    scores — and its cells must partition the main vocabulary."""
    from harvester_ray.index.serving import ShardedIndex

    single = _fielded(field_dirs)
    tier = ShardedIndex(
        index_for(SF_DIR).root,
        n_term_shards=3,
        payload="bm25f",
        fields=[(spec, field_dirs[spec.name]) for spec in SPECS],
    )
    try:
        sizes = tier.vocab_sizes()
        assert len(sizes) == 3
        assert sum(sizes) == len(single.main.dictionary)
        n_nonempty = 0
        for _, q in queries_for_mode("or"):
            want = single.search(q, k=TOP_K)
            got = tier.search(q, k=TOP_K)
            assert got == want, q
            n_nonempty += int(bool(want))
        assert n_nonempty > 0
        assert tier.search("zzzqoov") == []
    finally:
        tier.shutdown()


def test_distributed_fielded_rejects_mismatched_buckets(
    field_dirs, tmp_path, ray_session
):
    """The routing invariant (one num_term_buckets across main and
    every field index) is VALIDATED, not assumed: a field index built
    with a different bucket count must be rejected at construction."""
    from harvester_ray.index.build import build_index
    from harvester_ray.index.serving import ShardedIndex

    docs = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    )
    odd_dir = str(tmp_path / "oddbuckets")
    build_index(docs, odd_dir, cfg=IndexConfig(num_term_buckets=8))
    with pytest.raises(ValueError, match="num_term_buckets"):
        ShardedIndex(
            index_for(SF_DIR).root,
            n_term_shards=2,
            payload="bm25f",
            fields=[(SPECS[0], field_dirs["title"]), (SPECS[1], odd_dir)],
        )


def test_fielded_cell_restart_preserves_results(field_dirs, ray_session):
    """bm25f cell fault tolerance: kill one cell mid-stream; Ray
    restarts it from the immutable main and field indexes, the
    in-flight fetch retries, and the fused ranking is unchanged."""
    import ray

    from harvester_ray.index.serving import ShardedIndex

    single = _fielded(field_dirs)
    queries = [q for _, q in queries_for_mode("or")]
    tier = ShardedIndex(
        index_for(SF_DIR).root,
        n_term_shards=3,
        payload="bm25f",
        fields=[(spec, field_dirs[spec.name]) for spec in SPECS],
    )
    try:
        before = [tier.search(q, k=TOP_K) for q in queries]
        ray.kill(tier.cells[1][0], no_restart=False)
        after = [tier.search(q, k=TOP_K) for q in queries]
        assert after == before == [single.search(q, k=TOP_K) for q in queries]
        assert any(before)
    finally:
        tier.shutdown()


def test_fielded_grid_over_doc_chunks_bit_identical(
    field_dirs, tmp_path, ray_session
):
    """A bm25f term × doc grid (T=2, S=2) — main and field indexes all
    built with segment_doc_chunks=2 — concatenates each term's
    per-chunk contributions and fuses them bit-identically to the
    single-process FieldedIndex."""
    from harvester_ray.index.build import build_index
    from harvester_ray.index.serving import ShardedIndex

    docs = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    )
    main_dir = build_index(
        docs, str(tmp_path / "main"), IndexConfig(segment_doc_chunks=N_SHARDS)
    ).root
    fields = [(spec, field_dirs[spec.name]) for spec in SPECS]
    single = FieldedIndex(
        InvertedIndex(main_dir),
        [(spec, InvertedIndex(d)) for spec, d in fields],
    )
    queries = [q for _, q in queries_for_mode("or")]
    tier = ShardedIndex(main_dir, 2, N_SHARDS, payload="bm25f", fields=fields)
    try:
        want = [single.search(q, k=TOP_K) for q in queries]
        assert [tier.search(q, k=TOP_K) for q in queries] == want
        assert any(want)
    finally:
        tier.shutdown()
