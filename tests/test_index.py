"""Index build + query correctness vs the pure-Python oracle and DuckDB.

Mirrors the reference's golden-value + count-reconciliation test
strategy (SURVEY.md §5).
"""

import duckdb
import numpy as np
import pyarrow as pa
import pytest
import ray.data

from harvester_ray.config import IndexConfig
from harvester_ray.functions.text import tokenize
from harvester_ray.index.build import build_index, spimi_postings_batch
from harvester_ray.index.oracle import OracleIndex
from harvester_ray.index.query import InvertedIndex, QueryActor

DOCS = "/root/testdata/sf0.001/documents.parquet"

# query set spanning head/mid/rare/OOV terms of the testdata vocabulary
QUERIES = [
    ("scan", "or"),
    ("scan join", "or"),
    ("scan join", "and"),
    ("dup", "or"),
    ("dup merge sort", "or"),
    ("dup merge sort", "and"),
    ("zzzq", "or"),            # OOV
    ("zzzq scan", "or"),       # OOV + head
    ("zzzq scan", "and"),      # OOV in conjunction -> empty
    ("the a key value", "or"),
    ("window window window", "or"),  # duplicate terms collapse
    ("vector stream big slow", "and"),
]


def _oracle_rows():
    con = duckdb.connect()
    return con.execute(f"SELECT doc_id, text FROM '{DOCS}'").fetchall()


def test_spimi_batch_shapes():
    batch = pa.table({"doc_id": [1, 2, 3], "text": ["a b a", "", "b c"]})
    out = spimi_postings_batch(batch)
    rows = {(r["term"], r["doc_id"]): (r["tf"], r["doc_len"]) for r in out.to_pylist()}
    assert rows[("a", 1)] == (2, 3)
    assert rows[("b", 1)] == (1, 3)
    assert rows[("b", 3)] == (1, 2)
    assert rows[("c", 3)] == (1, 2)
    assert ("", 2) not in rows and len(rows) == 4


def test_postings_match_oracle(built_index):
    idx = InvertedIndex(built_index.root)
    oracle = OracleIndex(_oracle_rows())
    assert idx.n_docs == oracle.n_docs
    assert idx.avgdl == pytest.approx(oracle.avgdl, rel=1e-12)
    assert set(idx.dictionary) == set(oracle.postings)
    for term, (tid, df, cf) in idx.dictionary.items():
        assert df == len(oracle.postings[term]), term
        assert cf == sum(oracle.postings[term].values()), term
        p = idx.postings(term)
        assert list(p.doc_ids) == sorted(oracle.postings[term])
        for d, tf, dl in zip(p.doc_ids, p.tfs, p.doc_lens):
            assert tf == oracle.postings[term][d]
            assert dl == oracle.doc_len[d]


@pytest.mark.parametrize("query,mode", QUERIES)
def test_search_rank_identical_to_oracle(built_index, query, mode):
    idx = InvertedIndex(built_index.root, preload=True)
    oracle = OracleIndex(_oracle_rows())
    got = idx.search(query, k=10, mode=mode, algorithm="exhaustive")
    want = oracle.search(query, k=10, mode=mode)
    assert [d for d, _ in got] == [d for d, _ in want], (query, mode)
    for (_, s1), (_, s2) in zip(got, want):
        assert s1 == pytest.approx(s2, rel=1e-12)


@pytest.mark.parametrize("query,mode", QUERIES)
def test_wand_rank_identical_to_exhaustive(built_index, query, mode):
    """OR -> Block-Max WAND; AND -> conjunctive Block-Max leapfrog —
    both must be rank+score identical to the exhaustive paths."""
    idx = InvertedIndex(built_index.root, preload=True)
    ex = idx.search(query, k=10, mode=mode, algorithm="exhaustive")
    wd = idx.search(query, k=10, mode=mode, algorithm="wand")
    assert [d for d, _ in wd] == [d for d, _ in ex], (query, mode)
    for (_, s1), (_, s2) in zip(wd, ex):
        assert s1 == pytest.approx(s2, rel=1e-12)


def test_wand_small_block_size(tmp_path):
    """Force many blocks per term so WAND's block skipping is exercised."""
    cfg = IndexConfig(block_size=4)
    docs = ray.data.read_parquet(DOCS, columns=["doc_id", "text"])
    paths = build_index(docs, str(tmp_path / "idx"), cfg)
    idx = InvertedIndex(paths.root, preload=True)
    for query, mode in QUERIES:
        if mode == "and":
            continue
        ex = idx.search(query, k=10, mode="or", algorithm="exhaustive")
        wd = idx.search(query, k=10, mode="or", algorithm="wand")
        assert [d for d, _ in wd] == [d for d, _ in ex], query


def test_query_actor_batch(built_index):
    q = pa.table(
        {
            "query_id": pa.array([0, 1, 2], pa.int64()),
            "query": pa.array(["scan join", "dup", "zzzq"], pa.string()),
            "mode": pa.array(["or", "or", "or"], pa.string()),
        }
    )
    actor = QueryActor(built_index.root, k=5)
    out = actor(q)
    oracle = OracleIndex(_oracle_rows())
    by_q = {}
    for r in out.to_pylist():
        by_q.setdefault(r["query_id"], []).append(r["doc_id"])
    assert by_q[0] == [d for d, _ in oracle.search("scan join", k=5)]
    assert by_q[1] == [d for d, _ in oracle.search("dup", k=5)]
    assert 2 not in by_q  # OOV -> no rows


def test_build_rejects_duplicate_doc_ids(tmp_path, ray_session):
    dup = ray.data.from_arrow(
        pa.table({"doc_id": [1, 2, 1], "text": ["a b", "b c", "a d"]})
    )
    with pytest.raises(Exception, match="duplicate doc_id"):
        build_index(dup, str(tmp_path / "dupidx"))


# -- boolean NOT (exclusion before top-k) ----------------------------------


@pytest.mark.parametrize(
    "query,mode,exclude",
    [
        ("scan join", "or", "merge"),
        ("scan join", "and", "merge sort"),
        ("dup", "or", "the"),
        ("the a", "and", "scan"),
        ("scan", "or", "zzzq"),      # OOV negative -> no-op
        ("scan", "or", "scan"),      # negative == positive -> ignored
    ],
)
def test_search_not_matches_brute_force(built_index, query, mode, exclude):
    """search(exclude=...) == brute-force filter of the UNLIMITED base
    ranking to docs containing no excluded term, then top-k."""
    idx = InvertedIndex(built_index.root, preload=True)
    rows = _oracle_rows()
    pos = sorted(set(tokenize(query)))
    neg = sorted(set(tokenize(exclude)) - set(pos))
    bad = {
        did
        for did, text in rows
        if any(t in tokenize(text) for t in neg)
    }
    base = idx.search(query, k=len(rows), mode=mode)
    want = [(d, s) for d, s in base if d not in bad][:10]
    got = idx.search(query, k=10, mode=mode, exclude=exclude)
    assert [d for d, _ in got] == [d for d, _ in want]
    for (gd, gs), (wd, ws) in zip(got, want):
        assert gs == pytest.approx(ws, rel=1e-12)


def test_search_not_excluded_never_returned(built_index):
    idx = InvertedIndex(built_index.root, preload=True)
    rows = dict(_oracle_rows())
    got = idx.search("scan join", k=10, mode="or", exclude="merge")
    assert got, "expected hits"
    for d, _ in got:
        assert "merge" not in tokenize(rows[d])


@pytest.mark.parametrize(
    "query,mode",
    [("scan join", "or"), ("the a key value", "or"), ("dup merge sort", "and")],
)
def test_search_after_pages_reconstruct_full_ranking(
    built_index, query, mode
):
    """Paging with the search-after cursor (page size 7, odd on purpose)
    concatenates to EXACTLY the unlimited base ranking — no dupes, no
    gaps, across score-tie boundaries."""
    idx = InvertedIndex(built_index.root, preload=True)
    base = idx.search(query, k=10**6, mode=mode)
    paged, cursor = [], None
    for _ in range(200):
        page = idx.search(query, k=7, mode=mode, after=cursor)
        if not page:
            break
        paged.extend(page)
        cursor = (page[-1][1], page[-1][0])  # (score, doc_id)
    assert [d for d, _ in paged] == [d for d, _ in base]
    for (gd, gs), (wd, ws) in zip(paged, base):
        assert gs == pytest.approx(ws, rel=1e-12)


def test_search_after_sparse_dense_agree(built_index):
    """The cursor path is identical on the dense (preload) and sparse
    (lazy) executions."""
    dense = InvertedIndex(built_index.root, preload=True)
    sparse = InvertedIndex(built_index.root, preload=False)
    last = dense.search("scan join", k=5, mode="or")[-1]
    c = (last[1], last[0])  # (score, doc_id)
    got_d = dense.search("scan join", k=5, mode="or", after=c)
    got_s = sparse.search("scan join", k=5, mode="or", after=c)
    assert [d for d, _ in got_d] == [d for d, _ in got_s]


def test_explain_matches_search_scores(built_index):
    """explain(q, d).total reproduces the search score bit-for-bit for
    every top-10 hit (contributions summed in the same sorted-term
    order), and per-term contributions sum to the total."""
    idx = InvertedIndex(built_index.root, preload=True)
    for q in ["scan join", "the a key value", "dup merge sort"]:
        for doc_id, score in idx.search(q, k=10, mode="or"):
            ex = idx.explain(q, doc_id)
            assert ex["total"] == score
            acc = 0.0
            for part in ex["terms"]:  # same sorted-term order
                acc += part["contribution"]
            assert acc == ex["total"]
            assert all(p["tf"] >= 1 for p in ex["terms"])


def test_explain_absent_doc_and_oov(built_index):
    idx = InvertedIndex(built_index.root, preload=True)
    ex = idx.explain("zzzq", 0)
    assert ex["terms"] == [] and ex["total"] == 0.0


def test_bucket_counts_produce_identical_indexes(tmp_path):
    """num_term_buckets is a physical layout knob only: 8 vs 128
    buckets must decode to identical postings, dfs and ranks (the
    round-4 default change 32→128 relies on this invariance)."""
    idx = {}
    for nb in (8, 128):
        docs = ray.data.read_parquet(DOCS, columns=["doc_id", "text"])
        p = build_index(
            docs,
            str(tmp_path / f"nb{nb}"),
            IndexConfig(num_term_buckets=nb, block_size=32),
        )
        idx[nb] = InvertedIndex(p.root, preload=True)
    i1, i2 = idx[8], idx[128]
    assert set(i1.dictionary) == set(i2.dictionary)
    for term in i1.dictionary:
        a, b = i1.postings(term), i2.postings(term)
        assert list(a.doc_ids) == list(b.doc_ids), term
        assert list(a.tfs) == list(b.tfs), term
        assert a.df == b.df, term
    for query, mode in QUERIES:
        assert i1.search(query, k=10, mode=mode) == i2.search(
            query, k=10, mode=mode
        )
