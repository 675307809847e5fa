"""The pruned ``auto`` paths (MaxScore OR, rarest-term AND) against the
exhaustive accumulator.

Passing ``scorer=bm25_score`` sends every query to the dense
accumulator with the same per-posting scores, so it is the reference:
the pruned paths must return the exact (doc_id, score) lists. Covered:
head+rare, all-head and single-term queries; k = 1, 10 and more than
the hits; round-6 ties across the k boundary; a doc-shard cell; and an
incremental index where one query term has no live posting left."""

from dataclasses import replace

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from harvester_ray.config import DEFAULT_INDEX_CONFIG
from harvester_ray.corpus import generate_zipf_docs
from harvester_ray.index.build import bm25_score, build_index
from harvester_ray.index.maintenance import add_docs, delete_docs
from harvester_ray.index.query import InvertedIndex, rank_scored_postings

CFG = replace(DEFAULT_INDEX_CONFIG, segment_doc_chunks=2)
N_BASE, N_ADD, N_TIES = 3000, 1000, 15
KS = (1, 10, 100_000)


def _docs(n, seed, offset):
    return generate_zipf_docs(
        n, vocab_size=3000, mean_len=40, seed=seed, doc_id_offset=offset
    )


@pytest.fixture(scope="module")
def indexes(tmp_path_factory, ray_session):
    """(base index dir, incremental index dir, the dead term): the base
    holds a Zipf corpus plus N_TIES identical docs, so their scores tie
    exactly; the incremental index adds a delta and then tombstones
    every doc that holds one term."""
    root = tmp_path_factory.mktemp("pruned")
    base = _docs(N_BASE, 5, 0)
    ties = pa.table(
        {
            "doc_id": pa.array(
                np.arange(N_TIES, dtype=np.int64) + 10 * N_BASE
            ),
            "text": pa.array(["zztie zzpair w0"] * N_TIES, pa.large_string()),
        }
    )
    base = pa.concat_tables([base, ties])
    dirs = []
    for name in ("base", "incr"):
        d = str(root / name)
        build_index(ray.data.from_arrow(base), d, CFG, n_docs=len(base))
        dirs.append(d)
    add = _docs(N_ADD, 6, N_BASE)
    add_docs(dirs[1], ray.data.from_arrow(add), CFG, n_docs=len(add))
    idx = InvertedIndex(dirs[1], preload=True)
    dead = next(
        t
        for t, (_, df, _) in sorted(idx.dictionary.items())
        if 3 <= df <= 6 and t.startswith("w")
    )
    delete_docs(dirs[1], idx.postings(dead).doc_ids)
    delete_docs(dirs[1], range(0, N_BASE, 97))
    return dirs[0], dirs[1], dead


def _queries(idx, dead=None):
    by_df = sorted(
        (t for t in idx.dictionary if t.startswith("w")),
        key=lambda t: (-idx.dictionary[t][1], t),
    )
    n = idx.n_docs
    heads = by_df[:3]
    mids = [t for t in by_df if n // 60 <= idx.dictionary[t][1] <= n // 25]
    rares = [t for t in by_df if 2 <= idx.dictionary[t][1] <= 8]
    assert len(mids) >= 2 and rares and "zztie" in idx.dictionary
    h0, h1, h2 = heads
    m0, m1, r0 = mids[0], mids[-1], rares[0]
    qs = [
        f"{h0} {m0}", f"{h0} {r0}", f"{h1} {m1} {r0}", f"{h0} {h1} {m0}",
        f"{h0} {h1} {h2}", h0, m0, r0, f"{m0} {m1}", f"{m0} {m1} {r0}",
        "zztie", "zztie zzpair", f"{h0} zztie", f"{m0} zztie",
    ]
    if dead is not None:
        qs += [dead, f"{dead} {m0}", f"{dead} {h0} {m1}", f"{dead} {r0}"]
    return qs


def _assert_same(idx, ref, queries):
    for q in queries:
        for mode in ("or", "and"):
            for k in KS:
                got = idx.search(q, k=k, mode=mode)
                assert got == ref.search(q, k=k, mode=mode), (q, mode, k)


def _count_gathers(monkeypatch):
    calls = {"n": 0}
    orig = InvertedIndex._topk_gathered

    def counting(self, dense, cand, k):
        calls["n"] += 1
        return orig(self, dense, cand, k)

    monkeypatch.setattr(InvertedIndex, "_topk_gathered", counting)
    return calls


def test_pruned_equals_exhaustive_single_source(indexes, monkeypatch):
    base, _, _ = indexes
    idx = InvertedIndex(base, preload=True)
    ref = InvertedIndex(base, preload=True, scorer=bm25_score)
    queries = _queries(ref)
    calls = _count_gathers(monkeypatch)
    _assert_same(idx, ref, queries)
    assert calls["n"] > 0
    # the reference itself never takes the pruned path
    before = calls["n"]
    ref.search(queries[0], k=10)
    assert calls["n"] == before
    # the tied docs straddle k: doc_id ascending breaks the tie
    tied = idx.search("zztie zzpair", k=10)
    assert len({round(s, 6) for _, s in tied}) == 1
    assert [d for d, _ in tied] == list(range(10 * N_BASE, 10 * N_BASE + 10))


def test_pruned_path_runs_for_or_and_and(indexes, monkeypatch):
    base, _, _ = indexes
    idx = InvertedIndex(base, preload=True)
    h0, _, m0 = _queries(idx)[3].split()
    calls = _count_gathers(monkeypatch)
    idx.search(f"{h0} {m0}", k=10, mode="or")
    assert calls["n"] == 1
    idx.search(f"{h0} {m0}", k=10, mode="and")
    assert calls["n"] == 2


def test_pruned_equals_exhaustive_with_dead_term(indexes, monkeypatch):
    """A term whose every posting is tombstoned has an empty slot array:
    the pruned OR path must skip it, not index into it."""
    _, incr, dead = indexes
    idx = InvertedIndex(incr, preload=True)
    ref = InvertedIndex(incr, preload=True, scorer=bm25_score)
    assert dead in idx.dictionary and len(idx.postings(dead).doc_ids) == 0
    queries = _queries(ref, dead)
    calls = _count_gathers(monkeypatch)
    _assert_same(idx, ref, queries)
    assert calls["n"] > 0
    before = calls["n"]
    m0 = queries[6]
    assert idx.search(f"{dead} {m0}", k=10) == ref.search(m0, k=10)
    assert calls["n"] == before + 1
    assert idx.search(dead, k=10) == [] and idx.search(
        f"{dead} {m0}", k=10, mode="and"
    ) == []


def test_pruned_equals_exhaustive_doc_shard_cell(indexes):
    _, incr, dead = indexes
    for c in range(2):
        idx = InvertedIndex(incr, preload=True, shard=(c, 2))
        ref = InvertedIndex(incr, preload=True, shard=(c, 2), scorer=bm25_score)
        assert 0 < idx.n_docs and len(idx._slots) < N_BASE + N_ADD
        _assert_same(idx, ref, _queries(ref, dead))


@pytest.mark.parametrize("algorithm", ["auto", "wand"])
@pytest.mark.parametrize("mode", ["or", "and"])
def test_k_zero_and_negative(indexes, algorithm, mode):
    idx = InvertedIndex(indexes[0], preload=True)
    h0, h1 = _queries(idx)[4].split()[:2]
    q = f"{h0} {h1}"
    assert idx.search(q, k=1, mode=mode, algorithm=algorithm)
    assert idx.search(q, k=0, mode=mode, algorithm=algorithm) == []
    with pytest.raises(ValueError, match="-3"):
        idx.search(q, k=-3, mode=mode, algorithm=algorithm)


def test_rank_scored_postings_k_zero():
    """The term-routed serving grid ranks through rank_scored_postings,
    which shares InvertedIndex._topk: k = 0 is [] there too."""
    parts = [(np.array([1, 2, 3]), np.array([0.5, 0.2, 0.9]))]
    for mode in ("or", "and"):
        assert rank_scored_postings(parts, 0, mode) == []
        assert rank_scored_postings(parts, 2, mode) == [(3, 0.9), (1, 0.5)]
