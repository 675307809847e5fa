"""Positional index + phrase queries (index/positional.py).

Golden contract: phrase occurrence counts equal a pure-Python scan of
``re.findall('[a-z0-9]+', text.lower())`` with OVERLAPPING matches
counted (every base position checked independently).
"""

import os
import re
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

TOKEN_RE = re.compile(r"[a-z0-9]+")

DOCS = [
    (1, "the quick brown fox jumps over the lazy dog"),
    (2, "quick brown quick brown quick"),
    (3, "a a a a"),  # self-overlapping phrase territory
    (4, "brown fox? Quick--brown FOX!"),  # punctuation + case folding
    (5, ""),  # empty doc
    (6, "zzz unique singleton"),
    (7, "the fox the fox the"),
]


def py_phrase_count(text: str, phrase_terms: list[str]) -> int:
    toks = TOKEN_RE.findall(text.lower())
    k = len(phrase_terms)
    return sum(
        1
        for i in range(len(toks) - k + 1)
        if toks[i : i + k] == phrase_terms
    )


@pytest.fixture(scope="module")
def store(ray_session, tmp_path_factory):
    import ray.data

    from harvester_ray.index.positional import build_positions

    root = str(tmp_path_factory.mktemp("pos") / "store")
    src = str(tmp_path_factory.mktemp("pos_src") / "documents.parquet")
    tbl = pa.table(
        {
            "doc_id": pa.array([d for d, _ in DOCS], pa.int64()),
            "text": pa.array([t for _, t in DOCS], pa.string()),
        }
    )
    pq.write_table(tbl, src)
    docs = ray.data.read_parquet(src, columns=["doc_id", "text"])
    build_positions(docs, root)
    return root


PHRASES = [
    "quick brown",
    "the fox",
    "a a",  # overlap: doc 3 has 3 occurrences
    "brown fox",
    "the lazy dog",
    "quick brown quick",
    "nosuchterm fox",  # OOV conjunct
    "zzz",
]


@pytest.mark.parametrize("phrase", PHRASES)
def test_phrase_counts_match_python_oracle(store, phrase):
    from harvester_ray.index.positional import phrase_occurrences

    terms = TOKEN_RE.findall(phrase.lower())
    want = {
        d: py_phrase_count(t, terms)
        for d, t in DOCS
        if py_phrase_count(t, terms) > 0
    }
    got = phrase_occurrences(store, phrase)
    got_map = dict(
        zip(
            got["doc_id"].to_pylist(),
            got["n_occurrences"].to_pylist(),
        )
    )
    assert got_map == want, phrase
    # sorted by doc_id
    ids = got["doc_id"].to_pylist()
    assert ids == sorted(ids)


def test_overlap_exact(store):
    from harvester_ray.index.positional import phrase_occurrences

    got = phrase_occurrences(store, "a a")
    assert dict(
        zip(got["doc_id"].to_pylist(), got["n_occurrences"].to_pylist())
    ) == {3: 3}


def test_empty_phrase(store):
    from harvester_ray.index.positional import phrase_occurrences

    assert phrase_occurrences(store, "").num_rows == 0
    assert phrase_occurrences(store, "!!!").num_rows == 0


def test_pruned_read_only_touches_query_buckets(store, tmp_path):
    """Corrupt every bucket NOT owned by the phrase terms: the query
    must still succeed — proof the read is pruned to the terms'
    buckets (hash64(term) % num_buckets), not a full-store scan."""
    import json

    import numpy as np

    from harvester_ray.functions.text import hash64
    from harvester_ray.index.positional import phrase_occurrences

    # work on a copy — other tests share the module-scoped store
    root = str(tmp_path / "copy")
    shutil.copytree(store, root)
    with open(os.path.join(root, "stats.json")) as f:
        nb = json.load(f)["num_buckets"]
    terms = ["quick", "brown"]
    keep = {int(np.int64(hash64(t)).view(np.uint64)) % nb for t in terms}
    pos_dir = os.path.join(root, "positions")
    for name in os.listdir(pos_dir):
        if not name.startswith("bucket="):
            continue
        if int(name.split("=")[1]) in keep:
            continue
        for f in os.listdir(os.path.join(pos_dir, name)):
            # truncate to garbage: any attempt to read it would raise
            with open(os.path.join(pos_dir, name, f), "wb") as fh:
                fh.write(b"not a parquet file")
    got = phrase_occurrences(root, "quick brown")
    want = {
        d: py_phrase_count(t, terms)
        for d, t in DOCS
        if py_phrase_count(t, terms) > 0
    }
    assert (
        dict(
            zip(got["doc_id"].to_pylist(), got["n_occurrences"].to_pylist())
        )
        == want
    )


def test_build_resumes_unchanged(ray_session, tmp_path):
    """Second build with the same input fingerprint skips the stage
    (lineage resume): no file rewrites, identical query results."""
    import ray.data

    from harvester_ray.index.positional import (
        build_positions,
        phrase_occurrences,
    )

    root = str(tmp_path / "store")

    def docs():
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([d for d, _ in DOCS], pa.int64()),
                    "text": pa.array([t for _, t in DOCS], pa.string()),
                }
            )
        )

    build_positions(docs(), root, input_fingerprint="fp-same")
    pos_dir = os.path.join(root, "positions")
    before = {
        os.path.join(dp, f): os.path.getmtime(os.path.join(dp, f))
        for dp, _, fs in os.walk(pos_dir)
        for f in fs
    }
    first = phrase_occurrences(root, "quick brown")
    build_positions(docs(), root, input_fingerprint="fp-same")
    after = {
        os.path.join(dp, f): os.path.getmtime(os.path.join(dp, f))
        for dp, _, fs in os.walk(pos_dir)
        for f in fs
    }
    assert before == after  # stage skipped wholesale
    second = phrase_occurrences(root, "quick brown")
    assert first.equals(second)


# -- ordered-window proximity ---------------------------------------------
def py_proximity_count(text: str, terms: list[str], window: int) -> int:
    """Greedy-minimal chain reference (same semantics as engine+oracle)."""
    toks = TOKEN_RE.findall(text.lower())
    pos = {t: [i for i, x in enumerate(toks) if x == t] for t in set(terms)}
    if any(not pos[t] for t in terms):
        return 0
    n = 0
    for p in pos[terms[0]]:
        cur = p
        ok = True
        for t in terms[1:]:
            nxt = [q for q in pos[t] if q > cur]
            if not nxt:
                ok = False
                break
            cur = nxt[0]
        if ok and cur - p <= window:
            n += 1
    return n


PROX_CASES = [
    ("quick brown", 1),   # adjacency: == phrase
    ("quick brown", 4),
    ("the dog", 8),
    ("the fox", 2),
    ("a a", 3),
    ("quick fox", 50),
    ("fox nosuchterm", 9),
]


@pytest.mark.parametrize("phrase,window", PROX_CASES)
def test_proximity_matches_python_oracle(store, phrase, window):
    from harvester_ray.index.positional import proximity_occurrences

    terms = TOKEN_RE.findall(phrase.lower())
    want = {
        d: py_proximity_count(t, terms, window)
        for d, t in DOCS
        if py_proximity_count(t, terms, window) > 0
    }
    got = proximity_occurrences(store, phrase, window)
    assert (
        dict(zip(got["doc_id"].to_pylist(), got["n_matches"].to_pylist()))
        == want
    ), (phrase, window)


def test_proximity_window_k_minus_1_equals_phrase(store):
    """window = k-1 degenerates to the exact phrase: same docs, and
    every phrase occurrence base is a proximity match base."""
    from harvester_ray.index.positional import (
        phrase_occurrences,
        proximity_occurrences,
    )

    for phrase in ["quick brown", "the lazy dog", "a a"]:
        k = len(phrase.split())
        ph = phrase_occurrences(store, phrase)
        px = proximity_occurrences(store, phrase, k - 1)
        # same doc set; n_matches >= n_occurrences can differ only when
        # a greedy chain is non-contiguous yet within span k-1 — which
        # forces contiguity, so counts are equal too
        assert ph.equals(
            px.rename_columns(["doc_id", "n_occurrences"])
        ), phrase


# -- snippet windows ------------------------------------------------------


def test_snippet_windows(ray_session, tmp_path):
    """Hand-built doc where the best 4-token window is known: terms
    'aa bb' with positions aa@{1,10}, bb@{3,20} (1-based). Window 4
    anchored at 1 covers aa+bb (n=2); every other anchor covers 1."""
    import ray.data

    from harvester_ray.index.positional import (
        build_positions,
        snippet_windows_multi,
    )

    root = str(tmp_path / "store")
    src = str(tmp_path / "documents.parquet")
    #            pos: 1  2  3  4  5  6  7  8  9  10 ... 20
    text = "aa x1 bb x2 x3 x4 x5 x6 x7 aa x8 x9 x10 x11 x12 x13 x14 x15 x16 bb"
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([7, 8], pa.int64()),
                "text": pa.array([text, "bb only here"], pa.string()),
            }
        ),
        src,
    )
    build_positions(ray.data.read_parquet(src), root)

    out = snippet_windows_multi(
        root, [(0, ["aa", "bb"], {7, 8}), (1, ["aa"], {7})], w=4
    ).to_pylist()
    rows = {(r["query_id"], r["doc_id"]): r for r in out}
    # doc 7, query 0: anchor 1 covers aa@1 + bb@3 -> n_terms 2
    assert rows[(0, 7)]["start"] == 1 and rows[(0, 7)]["n_terms"] == 2
    # doc 8 has only bb -> best window anchored at bb@1, n_terms 1
    assert rows[(0, 8)]["start"] == 1 and rows[(0, 8)]["n_terms"] == 1
    # query 1: anchored at first aa
    assert rows[(1, 7)]["start"] == 1 and rows[(1, 7)]["n_terms"] == 1
    # doc 8 not in query 1's restriction -> absent
    assert (1, 8) not in rows


def test_span_near_superset_of_ordered_and_reversal_invariant(
    store, ray_session
):
    """Unordered span-near: (a) contains every ordered-proximity match
    for the same (phrase, window); (b) is invariant under term-order
    reversal."""
    from harvester_ray.index.positional import (
        proximity_occurrences,
        span_near_occurrences_multi,
    )

    root = store
    ordered = set(
        proximity_occurrences(root, "scan join", 4)["doc_id"].to_pylist()
    )
    t = span_near_occurrences_multi(
        root, [(0, "scan join", 4), (1, "join scan", 4)]
    )
    sid = t["span_id"].to_numpy()
    did = t["doc_id"].to_numpy()
    fwd = {int(d) for s, d in zip(sid, did) if s == 0}
    rev = {int(d) for s, d in zip(sid, did) if s == 1}
    assert fwd == rev
    assert ordered <= fwd


def test_span_covers_matches_brute_force():
    """Vectorized minimal-cover existence vs O(prod) brute force over
    random position sets (seeded)."""
    import itertools

    import numpy as np

    from harvester_ray.index.positional import _span_covers

    rng = np.random.default_rng(7)
    for _ in range(400):
        k = int(rng.integers(1, 4))
        w = int(rng.integers(0, 8))
        lists = []
        for _ in range(k):
            n = int(rng.integers(0, 6))
            lists.append(
                np.unique(rng.integers(0, 30, size=n)).astype(np.int64)
            )
        # brute force: distinct positions per label (they model distinct
        # terms, which cannot share a token position)
        if any(len(p) == 0 for p in lists):
            want = False
        elif k == 1:
            want = True
        else:
            want = any(
                max(c) - min(c) <= w
                for c in itertools.product(*[p.tolist() for p in lists])
            )
        assert _span_covers(lists, w) == want, (lists, w)


# ── term-sharded phrase serving parity ──────────────────────────────

SHARDED_PHRASES = [
    "quick brown",
    "a a",
    "fox",
    "zzzq fox",          # OOV conjunct -> empty
    "the fox the",       # repeated term, 3 slots
    "quick brown fox",
]


@pytest.mark.parametrize("n_shards", [1, 3])
def test_term_sharded_phrase_parity(store, ray_session, n_shards):
    """The positions serving grid's phrase_docs must equal the
    single-pipeline phrase_occurrences_multi doc sets for every phrase
    shape: plain, repeated-term, single-term, OOV conjunct, empty."""
    import numpy as np

    from harvester_ray.index.positional import phrase_occurrences_multi
    from harvester_ray.index.serving import ShardedIndex

    specs = list(enumerate(SHARDED_PHRASES))
    occ = phrase_occurrences_multi(store, specs)
    pid = occ["phrase_id"].to_numpy()
    did = occ["doc_id"].to_numpy()
    tier = ShardedIndex(store, n_term_shards=n_shards, payload="positions")
    try:
        n_nonempty = 0
        for i, ph in specs:
            want = np.unique(did[pid == i])
            got = tier.phrase_docs(ph)
            np.testing.assert_array_equal(got, want), ph
            n_nonempty += int(len(want) > 0)
        assert n_nonempty >= 4  # the parity check is not vacuous
        assert tier.phrase_docs("").size == 0
        assert tier.phrase_docs("!!!").size == 0
    finally:
        tier.shutdown()


def test_shard_actors_partition_buckets(store, ray_session):
    """Cells own a disjoint cover of the buckets and refuse to serve
    terms they don't own (vocabulary-axis pruning)."""
    import json as _json

    import ray

    from harvester_ray.index.positional import _stats_path
    from harvester_ray.index.serving import ShardedIndex, term_row

    with open(_stats_path(store)) as f:
        nb = _json.load(f)["num_buckets"]
    tier = ShardedIndex(store, n_term_shards=3, payload="positions")
    try:
        all_owned = [b for row in tier.describe() for b in row[0]["buckets"]]
        assert sorted(all_owned) == list(range(nb))  # disjoint cover
        owner = term_row("quick", nb, 3)
        for s, row in enumerate(tier.cells):
            got = ray.get(row[0].fetch.remote(["quick"]))
            assert bool(got) == (s == owner)
    finally:
        tier.shutdown()


def test_positions_cell_restart_preserves_results(store, ray_session):
    """positions cell fault tolerance: kill one cell mid-stream; Ray
    restarts it from the immutable store, the in-flight fetch
    retries, and phrase occurrences are unchanged."""
    import numpy as np
    import ray

    from harvester_ray.index.serving import ShardedIndex

    tier = ShardedIndex(store, n_term_shards=3, payload="positions")
    try:
        before = [tier.phrase_occurrences(ph) for ph in SHARDED_PHRASES]
        ray.kill(tier.cells[1][0], no_restart=False)
        after = [tier.phrase_occurrences(ph) for ph in SHARDED_PHRASES]
        for ph, (d0, n0), (d1, n1) in zip(SHARDED_PHRASES, before, after):
            np.testing.assert_array_equal(d1, d0, err_msg=ph)
            np.testing.assert_array_equal(n1, n0, err_msg=ph)
        assert sum(len(d) for d, _ in before) > 0
    finally:
        tier.shutdown()


def test_positions_grid_rejects_doc_shards(store, ray_session):
    from harvester_ray.index.serving import ShardedIndex

    with pytest.raises(ValueError, match="no doc chunks"):
        ShardedIndex(store, n_doc_shards=2, payload="positions")
