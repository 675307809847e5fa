"""The three ways to open an index agree after every maintenance step.

``InvertedIndex(preload=True)`` keeps one columnar block table per
source and builds a term's views on first touch; ``preload=False``
builds the same views from a one-term filtered read; ``reopen()``
reuses the loaded state of every unchanged source and reads only new
sources and the tombstones. Over seeded sequences — build, an add of
longer docs (the merged avgdl grows, so the base's WAND scale exceeds
1), an upsert, a delete by id, a merge with the rename swap and an add
after it (delta names restart at delta-000) — all three give identical
results, scores included, on auto/wand × or/and, and so do the
scored postings of a doc-chunk cell and a term-shard cell. Each reopen
reuses exactly the unchanged sources' block tables (by identity) and
loads nothing else; across the merge swap it reuses nothing."""

import os
import shutil
from dataclasses import replace

import numpy as np
import pytest
import ray.data

from harvester_ray.config import DEFAULT_INDEX_CONFIG
from harvester_ray.corpus import generate_zipf_docs
from harvester_ray.index.build import build_index
from harvester_ray.index.maintenance import (
    add_docs,
    delete_docs,
    merge_sources,
    upsert_docs,
)
from harvester_ray.index.query import InvertedIndex

# small blocks so WAND skips blocks; chunked + bucketed so doc-chunk and
# term-shard cells can open every source
CFG = replace(
    DEFAULT_INDEX_CONFIG, block_size=16, num_term_buckets=4,
    segment_doc_chunks=2,
)
VOCAB = 400
N_BASE = 300
CELLS = {"shard": (1, 2), "term_shard": (1, 2)}


def _docs(n, seed, offset, mean_len=30):
    return ray.data.from_arrow(
        generate_zipf_docs(
            n, vocab_size=VOCAB, mean_len=mean_len, seed=seed,
            doc_id_offset=offset,
        )
    )


def _queries(rng, n=16):
    out = []
    for _ in range(n):
        ranks = [int(rng.integers(0, 20))] + [
            int(r) for r in rng.integers(0, VOCAB, int(rng.integers(0, 3)))
        ]
        out.append(" ".join(f"w{r}" for r in ranks))
    return out + ["w0 w1 zz_oov"]


def _results(idx, queries):
    return {
        (q, mode, alg): idx.search(q, k=10, mode=mode, algorithm=alg)
        for q in queries
        for mode in ("or", "and")
        for alg in ("auto", "wand")
    }


def _scored(cell, terms):
    out = {}
    for t in terms:
        sp = cell.scored_postings(t)
        out[t] = None if sp is None else (sp[0].tolist(), sp[1].tolist())
    return out


def _reused(new, old) -> set:
    """Source dirs of ``new`` whose block table IS one of ``old``'s."""
    old_tables = [s.blocks for s in old._sources]
    return {
        os.path.relpath(s.paths.root, new.index_dir)
        for s in new._sources
        if any(s.blocks is t for t in old_tables)
    }


def _check(idx_dir, prev, prev_cells, queries, loaded, want_reused):
    """Fresh preloaded, lazy and reopened opens agree; the reopen
    reused exactly ``want_reused`` and loaded every other source."""
    fresh = InvertedIndex(idx_dir, preload=True)
    want = _results(fresh, queries)
    assert _results(InvertedIndex(idx_dir, preload=False), queries) == want
    loaded.clear()
    re = prev.reopen()
    assert _results(re, queries) == want
    assert _reused(re, prev) == want_reused
    assert sorted(loaded) == sorted(
        os.path.relpath(s.paths.root, idx_dir)
        for s in fresh._sources
        if os.path.relpath(s.paths.root, idx_dir) not in want_reused
    )
    terms = sorted({t for q in queries for t in q.split()})
    cells = {}
    for name, arg in CELLS.items():
        cell = InvertedIndex(idx_dir, preload=True, **{name: arg})
        want_p = _scored(cell, terms)
        assert _scored(
            InvertedIndex(idx_dir, preload=False, **{name: arg}), terms
        ) == want_p, name
        re_cell = prev_cells[name].reopen()
        assert _scored(re_cell, terms) == want_p, name
        assert _reused(re_cell, prev_cells[name]) == want_reused, name
        cells[name] = cell
    return fresh, cells


@pytest.mark.parametrize("seed", [0, 1])
def test_open_paths_and_reopen_agree_through_maintenance(
    seed, tmp_path, monkeypatch, ray_session
):
    loaded = []
    load = InvertedIndex._load_source

    def counting(self, src_dir, key):
        loaded.append(os.path.relpath(src_dir, self.index_dir))
        return load(self, src_dir, key)

    monkeypatch.setattr(InvertedIndex, "_load_source", counting)
    rng = np.random.default_rng(seed)
    queries = _queries(rng)
    idx_dir = str(tmp_path / "index")
    build_index(_docs(N_BASE, 10 + seed, 0), idx_dir, CFG, n_docs=N_BASE)
    prev = InvertedIndex(idx_dir, preload=True)
    cells = {
        name: InvertedIndex(idx_dir, preload=True, **{name: arg})
        for name, arg in CELLS.items()
    }
    d0 = os.path.join("deltas", "delta-000")
    d1 = os.path.join("deltas", "delta-001")

    # add longer docs: the merged avgdl grows past the base's
    add_docs(idx_dir, _docs(150, 20 + seed, N_BASE, mean_len=90), CFG)
    prev, cells = _check(idx_dir, prev, cells, queries, loaded, {"."})
    assert prev._bmax_scale[0] > 1.0

    # upsert ids from the base and the delta
    upsert_docs(idx_dir, _docs(60, 30 + seed, N_BASE - 30), CFG)
    prev, cells = _check(idx_dir, prev, cells, queries, loaded, {".", d0})
    assert len(prev._dead[0]) > 0 and len(prev._dead[1]) > 0

    # delete by id: no new source, only a tombstone
    doomed = rng.choice(N_BASE + 150, size=25, replace=False)
    delete_docs(idx_dir, doomed.tolist())
    prev, cells = _check(
        idx_dir, prev, cells, queries, loaded, {".", d0, d1}
    )
    pre_merge, pre_merge_cells = prev, cells

    # merge, then swap the merged index onto the same dir
    merged = str(tmp_path / "index.merged")
    merge_sources(idx_dir, merged)
    old = f"{idx_dir}.old"
    os.rename(idx_dir, old)
    os.rename(merged, idx_dir)
    shutil.rmtree(old)
    prev, cells = _check(idx_dir, prev, cells, queries, loaded, set())
    assert prev.n_sources == 1

    # an add after the merge reuses the name delta-000
    add_docs(idx_dir, _docs(80, 40 + seed, 1000, mean_len=60), CFG)
    _check(idx_dir, prev, cells, queries, loaded, {"."})
    _check(idx_dir, pre_merge, pre_merge_cells, queries, loaded, set())


def test_cleared_caches_rebuild_views(built_index):
    """Clearing the view and postings caches of a preloaded index (as
    fsck does between terms) costs a rebuild, never a term."""
    idx = InvertedIndex(built_index.root, preload=True)
    by_df = sorted(idx.dictionary, key=lambda t: -idx.dictionary[t][1])
    queries = [f"{by_df[i]} {by_df[-1 - i]}" for i in range(4)]
    want = _results(idx, queries)
    assert any(want.values())
    idx._block_cache.clear()
    idx._postings_cache.clear()
    assert _results(idx, queries) == want
    assert idx.term_blocks(by_df[0]) is not None
