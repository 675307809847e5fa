"""Block-Max WAND must actually SKIP block decodes on selective
queries over a realistic Zipf vocabulary — not just be rank-identical.

Corpus: the synthetic pages corpus (≈5000-term Zipf vocabulary). A
query mixing one rare term (high idf) with one head term (huge
postings, low per-posting contribution) lets the top-k threshold rise
past most head-term block maxima, so WAND should decode a strict —
and substantial — subset of the blocks the exhaustive path touches."""

import numpy as np
import pytest
import ray.data

from harvester_ray.config import IndexConfig
from harvester_ray.corpus import generate_pages
from harvester_ray.index.build import build_index
from harvester_ray.index.query import InvertedIndex, _TermBlocks
from harvester_ray.stages.extract import extract_batch


@pytest.fixture(scope="module")
def zipf_index(tmp_path_factory, ray_session):
    pages, _ = generate_pages(2000)
    extracted = extract_batch(pages)
    import pyarrow as pa

    docs = ray.data.from_arrow(
        pa.table({"doc_id": extracted["doc_id"], "text": extracted["text"]})
    )
    out = str(tmp_path_factory.mktemp("zipf") / "idx")
    # small blocks so pruning granularity is visible
    return build_index(docs, out, IndexConfig(block_size=16))


def _count_decodes(idx, fn):
    calls = {"n": 0}
    orig = _TermBlocks.decode_block

    def counting(self, i):
        calls["n"] += 1
        return orig(self, i)

    _TermBlocks.decode_block = counting
    try:
        result = fn()
    finally:
        _TermBlocks.decode_block = orig
    return result, calls["n"]


def test_wand_decodes_fewer_blocks(zipf_index):
    idx = InvertedIndex(zipf_index.root, preload=True)
    # head term (rank-1 Zipf) + a rare tail term
    by_df = sorted(idx.dictionary.items(), key=lambda kv: -kv[1][1])
    head = by_df[0][0]
    rare = next(t for t, (_, df, _) in by_df if 1 <= df <= 5)
    query = f"{head} {rare}"

    exh = idx.search(query, k=10, mode="or", algorithm="exhaustive")
    # total blocks the exhaustive path decodes (all blocks of all terms;
    # its bulk decode bypasses decode_block, so count from metadata)
    total_blocks = sum(
        len(idx.term_blocks(t).first)
        for t in (head, rare)
        if idx.term_blocks(t) is not None
    )
    idx_b = InvertedIndex(zipf_index.root, preload=True)
    wnd, n_wand = _count_decodes(
        idx_b, lambda: idx_b.search(query, k=10, mode="or", algorithm="wand")
    )
    assert [d for d, _ in wnd] == [d for d, _ in exh]
    assert n_wand < total_blocks, (n_wand, total_blocks)
    assert n_wand <= 0.7 * total_blocks, (
        f"WAND pruned too little: {n_wand}/{total_blocks}"
    )


def test_wand_prunes_across_many_queries(zipf_index):
    rng = np.random.default_rng(7)
    idx = InvertedIndex(zipf_index.root, preload=True)
    by_df = sorted(idx.dictionary.items(), key=lambda kv: -kv[1][1])
    heads = [t for t, _ in by_df[:10]]
    tails = [t for t, (_, df, _) in by_df if df <= 10][:20]
    total_blocks = total_wand = 0
    for _ in range(10):
        ht = heads[rng.integers(len(heads))]
        tt = tails[rng.integers(len(tails))]
        q = f"{ht} {tt}"
        exh = idx.search(q, k=10, mode="or", algorithm="exhaustive")
        total_blocks += sum(
            len(idx.term_blocks(t).first)
            for t in (ht, tt)
            if idx.term_blocks(t) is not None
        )
        ib = InvertedIndex(zipf_index.root, preload=True)
        wnd, n_w = _count_decodes(
            ib, lambda: ib.search(q, k=10, mode="or", algorithm="wand")
        )
        assert [d for d, _ in wnd] == [d for d, _ in exh], q
        total_wand += n_w
    assert total_wand < total_blocks


def test_bmand_decodes_fewer_blocks(zipf_index):
    """Conjunctive Block-Max AND: a rare+head conjunction must decode
    far fewer head-term blocks than the exhaustive AND path touches
    (only blocks that can contain the rare term's candidates)."""
    idx = InvertedIndex(zipf_index.root, preload=True)
    by_df = sorted(idx.dictionary.items(), key=lambda kv: -kv[1][1])
    head = by_df[0][0]
    rare = next(t for t, (_, df, _) in by_df if 2 <= df <= 8)
    query = f"{head} {rare}"

    exh = idx.search(query, k=10, mode="and", algorithm="exhaustive")
    total_blocks = sum(
        len(idx.term_blocks(t).first)
        for t in (head, rare)
        if idx.term_blocks(t) is not None
    )
    idx_b = InvertedIndex(zipf_index.root, preload=True)
    got, n_dec = _count_decodes(
        idx_b, lambda: idx_b.search(query, k=10, mode="and", algorithm="wand")
    )
    assert [d for d, _ in got] == [d for d, _ in exh]
    for (_, s1), (_, s2) in zip(got, exh):
        assert s1 == pytest.approx(s2, rel=1e-12)
    # the rare term has <= 8 postings -> candidates visit <= 8 head
    # blocks (plus the rare term's own); everything else skips
    assert n_dec < 0.5 * total_blocks, (n_dec, total_blocks)
