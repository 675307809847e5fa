"""Randomized rank-identity: random corpora through the real engine
components (SPIMI batch → bucket encode → block decode → scoring) vs the
pure-Python oracle — no Ray session needed, so many corpora are cheap.

Covers corner shapes the fixtures may miss: tiny vocabularies, heavy
duplicates, empty docs, unicode noise, single-doc corpora, block
boundaries (block_size 4), negative/positive doc_id mixes.
"""

import numpy as np
import pyarrow as pa
import pytest

from harvester_ray.config import IndexConfig
from harvester_ray.functions.text import hash64
from harvester_ray.index.build import (
    bm25_score,
    encode_postings,
    spimi_postings_batch,
)
from harvester_ray.index.oracle import OracleIndex
from harvester_ray.index.query import _BlockTable


def _random_corpus(rng: np.random.Generator, n_docs: int):
    vocab_size = int(rng.integers(2, 40))
    vocab = [f"t{i}" for i in range(vocab_size)] + ["émigré", "中文", "x9"]
    docs = []
    for i in range(n_docs):
        n_tok = int(rng.integers(0, 60))
        toks = [vocab[int(j)] for j in rng.integers(0, len(vocab), n_tok)]
        sep = rng.choice([" ", ", ", "\n", "\t!"])
        text = str(sep).join(toks)
        doc_id = int(rng.integers(-(2**62), 2**62))
        docs.append((doc_id, text))
    # unique doc_ids (hash64-style uniqueness assumption)
    seen = {}
    for d, t in docs:
        seen[d] = t
    return list(seen.items())


def _engine_blocks(rows, block_size: int):
    """Run the real batch pipeline: SPIMI → the build's bucket encode
    (encode_postings over all posting rows at once) → the engine's
    per-term view of that block table, returning {term: _TermBlocks} +
    df map + stats."""
    batch = pa.table(
        {
            "doc_id": pa.array([d for d, _ in rows], pa.int64()),
            "text": pa.array([t for _, t in rows], pa.string()),
        }
    )
    postings = spimi_postings_batch(batch)
    n_docs = len(rows)
    total = int(pa.compute.sum(postings["tf"]).as_py() or 0)
    avgdl = total / n_docs if n_docs else 0.0
    table = _BlockTable(
        encode_postings(postings, avgdl, 1.2, 0.75, block_size)
    )
    terms, df = np.unique(
        postings["term"].to_numpy(zero_copy_only=False), return_counts=True
    )
    blocks = {t: table.view(hash64(t), 1.0) for t in terms.tolist()}
    df_map = dict(zip(terms.tolist(), df.tolist()))
    return blocks, df_map, n_docs, avgdl


@pytest.mark.parametrize("seed", range(25))
def test_random_corpus_engine_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    rows = _random_corpus(rng, int(rng.integers(1, 80)))
    block_size = int(rng.choice([4, 16, 128]))
    blocks, df_map, n_docs, avgdl = _engine_blocks(rows, block_size)
    oracle = OracleIndex(rows)

    assert set(blocks) == set(oracle.postings)
    for term, tb in blocks.items():
        ids, tf, dl = tb.decode_all()
        want = oracle.postings[term]
        assert list(ids) == sorted(want), term
        for d, f, l in zip(ids, tf, dl):
            assert f == want[int(d)]
            assert l == oracle.doc_len[int(d)]
        assert df_map[term] == len(want)
        # block-max invariant: idf * stored norm max == true max score
        scores = bm25_score(
            tf, dl, df_map[term], float(n_docs), avgdl, 1.2, 0.75
        )
        from harvester_ray.index.build import bm25_idf

        ub = bm25_idf(df_map[term], float(n_docs)) * tb.ub_norm
        assert ub == pytest.approx(scores.max(), rel=1e-6)

    # scoring parity on a few random queries
    vocab = list(blocks)
    for qi in range(6):
        q_terms = [vocab[int(i)] for i in rng.integers(0, len(vocab), 3)]
        q = " ".join(q_terms) + (" zz_oov" if qi % 2 else "")
        for mode in ("or", "and"):
            want = oracle.search(q, k=10, mode=mode)
            got = _score_via_blocks(
                blocks, df_map, n_docs, avgdl, q, mode
            )
            assert [d for d, _ in got] == [d for d, _ in want], (seed, q, mode)
            for (_, s1), (_, s2) in zip(got, want):
                assert s1 == pytest.approx(s2, rel=1e-9)


def _score_via_blocks(blocks, df_map, n_docs, avgdl, query, mode):
    """Minimal scorer over decoded blocks using the engine's scoring +
    ranking rules (mirrors InvertedIndex._search_* accumulation order)."""
    from collections import defaultdict

    from harvester_ray.functions.text import tokenize

    terms = sorted(set(tokenize(query)))
    per_term = {}
    for t in terms:
        if t in blocks:
            ids, tf, dl = blocks[t].decode_all()
            per_term[t] = (ids, tf, dl)
        elif mode == "and":
            return []
    if not per_term:
        return []
    scores = defaultdict(float)
    counts = defaultdict(int)
    for t in sorted(per_term):
        ids, tf, dl = per_term[t]
        vals = bm25_score(tf, dl, df_map[t], float(n_docs), avgdl, 1.2, 0.75)
        for d, v in zip(ids, vals):
            scores[int(d)] += float(v)
            counts[int(d)] += 1
    if mode == "and":
        scores = {d: s for d, s in scores.items() if counts[d] == len(terms)}
    ranked = sorted(scores.items(), key=lambda kv: (-round(kv[1], 6), kv[0]))
    return ranked[:10]
