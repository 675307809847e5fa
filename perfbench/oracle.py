"""Exhaustive BM25 over the generator's token ranks.

Scores with the engine's formula (Lucene idf, k1=1.2, b=0.75, terms
accumulated in sorted order) but shares no code with it: postings come
from the generator's token ids, not from the engine's analyzer or
index.  Ranking rule: round(score, 6) DESC, doc_id ASC.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from gen import VOCAB, Corpus


def url_doc_id(url: str) -> int:
    """The engine's documented doc id of a page: blake2b-64 of the url,
    big-endian signed."""
    d = hashlib.blake2b(url.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(d, "big", signed=True)


def term_rank(word: str) -> int | None:
    if word.startswith("w") and word[1:].isdigit():
        r = int(word[1:])
        if r < VOCAB and word == f"w{r}":
            return r
    return None


class Bm25Oracle:
    def __init__(self, corpus: Corpus, k1: float = 1.2, b: float = 0.75):
        n = corpus.n_docs
        self.k1, self.b = k1, b
        self.doc_ids = corpus.doc_ids
        self.dl = np.diff(corpus.offsets).astype(np.float64)
        self.n_docs = float(n)
        self.total_tokens = int(corpus.offsets[-1])
        self.avgdl = self.total_tokens / n
        doc = np.repeat(np.arange(n, dtype=np.int64), np.diff(corpus.offsets))
        keys, tf = np.unique(corpus.tokens.astype(np.int64) * n + doc, return_counts=True)
        self._doc = keys % n
        self._tf = tf.astype(np.float64)
        self._ptr = np.searchsorted(keys // n, np.arange(VOCAB + 1))

    def df(self, rank: int) -> int:
        return int(self._ptr[rank + 1] - self._ptr[rank])

    def _postings(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        s, e = self._ptr[rank], self._ptr[rank + 1]
        return self._doc[s:e], self._tf[s:e]

    def search(self, query: str, k: int = 10, mode: str = "or") -> list[tuple[int, float]]:
        words = sorted(set(query.split()))
        ranks = [term_rank(w) for w in words]
        present = [r for r in ranks if r is not None and self.df(r) > 0]
        if not present or (mode == "and" and len(present) < len(ranks)):
            return []
        acc = np.zeros(len(self.doc_ids), dtype=np.float64)
        hits = np.zeros(len(self.doc_ids), dtype=np.int32)
        k1, b = self.k1, self.b
        for r in present:  # sorted-term order, as the engine accumulates
            docs, tf = self._postings(r)
            df = float(len(docs))
            idf = math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))
            norm = (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * self.dl[docs] / self.avgdl))
            acc[docs] += idf * norm
            hits[docs] += 1
        cand = np.nonzero(hits == len(present) if mode == "and" else hits > 0)[0]
        ids = self.doc_ids[cand]
        scores = acc[cand]
        order = np.lexsort((ids, -np.round(scores, 6)))[:k]
        return [(int(ids[i]), float(scores[i])) for i in order]


def same_ranking(got: list[tuple[int, float]], want: list[tuple[int, float]]) -> bool:
    """Rank-identical under round(score, 6) DESC, doc_id ASC."""
    return [d for d, _ in got] == [d for d, _ in want] and all(
        abs(a - b) <= 1e-6 for (_, a), (_, b) in zip(got, want)
    )
