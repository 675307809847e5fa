"""Seeded input generators, independent of the program under test.

Every input the benchmark feeds the engine is made here from the
``--seed`` argument, so a change to ``harvester_ray`` (its own corpus
module included) cannot change the workload.  Terms are lower-case
``[a-z0-9]+`` words joined by single spaces, so the engine's analyzer
returns exactly the generated tokens and the oracle can score from the
generator's token ids.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

ZIPF_S = 1.1
VOCAB = 50_000
MEAN_LEN = 120
# query classes by term rank over the Zipf vocabulary
HEAD_RANKS = (0, 100)
MID_RANKS = (100, 5_000)
TAIL_RANKS = (5_000, VOCAB)
QUERY_CLASSES = ("head", "mid", "tail", "oov")
# P(query has 1, 2, 3, 4 terms).  The engine's cost grows in steps of one
# term (the dense path touches every document once per term), so a
# median on the edge between two lengths would jump by a whole step from
# seed to seed; this mix puts the median in the middle of the 3-term step.
QUERY_LENGTHS = (0.1, 0.2, 0.4, 0.3)


def term(rank: int) -> str:
    return f"w{rank}"


def _cdf(lo: int, hi: int) -> np.ndarray:
    w = 1.0 / np.arange(lo + 1, hi + 1, dtype=np.float64) ** ZIPF_S
    c = np.cumsum(w)
    return c / c[-1]


def zipf_ranks(rng: np.random.Generator, n: int, lo: int = 0, hi: int = VOCAB) -> np.ndarray:
    """``n`` term ranks in ``[lo, hi)`` drawn from Zipf(ZIPF_S) restricted
    to that range (inverse-CDF sampling)."""
    r = np.searchsorted(_cdf(lo, hi), rng.random(n), side="right")
    return (np.minimum(r, hi - lo - 1) + lo).astype(np.int32)


@dataclass
class Corpus:
    """Documents as token-rank runs: doc i holds
    ``tokens[offsets[i]:offsets[i + 1]]``."""

    doc_ids: np.ndarray  # int64
    tokens: np.ndarray  # int32 term ranks
    offsets: np.ndarray  # int64, len n_docs + 1

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def texts(self) -> pa.Array:
        vocab = pa.array([term(i) for i in range(VOCAB)], pa.large_string())
        flat = pa.DictionaryArray.from_arrays(pa.array(self.tokens), vocab).cast(
            pa.large_string()
        )
        lists = pa.LargeListArray.from_arrays(pa.array(self.offsets), flat)
        return pc.binary_join(lists, pa.scalar(" ", pa.large_string()))

    def table(self) -> pa.Table:
        return pa.table({"doc_id": pa.array(self.doc_ids), "text": self.texts()})


def zipf_corpus(seed: int, n_docs: int, id_base: int = 0) -> Corpus:
    """Zipf(1.1) tokens over a 50 k vocabulary, lognormal doc lengths
    around 120 tokens (clipped to [8, 960])."""
    rng = np.random.default_rng([seed, 1])
    lens = np.clip(
        rng.lognormal(np.log(MEAN_LEN), 0.6, n_docs).astype(np.int64), 8, MEAN_LEN * 8
    )
    offsets = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    tokens = zipf_ranks(rng, int(offsets[-1]))
    doc_ids = np.arange(id_base, id_base + n_docs, dtype=np.int64)
    return Corpus(doc_ids, tokens, offsets)


def write_parquet_shards(table: pa.Table, out_dir: str, n_files: int) -> str:
    os.makedirs(out_dir, exist_ok=True)
    per = -(-len(table) // n_files)
    for i in range(n_files):
        pq.write_table(
            table.slice(i * per, per), os.path.join(out_dir, f"part-{i:03d}.parquet")
        )
    return out_dir


@dataclass
class Query:
    text: str
    mode: str  # "and" | "or"
    klass: str  # head | mid | tail | oov


def query_stream(
    seed: int, n: int, stream: int = 0, oov_share: float = 0.1, and_share: float = 0.5
) -> list[Query]:
    """Queries of 1-4 terms (QUERY_LENGTHS) drawn from the corpus' Zipf
    distribution; a share of them carries an out-of-vocabulary term, and
    a share is AND (the rest OR).  A query's class is "oov" if it has an
    OOV term, else the rank class of its most frequent term (which sets
    most of its cost)."""
    rng = np.random.default_rng([seed, 2, stream])
    out = []
    for _ in range(n):
        ranks = zipf_ranks(rng, 1 + int(rng.choice(4, p=QUERY_LENGTHS)))
        words = [term(int(r)) for r in ranks]
        if rng.random() < oov_share:
            words[0] = f"oov{int(rng.integers(0, 10**6))}"
            klass = "oov"
        else:
            top = int(ranks.min())
            klass = "head" if top < HEAD_RANKS[1] else "mid" if top < MID_RANKS[1] else "tail"
        mode = "and" if rng.random() < and_share else "or"
        out.append(Query(" ".join(words), mode, klass))
    return out


# -- pages (the recrawl workload) ---------------------------------------

LANGS = np.array(["en", "en", "en", "en", "de", "fr", ""])  # "" -> rejected page
SCRIPT = "<script>var x = 1;</script>"


def _join(ranks: np.ndarray, offsets: np.ndarray, vocab: pa.Array) -> pa.Array:
    """One string per run ``ranks[offsets[i]:offsets[i + 1]]``: its
    terms joined by spaces."""
    flat = pa.DictionaryArray.from_arrays(pa.array(ranks), vocab).cast(pa.string())
    lists = pa.ListArray.from_arrays(pa.array(offsets.astype(np.int32)), flat)
    return pc.binary_join(lists, " ")


def _runs(rng: np.random.Generator, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    return zipf_ranks(rng, int(offsets[-1])), offsets


@dataclass
class PageShard:
    """One parquet shard of crawled pages.  A page's text (the extraction
    spec: <title>, <h1>, <p> contents joined by newlines) holds its
    title twice, then its paragraphs; pages with an empty language are
    rejected by validation.  A share of the rows carries that text
    pre-extracted (the extractor passes it through), the rest only HTML."""

    urls: list[str]
    langs: np.ndarray
    doc_tokens: Corpus  # per page, in text order (doc_ids unused)
    text_bytes: np.ndarray  # per page
    table: pa.Table

    @property
    def valid(self) -> np.ndarray:
        return self.langs != ""


def page_shard(
    rng: np.random.Generator, urls: list[str], langs: np.ndarray | None, ts_us: int, inline_share: float
) -> PageShard:
    n = len(urls)
    if langs is None:
        langs = LANGS[rng.integers(0, len(LANGS), n)]
    vocab = pa.array([term(i) for i in range(VOCAB)], pa.string())
    t_tok, t_off = _runs(rng, rng.integers(2, 6, n))
    n_paras = rng.integers(1, 4, n)
    p_tok, p_off = _runs(rng, rng.integers(10, 60, int(n_paras.sum())))
    title = _join(t_tok, t_off, vocab)
    paras = pa.ListArray.from_arrays(
        pa.array(np.concatenate(([0], np.cumsum(n_paras))).astype(np.int32)),
        _join(p_tok, p_off, vocab),
    )
    text = pc.binary_join_element_wise(title, title, pc.binary_join(paras, "\n"), "\n")
    html = pc.binary_join_element_wise(
        "<html><head><title>", title, "</title></head><body><h1>", title, "</h1><p>",
        pc.binary_join(paras, f"</p>{SCRIPT}<p>"), "</p></body></html>", "",
    )
    inline = rng.random(n) < inline_share
    # per page: title, title, paragraphs
    t_len, p_len = np.diff(t_off), np.add.reduceat(np.diff(p_off), np.r_[0, np.cumsum(n_paras)[:-1]])
    lens = 2 * t_len + p_len
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    p_start = np.r_[0, np.cumsum(p_len)]
    tokens = np.concatenate(
        [
            np.concatenate((t_tok[t_off[i] : t_off[i + 1]],) * 2 + (p_tok[p_start[i] : p_start[i + 1]],))
            for i in range(n)
        ]
    )
    table = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(np.full(n, ts_us, dtype="datetime64[us]")),
            "html": html.cast(pa.binary()),
            "text": pc.if_else(pa.array(inline), text, pa.scalar(None, pa.string())),
            "lang": pa.array(langs, pa.string()),
        }
    )
    doc_tokens = Corpus(np.zeros(n, np.int64), tokens.astype(np.int32), offsets)
    return PageShard(urls, langs, doc_tokens, pc.binary_length(text).to_numpy(), table)
