"""Golden tests for the remaining rows-only driver entries: lang_id,
quality_score, multimodal_features — each checked against an
independent pure-Python oracle on a crafted corpus."""

import hashlib
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from harvester_ray.functions.text import tokenize

TEXTS = [
    "the cat is on the mat and it is a good day for the cat",   # en
    "der hund ist ein guter hund und das ist der beste tag",    # de
    "le chat est dans la maison et les chats sont dans le lit", # fr
    "中文文本测试 中文文本测试 中文文本测试 中文文本测试",                      # zh (cjk)
    "",                                                         # empty
    "qwzx bnmp vcgh rtyu",                                      # unknown
]


@pytest.fixture()
def crafted(tmp_path):
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(list(range(len(TEXTS))), pa.int64()),
                "text": pa.array(TEXTS, pa.string()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    return str(tmp_path)


def _py_lang(text):
    from harvester_ray.stages.textstats import _CJK_RANGES, _LANG_PROFILES

    text = text or ""
    cjk = sum(
        1 for ch in text[:200]
        if any(lo <= ord(ch) <= hi for lo, hi in _CJK_RANGES)
    )
    def fp6(x: float) -> int:
        return int(np.floor(x * 1_000_000 + 0.5))

    if cjk >= 5:
        return "zh", fp6(min(1.0, cjk / 50.0))
    toks = tokenize(text)
    if not toks:
        return "unknown", 0
    best_lang, best = "unknown", 0.0
    for lang, stops in _LANG_PROFILES.items():
        r = sum(1 for t in toks if t in stops) / len(toks)
        if r > best:
            best_lang, best = lang, r
    return (best_lang if best > 0.02 else "unknown"), fp6(best)


def test_lang_id_golden(crafted, ray_session):
    from harvester_ray.stages.textstats import lang_id

    got = lang_id(crafted).to_pandas().set_index("doc_id")
    expected_langs = ["en", "de", "fr", "zh", "unknown", "unknown"]
    for i, text in enumerate(TEXTS):
        lang, conf = _py_lang(text)
        assert got.loc[i, "lang_pred"] == lang == expected_langs[i], i
        assert int(got.loc[i, "confidence_r6"]) == conf, i


def test_quality_score_golden(crafted, ray_session):
    from harvester_ray.stages.textstats import _LANG_PROFILES, quality_score

    got = quality_score(crafted).to_pandas().set_index("doc_id")
    stops = _LANG_PROFILES["en"]
    for i, text in enumerate(TEXTS):
        toks = tokenize(text or "")
        n = len(toks)
        n_uniq = len(set(toks))
        n_stop = sum(1 for t in toks if t in stops)
        safe = max(n, 1)
        stop_ratio = n_stop / safe
        mean_len = sum(len(t) for t in toks) / safe
        comp = (
            min(n / 100.0, 1) * 0.4
            + min(stop_ratio * 5.0, 1) * 0.3
            + min(n_uniq / safe, 1) * 0.3
        )
        assert int(got.loc[i, "n_tokens"]) == n, i
        assert int(got.loc[i, "n_uniq_tokens"]) == n_uniq, i
        def fp6(x: float) -> int:
            return int(np.floor(x * 1_000_000 + 0.5))

        assert int(got.loc[i, "stop_ratio_r6"]) == fp6(stop_ratio)
        assert int(got.loc[i, "mean_token_len_r6"]) == fp6(mean_len)
        assert abs(int(got.loc[i, "score_r6"]) - fp6(comp)) <= 2


def test_multimodal_features_golden(crafted, ray_session):
    from harvester_ray.stages.multimodal import (
        fake_decode_batch,
        multimodal_features,
        pil_decode_batch,
    )

    got = multimodal_features(crafted).to_pandas().set_index("doc_id")
    types = ("image/fake", "audio/fake", "video/fake")
    for i, text in enumerate(TEXTS):
        payload = (text or "").encode("utf-8")
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        h = int.from_bytes(digest, "big")
        assert got.loc[i, "media_type"] == types[i % 3]
        assert int(got.loc[i, "n_bytes"]) == len(payload)
        assert int(got.loc[i, "payload_hash"]) == h - (1 << 63)
        assert int(got.loc[i, "width"]) == 64 + h % 512
        assert int(got.loc[i, "height"]) == 64 + (h >> 16) % 512
        arr = np.frombuffer(payload, dtype=np.uint8)
        if len(arr) == 0:
            arr = np.zeros(1, dtype=np.uint8)
        want = [
            round(float(c.mean()), 6) if len(c) else 0.0
            for c in np.array_split(arr, 8)
        ]
        assert list(got.loc[i, "features"]) == pytest.approx(want)
    # the production decode stage is an explicit, documented stub
    batch = pa.table(
        {
            "doc_id": pa.array([1], pa.int64()),
            "media_type": pa.array(["image/fake"]),
            "payload": pa.array([b"abc"], pa.binary()),
        }
    )
    with pytest.raises(NotImplementedError):
        pil_decode_batch(batch)
    assert len(fake_decode_batch(batch, feature_dim=8)["features"][0]) == 8


def test_token_counts_golden(crafted, ray_session):
    import re

    from harvester_ray.stages.textstats import BPE_TOKEN_RE, token_counts

    got = token_counts(crafted).to_pandas().set_index("doc_id")
    for i, text in enumerate(TEXTS):
        text = text or ""
        assert int(got.loc[i, "n_ws_tokens"]) == len(text.split()), i
        assert int(got.loc[i, "n_bpe_tokens"]) == len(
            re.findall(BPE_TOKEN_RE, text)
        ), i


def test_token_counts_matches_duckdb_oracle_on_punctuation(
    tmp_path, ray_session
):
    """Regression: DuckDB regular string literals do NOT process
    backslash escapes, so the oracle regex must be embedded verbatim
    (quote-doubling only). With doubled backslashes 'a !  ? b' scored
    oracle 3 vs engine 5 — a silently vacuous gate on corpora that
    never put punctuation next to a multi-space run."""
    import duckdb
    import pandas as pd

    from harvester_ray.pipelines.oracles import TOKEN_COUNTS
    from harvester_ray.stages.textstats import token_counts

    texts = [
        "a !  ? b",            # the advisor's reproducer
        "x ,.   ;y  !",        # punctuation runs next to space runs
        "tab\t ! end  ",       # trailing whitespace run
        "it's the 3rd   try!", # apostrophe branch + digits
        None,
        "",
    ]
    path = tmp_path / "documents.parquet"
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(list(range(len(texts))), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(path),
    )
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{path}'")
    want = (
        con.execute(TOKEN_COUNTS).fetchdf().set_index("doc_id").sort_index()
    )
    got = (
        token_counts(str(tmp_path)).to_pandas().set_index("doc_id").sort_index()
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # the reproducer row really exercises the divergent pattern
    assert int(got.loc[0, "n_bpe_tokens"]) == 5


def test_default_decoder_autoselect_and_real_guard():
    """default_decoder() picks the stdlib-PNG real-pixel decoder when
    PIL is absent (round-5: actual decode, not the byte-stats fake)
    and pil_decode_batch when present; pil_decode_batch without PIL raises the
    documented NotImplementedError; schemas are identical."""
    from harvester_ray.stages import multimodal

    import pyarrow as _pa

    batch = _pa.table(
        {
            "doc_id": _pa.array([1], _pa.int64()),
            "media_type": _pa.array(["audio/fake"]),
            "payload": _pa.array([b"abc"], _pa.binary()),
        }
    )
    fn = multimodal.default_decoder()
    if multimodal._PILImage is None:
        assert fn is multimodal.stdlib_png_decode_batch
        import pytest as _pytest

        with _pytest.raises(NotImplementedError):
            multimodal.pil_decode_batch(batch)
    else:  # pragma: no cover - PIL absent in this container
        assert fn is multimodal.pil_decode_batch
        # non-image media falls back to byte features => same values
        assert (
            multimodal.pil_decode_batch(batch).to_pylist()
            == multimodal.fake_decode_batch(batch).to_pylist()
        )


def test_collocations_pmi_golden(ray_session, tmp_path):
    """Hand-computed PMI on a tiny corpus: 'x y' always adjacent (high
    PMI), 'a b' sometimes adjacent, min_count filters rare pairs."""
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq

    from harvester_ray.stages.textstats import collocations

    texts = ["x y a b", "x y b a", "x y a b"]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    got = collocations(str(tmp_path), min_count=2, top_n=10)
    rows = {
        (a, b): (n, p)
        for a, b, n, p in zip(
            got["term_a"].to_pylist(),
            got["term_b"].to_pylist(),
            got["n_ab"].to_pylist(),
            got["pmi_fp"].to_pylist(),
        )
    }
    # unigrams: x=3 y=3 a=3 b=3, N_uni=12; bigrams per doc 3, N_big=9
    def fp(c_ab, c_a, c_b):
        return math.floor(
            math.log((c_ab / 9.0) / ((c_a / 12.0) * (c_b / 12.0))) * 1e6
            + 0.5
        )

    assert rows[("x", "y")] == (3, fp(3, 3, 3))
    assert rows[("a", "b")] == (2, fp(2, 3, 3))
    assert ("b", "a") not in rows  # c_ab = 1 < min_count
    # ranked by pmi_fp desc: the always-adjacent pair wins
    assert got["term_a"][0].as_py() == "x"


def test_vocab_join_path_bit_identical(ray_session, monkeypatch):
    """Forcing the guard to 0 routes collocations and unigram_logprob
    through the Dataset.join vocabulary path; results must be
    bit-identical (integer fps) to the broadcast path on the same
    corpus — the round-3 NotImplementedError is gone."""
    from harvester_ray.stages import textstats

    sf = "/root/testdata/sf0.001"
    col_b = textstats.collocations(sf).to_pylist()
    ul_b = (
        textstats.unigram_logprob(sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(textstats, "_VOCAB_BROADCAST_GUARD", 0)
    col_j = textstats.collocations(sf).to_pylist()
    ul_j = (
        textstats.unigram_logprob(sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert col_j == col_b
    assert ul_j.equals(ul_b)


def test_doc_entropy_edges_and_exactness(tmp_path, ray_session):
    """Zero-token docs are omitted; a uniform doc has entropy ln(k);
    fp values match the pure-Python rule exactly."""
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq

    from harvester_ray.stages.textstats import _ENT_FP8, doc_entropy

    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                "text": pa.array(
                    [
                        "a b c d",          # uniform: entropy ln(4)
                        "a a a a",          # single term: entropy 0
                        "",                 # zero tokens: omitted
                        "x x y",            # mixed
                    ]
                ),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    got = {
        int(r["doc_id"]): int(r["entropy_fp"])
        for r in doc_entropy(str(tmp_path)).take_all()
    }
    fp = lambda x: math.floor(-(x) * math.log(x) * _ENT_FP8 + 0.5)
    assert set(got) == {0, 1, 3}
    assert got[0] == 4 * fp(1 / 4)
    assert got[1] == fp(1.0)  # -(1)*ln(1) = 0
    assert got[1] == 0
    assert got[3] == fp(2 / 3) + fp(1 / 3)


def test_common_ngrams_short_docs_and_windows(tmp_path, ray_session):
    """Windows never span documents; docs shorter than the window
    contribute nothing; counts and tie order are exact."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from harvester_ray.stages.textstats import common_ngrams

    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                "text": pa.array(
                    [
                        "a b c a b c",   # 'a b c' x2, 'b c a', 'c a b'
                        "a b c",         # 'a b c' once more
                        "x y",           # < 3 tokens: no grams
                        "",              # empty
                    ]
                ),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    rows = [
        (int(r["rank"]), r["gram"], int(r["n"]))
        for r in common_ngrams(str(tmp_path)).take_all()
    ]
    assert rows[0] == (1, "a b c", 3)
    assert (2, "b c a", 1) in rows and (3, "c a b", 1) in rows
    # no gram contains tokens from two docs ('c a b' exists only
    # WITHIN doc 0, never as a doc-0/doc-1 boundary window 'b c a'+)
    assert all(n >= 1 for _, _, n in rows) and len(rows) == 3


def test_dsir_weights_favor_target_lang(ray_session):
    """The semantic point of DSIR: documents drawn from the target
    domain (lang='en') must average a HIGHER per-token importance
    ratio than documents outside it, and every weight row joins a real
    doc with its exact token count."""
    import pyarrow.parquet as pq

    from harvester_ray.stages.textstats import (
        DSIR_TARGET_LANG,
        dsir_weights,
        unigram_logprob,
    )

    sf = "/root/testdata/sf0.001"
    w = dsir_weights(sf).to_pandas()
    docs = pq.read_table(
        f"{sf}/documents.parquet", columns=["doc_id", "lang"]
    ).to_pandas()
    m = w.merge(docs, on="doc_id")
    assert len(m) == len(w)
    per_tok = m.dsir_fp / m.n_tokens
    tgt = m.lang == DSIR_TARGET_LANG
    assert tgt.any() and (~tgt).any()
    assert per_tok[tgt].mean() > per_tok[~tgt].mean()
    # n_tokens agrees with unigram_logprob (same analyzer contract)
    tc = unigram_logprob(sf).to_pandas().set_index("doc_id")["n_tokens"]
    sub = w.set_index("doc_id")["n_tokens"]
    assert (tc.loc[sub.index] == sub).all()


def test_ccnet_buckets_are_balanced_terciles(ray_session):
    """Every doc gets exactly one bucket; bucket sizes are n/3-balanced
    up to key ties; ordering invariant: max key in tail <= min key in
    middle <= ... <= head."""
    from harvester_ray.stages.textstats import ccnet_buckets

    b = ccnet_buckets("/root/testdata/sf0.001").to_pandas()
    assert set(b.bucket) == {"head", "middle", "tail"}
    assert b.doc_id.is_unique
    n = len(b)
    for name in ("head", "middle", "tail"):
        assert abs((b.bucket == name).sum() - n / 3) < n / 6
    assert b[b.bucket == "tail"].ppl_fp4.max() <= b[
        b.bucket == "middle"
    ].ppl_fp4.min()
    assert b[b.bucket == "middle"].ppl_fp4.max() <= b[
        b.bucket == "head"
    ].ppl_fp4.min()


def test_bigram_logprob_hand_computed(tmp_path, ray_session):
    """Order-2 Laplace LM on a tiny corpus, checked against a direct
    Python reference: c2 from adjacent in-doc pairs, c1 = context
    totals, V = distinct unigrams; docs with < 2 tokens emit no row;
    per-doc value is the integer sum of per-TYPE fixed points."""
    import math

    from harvester_ray.stages.textstats import bigram_logprob

    texts = {1: "a b a b c", 2: "b c d", 3: "a", 4: ""}
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(list(texts), pa.int64()),
                "text": pa.array(list(texts.values()), pa.string()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    got = (
        bigram_logprob(str(tmp_path))
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )

    bigs = {d: list(zip(t.split(), t.split()[1:])) for d, t in texts.items()}
    c2 = Counter(b for bs in bigs.values() for b in bs)
    c1 = Counter()
    for (u, _), c in c2.items():
        c1[u] += c
    vocab = len({w for t in texts.values() for w in t.split()})
    fp = {
        b: math.floor(math.log((c + 1) / (c1[b[0]] + vocab)) * 1e8 + 0.5)
        for b, c in c2.items()
    }
    assert list(got.index) == [1, 2]  # docs 3 (1 token) and 4 (empty) absent
    for d in (1, 2):
        assert got.loc[d, "n_bigrams"] == len(bigs[d])
        assert got.loc[d, "logprob2_fp"] == sum(fp[b] for b in bigs[d])


def test_quality_filter_reasons_golden(crafted, ray_session):
    """Per-reason counts vs a pure-Python oracle on the crafted corpus
    (all docs < 20 tokens -> too_short fires for every non-empty-rule
    doc; empty doc: too_short only). All five rows must emit."""
    from harvester_ray.stages.textstats import (
        _LANG_PROFILES,
        QF_REASONS,
        quality_filter_reasons,
    )

    stops = _LANG_PROFILES["en"]
    want = {r: 0 for r in QF_REASONS}
    for txt in TEXTS:
        ts = tokenize(txt)
        n = len(ts)
        st = sum(t in stops for t in ts)
        c = Counter(ts)
        top = max(c.values()) if c else 0
        u = len(c)
        flags = {
            "too_short": n < 20,
            "low_stopword": st * 50 < n,
            "high_repetition": top * 20 > n * 3,
            "low_diversity": u * 20 < n * 7,
        }
        for r, f in flags.items():
            want[r] += int(f)
        want["kept"] += int(not any(flags.values()))
    got = dict(
        zip(
            *(
                quality_filter_reasons(crafted)
                .to_pandas()
                .sort_values("reason")[c]
                .tolist()
                for c in ("reason", "n_docs")
            )
        )
    )
    assert got == {k: want[k] for k in got} and set(got) == set(QF_REASONS)


def _py_classifier(text):
    """Independent pure-Python twin of hashed_classifier_scores."""
    from harvester_ray.stages.textstats import (
        _QC_B, _QC_M, _QC_WA, _QC_WC, _QC_WM,
    )

    def th(tok):
        h = ord(tok[0])
        for c in tok[1:]:
            h = (h * 31 + ord(c)) % _QC_M
        return h

    def w(h):
        return (h % _QC_B * _QC_WA + _QC_WC) % _QC_WM - _QC_WM // 2

    toks = tokenize(text)
    hs = [th(t) for t in toks]
    feats = hs + [(a * 31 + b) % _QC_M for a, b in zip(hs, hs[1:])]
    s = sum(w(h) for h in feats)
    return len(feats), s, 1 if s > 0 else 0


def test_hashed_classifier_golden(crafted, ray_session):
    from harvester_ray.stages.textstats import hashed_classifier_scores

    got = (
        hashed_classifier_scores(crafted)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(got) == len(TEXTS)
    for i, text in enumerate(TEXTS):
        nf, s, keep = _py_classifier(text)
        row = got.iloc[i]
        assert row["doc_id"] == i
        assert row["n_feats"] == nf, (i, text)
        assert row["score_sum"] == s
        assert row["keep"] == keep
    # empty doc: zero features, zero score, dropped
    empty = got.iloc[TEXTS.index("")]
    assert empty["n_feats"] == 0 and empty["score_sum"] == 0
    assert empty["keep"] == 0


def test_hashed_classifier_hash_matches_duckdb():
    """The fold hash must mirror DuckDB's list_reduce exactly —
    including the single-char seed case (no lambda application)."""
    import duckdb

    from harvester_ray.stages.textstats import _QC_M, _qc_token_hash

    for tok in ["a", "0", "scan", "zz9q", "the", "x" * 40]:
        sql = duckdb.sql(
            "select list_reduce(list_transform(string_split("
            f"'{tok}', ''), c -> unicode(c)::BIGINT), "
            f"(a, c) -> (a * 31 + c) % {_QC_M})"
        ).fetchone()[0]
        assert _qc_token_hash(tok) == sql, tok


def test_rank_eval_invariants(ray_session):
    """Structural invariants of rank_eval on the reference query set:
    single-term queries have every retrieved doc relevant (OR == AND
    when |q| == 1), OOV-conjunct queries have an empty qrel set, and
    p10 is exactly n_hit * 10^6 // TOP_K."""
    from harvester_ray.pipelines.fulltext import TOP_K, rank_eval

    df = (
        rank_eval("/root/testdata/sf0.001")
        .to_pandas()
        .set_index("query_id")
        .astype("int64")
    )
    # qid 0 = "scan" (single term): every top-k doc contains the term
    assert df.loc[0, "n_hit"] == min(TOP_K, df.loc[0, "n_rel"])
    assert df.loc[0, "rr_fp6"] == 10**6
    # qid 4 = "zzzq scan": zzzq is OOV, so no doc matches ALL terms
    assert (df.loc[4] == 0).all()
    # p10 identity on every query
    assert (
        df["p10_fp6"] == df["n_hit"] * 10**6 // TOP_K
    ).all()
    # nDCG: perfect when every retrieved doc is relevant and there are
    # >= TOP_K relevant docs; zero iff no hits; never above 1.0
    from harvester_ray.pipelines.fulltext import RANK_EVAL_IDCG_FP

    full = (df["n_hit"] == TOP_K) & (df["n_rel"] >= TOP_K)
    assert (df.loc[full, "ndcg_fp6"] == 10**6).all()
    assert (df.loc[df["n_hit"] == 0, "ndcg_fp6"] == 0).all()
    assert (df["ndcg_fp6"] <= 10**6).all()
    assert len(RANK_EVAL_IDCG_FP) == TOP_K


def test_gopher_filter_golden(ray_session):
    """Rule order + thresholds replicated in pure Python per doc."""
    from harvester_ray.stages.textstats import (
        GF_BIGRAM_DEN,
        GF_BIGRAM_NUM,
        GF_DISTINCT_DEN,
        GF_DISTINCT_NUM,
        GF_MAX_MEAN_LEN,
        GF_MAX_TOKENS,
        GF_MIN_MEAN_LEN,
        GF_MIN_TOKENS,
        gopher_filter,
    )

    sf = "/root/testdata/sf0.001"
    docs = pq.read_table(sf + "/documents.parquet").to_pylist()
    expect = {}
    for row in docs:
        ts = tokenize(row["text"] or "")
        n = len(ts)
        sl = sum(len(t) for t in ts)
        nd = len(set(ts))
        bigs = Counter(zip(ts, ts[1:]))
        mx = max(bigs.values()) if bigs else 0
        nb = sum(bigs.values())
        if n < GF_MIN_TOKENS:
            r = "too_short"
        elif n > GF_MAX_TOKENS:
            r = "too_long"
        elif sl < GF_MIN_MEAN_LEN * n or sl > GF_MAX_MEAN_LEN * n:
            r = "word_length"
        elif nd * GF_DISTINCT_DEN < n * GF_DISTINCT_NUM:
            r = "low_distinct"
        elif mx * GF_BIGRAM_DEN > nb * GF_BIGRAM_NUM:
            r = "repetitive_bigram"
        else:
            r = "ok"
        expect[row["doc_id"]] = r

    got = gopher_filter(sf).to_pandas()
    assert len(got) == len(expect)
    for _, row in got.iterrows():
        assert row["reason"] == expect[row["doc_id"]]
        assert row["keep"] == (1 if row["reason"] == "ok" else 0)
    # the fixture corpus exercises both outcomes
    assert 0 < got["keep"].sum() < len(got)


def test_pii_redact_residual_free(ray_session):
    """Every synthesized PII string is found (counts >= 1 per
    category) and nothing matching any pattern survives redaction."""
    import re

    from harvester_ray.stages.textstats import (
        PII_EMAIL_RE,
        PII_IP_RE,
        PII_PHONE_RE,
        pii_redact,
    )

    t = pii_redact("/root/testdata/sf0.001").to_pandas()
    assert (t["n_emails"] >= 1).all()
    assert (t["n_phones"] >= 1).all()
    assert (t["n_ips"] >= 1).all()
    pats = [re.compile(p) for p in (PII_EMAIL_RE, PII_PHONE_RE, PII_IP_RE)]
    for s in t["redacted"]:
        assert "<EMAIL>" in s and "<PHONE>" in s and "<IP>" in s
        for p in pats:
            assert not p.search(s)


def test_percolate_conjunctive_semantics(ray_session):
    """Exact stored-query match sets replicated in pure Python; the
    OOV-bearing query matches nothing."""
    from harvester_ray.pipelines.fulltext import (
        percolate_matches,
        queries_for_mode,
    )

    sf = "/root/testdata/sf0.001"
    docs = pq.read_table(sf + "/documents.parquet").to_pylist()
    expect = set()
    for qid, q in queries_for_mode("or"):
        terms = set(tokenize(q))
        for row in docs:
            if terms <= set(tokenize(row["text"] or "")):
                expect.add((qid, row["doc_id"]))
    got = {
        (r["query_id"], r["doc_id"])
        for r in percolate_matches(sf).take_all()
    }
    assert got == expect
    assert len(got) > 0
    assert not any(qid == 4 for qid, _ in got)  # zzzq is OOV


def test_percolate_zero_term_query_matches_nothing(
    ray_session, monkeypatch
):
    """A stored query with no analyzer tokens matches NO documents
    (the SQL twin emits no rows for it; an all-zero bitmask must not
    degenerate to match-all)."""
    from harvester_ray.pipelines import fulltext

    sf = "/root/testdata/sf0.001"
    base = fulltext.queries_for_mode("or")
    monkeypatch.setattr(
        fulltext,
        "queries_for_mode",
        lambda m: base + [(999, "!!! ???")],
    )
    got = {
        (r["query_id"], r["doc_id"])
        for r in fulltext.percolate_matches(sf).take_all()
    }
    assert len(got) > 0
    assert not any(qid == 999 for qid, _ in got)


def test_curate_corpus_is_intersection_of_legs(ray_session):
    """Every kept doc passes each leg individually, and every doc that
    passes all legs is kept (exact set equality)."""
    from harvester_ray.pipelines.relational import dedup_exact
    from harvester_ray.stages.dedup import (
        DECON_BENCH_MOD,
        DECON_BENCH_REM,
        decontaminate,
    )
    from harvester_ray.stages.textstats import curate_corpus, gopher_filter

    sf = "/root/testdata/sf0.001"
    quality = {
        r["doc_id"] for r in gopher_filter(sf).take_all() if r["keep"] == 1
    }
    canonical = {r["doc_id"] for r in dedup_exact(sf).take_all()}
    contaminated = {r["doc_id"] for r in decontaminate(sf).take_all()}
    expect = {
        d
        for d in quality & canonical
        if d % DECON_BENCH_MOD != DECON_BENCH_REM and d not in contaminated
    }
    got = curate_corpus(sf).to_pandas()
    assert set(got["doc_id"]) == expect
    assert 0 < len(got) < 500
    assert set(got.columns) == {"doc_id", "source", "n_chars"}


def test_frame_sample_window_arithmetic(ray_session):
    """Frame windows replicated in pure Python: only video-typed docs,
    stride-sampled indices, md5 of each FRAME_BYTES window."""
    import hashlib

    from harvester_ray.stages.multimodal import (
        FRAME_BYTES,
        FRAME_STRIDE,
        frame_sample,
    )

    sf = "/root/testdata/sf0.001"
    docs = pq.read_table(sf + "/documents.parquet").to_pylist()
    expect = {}
    for row in docs:
        if row["doc_id"] % 3 != 2:
            continue
        payload = (row["text"] or "").encode("utf-8")
        if not payload:
            continue
        nf = (len(payload) + FRAME_BYTES - 1) // FRAME_BYTES
        for i in range(0, nf, FRAME_STRIDE):
            expect[(row["doc_id"], i)] = (
                nf,
                hashlib.md5(
                    payload[i * FRAME_BYTES:(i + 1) * FRAME_BYTES]
                    .hex().upper().encode()
                ).hexdigest(),
            )
    got = frame_sample(sf).to_pandas()
    assert len(got) == len(expect)
    for _, r in got.iterrows():
        nf, md5 = expect[(r["doc_id"], r["frame_idx"])]
        assert r["n_frames"] == nf and r["frame_md5"] == md5


def test_frame_sample_non_ascii_matches_oracle(ray_session, tmp_path):
    """Engine and SQL twin agree on MULTI-BYTE text, including a frame
    boundary that splits a character — the case a char-based substr
    oracle gets wrong."""
    import duckdb

    from harvester_ray.pipelines.oracles import FRAME_SAMPLE
    from harvester_ray.stages.multimodal import FRAME_BYTES, frame_sample

    # doc 2 is video-typed; text chosen so FRAME_BYTES lands inside a
    # multi-byte char (é = 2 bytes) and char-len != byte-len
    text = ("é" * FRAME_BYTES) + "日本語テキスト-tail"
    tbl = pa.table(
        {
            "doc_id": pa.array([2, 5, 3], pa.int64()),
            "text": pa.array([text, "ascii only", "ünïcode"], pa.string()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    got = {
        (r["doc_id"], r["frame_idx"], r["n_frames"], r["frame_md5"])
        for r in frame_sample(str(tmp_path)).take_all()
    }
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    want = {tuple(r) for r in con.execute(FRAME_SAMPLE).fetchall()}
    assert got == want and len(got) >= 2


def _py_bpe(words, rounds):
    """Reference BPE trainer: positional adjacent-pair counts weighted
    by word frequency, (cnt DESC, pair ASC) pick, leftmost-non-
    overlapping replace with the round marker."""
    from collections import Counter

    from harvester_ray.stages.textstats import BPE_MARKER_BASE

    vocab = Counter(words)
    out = []
    for r in range(rounds):
        pcnt = Counter()
        for w, c in vocab.items():
            for i in range(len(w) - 1):
                pcnt[w[i : i + 2]] += c
        if not pcnt:
            break
        pair, cnt = min(pcnt.items(), key=lambda kv: (-kv[1], kv[0]))
        out.append((r + 1, pair, cnt))
        m = chr(BPE_MARKER_BASE + r)
        nxt = Counter()
        for w, c in vocab.items():
            nxt[w.replace(pair, m)] += c
        vocab = nxt
    return out


def test_bpe_merges_matches_python_trainer(tmp_path, ray_session):
    import re

    from harvester_ray.stages.textstats import BPE_ROUNDS, bpe_merges

    # engineered so round 2 merges a MARKER-containing pair (xy -> M,
    # then Mz) — pins the merged-symbol pairing semantics — and "aaa"
    # pins positional overlapping-pair counts
    texts = ["xy xy xy xyz xyz xyz", "aaa ab", "banana"]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    words = []
    for t in texts:
        words.extend(re.findall(r"[a-z0-9]+", t.lower()))
    want = _py_bpe(words, BPE_ROUNDS)

    got = bpe_merges(str(tmp_path))
    rows = list(
        zip(
            got["round"].to_pylist(),
            got["pair"].to_pylist(),
            got["cnt"].to_pylist(),
        )
    )
    assert rows == want
    # the engineered round-2 merge really does contain the round-1
    # marker (the test would silently weaken if the corpus changed)
    from harvester_ray.stages.textstats import BPE_MARKER_BASE

    assert chr(BPE_MARKER_BASE) in want[1][1]


def test_bpe_oracle_survives_dried_up_corpus(ray_session, tmp_path):
    """When merges exhaust before BPE_ROUNDS (the engine breaks out of
    its loop), the SQL twins must degrade to identity replaces for the
    dried-up rounds instead of NULL-poisoning (coalesce in _bpe_pick)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from harvester_ray.pipelines.oracles import BPE_MERGES, BPE_TOKEN_COUNTS
    from harvester_ray.stages.textstats import bpe_merges, bpe_token_counts

    sf = str(tmp_path)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["ab ab", "ab"], pa.string()),
            }
        ),
        sf + "/documents.parquet",
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS "
        f"SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )

    got_m = bpe_merges(sf).to_pandas()
    want_m = con.execute(BPE_MERGES).df()
    assert len(got_m) == len(want_m) == 1  # merges dried up at round 1
    assert got_m["pair"].tolist() == want_m["pair"].tolist() == ["ab"]

    got_c = (
        bpe_token_counts(sf).to_pandas().sort_values("doc_id")
        .reset_index(drop=True)
    )
    want_c = (
        con.execute(BPE_TOKEN_COUNTS).df().sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got_c["n_bpe_tokens"].tolist() == [2, 1]
    assert want_c["n_bpe_tokens"].tolist() == [2, 1]
