"""Byte-identity golden tests for the pages corpus + extraction stage,
and the end-to-end pages pipeline (extract → index → query)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from harvester_ray.corpus import generate_pages, generate_queries
from harvester_ray.functions.text import hash64
from harvester_ray.index.build import build_index
from harvester_ray.index.oracle import OracleIndex
from harvester_ray.index.query import InvertedIndex
from harvester_ray.stages.extract import (
    REJECT_EMPTY_TEXT,
    extract_batch,
    extract_pages,
    split_valid,
)

N_ROWS = 500


@pytest.fixture(scope="module")
def pages_and_expected():
    return generate_pages(N_ROWS)


def test_corpus_deterministic():
    t1, e1 = generate_pages(50)
    t2, e2 = generate_pages(50)
    assert t1.equals(t2) and e1 == e2
    assert t1.schema.field("url").type == pa.string()
    assert t1.schema.field("warc_ts").type == pa.timestamp("us")
    assert t1.schema.field("html").type == pa.binary()
    assert t1.schema.field("text").type == pa.string()
    assert t1.schema.field("lang").type == pa.string()


def test_extraction_byte_identity(pages_and_expected):
    """Every row's extracted text must equal the generator's expected
    text byte-for-byte — including all edge-case variants."""
    pages, expected = pages_and_expected
    out = extract_batch(pages)
    got = out["text"].to_pylist()
    for i, (g, e) in enumerate(zip(got, expected)):
        assert g == e, f"row {i} (variant {'edge' if i % 20 == 19 else 'normal'})"


def test_extraction_passthrough_identity(pages_and_expected):
    """Rows with non-null input text must pass through verbatim."""
    pages, expected = pages_and_expected
    out = extract_batch(pages)
    texts_in = pages["text"].to_pylist()
    texts_out = out["text"].to_pylist()
    for tin, tout in zip(texts_in, texts_out):
        if tin is not None:
            assert tout == tin


def test_extraction_doc_ids_stable(pages_and_expected):
    pages, _ = pages_and_expected
    out = extract_batch(pages)
    for url, did in zip(out["url"].to_pylist(), out["doc_id"].to_pylist()):
        assert did == hash64(url)


def test_reject_accounting(pages_and_expected, ray_session):
    """Count-reconciliation invariant: rows_in == valid + rejected
    (the reference's report loop, harvester/solr_updater.py:841-861)."""
    pages, _ = pages_and_expected
    ds = ray.data.from_arrow(pages)
    extracted = extract_pages(ds, concurrency=2)
    valid, rejects = split_valid(extracted)
    n_valid = valid.count()
    rej = rejects.to_pandas()
    assert n_valid + int(rej["n"].sum()) == N_ROWS
    reasons = set(rej["reject_reason"])
    assert REJECT_EMPTY_TEXT not in reasons or rej.set_index("reject_reason")["n"].get(REJECT_EMPTY_TEXT, 0) >= 0
    # every reject reason is one of the documented ones
    assert reasons <= {"empty_text", "missing_lang"}


def test_pages_end_to_end(tmp_path, ray_session):
    """Full flagship loop on the synthetic corpus: extract → index →
    query, rank-identical to the pure-Python oracle over the same
    extracted text."""
    pages, expected = generate_pages(300)
    ds = ray.data.from_arrow(pages)
    valid, _ = split_valid(extract_pages(ds, concurrency=2))
    paths = build_index(
        valid.select_columns(["doc_id", "text"]), str(tmp_path / "pidx")
    )
    idx = InvertedIndex(paths.root, preload=True)

    # oracle over the same valid docs
    out = extract_batch(pages)
    rows = [
        (d, t)
        for d, t, l in zip(
            out["doc_id"].to_pylist(), out["text"].to_pylist(), out["lang"].to_pylist()
        )
        if t and l
    ]
    oracle = OracleIndex(rows)
    queries = generate_queries(40)
    for qid, q, mode in zip(
        queries["query_id"].to_pylist(),
        queries["query"].to_pylist(),
        queries["mode"].to_pylist(),
    ):
        got = idx.search(q, k=10, mode=mode)
        want = oracle.search(q, k=10, mode=mode)
        assert [d for d, _ in got] == [d for d, _ in want], (qid, q, mode)


# ── fielded extraction (<title> field vs <h1>/<p> body) ─────────────


def test_extract_fielded_goldens():
    from harvester_ray.stages.extract import _TextExtractor

    p = _TextExtractor()
    html = (
        b"<html><head><title>My &amp; Page</title></head>"
        b"<body><h1>Head</h1><p>one</p>"
        b"<script>junk()</script><p>two</p></body></html>"
    )
    assert p.extract_fielded(html) == ("My & Page", "Head\none\ntwo")
    # <p> BEFORE <title>: document order within each field preserved
    assert p.extract_fielded(
        b"<p>early</p><title>T</title><p>late</p>"
    ) == ("T", "early\nlate")
    # multiple titles join like any captured part
    assert p.extract_fielded(b"<title>a</title><title>b</title>") == (
        "a\nb",
        "",
    )
    assert p.extract_fielded(b"<div>nothing captured</div>") == ("", "")


def test_extract_fielded_token_multiset_identity():
    """tokens(extract()) == tokens(title) ⊎ tokens(body) — the
    invariant that lets the single-field index serve as the BM25F
    whole-document idf source."""
    from harvester_ray.functions.text import tokenize
    from harvester_ray.stages.extract import _TextExtractor

    p = _TextExtractor()
    for html in [
        b"<title>A b</title><h1>c</h1><p>d A</p>",
        b"<p>x</p><title>y z</title><p>x</p>",
        b"<h1>only body</h1>",
        b"",
    ]:
        whole = sorted(tokenize(p.extract(html)))
        title, body = p.extract_fielded(html)
        assert whole == sorted(tokenize(title) + tokenize(body)), html


def test_fielded_extractor_actor_schema(ray_session):
    import pyarrow as pa
    import ray.data

    from harvester_ray.stages.extract import extract_fielded_batch

    pages = pa.table(
        {
            "url": pa.array(["u1", "u2", "u3"], pa.string()),
            "text": pa.array([None, "pre extracted", None], pa.string()),
            "html": pa.array(
                [b"<title>T</title><p>b</p>", None, b""], pa.binary()
            ),
            "lang": pa.array(["en", "en", "en"], pa.string()),
        }
    )
    out = (
        ray.data.from_arrow(pages)
        .map_batches(
            extract_fielded_batch, batch_format="pyarrow", concurrency=2
        )
        .to_pandas()
        .set_index("url")
    )
    assert out.loc["u1", "title"] == "T" and out.loc["u1", "body"] == "b"
    # pass-through rows: structure is gone -> title unknown
    assert out.loc["u2", "title"] == "" and out.loc["u2", "body"] == "pre extracted"
    assert out.loc["u3", "reject_reason"] == "empty_text"
