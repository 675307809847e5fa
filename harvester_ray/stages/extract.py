"""HTML→text extraction: a stateless per-batch function run as tasks.

The new-engine analog of the reference's record→document transform
(``map_couch_to_solr_doc``, harvester/solr_updater.py:688-745) plus its
validation gate (``has_required_fields``, :445-473) with per-reason
reject counting (:841-861). Contract (BASELINE.json input_hint):
**byte-identical extracted text per url** — rows arriving with
non-null ``text`` pass through verbatim (cheap path); null ``text``
rows are parsed from ``html``.

Extraction spec: text content of <title>, <h1> and <p> elements in
document order, entities unescaped, joined by "\\n"; <script>/<style>
content dropped. corpus.generate_pages emits HTML whose expected text
follows exactly this spec, giving the golden byte-equality tests.

Ray shape: ``pages.map_batches(extract_batch, batch_format="pyarrow",
batch_size=EXTRACT_BATCH_ROWS, concurrency=cfg.extract_concurrency)``
— HTML rows are potentially MBs, so batches stay small and blocks stay
zero-copy Arrow (SURVEY.md §7 hard parts (a),(f)). The only state is a
stdlib HTMLParser, built per batch, so the map runs as tasks on pooled
workers and fuses with the parquet write after it. No actor holds a CPU
that the read and write tasks need, so extraction makes progress on a
one-CPU cluster.
"""

from __future__ import annotations

from html.parser import HTMLParser

import numpy as np
import pyarrow as pa

from harvester_ray.functions.text import hash64

# rows per extraction batch: HTML rows can be MBs, so batches stay small
# (FIXTURES/SURVEY hard part (f))
EXTRACT_BATCH_ROWS = 128

REJECT_EMPTY_TEXT = "empty_text"
REJECT_MISSING_LANG = "missing_lang"

_CAPTURE_TAGS = frozenset({"title", "h1", "p"})
_SKIP_TAGS = frozenset({"script", "style"})


class _TextExtractor(HTMLParser):
    """Single-pass extractor; reset + feed per document (one instance
    per batch)."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.parts: list[str] = []
        self.tags: list[str] = []
        self._buf: list[str] | None = None
        self._skip = 0

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_TAGS:
            self._skip += 1
        elif tag in _CAPTURE_TAGS and self._skip == 0:
            self._buf = []

    def handle_endtag(self, tag):
        if tag in _SKIP_TAGS:
            self._skip = max(0, self._skip - 1)
        elif tag in _CAPTURE_TAGS and self._buf is not None:
            self.parts.append("".join(self._buf))
            self.tags.append(tag)
            self._buf = None

    def handle_data(self, data):
        if self._buf is not None and self._skip == 0:
            self._buf.append(data)

    def extract(self, html_bytes: bytes) -> str:
        self.reset()
        self.parts = []
        self.tags = []
        self._buf = None
        self._skip = 0
        self.feed(html_bytes.decode("utf-8", errors="replace"))
        self.close()
        return "\n".join(self.parts)

    def extract_fielded(self, html_bytes: bytes) -> tuple[str, str]:
        """(title, body): <title> element contents vs everything else
        captured (<h1>/<p>), each joined by "\\n" in document order —
        the REAL multi-field index document of the reference
        (map_couch_to_solr_doc's title field,
        harvester/solr_updater.py:64-134). Token multisets satisfy
        tokens(extract()) == tokens(title) ⊎ tokens(body), so the
        single-field index over extract() text is the exact
        whole-document idf source for BM25F over these fields."""
        self.extract(html_bytes)
        title = "\n".join(
            p for p, t in zip(self.parts, self.tags) if t == "title"
        )
        body = "\n".join(
            p for p, t in zip(self.parts, self.tags) if t != "title"
        )
        return title, body


def _row_keys(batch: pa.Table) -> dict[str, pa.Array]:
    """The (doc_id, url) columns every extracted table starts with."""
    urls = batch["url"].to_pylist()
    doc_ids = np.fromiter((hash64(u) for u in urls), np.int64, len(urls))
    return {"doc_id": pa.array(doc_ids, pa.int64()), "url": pa.array(urls, pa.string())}


def _reject(empty: bool, lang: str | None) -> str | None:
    """The validation gate (has_required_fields): text, then language."""
    if empty:
        return REJECT_EMPTY_TEXT
    return None if lang else REJECT_MISSING_LANG


def extract_batch(batch: pa.Table) -> pa.Table:
    """One batch of pages → (doc_id, url, text, lang, n_chars,
    reject_reason[null=valid]) (FIXTURES.md §3 `extracted`). A plain
    function: the parser is built per batch (microseconds), so the stage
    runs as tasks, never as an actor pool."""
    parser = _TextExtractor()
    langs = batch["lang"].to_pylist()
    out_text = [
        parser.extract(html or b"") if text is None else text
        for text, html in zip(batch["text"].to_pylist(), batch["html"].to_pylist())
    ]
    return pa.table(
        {
            **_row_keys(batch),
            "text": pa.array(out_text, pa.large_string()),
            "lang": pa.array(langs, pa.string()),
            "n_chars": pa.array([len(t) for t in out_text], pa.int64()),
            "reject_reason": pa.array(
                [_reject(not t, lang) for t, lang in zip(out_text, langs)], pa.string()
            ),
        }
    )


def extract_pages(
    pages: "ray.data.Dataset", concurrency: int | None = None
) -> "ray.data.Dataset":
    """pages (url, warc_ts, html, text, lang) → extracted table, as
    tasks. ``concurrency`` caps the concurrent extraction tasks (None:
    Ray Data's default); a write given the same cap fuses into them."""
    return pages.map_batches(
        extract_batch,
        batch_format="pyarrow",
        batch_size=EXTRACT_BATCH_ROWS,
        concurrency=concurrency,
        zero_copy_batch=True,
    )


def split_valid(extracted: "ray.data.Dataset"):
    """(valid rows, reject-reason counts Dataset) — the reference's
    typed-exception report (harvester/solr_updater.py:841-861) as a
    grouped count. Count-reconciliation invariant:
    rows_in == valid + sum(reject counts)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    valid = extracted.map_batches(
        lambda t: t.filter(pc.is_null(t["reject_reason"])),
        batch_format="pyarrow",
    )
    rejects = (
        extracted.map_batches(
            lambda t: t.filter(pc.is_valid(t["reject_reason"])),
            batch_format="pyarrow",
        )
        .groupby("reject_reason")
        .aggregate(Count(alias_name="n"))
    )
    return valid, rejects


def extract_fielded_batch(batch: pa.Table) -> pa.Table:
    """MULTI-FIELD extraction: (doc_id, url, title, body, lang,
    reject_reason) — the engine-side analog of the reference's
    many-field index document (title/description fields of
    map_couch_to_solr_doc, harvester/solr_updater.py:64-134). Rows
    arriving with pre-extracted ``text`` have no structure left, so
    they fall back to title="" / body=text (the reference's
    fill_in_title 'Title unknown' default, :611-622). A plain function,
    like extract_batch."""
    parser = _TextExtractor()
    langs = batch["lang"].to_pylist()
    fields = [
        parser.extract_fielded(html or b"") if text is None else ("", text)
        for text, html in zip(batch["text"].to_pylist(), batch["html"].to_pylist())
    ]
    return pa.table(
        {
            **_row_keys(batch),
            "title": pa.array([t for t, _ in fields], pa.large_string()),
            "body": pa.array([b for _, b in fields], pa.large_string()),
            "lang": pa.array(langs, pa.string()),
            "reject_reason": pa.array(
                [_reject(not (t or b), lang) for (t, b), lang in zip(fields, langs)],
                pa.string(),
            ),
        }
    )
