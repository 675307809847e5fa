"""Incremental pages loop: new shard arrives -> only it extracts ->
delta-add; results rank-identical to a full rebuild (the reference's
changes-feed main loop, solr_updater.py:875-962, as batch shards)."""

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

from harvester_ray.corpus import generate_pages, write_corpus
from harvester_ray.index.maintenance import delta_dirs
from harvester_ray.index.query import InvertedIndex
from harvester_ray.pipelines.pages import build_pages_index, update_pages_index


def test_update_pages_index_delta_add(tmp_path, ray_session):
    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, 300, n_files=3)
    out = str(tmp_path / "out")

    # first call builds the base over the 3 shards
    paths = update_pages_index(corpus, out)
    assert delta_dirs(os.path.join(out, "index")) == []
    base_hits = InvertedIndex(paths.root, preload=True).search("w0 w1", k=10)
    assert base_hits

    # a NEW shard arrives (different seed slice -> new urls/doc_ids)
    pages, _ = generate_pages(400, seed=42)
    new_shard = pages.slice(300, 100)
    pq.write_table(
        new_shard, os.path.join(corpus, "pages", "pages-00003.parquet")
    )
    paths = update_pages_index(corpus, out)
    # the new shard landed as a delta, base untouched
    assert len(delta_dirs(os.path.join(out, "index"))) == 1
    inc = InvertedIndex(paths.root, preload=True)

    # oracle: full rebuild over all 4 shards
    full_out = str(tmp_path / "full")
    full = build_pages_index(corpus, full_out)
    full_idx = InvertedIndex(full.root, preload=True)
    assert inc.n_docs == full_idx.n_docs
    assert set(inc.dictionary) == set(full_idx.dictionary)
    for q in ("w0 w1", "w2 w17 w120", "page 7"):
        got = inc.search(q, k=10)
        want = full_idx.search(q, k=10)
        assert got == want, q

    # idempotent: calling again with nothing new adds no delta
    update_pages_index(corpus, out)
    assert len(delta_dirs(os.path.join(out, "index"))) == 1


def test_update_pages_auto_compaction(tmp_path, ray_session):
    """With merge_after_deltas=1 a delta add triggers merge_sources:
    the chain folds into one source, results unchanged, manifest keys
    all point at the base, and the next update still works."""
    from dataclasses import replace

    from harvester_ray.config import DEFAULT_INDEX_CONFIG

    cfg = replace(DEFAULT_INDEX_CONFIG, merge_after_deltas=1)
    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, 300, n_files=3)
    out = str(tmp_path / "out")
    update_pages_index(corpus, out, cfg)

    pages, _ = generate_pages(400, seed=42)
    pq.write_table(
        pages.slice(300, 100),
        os.path.join(corpus, "pages", "pages-00003.parquet"),
    )
    paths = update_pages_index(corpus, out, cfg)
    idx_dir = os.path.join(out, "index")
    assert delta_dirs(idx_dir) == []          # compacted
    merged = InvertedIndex(paths.root, preload=True)

    full = build_pages_index(corpus, str(tmp_path / "full"))
    full_idx = InvertedIndex(full.root, preload=True)
    assert merged.n_docs == full_idx.n_docs
    for q in ("w0 w1", "w2 w17 w120", "page 7"):
        assert merged.search(q, k=10) == full_idx.search(q, k=10), q

    # a further new shard delta-adds onto the compacted base
    more_pages, _ = generate_pages(500, seed=42)
    pq.write_table(
        more_pages.slice(400, 100),
        os.path.join(corpus, "pages", "pages-00004.parquet"),
    )
    update_pages_index(corpus, out, cfg)
    assert delta_dirs(idx_dir) == []          # compacted again (>=1)


def test_latest_snapshot_keeps_newest_per_url(ray_session):
    """Re-crawl resolution: one row per url; re-crawled urls keep the
    NEWER snapshot (marker html, +30 days), single-crawl urls keep
    their original row byte-identically."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data

    from harvester_ray.pipelines.pages import (
        RECRAWL_EVERY,
        latest_snapshot,
        pages_corpus,
        recrawl_corpus,
    )

    corpus = recrawl_corpus(200)
    pages = ray.data.read_parquet(os.path.join(corpus, "pages.parquet"))
    kept = latest_snapshot(pages).to_pandas().sort_values("url")
    base = pq.read_table(
        os.path.join(pages_corpus(200), "pages.parquet")
    ).to_pandas().sort_values("url")
    assert len(kept) == len(base) == 200
    assert kept["url"].is_unique
    k = kept.set_index("url")
    b = base.set_index("url")
    for url, row in b.iterrows():
        i = int(url.rsplit("/", 1)[1])
        if i % RECRAWL_EVERY == 0:
            assert k.loc[url, "warc_ts"] > row["warc_ts"]
            assert b"recrawl update" in k.loc[url, "html"]
        else:
            assert k.loc[url, "warc_ts"] == row["warc_ts"]
            assert k.loc[url, "html"] == row["html"]


def test_recrawl_sync_matches_full_rebuild(ray_session, tmp_path):
    """The upsert path after re-crawl resolution must rank-match a
    from-scratch rebuild over the SAME resolved corpus — the engine's
    merged corpus stats (N, df, avgdl across base + deltas + scoped
    tombstones) are exact, so BM25 ranks cannot drift."""
    import ray.data

    from harvester_ray.index.query import QueryActor
    from harvester_ray.pipelines.pages import (
        build_pages_index,
        latest_snapshot,
        pages_corpus,
        pages_recrawl_sync,
        recrawl_corpus,
    )

    n = 300
    got = (
        pages_recrawl_sync(n_pages=n)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )

    # full rebuild over the resolved (latest-snapshot) corpus
    rc = recrawl_corpus(n)
    resolved_dir = tmp_path / "resolved"
    os.makedirs(resolved_dir)
    t = pa.Table.from_pylist(
        latest_snapshot(
            ray.data.read_parquet(os.path.join(rc, "pages.parquet"))
        ).take_all()
    ).sort_by("url")
    pq.write_table(t, str(resolved_dir / "pages.parquet"))
    paths = build_pages_index(
        str(resolved_dir / "pages.parquet"), str(tmp_path / "idx")
    )
    queries_ds = ray.data.read_parquet(
        os.path.join(pages_corpus(n), "queries.parquet")
    )
    exp = (
        queries_ds.map_batches(
            QueryActor,
            fn_constructor_args=(paths.root,),
            fn_constructor_kwargs={"k": 10},
            batch_format="pyarrow",
            concurrency=2,
            batch_size=32,
        )
        .to_pandas()[["query_id", "rank", "doc_id"]]
        .astype("int64")
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    got = got.astype("int64")
    assert got.equals(exp)


def test_latest_snapshot_breaks_ts_ties_by_content_hash(
    tmp_path, ray_session
):
    """Rows tied at the max warc_ts must resolve to EXACTLY one row
    per url: the largest content hash wins; byte-identical full ties
    still collapse to one row (targeted per-url shuffle)."""
    import numpy as np
    import ray.data

    from harvester_ray.functions.text import hash64_bytes
    from harvester_ray.pipelines.pages import latest_snapshot

    ts = pa.array([1000, 1000, 1000, 500, 1000, 1000], pa.timestamp("us"))
    t = pa.table(
        {
            "url": pa.array(
                ["u/a", "u/a", "u/a", "u/b", "u/c", "u/c"], pa.string()
            ),
            "warc_ts": ts,
            "html": pa.array(
                [b"v1", b"v2", b"v3", b"old", b"same", b"same"],
                pa.binary(),
            ),
            "text": pa.nulls(6, pa.string()),
            "lang": pa.array(["en"] * 6, pa.string()),
        }
    )
    pq.write_table(t, str(tmp_path / "pages.parquet"))
    kept = (
        latest_snapshot(
            ray.data.read_parquet(str(tmp_path / "pages.parquet"))
        )
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert list(kept["url"]) == ["u/a", "u/b", "u/c"]
    # u/a: three distinct contents tied at max ts -> largest hash wins
    want = max([b"v1", b"v2", b"v3"], key=hash64_bytes)
    assert kept.loc[0, "html"] == want
    # u/b: single row passes through untouched
    assert kept.loc[1, "html"] == b"old"
    # u/c: byte-identical full tie still collapses to ONE row
    assert kept.loc[2, "html"] == b"same"


def _tree_state(root):
    """(relpath -> content md5): byte-level state of the work tree.
    Content, not mtimes — the lineage no-op legitimately rewrites an
    identical partition manifest."""
    import hashlib

    out = {}
    for r, _d, files in os.walk(root):
        for f in files:
            p = os.path.join(r, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = hashlib.md5(
                    fh.read()
                ).hexdigest()
    return out


def test_recrawl_threshold_abort_leaves_index_unchanged(ray_session):
    """The ingest-count rail (reference check_ingestion_counts,
    run_ingest.py:146-149): a delta past the configured thresholds
    raises a TYPED refusal BEFORE the shard overwrite, so a retry with
    sane thresholds starts from a byte-identical shard + index."""
    import shutil

    import pytest

    from harvester_ray.index.build import ENGINE_VERSION
    from harvester_ray.config import cache_root
    from harvester_ray.pipelines.pages import (
        IngestThresholds,
        IngestThresholdExceeded,
        pages_recrawl_sync,
    )

    n = 240  # private n_pages -> private work dir, no gate-cache clash
    work = os.path.join(cache_root(), f"recrawl_sync_{n}_m1_v{ENGINE_VERSION}")
    shutil.rmtree(work, ignore_errors=True)

    tight = IngestThresholds(added=100_000, changed=0, deleted=1_000)
    with pytest.raises(IngestThresholdExceeded) as ei:
        pages_recrawl_sync(n_pages=n, thresholds=tight)
    assert "changed" in ei.value.reasons
    assert ei.value.counts["changed"] > 0

    before = _tree_state(work)
    assert before  # base build happened before the refusal
    leftovers = [p for p in before if ".tmp-" in p]
    assert leftovers == []

    # refusal left everything byte-identical: re-refusing is stable
    with pytest.raises(IngestThresholdExceeded):
        pages_recrawl_sync(n_pages=n, thresholds=tight)
    assert _tree_state(work) == before

    # default thresholds clear the same delta and upsert normally
    got = pages_recrawl_sync(n_pages=n).to_pandas()
    assert len(got) > 0
    assert _tree_state(work) != before


def test_recrawl_ingest_counts_report(ray_session):
    """The gate entry's delta report: fixture deltas are exactly the
    every-RECRAWL_EVERY-th changed urls, nothing added or deleted, all
    under the reference thresholds."""
    from harvester_ray.pipelines.pages import (
        RECRAWL_EVERY,
        recrawl_ingest_counts,
    )

    t = recrawl_ingest_counts(n_pages=200).to_pandas().set_index("metric")
    assert t.loc["added", "count"] == 0
    assert t.loc["deleted", "count"] == 0
    assert t.loc["changed", "count"] == (200 + RECRAWL_EVERY - 1) // RECRAWL_EVERY
    assert (t["ok"] == 1).all()


def test_ingest_delta_counts_empty_both_sides(ray_session):
    """Both sides empty -> all-zero counts (Dataset.aggregate returns
    None on an empty dataset; round-5 review finding)."""
    import ray.data

    from harvester_ray.pipelines.pages import ingest_delta_counts

    empty = ray.data.from_arrow(
        pa.table(
            {
                "url": pa.array([], pa.string()),
                "html": pa.array([], pa.binary()),
            }
        )
    )
    counts = ingest_delta_counts(empty, empty)
    assert counts == {"added": 0, "changed": 0, "deleted": 0}


def test_ingest_delta_counts_classifies_each_url(ray_session):
    """Added, deleted, changed and unchanged urls, some repeated on one
    side with the same hash (or, for the changed case, a second hash),
    over several blocks — against the per-url set test."""
    import ray.data

    from harvester_ray.functions.text import hash64_bytes
    from harvester_ray.pipelines.pages import ingest_delta_counts

    old = [
        ("same", b"s"), ("changed", b"c0"), ("deleted", b"d"),
        ("dup_same", b"x"), ("dup_same", b"x"),
        ("dup_deleted", b"y"), ("dup_deleted", b"y"),
        ("dup_old_changed", b"p"), ("dup_old_changed", b"q"),
    ]
    new = [
        ("same", b"s"), ("changed", b"c1"), ("added", b"a"),
        ("dup_same", b"x"), ("dup_added", b"z"), ("dup_added", b"z"),
        ("dup_old_changed", b"p"),
    ]

    def ds(rows):
        return ray.data.from_items(
            [{"url": u, "html": h} for u, h in rows],
            override_num_blocks=3,
        )

    want = {"added": 0, "changed": 0, "deleted": 0}
    for url in {u for u, _ in old + new}:
        sides = {s for s, rows in ((0, old), (1, new))
                 for u, _ in rows if u == url}
        hashes = {hash64_bytes(h) for u, h in old + new if u == url}
        want["added"] += sides == {1}
        want["deleted"] += sides == {0}
        want["changed"] += sides == {0, 1} and len(hashes) > 1
    assert want == {"added": 2, "changed": 2, "deleted": 2}
    assert ingest_delta_counts(ds(old), ds(new)) == want
