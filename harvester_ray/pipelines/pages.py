"""The flagship pages pipeline: Common-Crawl-style pages → HTML
extraction (stateless tasks, validate + reject counts) → inverted
index → BM25 query set. The full north-star loop (fetch →
transform/validate → index → query), with every stage checkpointed +
resumable via state.lineage.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import replace

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data

from harvester_ray.config import DEFAULT_INDEX_CONFIG, IndexConfig, cache_root
from harvester_ray.corpus import write_corpus
from harvester_ray.index.build import ENGINE_VERSION, IndexPaths, build_index
from harvester_ray.pipelines.fulltext import _query_pool
from harvester_ray.stages.extract import EXTRACT_BATCH_ROWS, extract_pages
from harvester_ray.state.lineage import dir_fingerprint


def pages_corpus(n_pages: int = 500, seed: int = 42) -> str:
    """Deterministic synthetic pages+queries parquet, cached on disk."""
    out = os.path.join(cache_root(), f"pages_{n_pages}_s{seed}")
    if not os.path.exists(os.path.join(out, "pages.parquet")):
        write_corpus(out, n_pages, seed)
    return out


def _extract_page_files(
    pages_path: str, out_dir: str, cfg: IndexConfig
) -> tuple[list[str], list[dict], str]:
    """Extract every page file of ``pages_path`` (a sharded pages/ dir,
    a single pages.parquet, or a direct file path) into
    ``out_dir/extracted``, one partition per file. Per-partition
    lineage: an interrupted or repeated run re-extracts only the
    partitions whose outputs are missing or stale (north-rule resume).
    Returns (page files, their lineage records, the extracted dir)."""
    from harvester_ray.state.partitioned import run_partitioned_stage

    shard_dir = os.path.join(pages_path, "pages")
    if os.path.isdir(shard_dir):
        page_files = sorted(glob.glob(os.path.join(shard_dir, "*.parquet")))
    elif os.path.isdir(pages_path):
        page_files = [os.path.join(pages_path, "pages.parquet")]
    else:
        page_files = [pages_path]

    def extract_one(src: str, tmp: str) -> None:
        # one read block per file (Ray would otherwise split even a
        # small file into a block per CPU, one task each), and the write
        # shares the extraction's task cap so the two fuse into one task
        pages = ray.data.read_parquet(src, override_num_blocks=1)
        extract_pages(
            pages, concurrency=cfg.extract_concurrency
        ).write_parquet(tmp, concurrency=cfg.extract_concurrency)

    extracted_dir = os.path.join(out_dir, "extracted")
    recs = run_partitioned_stage(
        "extract", page_files, extracted_dir, extract_one,
        params=f"extractor=v{ENGINE_VERSION}",
    )
    return page_files, recs, extracted_dir


def _valid_docs(part_dirs: list[str]) -> "ray.data.Dataset":
    """(doc_id, text) of the valid rows of extracted partitions."""
    files = [
        f for d in part_dirs for f in sorted(glob.glob(os.path.join(d, "*.parquet")))
    ]
    return ray.data.read_parquet(
        files, columns=["doc_id", "text", "reject_reason"]
    ).map_batches(
        lambda t: t.filter(pc.is_null(t["reject_reason"])).select(
            ["doc_id", "text"]
        ),
        batch_format="pyarrow",
    )


def build_pages_index(
    pages_path: str,
    out_dir: str,
    cfg: IndexConfig = DEFAULT_INDEX_CONFIG,
) -> IndexPaths:
    """pages.parquet → extracted/ (checkpoint, with reject report) →
    index stages. Resume: unchanged input skips extraction AND the
    downstream index stages (their fingerprints chain)."""
    from harvester_ray.state.partitioned import partition_outputs

    os.makedirs(out_dir, exist_ok=True)
    _, _, extracted_dir = _extract_page_files(pages_path, out_dir, cfg)
    parts = partition_outputs(extracted_dir)
    part_files = [
        f for d in parts for f in sorted(glob.glob(os.path.join(d, "*.parquet")))
    ]

    # reject report (the reference's per-reason rejection counts,
    # harvester/solr_updater.py:841-861) — written next to the stage
    rejects = (
        ray.data.read_parquet(part_files, columns=["reject_reason"])
        .map_batches(
            lambda t: t.filter(pc.is_valid(t["reject_reason"])),
            batch_format="pyarrow",
        )
        .groupby("reject_reason")
        .aggregate(ray.data.aggregate.Count(alias_name="n"))
        .to_pandas()
    )
    with open(os.path.join(out_dir, "reject_report.json"), "w") as f:
        json.dump(dict(zip(rejects["reject_reason"], rejects["n"].astype(int))), f)

    return build_index(
        _valid_docs(parts),
        os.path.join(out_dir, "index"),
        cfg,
        input_fingerprint=dir_fingerprint(extracted_dir),
    )


def update_pages_index(
    pages_path: str,
    out_dir: str,
    cfg: IndexConfig = DEFAULT_INDEX_CONFIG,
) -> IndexPaths:
    """The reference's incremental main loop (solr_updater.main,
    harvester/solr_updater.py:875-962: consume changes since the
    cursor, upsert into the live index) re-expressed for batch shards:

    - extraction runs under partition lineage, so only NEW/changed page
      shards extract (the `last_seq` cursor analog);
    - a manifest of already-indexed partition keys
      (``indexed_partitions.json``) plays the persisted-cursor role;
    - docs from partitions not yet in the manifest are added as a
      DELTA source (maintenance.add_docs) — no rebuild of the base.

    First call (no index yet) builds the base over everything. Changed
    (re-extracted) partitions are upserted via ``upsert_docs``.
    """
    from harvester_ray.index.maintenance import add_docs, upsert_docs
    from harvester_ray.state.partitioned import partition_key, partition_outputs

    os.makedirs(out_dir, exist_ok=True)
    page_files, recs, extracted_dir = _extract_page_files(pages_path, out_dir, cfg)
    re_extracted = {
        partition_key(p)
        for p, r in zip(page_files, recs)
        if not r.get("skipped")
    }

    manifest_path = os.path.join(out_dir, "indexed_partitions.json")
    indexed: dict[str, str] = {}
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            indexed = json.load(f)

    idx_dir = os.path.join(out_dir, "index")
    parts = partition_outputs(extracted_dir)
    by_key = {os.path.basename(p).removeprefix("part-"): p for p in parts}

    if not os.path.exists(os.path.join(idx_dir, "stats.json")):
        paths = build_index(
            _valid_docs(parts), idx_dir, cfg,
            input_fingerprint=dir_fingerprint(extracted_dir),
        )
        indexed = {k: "base" for k in by_key}
    else:
        paths = IndexPaths(idx_dir)
        new_keys = [k for k in by_key if k not in indexed]
        changed_keys = [k for k in by_key if k in indexed and k in re_extracted]
        if new_keys:
            paths = add_docs(idx_dir, _valid_docs([by_key[k] for k in new_keys]), cfg)
            for k in new_keys:
                indexed[k] = os.path.basename(paths.root)
        if changed_keys:
            paths = upsert_docs(
                idx_dir, _valid_docs([by_key[k] for k in changed_keys]), cfg
            )
            for k in changed_keys:
                indexed[k] = os.path.basename(paths.root)
        # auto-compaction policy (the Lucene merge-policy analog):
        # once the delta chain is long enough that per-query
        # multi-source overhead matters, fold everything into one
        # source with the no-retokenize merge. Crash-safe swap: the
        # old dir is renamed away FIRST, so a crash between renames
        # leaves no index dir and the next call rebuilds under
        # lineage (cheap — extraction is already cached).
        from harvester_ray.index.maintenance import delta_dirs, merge_sources

        if len(delta_dirs(idx_dir)) >= cfg.merge_after_deltas:
            merged_tmp = os.path.join(out_dir, "index.merged")
            merge_sources(idx_dir, merged_tmp)
            old = f"{idx_dir}.old-{os.getpid()}"
            os.rename(idx_dir, old)
            os.rename(merged_tmp, idx_dir)
            import shutil

            shutil.rmtree(old, ignore_errors=True)
            indexed = {k: "base" for k in indexed}
        paths = IndexPaths(idx_dir)
    tmp = f"{manifest_path}.tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(indexed, f)
    os.replace(tmp, manifest_path)
    return paths


def pages_flagship(sf_dir: str | None = None, n_pages: int = 500) -> "ray.data.Dataset":
    """End-to-end flagship on the synthetic corpus (deterministic;
    ``sf_dir`` ignored — the pages table is generated, FIXTURES.md §1):
    returns (query_id, rank, doc_id) for the generated query set."""
    corpus = pages_corpus(n_pages)
    out_dir = os.path.join(cache_root(), f"pages_idx_{n_pages}_v{ENGINE_VERSION}")
    paths = build_pages_index(corpus, out_dir)
    return _query_pool(
        paths, pq.read_table(os.path.join(corpus, "queries.parquet")), k=10
    )


def pages_bm25f(sf_dir: str | None = None, n_pages: int = 500) -> pa.Table:
    """(query_id, rank, doc_id) — BM25F over the REAL extracted fields
    of the pages corpus: <title> element content is the title field,
    <h1>/<p> content the body (stages/extract.extract_fielded_batch),
    ranked title^2 + body through index/fielded.FieldedIndex. This is
    the reference's many-field index document end to end — fetch →
    fielded extract → per-field index → field-boosted search
    (map_couch_to_solr_doc's title field + Solr qf,
    harvester/solr_updater.py:64-134). Rows-only driver check (HTML
    parsing is not SQL-expressible); the field split is pinned by
    byte-level goldens in tests/test_extract.py.

    tokens(text) == tokens(title) ⊎ tokens(body), so the flagship
    single-field pages index doubles as the exact whole-document idf
    source."""
    import numpy as np

    from harvester_ray.index.fielded import (
        FieldedIndex,
        FieldSpec,
        build_field_indexes_from,
    )
    from harvester_ray.index.query import InvertedIndex
    from harvester_ray.pipelines.fulltext import (
        BM25F_B_BODY,
        BM25F_B_TITLE,
        BM25F_W_BODY,
        BM25F_W_TITLE,
    )
    from harvester_ray.stages.extract import extract_fielded_batch

    corpus = pages_corpus(n_pages)
    main_paths = build_pages_index(
        corpus, os.path.join(cache_root(), f"pages_idx_{n_pages}_v{ENGINE_VERSION}")
    )
    with open(main_paths.stats) as f:
        n_docs = int(json.load(f)["n_docs"])
    fdir = os.path.join(cache_root(), f"pages_fidx_{n_pages}_v{ENGINE_VERSION}")
    field_paths = {
        name: IndexPaths(os.path.join(fdir, name))
        for name in ("title", "body")
    }
    if not all(os.path.exists(p.stats) for p in field_paths.values()):
        ext = ray.data.read_parquet(
            os.path.join(corpus, "pages.parquet")
        ).map_batches(
            extract_fielded_batch,
            batch_format="pyarrow",
            batch_size=EXTRACT_BATCH_ROWS,
            concurrency=DEFAULT_INDEX_CONFIG.extract_concurrency,
            zero_copy_batch=True,
        )
        valid = ext.map_batches(
            lambda t: t.filter(pc.is_null(t["reject_reason"])).select(
                ["doc_id", "title", "body"]
            ),
            batch_format="pyarrow",
        )
        import dataclasses

        # tiny-corpus build config: 128 buckets × 2 field builds is
        # pure fixed file overhead at 500 docs (layout is proven
        # rank-invariant; readers are stats-driven)
        small_cfg = dataclasses.replace(
            DEFAULT_INDEX_CONFIG, num_term_buckets=8
        )
        field_paths = build_field_indexes_from(
            valid, fdir, ("title", "body"), n_docs, small_cfg
        )
    fidx = FieldedIndex(
        InvertedIndex(main_paths.root, preload=True),
        [
            (
                FieldSpec("title", BM25F_W_TITLE, BM25F_B_TITLE),
                InvertedIndex(field_paths["title"].root),
            ),
            (
                FieldSpec("body", BM25F_W_BODY, BM25F_B_BODY),
                InvertedIndex(field_paths["body"].root),
            ),
        ],
    )
    queries = ray.data.read_parquet(
        os.path.join(corpus, "queries.parquet")
    ).to_pandas()
    qids, ranks, dids = [], [], []
    for qid, q in zip(queries["query_id"], queries["query"]):
        for rank, doc_id, _fp in fidx.search(str(q), k=10):
            qids.append(int(qid))
            ranks.append(rank)
            dids.append(doc_id)
    return pa.table(
        {
            "query_id": pa.array(np.asarray(qids, np.int64), pa.int64()),
            "rank": pa.array(np.asarray(ranks, np.int64), pa.int64()),
            "doc_id": pa.array(np.asarray(dids, np.int64), pa.int64()),
        }
    )


# -- re-crawl snapshot resolution ----------------------------------------

RECRAWL_EVERY = 3       # every 3rd url gets a second (newer) snapshot
_SNAP_GUARD_BYTES = 64 << 20  # dup-url side table broadcast guard


def recrawl_corpus(n_pages: int = 500, seed: int = 42) -> str:
    """Deterministic re-crawl input: the pages table UNION a newer
    snapshot (warc_ts + 30 days, html re-rendered with a marker
    paragraph) for every RECRAWL_EVERY-th url — the multi-snapshot
    shape a real Common-Crawl dump has for the same url across
    crawls. Cached on disk like pages_corpus."""
    import numpy as np

    base = pages_corpus(n_pages, seed)
    out = os.path.join(cache_root(), f"recrawl_{n_pages}_s{seed}")
    dst = os.path.join(out, "pages.parquet")
    if not os.path.exists(dst):
        os.makedirs(out, exist_ok=True)
        t = pq.read_table(os.path.join(base, "pages.parquet"))
        keep = np.arange(len(t)) % RECRAWL_EVERY == 0
        snap = t.filter(pa.array(keep))
        marker = pa.array(
            [
                (h.as_py() or b"").replace(
                    b"</body>", b"<p>recrawl update</p></body>"
                )
                for h in snap["html"]
            ],
            pa.binary(),
        )
        ts = pc.add(
            snap["warc_ts"].cast(pa.int64()),
            pa.scalar(30 * 24 * 3600 * 10**6, pa.int64()),
        ).cast(pa.timestamp("us"))
        snap = pa.table(
            {
                "url": snap["url"],
                "warc_ts": ts,
                "html": marker,
                "text": pa.nulls(len(snap), pa.string()),
                "lang": snap["lang"],
            }
        )
        pq.write_table(
            pa.concat_tables([t, snap]), dst + ".tmp", row_group_size=2048
        )
        os.replace(dst + ".tmp", dst)
    return out


def latest_snapshot(pages: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-url keep-NEWEST snapshot over a multi-crawl pages table —
    the dedup a Common-Crawl-style corpus needs before extraction
    (the reference's couch sync has the same semantics: a re-harvested
    record replaces the stored doc by id). Contract: exactly one row
    per url. Rows tied at the max warc_ts break deterministically by
    content hash (largest hash64 of the html bytes wins); byte-
    identical full ties collapse through a targeted per-url shuffle of
    ONLY the tied urls' rows.

    Scale shape: the heavy (html) payload is never shuffled on the
    common path. Pass 1 projects (url, warc_ts) only and finds urls
    with >1 snapshot plus their max ts (light groupby — bytes ∝
    re-crawled urls, size-guarded BEFORE it lands on the driver).
    Pass 2 streams the full table once, keeping a row iff its url is
    un-duplicated or its ts is the winner (vectorized index_in +
    timestamp compare against the broadcast dup map). Ties — rare in
    real dumps — divert only their own rows through a groupby(url)
    head-by-content-hash. Past the guard, swap in the partitioned
    anti-join twin (stages/joins.partitioned_join keyed by url-hash)
    — same two-pass shape, one extra payload shuffle of the dup rows."""
    import numpy as np
    from ray.data.aggregate import Count, Max

    from harvester_ray.functions.text import hash64_bytes
    from harvester_ray.stages.joins import bounded_side_table

    meta = (
        pages.select_columns(["url", "warc_ts"])
        .groupby("url")
        .aggregate(Count(alias_name="n"), Max("warc_ts", alias_name="max_ts"))
    )

    def only_dups(t: pa.Table) -> pa.Table:
        if len(t) == 0 or "n" not in t.column_names:
            return pa.schema(
                [("url", pa.string()), ("max_ts", pa.timestamp("us"))]
            ).empty_table()
        d = t.filter(pc.greater(t["n"], 1))
        return pa.table(
            {
                "url": d["url"].cast(pa.string()),
                "max_ts": d["max_ts"].cast(pa.timestamp("us")),
            }
        )

    dup_rows = bounded_side_table(
        meta.map_batches(only_dups, batch_format="pyarrow"),
        _SNAP_GUARD_BYTES,
        "latest_snapshot dup-url table",
    )
    dup_urls = pa.array([r["url"] for r in dup_rows], pa.string())
    dup_ts = np.array(
        [r["max_ts"] for r in dup_rows], dtype="datetime64[us]"
    ).astype(np.int64) if dup_rows else np.empty(0, np.int64)
    dup_ref = ray.put((dup_urls, dup_ts))

    # tie detection: count rows sitting AT the max ts per dup url
    # (another light projection pass; output ⊆ the guarded dup set)
    def at_max(t: pa.Table) -> pa.Table:
        urls, ts_max = ray.get(dup_ref)
        idx = pc.index_in(t["url"], value_set=urls)
        pos = idx.to_numpy(zero_copy_only=False)
        valid = pc.is_valid(idx).to_numpy(zero_copy_only=False)
        ts = t["warc_ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        m = valid.copy()
        if valid.any():
            m[valid] = ts[valid] == dup_ts[pos[valid].astype(np.int64)]
        return pa.table({"url": t["url"].filter(pa.array(m))})

    tie_counts = (
        pages.select_columns(["url", "warc_ts"])
        .map_batches(at_max, batch_format="pyarrow")
        .groupby("url")
        .aggregate(Count(alias_name="n_at_max"))
    )
    tied = sorted(
        r["url"]
        for r in bounded_side_table(
            tie_counts.map_batches(
                lambda t: t.filter(pc.greater(t["n_at_max"], 1)).select(
                    ["url"]
                )
                if len(t) and "n_at_max" in t.column_names
                else pa.schema([("url", pa.string())]).empty_table(),
                batch_format="pyarrow",
            ),
            _SNAP_GUARD_BYTES,
            "latest_snapshot tied-url table",
        )
    )
    tied_arr = pa.array(tied, pa.string())
    tied_ref = ray.put(tied_arr)

    def keep_latest(t: pa.Table) -> pa.Table:
        urls, ts_max = ray.get(dup_ref)
        idx = pc.index_in(t["url"], value_set=urls)
        pos = idx.to_numpy(zero_copy_only=False)
        ts = t["warc_ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        is_dup = pc.is_valid(idx).to_numpy(zero_copy_only=False)
        win = np.ones(len(t), bool)
        if is_dup.any():
            di = pos[is_dup].astype(np.int64)
            win[is_dup] = ts[is_dup] == ts_max[di]
        if len(tied):
            # tied urls resolve in their own shuffled branch
            t_tied = pc.is_in(
                t["url"], value_set=ray.get(tied_ref)
            ).to_numpy(zero_copy_only=False)
            win &= ~t_tied
        return t.filter(pa.array(win))

    kept = pages.map_batches(keep_latest, batch_format="pyarrow")
    if not tied:
        return kept

    def only_tied_at_max(t: pa.Table) -> pa.Table:
        urls, ts_max = ray.get(dup_ref)
        m = pc.is_in(t["url"], value_set=ray.get(tied_ref)).to_numpy(
            zero_copy_only=False
        )
        if m.any():
            idx = pc.index_in(t["url"], value_set=urls)
            pos = idx.to_numpy(zero_copy_only=False)
            ts = t["warc_ts"].cast(pa.int64()).to_numpy(
                zero_copy_only=False
            )
            at = np.zeros(len(t), bool)
            at[m] = ts[m] == ts_max[pos[m].astype(np.int64)]
            m = at
        return t.filter(pa.array(m))

    def head_by_content(g: pa.Table) -> pa.Table:
        h = [hash64_bytes(v.as_py() or b"") for v in g["html"]]
        return g.take([int(np.argmax(np.array(h, np.int64)))])

    resolved = (
        pages.map_batches(only_tied_at_max, batch_format="pyarrow")
        .groupby("url")
        .map_groups(head_by_content, batch_format="pyarrow")
    )
    return kept.union(resolved)


# --- ingest-count threshold guard ---------------------------------------
# The reference refuses to finish an ingest whose delta is implausibly
# large: run_ingest.py:146-149 runs check_ingestion_counts after
# save/delete, against per-collection thresholds
# (collection_registry_client.py:133-137 — added/changed/deleted =
# 100000/100000/1000). A bad source overwrite (empty re-crawl, wrong
# shard) would otherwise silently rebuild the index; the sync loop here
# applies the same rail BEFORE the shard overwrite, so a refused delta
# leaves shard and index byte-identical.
from dataclasses import dataclass


@dataclass(frozen=True)
class IngestThresholds:
    added: int = 100_000
    changed: int = 100_000
    deleted: int = 1_000


DEFAULT_INGEST_THRESHOLDS = IngestThresholds()


class IngestThresholdExceeded(RuntimeError):
    """Typed refusal: which counters tripped, their values, and the
    configured thresholds (the reference's check_ingestion_counts
    failure mode)."""

    def __init__(self, reasons: list[str], counts: dict, thresholds):
        self.reasons = list(reasons)
        self.counts = dict(counts)
        self.thresholds = thresholds
        super().__init__(
            "ingest delta exceeds thresholds: "
            + ", ".join(
                f"{r}={counts[r]} > {getattr(thresholds, r)}"
                for r in reasons
            )
        )


def ingest_delta_counts(
    old_pages: "ray.data.Dataset", new_pages: "ray.data.Dataset"
) -> dict[str, int]:
    """{'added': n, 'changed': n, 'deleted': n} between two one-row-
    per-url pages tables, keyed by url with content compared by
    hash64(html).

    Scale shape: each side projects to (url, content-hash, side) —
    the html payload never shuffles — then one url-keyed groupby
    reduces to built-in min/max of side and hash, a vectorized map
    classifies each url, and per-block partial sums fold to THREE
    scalars on the driver. min_h != max_h holds exactly when a url
    carries more than one distinct hash."""
    from ray.data.aggregate import Max, Min, Sum

    from harvester_ray.functions.text import hash64_bytes

    def sig(side: int):
        def fn(t: pa.Table) -> pa.Table:
            h = [hash64_bytes(v.as_py() or b"") for v in t["html"]]
            return pa.table(
                {
                    "url": t["url"].cast(pa.string()),
                    "h": pa.array(h, pa.int64()),
                    "side": pa.array([side] * t.num_rows, pa.int64()),
                }
            )

        return fn

    both = old_pages.map_batches(sig(0), batch_format="pyarrow").union(
        new_pages.map_batches(sig(1), batch_format="pyarrow")
    )

    def classify(t: pa.Table) -> pa.Table:
        lo = t["min_side"].to_numpy(zero_copy_only=False)
        hi = t["max_side"].to_numpy(zero_copy_only=False)
        two_hashes = (
            t["min_h"].to_numpy(zero_copy_only=False)
            != t["max_h"].to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "added": pa.array(lo == 1, pa.int64()),
                "changed": pa.array(
                    (lo == 0) & (hi == 1) & two_hashes, pa.int64()
                ),
                "deleted": pa.array(hi == 0, pa.int64()),
            }
        )

    agg = (
        both.groupby("url")
        .aggregate(
            Min("side", alias_name="min_side"),
            Max("side", alias_name="max_side"),
            Min("h", alias_name="min_h"),
            Max("h", alias_name="max_h"),
        )
        .map_batches(classify, batch_format="pyarrow")
        .aggregate(
            Sum("added", alias_name="added"),
            Sum("changed", alias_name="changed"),
            Sum("deleted", alias_name="deleted"),
        )
    ) or {}  # Dataset.aggregate returns None when both sides are empty
    return {k: int(agg.get(k) or 0) for k in ("added", "changed", "deleted")}


def check_ingest_counts(
    counts: dict[str, int],
    thresholds: IngestThresholds = DEFAULT_INGEST_THRESHOLDS,
) -> None:
    """Raise IngestThresholdExceeded when any counter passes its
    threshold (reference: check_ingestion_counts)."""
    reasons = [
        k
        for k in ("added", "changed", "deleted")
        if counts.get(k, 0) > getattr(thresholds, k)
    ]
    if reasons:
        raise IngestThresholdExceeded(reasons, counts, thresholds)


def recrawl_ingest_counts(
    sf_dir: str | None = None, n_pages: int = 500
) -> pa.Table:
    """Rows-only gate entry for the threshold rail: the delta report
    the sync loop checks before overwriting its input shard —
    (metric, count, threshold, ok) over the deterministic base vs
    resolved re-crawl corpora. The fixture delta sits far under the
    reference thresholds, so ok = 1 everywhere; the abort path (index
    untouched after refusal) is pinned in tests/test_update_pages.py."""
    base = pages_corpus(n_pages)
    rc = recrawl_corpus(n_pages)
    old = ray.data.read_parquet(os.path.join(base, "pages.parquet"))
    new = latest_snapshot(
        ray.data.read_parquet(os.path.join(rc, "pages.parquet"))
    )
    counts = ingest_delta_counts(old, new)
    th = DEFAULT_INGEST_THRESHOLDS
    metrics = ["added", "changed", "deleted"]
    return pa.table(
        {
            "metric": pa.array(metrics, pa.string()),
            "count": pa.array(
                [counts[m] for m in metrics], pa.int64()
            ),
            "threshold": pa.array(
                [getattr(th, m) for m in metrics], pa.int64()
            ),
            "ok": pa.array(
                [int(counts[m] <= getattr(th, m)) for m in metrics],
                pa.int64(),
            ),
        }
    )


def pages_latest_snapshot(
    sf_dir: str | None = None, n_pages: int = 500
) -> "ray.data.Dataset":
    """Driver entry (rows-only): resolve the re-crawl corpus to one
    row per url and emit (url, warc_ts, is_recrawl) — deterministic,
    payload-free output schema."""
    corpus = recrawl_corpus(n_pages)
    pages = ray.data.read_parquet(os.path.join(corpus, "pages.parquet"))
    kept = latest_snapshot(pages)

    def emit(t: pa.Table) -> pa.Table:
        has_marker = pc.match_substring(
            t["html"].cast(pa.string()), "recrawl update"
        )
        return pa.table(
            {
                "url": t["url"].cast(pa.string()),
                "warc_ts": t["warc_ts"].cast(pa.timestamp("us")),
                "is_recrawl": has_marker.cast(pa.int64()),
            }
        )

    return kept.map_batches(emit, batch_format="pyarrow")


def pages_recrawl_sync(
    sf_dir: str | None = None,
    n_pages: int = 500,
    thresholds: IngestThresholds = DEFAULT_INGEST_THRESHOLDS,
) -> "ray.data.Dataset":
    """The reference's incremental sync loop under RE-CRAWL semantics
    (solr_updater.main consumes changed couch docs since the cursor
    and upserts them into the live index, solr_updater.py:875-962),
    end to end on the multi-snapshot pages fixture:

      1. base index over the original crawl (update_pages_index);
      2. a re-crawl arrives: latest_snapshot resolves (url, warc_ts)
         to one newest row per url and — after the ingest-count rail
         clears the added/changed/deleted delta (check_ingest_counts;
         reference run_ingest.py:146-149) — OVERWRITES the input
         shard; a refused delta raises IngestThresholdExceeded and
         leaves shard + index untouched;
      3. update_pages_index re-runs: partition lineage detects the
         changed input fingerprint, re-extracts ONLY that shard, and
         upserts the changed docs (same doc_id = hash64(url), so the
         delta replaces the stale rows via scoped tombstones);
      4. the generated query set is served from the updated index.

    Deterministic + idempotent: a second call finds byte-identical
    inputs (skipped by lineage) and returns the same rows. Parity with
    a from-scratch rebuild over the resolved corpus is pinned in
    tests/test_update_pages.py. Fixture-scale note: the resolved shard
    is written as ONE deterministic file (the resolved Arrow blocks
    concatenated on the driver at n<=500 rows); at
    scale the re-crawl source writes hash-partitioned shards with
    stable names, exactly like the engine's partitioned layouts.
    Returns (query_id, rank, doc_id) — rows-only driver check."""
    import shutil

    rc = recrawl_corpus(n_pages)
    base = pages_corpus(n_pages)
    work = os.path.join(
        cache_root(), f"recrawl_sync_{n_pages}_m1_v{ENGINE_VERSION}"
    )
    # compact immediately after any delta: merged stats purge
    # tombstones, so serving is EXACTLY the from-scratch rebuild
    # (Lucene-style un-merged stats count dead docs in N/df/avgdl)
    cfg = replace(DEFAULT_INDEX_CONFIG, merge_after_deltas=1)
    input_dir = os.path.join(work, "input")
    shard_dir = os.path.join(input_dir, "pages")
    shard = os.path.join(shard_dir, "shard-000.parquet")
    out_dir = os.path.join(work, "out")
    os.makedirs(shard_dir, exist_ok=True)
    if not os.path.exists(shard):
        shutil.copyfile(os.path.join(base, "pages.parquet"), shard)
    update_pages_index(input_dir, out_dir, cfg)  # base (or lineage no-op)

    resolved = latest_snapshot(
        ray.data.read_parquet(os.path.join(rc, "pages.parquet"))
    )
    schema = pq.read_schema(os.path.join(base, "pages.parquet"))
    t = (
        pa.concat_tables(
            [schema.empty_table()]
            + [
                b.select(schema.names).cast(schema)
                for b in ray.get(resolved.to_arrow_refs())
                if b.num_rows
            ]
        )
        .sort_by("url")
        .combine_chunks()
    )
    tmp = shard + f".tmp-{os.getpid()}"
    pq.write_table(t, tmp, row_group_size=2048)
    # rewrite only on real content change: lineage fingerprints are
    # (size, mtime_ns), so an identical rewrite would still re-trigger
    # extraction + upsert on every call
    with open(tmp, "rb") as fnew, open(shard, "rb") as fold:
        same = fnew.read() == fold.read()
    if same:
        os.remove(tmp)
    else:
        # ingest-count rail BEFORE the overwrite (reference:
        # check_ingestion_counts, run_ingest.py:146-149): a refused
        # delta leaves shard, lineage and index byte-identical
        counts = ingest_delta_counts(
            ray.data.read_parquet(shard),
            ray.data.read_parquet(tmp),
        )
        try:
            check_ingest_counts(counts, thresholds)
        except IngestThresholdExceeded:
            os.remove(tmp)
            raise
        os.replace(tmp, shard)
    paths = update_pages_index(input_dir, out_dir, cfg)  # upsert + compact

    return _query_pool(
        paths, pq.read_table(os.path.join(base, "queries.parquet")), k=10
    )
