"""Index maintenance: tombstone deletions + incremental add (deltas).

The reference's index maintenance surface (harvester/solr_updater.py):

- delete by item id / by collection query (:793-817) → **tombstones**:
  a small parquet table of doc_ids next to the segments. The query
  engine filters tombstoned docs at scoring time (Lucene-style: global
  stats N/avgdl/df stay as built until compaction — scores of
  surviving docs are unchanged, which keeps rank stability).
- the `_changes`-feed incremental ADD/upsert path (:875-962, cursor at
  :776-791) → **delta segments**: ``add_docs`` builds a self-contained
  delta index under ``deltas/delta-NNN`` with the same build pipeline;
  the query engine merges base+delta dictionaries/stats EXACTLY (sum
  df/cf/N/token counts), so add-then-query is rank- AND score-identical
  to a full rebuild over the union (tests/test_incremental.py).

Tombstones are **sequence-scoped** (LSM-style): each tombstone file
records the number of sources (base + deltas) that existed when it was
written and covers only those — so ``upsert_docs`` (tombstone old
version, add new) leaves the re-added doc live. A doc_id lives in at
most one live source.

``compact`` = rebuild from the filtered source — with per-stage lineage
the rebuild re-runs only stages whose inputs changed.
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from harvester_ray.index.build import IndexPaths

_DELTA_RE = re.compile(r"^delta-(\d+)$")
_TOMB_RE = re.compile(r"^del-(?:s(\d+)-)?[0-9a-f]+\.parquet$")


def _tombstone_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "tombstones")


def _deltas_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "deltas")


def delta_dirs(index_dir: str) -> list[str]:
    """Committed delta index dirs, in add order (delta-000, ...)."""
    root = _deltas_dir(index_dir)
    if not os.path.isdir(root):
        return []
    out = []
    for d in sorted(os.listdir(root)):
        m = _DELTA_RE.match(d)
        p = os.path.join(root, d)
        # committed = its stats.json exists (build_index writes it last)
        if m and os.path.exists(os.path.join(p, "stats.json")):
            out.append(p)
    return out


def source_dirs(index_dir: str) -> list[str]:
    """All live index sources: base first, then deltas in add order.
    Source i's postings are covered by tombstones with seq > i."""
    return [index_dir] + delta_dirs(index_dir)


def delete_docs(index_dir: str, doc_ids) -> int:
    """Tombstone the given doc_ids (idempotent: content-hash file name,
    atomic replace — the same side-write discipline as build stages).
    The tombstone is stamped with the current source count, covering
    every source that exists NOW (docs added later with the same id are
    NOT affected — the upsert contract). Returns the number of ids."""
    ids = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    if len(ids) == 0:
        return 0
    seq = len(source_dirs(index_dir))
    d = _tombstone_dir(index_dir)
    os.makedirs(d, exist_ok=True)
    key = hashlib.blake2b(ids.tobytes(), digest_size=8).hexdigest()
    final = os.path.join(d, f"del-s{seq}-{key}.parquet")
    tmp = f"{final}.tmp-{os.getpid()}"
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64())}), tmp)
    os.replace(tmp, final)
    return len(ids)


def delete_where(index_dir: str, docs_ds, predicate) -> int:
    """Delete-by-query (the reference's delete-by-collection analog):
    ``predicate`` is a pyarrow-batch -> boolean-mask callable applied to
    the doc source; matching doc_ids are tombstoned."""
    ids: list[int] = []
    for batch in docs_ds.iter_batches(batch_format="pyarrow"):
        mask = predicate(batch)
        ids.extend(batch["doc_id"].filter(mask).to_pylist())
    return delete_docs(index_dir, ids)


def load_tombstones_scoped(index_dir: str) -> list[tuple[int, np.ndarray]]:
    """[(seq, sorted ids)] per tombstone file. A tombstone covers
    sources with index < seq. Legacy unstamped files (round-1 format,
    written when only the base existed) get seq=1 (covers the base)."""
    d = _tombstone_dir(index_dir)
    if not os.path.isdir(d):
        return []
    out = []
    for f in sorted(os.listdir(d)):
        m = _TOMB_RE.match(f)
        if not m:
            continue
        seq = int(m.group(1)) if m.group(1) is not None else 1
        ids = pq.read_table(
            os.path.join(d, f), columns=["doc_id"]
        )["doc_id"].to_numpy()
        out.append((seq, np.unique(ids)))
    return out


def deleted_for_source(
    index_dir: str,
    source_idx: int,
    as_of: "int | None" = None,
    scoped: "list[tuple[int, np.ndarray]] | None" = None,
) -> np.ndarray:
    """Sorted unique doc_ids tombstoned for source ``source_idx``.

    ``as_of=k`` restricts to the snapshot at source k-1's commit
    (time travel): only tombstones stamped BEFORE source k existed
    (seq < k) apply — a tombstone stamped seq=k was written at or
    after that commit point. ``as_of=n_sources+1`` therefore admits
    every tombstone (the live view after trailing delete-only
    commits). ``scoped``: load_tombstones_scoped(index_dir), when the
    caller already read it (one read for every source)."""
    if scoped is None:
        scoped = load_tombstones_scoped(index_dir)
    parts = [
        ids for seq, ids in scoped
        if seq > source_idx and (as_of is None or seq < as_of)
    ]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


def load_tombstones(index_dir: str) -> np.ndarray:
    """Sorted unique tombstoned doc_ids across all scopes (the
    compaction filter; per-source scoping is applied at query time)."""
    parts = [ids for _seq, ids in load_tombstones_scoped(index_dir)]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


def clear_tombstones(index_dir: str) -> None:
    import shutil

    shutil.rmtree(_tombstone_dir(index_dir), ignore_errors=True)


def live_doc_ids(index_dir: str) -> np.ndarray:
    """Sorted doc_ids currently served (per-source tombstones applied).
    Driver-sized read of the doc tables (2 ints/doc); at 10^10+ docs
    swap the callers' disjointness check for a Ray anti-join."""
    parts = []
    for i, src in enumerate(source_dirs(index_dir)):
        dt_dir = IndexPaths(src).doc_table
        if not os.path.isdir(dt_dir):
            continue
        ids = pq.read_table(dt_dir, columns=["doc_id"])["doc_id"].to_numpy()
        dead = deleted_for_source(index_dir, i)
        if len(dead):
            ids = ids[~np.isin(ids, dead)]
        parts.append(ids)
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


def add_docs(
    index_dir: str,
    docs_ds,
    cfg=None,
    n_docs: int | None = None,
    _skip_disjoint_check: bool = False,
) -> IndexPaths:
    """Incremental ADD — the `_changes` add path of the reference
    (harvester/solr_updater.py:875-962) as a delta segment: build a
    self-contained index over the new docs under ``deltas/delta-NNN``
    (the full SPIMI → dictionary → segments pipeline, resumable like
    any build), atomically committed by its stats.json write. The query
    engine merges base+delta dictionaries and stats exactly, so
    add-then-query ranks AND scores identically to a full rebuild over
    the union.

    New doc_ids must be disjoint from live ones — use ``upsert_docs``
    for replace semantics. The delta's own internal avgdl only shapes
    its stored WAND block maxima; the query engine rescales those
    bounds to the merged avgdl at load, so pruning stays admissible.

    Doc-sharded serving (index/serving.py) requires every source to be
    built with the SAME ``segment_doc_chunks``: pass the base's cfg
    here, or shard loading will reject the mismatched delta with a
    clear error.
    """
    from harvester_ray.config import DEFAULT_INDEX_CONFIG
    from harvester_ray.index.build import build_index

    if not _skip_disjoint_check:
        import ray

        live = live_doc_ids(index_dir)
        live_ref = ray.put(live)

        def check(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            clash = np.isin(ids, ray.get(live_ref))
            if clash.any():
                raise ValueError(
                    f"add_docs: {int(clash.sum())} doc_ids already live "
                    f"in the index (e.g. {int(ids[clash][0])}); use "
                    "upsert_docs for replace semantics"
                )
            return t

        docs_ds = docs_ds.map_batches(check, batch_format="pyarrow")

    k = len(delta_dirs(index_dir))
    out = os.path.join(_deltas_dir(index_dir), f"delta-{k:03d}")
    # chunked bases: the delta MUST reuse the base's persisted doc-chunk
    # edges so cXX segment files align across sources (a delta deriving
    # its own bounds from its own doc_ids would shard differently)
    the_cfg = cfg or DEFAULT_INDEX_CONFIG
    base_bounds = None
    if max(1, the_cfg.segment_doc_chunks) > 1:
        base_stats = _source_stats(source_dirs(index_dir)[0])
        base_bounds = base_stats.get("chunk_bounds")
        if base_bounds is None and base_stats.get(
            "segment_doc_chunks", 1
        ) > 1:
            from harvester_ray.index.build import legacy_chunk_bounds

            base_bounds = [
                int(x)
                for x in legacy_chunk_bounds(
                    int(base_stats["segment_doc_chunks"])
                )
            ]
    return build_index(
        docs_ds, out, the_cfg, n_docs=n_docs, chunk_bounds=base_bounds
    )


def upsert_docs(index_dir: str, docs_ds, cfg=None) -> IndexPaths:
    """Replace-or-add — the reference's `_changes` upsert semantics:
    tombstone any incoming doc_id that is currently live (scoped to the
    sources existing NOW), then add all incoming docs as a delta. The
    incoming ids are collected driver-side (an upsert feed is
    change-log-sized, not corpus-sized — the reference reads the same
    feed row by row, solr_updater.py:905-947)."""
    incoming = docs_ds.unique("doc_id")
    live = live_doc_ids(index_dir)
    overlap = np.asarray(sorted(set(incoming)), dtype=np.int64)
    overlap = overlap[np.isin(overlap, live)]
    if len(overlap):
        delete_docs(index_dir, overlap)
    return add_docs(index_dir, docs_ds, cfg, _skip_disjoint_check=True)


def compact(docs_ds, index_dir: str, cfg=None) -> IndexPaths:
    """Rebuild the index from a source with the tombstoned docs removed
    (a full-fidelity delete: stats recomputed). The caller passes the
    original doc source; tombstones are applied as a filter.

    Delete-only workflows only: after ``upsert_docs`` the upserted ids
    appear in (scoped) tombstones, so this unscoped filter would drop
    their re-added versions — compact an upserted index by running
    ``build_index`` directly over the current corpus instead."""
    import ray

    from harvester_ray.config import DEFAULT_INDEX_CONFIG
    from harvester_ray.index.build import build_index

    dead = load_tombstones(index_dir)
    dead_ref = ray.put(dead)

    def drop(t: pa.Table) -> pa.Table:
        mask = ~np.isin(
            t["doc_id"].to_numpy(zero_copy_only=False), ray.get(dead_ref)
        )
        return t.filter(pa.array(mask))

    filtered = docs_ds.map_batches(drop, batch_format="pyarrow")
    out = os.path.join(index_dir, "compacted")
    paths = build_index(filtered, out, cfg or DEFAULT_INDEX_CONFIG)
    return paths


def _source_stats(src: str) -> dict:
    import json

    with open(IndexPaths(src).stats) as f:
        return json.load(f)


def merge_sources(index_dir: str, out_dir: str) -> IndexPaths:
    """True LSM-style compaction: merge base + all delta sources (and
    consume tombstones) into ONE new index WITHOUT retokenizing — the
    background segment merge of a Lucene/Solr deployment
    (vs ``compact``, which re-runs the whole build from the doc source).

    Works off each source's segments (term_id is a stable hash of the
    term, so the id space needs no remapping across sources; the term
    bucket of a segment file is a function of term_id and is identical
    across sources built with one config). Per term bucket: decode every
    source's segment files of that bucket (``build.decode_blocks``),
    drop that source's scoped tombstoned docs, concatenate, then run the
    build's own per-bucket functions — ``build.bucket_dictionary`` and,
    per doc chunk, ``build.encode_postings`` at the MERGED avgdl.
    Embarrassingly parallel over buckets, no shuffle (the bucket
    co-partitioning IS the partitioning assumption; documented per
    module docstring). The merged index stores its postings only in its
    segments, as a fresh build does, so it stays re-mergeable; a
    source's ``spimi/postings`` left by an older build is not read. A
    source from a retired (non-bucket) strategy has no per-bucket
    segment files, and a source whose blocks are not varint
    (``build.check_codec``) cannot be read; both are rejected before
    ``out_dir`` is touched.

    Global stats (N, avgdl, df) are recomputed from surviving docs —
    the post-compaction rescoring semantics (scores legitimately shift
    once deletes are applied for real, exactly like the reference's
    Solr after commit+optimize; rank parity with a fresh build over the
    surviving corpus is the tested contract)."""
    import json
    import shutil

    import ray

    from harvester_ray.index.build import (
        CODEC,
        DECODE_COLUMNS,
        ENGINE_VERSION,
        _atomic_side_write,
        bucket_dictionary,
        check_codec,
        chunk_of_ids,
        decode_blocks,
        encode_postings,
        legacy_chunk_bounds,
        segment_files_by_bucket,
    )

    srcs = source_dirs(index_dir)
    stats = [_source_stats(s) for s in srcs]
    for src, st in zip(srcs, stats):
        check_codec(src, st)
        # a retired strategy's segment files carry no term bucket:
        # merging would write an empty index over the live one
        if st.get("segment_strategy") != "bucket":
            raise ValueError(
                f"merge_sources: source {src} was built with segment "
                f"strategy {st.get('segment_strategy')!r}; only bucket "
                "sources can be merged — rebuild with build_index"
            )
    for key in ("block_size", "k1", "b", "analyzer", "segment_doc_chunks"):
        vals = {s[key] for s in stats}
        if len(vals) > 1:
            raise ValueError(
                f"merge_sources: sources disagree on {key}: {vals}"
            )

    dead = [deleted_for_source(index_dir, i) for i in range(len(srcs))]
    dead_refs = [ray.put(d) for d in dead]
    src_seg_files = [
        segment_files_by_bucket(IndexPaths(s).segments) for s in srcs
    ]

    out = IndexPaths(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out.doc_table, exist_ok=True)
    os.makedirs(out.dictionary, exist_ok=True)
    os.makedirs(out.segments, exist_ok=True)

    # -- doc tables: concat minus per-source tombstones ------------------
    @ray.remote(num_cpus=1)
    def merge_doc_table(i: int) -> tuple[int, int]:
        pa.set_cpu_count(1)
        dt_dir = IndexPaths(srcs[i]).doc_table
        if not os.path.isdir(dt_dir):
            return 0, 0
        t = pq.read_table(dt_dir, use_threads=False)
        d = ray.get(dead_refs[i])
        if len(d):
            keep = ~np.isin(t["doc_id"].to_numpy(zero_copy_only=False), d)
            t = t.filter(pa.array(keep))
        _atomic_side_write(t, out.doc_table, f"src{i:03d}")
        import pyarrow.compute as pc

        return len(t), int(pc.sum(t["doc_len"]).as_py() or 0)

    sizes = ray.get([merge_doc_table.remote(i) for i in range(len(srcs))])
    n_docs = sum(a for a, _ in sizes)
    total_tokens = sum(b for _, b in sizes)
    avgdl = (total_tokens / n_docs) if n_docs else 0.0

    buckets = sorted({b for files in src_seg_files for b in files})

    def read_bucket_filtered(b: int) -> pa.Table | None:
        parts = []
        for i, files in enumerate(src_seg_files):
            if b not in files:
                continue
            t = decode_blocks(
                pq.read_table(
                    files[b], columns=list(DECODE_COLUMNS), use_threads=False
                )
            )
            dd = ray.get(dead_refs[i])
            if len(dd):
                keep = ~np.isin(
                    t["doc_id"].to_numpy(zero_copy_only=False), dd
                )
                t = t.filter(pa.array(keep))
            if len(t):
                parts.append(t)
        if not parts:
            return None
        return pa.concat_tables(parts)

    # segment params come from the sources' own stats (asserted equal
    # above), NOT the cfg arg — the merge must reproduce their layout
    n_chunks = max(1, int(stats[0]["segment_doc_chunks"]))
    chunk_bounds = (
        np.asarray(
            stats[0].get("chunk_bounds")
            or legacy_chunk_bounds(n_chunks),
            dtype=np.int64,
        )
        if n_chunks > 1
        else None
    )
    k1 = float(stats[0]["k1"])
    b_ = float(stats[0]["b"])
    bs = int(stats[0]["block_size"])

    # -- per-bucket: dictionary part + ALL chunk segment encodes off ONE
    # decode of the bucket's segment files
    @ray.remote(num_cpus=1)
    def merge_bucket(b: int) -> int:
        pa.set_cpu_count(1)
        t = read_bucket_filtered(b)
        if t is None:
            return 0
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        _atomic_side_write(
            bucket_dictionary(t), out.dictionary, f"bucket{b:05d}"
        )
        # each chunk is encoded and written under the same
        # deterministic name as a fresh build
        chunk_of = (
            chunk_of_ids(did, chunk_bounds)
            if chunk_bounds is not None
            else np.zeros(len(did), np.int64)
        )
        for chunk in range(n_chunks):
            sel = np.nonzero(chunk_of == chunk)[0]
            if len(sel) == 0:
                continue
            seg = encode_postings(t, avgdl, k1, b_, bs, rows=sel)
            _atomic_side_write(seg, out.segments, f"bucket{b:05d}c{chunk:02d}")
        return len(t)

    ray.get([merge_bucket.remote(b) for b in buckets])

    n_terms = sum(
        pq.ParquetFile(os.path.join(out.dictionary, f)).metadata.num_rows
        for f in os.listdir(out.dictionary)
        if f.endswith(".parquet")
    )
    base = stats[0]
    with open(out.stats, "w") as f:
        json.dump(
            {
                "n_docs": int(n_docs),
                "total_tokens": int(total_tokens),
                "avgdl": avgdl,
                "n_terms": int(n_terms),
                "k1": base["k1"],
                "b": base["b"],
                "block_size": base["block_size"],
                "analyzer": base["analyzer"],
                "segment_strategy": "bucket",
                "segment_doc_chunks": base["segment_doc_chunks"],
                # the merged index reproduces the sources' chunk edges
                "chunk_bounds": (
                    [int(x) for x in chunk_bounds]
                    if chunk_bounds is not None
                    else None
                ),
                "num_term_buckets": base.get("num_term_buckets"),
                "codec": CODEC,
                "engine_version": ENGINE_VERSION,
            },
            f,
        )
    return out


def verify_index(index_dir: str, max_terms: "int | None" = None) -> dict:
    """Integrity check (fsck) for a built index — the operational
    counterpart of the reference's count-reconciliation reports
    (scripts/report_harvested_to_solr.py:108-131): decode every
    posting through the SAME path the query engine uses and reconcile
    against the dictionary and stats.

    Checks, per source (base + every delta):
    - segment block metadata: per (term, salt) blocks strictly ordered
      and non-overlapping (last[i] < first[i+1]), n > 0;
    - decoded postings: doc_ids strictly increasing (sorted, unique);
    - dictionary: df == decoded posting count, cf == sum of decoded
      tfs, for every term (or the first ``max_terms`` in dictionary
      order when sampling — at 10^9 vocabularies fsck a shard at a
      time);
    - stats (base source, untombstoned): avgdl == total_tokens /
      n_docs, |doc table| <= n_docs (docs with >= 1 token), and
      total_tokens == dictionary cf sum on a full scan.

    Memory: the per-term decode caches are cleared each term, so fsck
    holds O(one term) decoded postings; ``doc_len_seen`` is the one
    O(distinct docs touched) structure (use max_terms to bound it).

    Returns {"ok": bool, "violations": [...], "terms_checked": int,
    "sources": int}; healthy indexes return ok=True, [] — callers
    (CLI fsck) exit non-zero otherwise."""
    import glob as _glob
    import json as _json

    from harvester_ray.index.query import InvertedIndex

    violations: list[str] = []
    sources = source_dirs(index_dir)
    # block-metadata scan straight off the segment parquet (no decode)
    for src in sources:
        for f in sorted(
            _glob.glob(os.path.join(src, "segments", "*.parquet"))
        ):
            t = pq.read_table(
                f,
                columns=[
                    "term_id", "salt", "block_id",
                    "first_doc_id", "last_doc_id", "n",
                ],
            )
            if t.num_rows == 0:
                continue
            df = t.to_pandas().sort_values(
                ["term_id", "salt", "block_id"], kind="stable"
            )
            if (df["n"] <= 0).any():
                violations.append(f"{f}: empty block (n <= 0)")
            if (df["first_doc_id"] > df["last_doc_id"]).any():
                violations.append(f"{f}: first_doc_id > last_doc_id")
            g = df.groupby(["term_id", "salt"], sort=False)
            prev_last = g["last_doc_id"].shift(1)
            overlap = prev_last.notna() & (
                df["first_doc_id"] <= prev_last
            )
            if overlap.any():
                violations.append(
                    f"{f}: overlapping/unordered blocks within a term"
                )

    # decode-path reconciliation against the merged dictionary
    idx = InvertedIndex(index_dir, preload=False)
    n_dead = sum(len(d) for d in idx._dead)
    terms = sorted(idx.dictionary)
    if max_terms is not None:
        terms = terms[:max_terms]
    doc_len_seen: dict[int, int] = {}
    for term in terms:
        _, df_dict, cf_dict = idx.dictionary[term]
        p = idx.postings(term)
        if p is None:
            # tombstones only hide up to n_dead postings of a term —
            # a term with df > n_dead must still decode SOMETHING
            if int(df_dict) > n_dead:
                violations.append(f"term {term!r}: dictionary entry "
                                  "but no decodable postings")
            continue
        ids = p.doc_ids
        if len(ids) > 1 and not bool(np.all(ids[1:] > ids[:-1])):
            violations.append(f"term {term!r}: doc_ids not strictly "
                              "increasing after decode")
        if n_dead == 0:
            if int(df_dict) != len(ids):
                violations.append(
                    f"term {term!r}: df {df_dict} != decoded {len(ids)}"
                )
            if int(cf_dict) != int(p.tfs.sum()):
                violations.append(
                    f"term {term!r}: cf {cf_dict} != decoded tf sum "
                    f"{int(p.tfs.sum())}"
                )
        else:
            # bounded reconciliation under tombstones (stats stay
            # as-built until compaction): decoded counts can only be
            # SMALLER, and by at most the tombstone count
            if len(ids) > int(df_dict) or len(ids) < int(df_dict) - n_dead:
                violations.append(
                    f"term {term!r}: decoded {len(ids)} outside "
                    f"[df - n_dead, df] = "
                    f"[{int(df_dict) - n_dead}, {df_dict}]"
                )
            if int(p.tfs.sum()) > int(cf_dict):
                violations.append(
                    f"term {term!r}: decoded tf sum {int(p.tfs.sum())} "
                    f"exceeds cf {cf_dict}"
                )
        for d, dl in zip(ids.tolist(), p.doc_lens.tolist()):
            prev = doc_len_seen.setdefault(int(d), int(dl))
            if prev != int(dl):
                violations.append(
                    f"doc {d}: inconsistent doc_len across terms "
                    f"({prev} vs {dl})"
                )
        # keep fsck at O(one term) memory: postings() caches decoded
        # lists unboundedly for serving, which a full scan defeats
        idx._postings_cache.clear()
        idx._block_cache.clear()

    # stats reconciliation
    with open(IndexPaths(index_dir).stats) as f:
        st = _json.load(f)
    # stats.json is the BASE source's record — reconcile only when it
    # is the sole source and nothing is tombstoned
    if n_dead == 0 and len(sources) == 1:
        if st["n_docs"] > 0 and abs(
            float(st["avgdl"])
            - float(st["total_tokens"]) / float(st["n_docs"])
        ) > 1e-9 * float(st["avgdl"]):
            violations.append(
                f"stats: avgdl {st['avgdl']} != total_tokens/n_docs "
                f"{float(st['total_tokens']) / float(st['n_docs'])}"
            )
        dt_rows = sum(
            pq.read_metadata(f).num_rows
            for f in _glob.glob(
                os.path.join(
                    IndexPaths(index_dir).doc_table, "*.parquet"
                )
            )
        )
        if dt_rows > int(st["n_docs"]):
            violations.append(
                f"stats: doc table rows {dt_rows} > n_docs "
                f"{st['n_docs']}"
            )
        if max_terms is None:
            total_tokens = sum(
                idx.dictionary[t][2] for t in idx.dictionary
            )
            if int(st["total_tokens"]) != int(total_tokens):
                violations.append(
                    f"stats: total_tokens {st['total_tokens']} != "
                    f"dictionary cf sum {total_tokens}"
                )
    return {
        "ok": not violations,
        "violations": violations,
        "terms_checked": len(terms),
        "sources": len(sources),
    }
