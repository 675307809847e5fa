"""Positional index sidecar + exact phrase queries.

The base index (index/build.py) stores (doc_id, tf) postings — enough
for BM25 but not for phrase search. This module adds the classic
positional tier: for every (term, doc) pair, the ordinal token
positions of the term inside the document, stored in the SAME
map-side hive term-bucket layout as the SPIMI postings
(``bucket = hash64(term) % num_buckets``), so a phrase query reads
ONLY the buckets of its own terms.

Reference analog: the harvester delegates phrase/proximity search to
Solr (its schema indexes full text with positions; queries in
harvester/solr_updater.py are field-level writes into that engine).
Here the positional tier is first-class engine code.

Layout (one resumable lineage stage)::

    out_root/
      positions/bucket=N/part-*.parquet
          term_id int64, doc_id int64, positions list<int32>
      stats.json   {n_docs, num_buckets, analyzer, engine_version}

Positions are ordinals within the document's token list as produced by
the shared analyzer contract (functions/text.py): position p means
"the p-th non-empty token, 0-based" — identical to the index of
``re.findall('[a-z0-9]+', text.lower())`` and to DuckDB's 1-based
``regexp_extract_all(...)[p+1]``, which is what the oracle SQL uses.

Scale notes (100 TB):

- The build is ONE streaming map_batches pass: a document never splits
  across batches, so every (term, doc) positions list is complete
  within its batch — no groupby/shuffle is needed at all. The
  partitioned side-write IS the shuffle (same argument as the SPIMI
  bucket strategy, build.py:562-600).
- Rows are grouped per (term, doc) with a list<int32> column — the
  per-token row explosion never exists on disk or in flight.
- A phrase query reads only ``len(set(buckets(terms)))`` of the
  ``num_buckets`` hive partitions, with a ``term_id in (...)`` filter
  pushed to parquet (dictionary/row-group pruning).
- The store is bucketed by the same key as the postings, so the
  vocabulary axis shards like the index: the serving grid
  (index/serving.py, payload ``positions``) gives term row s of T the
  buckets with ``bucket % T == s`` and aligns phrases at the router.
- Phrase verification is the (doc, base)-anchor groupby trick: a
  k-token phrase occurs at base position p iff for every ordinal i,
  (doc, p+i) holds term i. Each positional row explodes to
  (doc_id, base = pos - i, ordinal i) candidates; a phrase occurrence
  is a (doc, base) group with k distinct ordinals. Counting rows per
  (doc, base) IS counting distinct ordinals (for fixed ordinal+doc,
  positions are unique), so the whole verification is one
  groupby-count — overlap-exact, vectorized, and distributed.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from harvester_ray.config import DEFAULT_INDEX_CONFIG, IndexConfig
from harvester_ray.functions.text import (
    flatten_tokens,
    get_analyzer,
    hash64,
    hash64_array,
)
from harvester_ray.index.build import SPIMI_BATCH_ROWS, _atomic_side_write

POSITIONAL_VERSION = 1


def _positions_subdir(root: str) -> str:
    return os.path.join(root, "positions")


def _stats_path(root: str) -> str:
    return os.path.join(root, "stats.json")


def make_positions_batch(post_dir: str, n_buckets: int, analyzer):
    """map_batches fn: documents batch -> hive-bucketed positional rows.

    Stateless (analyzer resolved on the driver, shipped by pickle);
    emits only a row-count table — the real output is the idempotent
    per-bucket side write, exactly like the SPIMI bucket strategy.
    """

    def fn(batch: pa.Table) -> pa.Table:
        toks = analyzer.tokenize_column(batch["text"])
        flat, parent = flatten_tokens(toks)
        n = len(flat)
        if n == 0:
            return pa.table({"rows": pa.array([0], pa.int64())})
        parent_np = parent.to_numpy()
        # ordinal position within each doc (parent indices are sorted,
        # tokens arrive in document order)
        idx = np.arange(n, dtype=np.int64)
        run_start = np.empty(n, dtype=bool)
        run_start[0] = True
        run_start[1:] = parent_np[1:] != parent_np[:-1]
        starts = idx[run_start]
        run_len = np.diff(np.append(starts, n))
        pos = (idx - np.repeat(starts, run_len)).astype(np.int32)
        # term ids: hash only unique tokens (dictionary encode)
        enc = flat.dictionary_encode()
        uniq_hashes = hash64_array(enc.dictionary)
        t_idx = enc.indices.to_numpy(zero_copy_only=False)
        tid = uniq_hashes[t_idx]
        did = batch["doc_id"].to_numpy(zero_copy_only=False)[parent_np]
        bucket_u = (uniq_hashes.view(np.uint64) % np.uint64(n_buckets)).astype(
            np.int32
        )
        b = bucket_u[t_idx]
        # stable lexsort by (bucket, term, doc): positions stay
        # ascending within each (term, doc) run
        order = np.lexsort((did, tid, b))
        bs, ts, ds_, ps = b[order], tid[order], did[order], pos[order]
        change = np.empty(len(ts), dtype=bool)
        change[0] = True
        change[1:] = (ts[1:] != ts[:-1]) | (ds_[1:] != ds_[:-1])
        run_idx = np.nonzero(change)[0]
        offsets = np.append(run_idx, len(ts)).astype(np.int32)
        positions = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), pa.array(ps, pa.int32())
        )
        out = pa.table(
            {
                "term_id": pa.array(ts[run_idx], pa.int64()),
                "doc_id": pa.array(ds_[run_idx], pa.int64()),
                "positions": positions,
            }
        )
        run_bucket = bs[run_idx]
        min_id = int(ds_.min())
        key = f"{min_id & 0xFFFFFFFFFFFFFFFF:016x}"
        bounds = np.nonzero(np.diff(run_bucket))[0] + 1
        lo = 0
        for hi in list(bounds) + [len(run_bucket)]:
            bdir = os.path.join(post_dir, f"bucket={run_bucket[lo]}")
            os.makedirs(bdir, exist_ok=True)
            _atomic_side_write(out.slice(lo, hi - lo), bdir, key)
            lo = hi
        return pa.table({"rows": pa.array([len(run_idx)], pa.int64())})

    return fn


def build_positions(
    docs: "ray.data.Dataset",
    out_root: str,
    cfg: IndexConfig = DEFAULT_INDEX_CONFIG,
    input_fingerprint: str | None = None,
) -> str:
    """Build the positional store over ``docs`` (doc_id, text).

    One streaming pass; resumable via state.lineage.run_stage (skipped
    wholesale when input + params are unchanged).
    """
    from harvester_ray.state.lineage import run_stage

    os.makedirs(out_root, exist_ok=True)

    def write_positions(tmp: str) -> None:
        os.makedirs(tmp, exist_ok=True)
        ds = docs.map_batches(
            make_positions_batch(
                tmp, cfg.num_term_buckets, get_analyzer(cfg.analyzer_name)
            ),
            batch_format="pyarrow",
            batch_size=SPIMI_BATCH_ROWS,
            zero_copy_batch=True,
        )
        ds.sum("rows")

    run_stage(
        "positions",
        _positions_subdir(out_root),
        input_fingerprint or f"unfingerprinted-{os.getpid()}-{id(docs)}",
        write_positions,
        params=(
            f"positional=v{POSITIONAL_VERSION},"
            f"tbuckets={cfg.num_term_buckets},analyzer={cfg.analyzer_name}"
        ),
    )
    stats = {
        "engine_version": POSITIONAL_VERSION,
        "num_buckets": cfg.num_term_buckets,
        "analyzer": cfg.analyzer_name,
    }
    tmp = f"{_stats_path(out_root)}.tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(stats, f)
    os.replace(tmp, _stats_path(out_root))
    return out_root


def _read_term_positions(
    root: str, term_ids: list[int], num_buckets: int
) -> "ray.data.Dataset":
    """Pruned read: only the hive buckets of the query terms, with a
    ``term_id in (...)`` filter pushed into the parquet scan."""
    import pyarrow.dataset as pads

    # note: int() first — numpy uint64 % python-int promotes to float64
    buckets = sorted(
        {int(tid) % num_buckets for tid in np.array(term_ids).view(np.uint64)}
    )
    import glob as _glob

    paths = [
        fp
        for b in buckets
        for fp in sorted(
            _glob.glob(
                os.path.join(
                    _glob.escape(_positions_subdir(root)),
                    f"bucket={b}",
                    "part-*.parquet",
                )
            )
        )
    ]
    if not paths:
        return ray.data.from_arrow(
            pa.table(
                {
                    "term_id": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                    "positions": pa.array([], pa.list_(pa.int32())),
                }
            )
        )
    return ray.data.read_parquet(
        paths,
        columns=["term_id", "doc_id", "positions"],
        filter=pads.field("term_id").isin(pa.array(term_ids, pa.int64())),
    )


def _collect(out: "ray.data.Dataset", empty: pa.Table) -> pa.Table:
    parts = list(out.iter_batches(batch_format="pyarrow", batch_size=None))
    if not parts:
        return empty
    return pa.concat_tables(
        [p if isinstance(p, pa.Table) else pa.Table.from_batches([p]) for p in parts]
    ).combine_chunks()


def _explode_anchors_multi(specs: dict[int, dict[int, list[int]]]):
    """map_batches fn: positional rows -> (phrase_id, doc_id, base)
    anchor rows for EVERY phrase in one pass.

    ``specs[phrase_id][term_id] = ordinals``. For each phrase ordinal
    i whose term matches the row's term_id, every position p yields an
    anchor base = p - i; a (phrase, doc, base) group with k rows is a
    phrase occurrence at that base.
    """

    def fn(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "phrase_id": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                "base": pa.array([], pa.int64()),
            }
        )
        if len(batch) == 0:
            return empty
        tid = batch["term_id"].to_numpy(zero_copy_only=False)
        positions = batch["positions"].combine_chunks()
        flat = positions.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        parent = pc.list_parent_indices(positions).to_numpy(zero_copy_only=False)
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        flat_tid = tid[parent]
        flat_did = did[parent]
        out_pid: list[np.ndarray] = []
        out_doc: list[np.ndarray] = []
        out_base: list[np.ndarray] = []
        # mask once per UNIQUE term across all phrases
        uniq_tids = {t for spec in specs.values() for t in spec}
        per_tid = {}
        for t in uniq_tids:
            mask = flat_tid == t
            if mask.any():
                per_tid[t] = (flat[mask], flat_did[mask])
        for pid, spec in specs.items():
            for t, ords in spec.items():
                if t not in per_tid:
                    continue
                p, d = per_tid[t]
                for i in ords:
                    out_pid.append(np.full(len(p), pid, dtype=np.int64))
                    out_doc.append(d)
                    out_base.append(p - i)
        if not out_doc:
            return empty
        return pa.table(
            {
                "phrase_id": pa.array(np.concatenate(out_pid), pa.int64()),
                "doc_id": pa.array(np.concatenate(out_doc), pa.int64()),
                "base": pa.array(np.concatenate(out_base), pa.int64()),
            }
        )

    return fn


def phrase_occurrences_multi(
    root: str,
    phrases: list[tuple[int, str]],
    analyzer_name: str | None = None,
) -> pa.Table:
    """Exact (overlap-counted) phrase match for a whole QUERY SET in
    ONE pipeline: one pruned read over the union of all phrases' term
    buckets, one anchor explode, two groupbys.

    Returns (phrase_id, doc_id, n_occurrences) sorted by
    (phrase_id, doc_id). Phrases that tokenize to nothing, or contain
    an OOV term, contribute no rows.
    """
    with open(_stats_path(root)) as f:
        stats = json.load(f)
    analyzer = get_analyzer(analyzer_name or stats["analyzer"])
    empty = pa.table(
        {
            "phrase_id": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
            "n_occurrences": pa.array([], pa.int64()),
        }
    )
    specs: dict[int, dict[int, list[int]]] = {}
    k_of: dict[int, int] = {}
    for pid, phrase in phrases:
        terms = analyzer.tokenize(phrase)
        if not terms:
            continue
        spec: dict[int, list[int]] = {}
        for i, t in enumerate(terms):
            spec.setdefault(hash64(t), []).append(i)
        specs[int(pid)] = spec
        k_of[int(pid)] = len(terms)
    if not specs:
        return empty
    all_tids = sorted({t for spec in specs.values() for t in spec})
    ds = _read_term_positions(root, all_tids, stats["num_buckets"])
    anchors = ds.map_batches(
        _explode_anchors_multi(specs),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    # distributed groupby-count on (phrase, doc, base); a base with
    # k(phrase) supporting ordinals is an occurrence (count can never
    # exceed k, so equality is the exact predicate).
    counts = anchors.groupby(["phrase_id", "doc_id", "base"]).count()
    pid_keys = np.array(sorted(k_of), dtype=np.int64)
    k_vals = np.array([k_of[p] for p in pid_keys], dtype=np.int64)

    def keep_full(batch: pa.Table) -> pa.Table:
        cnt_col = "count()" if "count()" in batch.column_names else "count"
        pid = batch["phrase_id"].to_numpy(zero_copy_only=False)
        need = k_vals[np.searchsorted(pid_keys, pid)]
        cnt = batch[cnt_col].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(cnt == need)).select(
            ["phrase_id", "doc_id"]
        )

    occ = counts.map_batches(keep_full, batch_format="pyarrow")
    per_doc = occ.groupby(["phrase_id", "doc_id"]).count()

    def rename(batch: pa.Table) -> pa.Table:
        cnt_col = "count()" if "count()" in batch.column_names else "count"
        return pa.table(
            {
                "phrase_id": batch["phrase_id"],
                "doc_id": batch["doc_id"],
                "n_occurrences": batch[cnt_col].cast(pa.int64()),
            }
        )

    out = per_doc.map_batches(rename, batch_format="pyarrow").sort(
        ["phrase_id", "doc_id"]
    )
    return _collect(out, empty)


def phrase_occurrences(
    root: str, phrase: str, analyzer_name: str | None = None
) -> pa.Table:
    """Exact (overlap-counted) phrase match over the positional store.

    Returns (doc_id, n_occurrences) for every document containing the
    phrase, sorted by doc_id. A k-term phrase with an OOV term, or an
    empty phrase, matches nothing. (Single-query wrapper around
    ``phrase_occurrences_multi``.)
    """
    t = phrase_occurrences_multi(root, [(0, phrase)], analyzer_name)
    return t.select(["doc_id", "n_occurrences"])


def proximity_occurrences_multi(
    root: str,
    queries: list[tuple[int, str, int]],
    analyzer_name: str | None = None,
) -> pa.Table:
    """Ordered-window proximity match for a whole QUERY SET in ONE
    pipeline: (proximity_id, phrase, window) triples -> rows
    (proximity_id, doc_id, n_matches) sorted by (proximity_id, doc_id).

    Semantics per query: the phrase terms appear in ORDER with total
    span (last - first) <= window tokens; counts the first-term
    occurrences that start a match, decided by the greedy-minimal
    chain (always the smallest next position — optimal under a span
    bound, so greedy == exists). ``window = k-1`` degenerates to the
    exact phrase.

    One pruned read over the union of all queries' term buckets, then
    a groupby(doc).map_groups stage runs EVERY query against each
    candidate doc — per-doc work is a vectorized searchsorted chain
    per query, distributed by the doc shuffle.
    """
    with open(_stats_path(root)) as f:
        stats = json.load(f)
    analyzer = get_analyzer(analyzer_name or stats["analyzer"])
    empty = pa.table(
        {
            "proximity_id": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
            "n_matches": pa.array([], pa.int64()),
        }
    )
    plans: list[tuple[int, list[int], int]] = []
    for pid, phrase, window in queries:
        terms = analyzer.tokenize(phrase)
        if not terms:
            continue
        plans.append((int(pid), [hash64(t) for t in terms], int(window)))
    if not plans:
        return empty
    all_tids = sorted({t for _, seq, _ in plans for t in seq})
    ds = _read_term_positions(root, all_tids, stats["num_buckets"])

    def group_fn(g: pa.Table) -> pa.Table:
        tids = g["term_id"].to_numpy(zero_copy_only=False)
        plists = g["positions"].to_pylist()
        pos_map = {
            int(t): np.asarray(pl, dtype=np.int64)
            for t, pl in zip(tids, plists)
        }
        out_pid: list[int] = []
        out_n: list[int] = []
        for pid, tid_seq, w in plans:
            if any(t not in pos_map for t in tid_seq):
                continue
            base = cur = pos_map[tid_seq[0]]
            for tid in tid_seq[1:]:
                nxt = pos_map[tid]
                idx = np.searchsorted(nxt, cur, side="right")
                valid = idx < len(nxt)
                base, idx = base[valid], idx[valid]
                if len(base) == 0:
                    break
                cur = nxt[idx]
            else:
                n = int(np.count_nonzero(cur - base <= w))
                if n:
                    out_pid.append(pid)
                    out_n.append(n)
        if not out_pid:
            return empty
        did = int(g["doc_id"][0].as_py())
        return pa.table(
            {
                "proximity_id": pa.array(out_pid, pa.int64()),
                "doc_id": pa.array([did] * len(out_pid), pa.int64()),
                "n_matches": pa.array(out_n, pa.int64()),
            }
        )

    out = (
        ds.groupby("doc_id")
        .map_groups(group_fn, batch_format="pyarrow")
        .sort(["proximity_id", "doc_id"])
    )
    return _collect(out, empty)


def proximity_occurrences(
    root: str,
    phrase: str,
    window: int,
    analyzer_name: str | None = None,
) -> pa.Table:
    """Single-query wrapper around ``proximity_occurrences_multi``:
    (doc_id, n_matches) sorted by doc_id."""
    t = proximity_occurrences_multi(root, [(0, phrase, window)], analyzer_name)
    return t.select(["doc_id", "n_matches"])


def snippet_windows_multi(
    root: str,
    specs: "list[tuple[int, list[str], set[int]]]",
    w: int,
    analyzer_name: str | None = None,
) -> pa.Table:
    """Best anchored snippet window per (query, doc):
    (query_id, doc_id, start, n_terms), ``start`` 1-based (the SQL
    position convention).

    Contract (shared with oracles.SNIPPET_TOPK): candidate windows are
    ANCHORED at query-term match positions; a window covers w
    consecutive tokens [s, s+w-1]; n_terms counts the DISTINCT query
    terms with >= 1 occurrence inside; the winner maximizes n_terms,
    ties to the smallest start. Anchoring makes the optimum well
    defined — an unanchored maximizer can always slide left to an
    anchor without losing terms.

    ``specs``: (query_id, analyzed terms, doc_id restriction) — the
    restriction is the BM25 top-k of the same query, so the output is
    one snippet per search RESULT, not per corpus doc. One term-pruned
    positional read serves every query; per-doc work is vectorized
    searchsorted over the doc's position lists.
    """
    with open(_stats_path(root)) as f:
        stats = json.load(f)
    empty = pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
            "start": pa.array([], pa.int64()),
            "n_terms": pa.array([], pa.int64()),
        }
    )
    plans: list[tuple[int, list[int], "set[int]"]] = []
    for qid, terms, docset in specs:
        tids = sorted({hash64(t) for t in terms})
        if tids and docset:
            plans.append((int(qid), tids, docset))
    if not plans:
        return empty
    all_tids = sorted({t for _, tids, _ in plans for t in tids})
    ds = _read_term_positions(root, all_tids, stats["num_buckets"])

    def group_fn(g: pa.Table) -> pa.Table:
        did = int(g["doc_id"][0].as_py())
        tids = g["term_id"].to_numpy(zero_copy_only=False)
        plists = g["positions"].to_pylist()
        pos_map = {
            int(t): np.asarray(pl, dtype=np.int64)
            for t, pl in zip(tids, plists)
        }
        out_q: list[int] = []
        out_s: list[int] = []
        out_n: list[int] = []
        for qid, tid_seq, docset in plans:
            if did not in docset:
                continue
            present = [pos_map[t] for t in tid_seq if t in pos_map]
            if not present:
                continue
            anchors = np.unique(np.concatenate(present))
            n = np.zeros(len(anchors), dtype=np.int64)
            for p in present:
                lo = np.searchsorted(p, anchors, side="left")
                hi = np.searchsorted(p, anchors + w, side="left")
                n += (hi > lo).astype(np.int64)
            best = np.lexsort((anchors, -n))[0]
            out_q.append(qid)
            out_s.append(int(anchors[best]) + 1)  # 1-based
            out_n.append(int(n[best]))
        if not out_q:
            return empty
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "doc_id": pa.array([did] * len(out_q), pa.int64()),
                "start": pa.array(out_s, pa.int64()),
                "n_terms": pa.array(out_n, pa.int64()),
            }
        )

    out = (
        ds.groupby("doc_id")
        .map_groups(group_fn, batch_format="pyarrow")
        .sort(["query_id", "doc_id"])
    )
    return _collect(out, empty)


def _span_covers(pos_lists: list[np.ndarray], w: int) -> bool:
    """Vectorized minimal-cover existence: the tightest window
    ending at merged position i starts at min-over-labels of the
    latest occurrence of each label at or before i (a per-label
    running maximum) — exists iff any i has span <= w with every
    label seen. O(k x m) numpy, no Python loop over positions."""
    k = len(pos_lists)
    if k == 1:
        return len(pos_lists[0]) > 0
    if any(len(p) == 0 for p in pos_lists):
        return False
    merged = np.concatenate(pos_lists)
    labels = np.concatenate(
        [np.full(len(p), i, dtype=np.int64) for i, p in enumerate(pos_lists)]
    )
    order = np.argsort(merged, kind="stable")
    merged, labels = merged[order], labels[order]
    m = len(merged)
    sentinel = np.iinfo(np.int64).min
    vals = np.full((k, m), sentinel, dtype=np.int64)
    vals[labels, np.arange(m)] = merged
    last = np.maximum.accumulate(vals, axis=1)
    cover_start = last.min(axis=0)
    ok = cover_start > sentinel  # every label seen by index i
    return bool(np.any(ok & (merged - cover_start <= w)))


def span_near_occurrences_multi(
    root: str,
    queries: list[tuple[int, str, int]],
    analyzer_name: str | None = None,
) -> pa.Table:
    """UNORDERED span-near match (Lucene SpanNearQuery inOrder=false)
    for a whole query set in ONE pipeline: (span_id, phrase, window)
    triples -> rows (span_id, doc_id) for every doc where one position
    of EACH distinct term fits in a window of span <= ``window``
    (max - min), in any order. Existence semantics (the natural SQL
    contract); the ordered/counted variant is proximity_occurrences.

    Same distribution shape as the ordered tier: one pruned read over
    the union of the queries' term buckets, per-doc decisions inside
    the doc-grouped stage (a two-pointer minimal-cover scan over the
    merged labeled positions — linear in the doc's matched positions).
    """
    with open(_stats_path(root)) as f:
        stats = json.load(f)
    analyzer = get_analyzer(analyzer_name or stats["analyzer"])
    empty = pa.table(
        {
            "span_id": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
        }
    )
    plans: list[tuple[int, list[int], int]] = []
    for sid, phrase, window in queries:
        terms = sorted(set(analyzer.tokenize(phrase)))
        if not terms:
            continue
        plans.append((int(sid), [hash64(t) for t in terms], int(window)))
    if not plans:
        return empty
    all_tids = sorted({t for _, tids, _ in plans for t in tids})
    ds = _read_term_positions(root, all_tids, stats["num_buckets"])

    def group_fn(g: pa.Table) -> pa.Table:
        tids = g["term_id"].to_numpy(zero_copy_only=False)
        plists = g["positions"].to_pylist()
        pos_map = {
            int(t): np.asarray(pl, dtype=np.int64)
            for t, pl in zip(tids, plists)
        }
        out_sid: list[int] = []
        for sid, tid_seq, w in plans:
            if any(t not in pos_map for t in tid_seq):
                continue
            if _span_covers([pos_map[t] for t in tid_seq], w):
                out_sid.append(sid)
        if not out_sid:
            return empty
        did = int(g["doc_id"][0].as_py())
        return pa.table(
            {
                "span_id": pa.array(out_sid, pa.int64()),
                "doc_id": pa.array([did] * len(out_sid), pa.int64()),
            }
        )

    out = (
        ds.groupby("doc_id")
        .map_groups(group_fn, batch_format="pyarrow")
        .sort(["span_id", "doc_id"])
    )
    return _collect(out, empty)
