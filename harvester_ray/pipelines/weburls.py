"""URL-axis webtext operators over the documents table: canonical
forms, canonical-url snapshot dedup, and per-domain corpus profiles.

The input_hint's page table is keyed by (url, warc_ts); the reference
likewise keys every harvested record by a url-derived id (couchdb
``_id`` per record — /root/reference/harvester/fetcher.py). Url
canonicalization is the step before EVERY url-keyed operation at
Common-Crawl scale, so it is gated here end to end: messy urls are
synthesized deterministically per document (functions/urls.synth_urls),
the GENERAL vectorized canonicalizer runs over them, and the SQL twin
rebuilds both the messy string and its closed-form canonical from the
same integer arithmetic — any parser drift breaks the value hash.

All three entries are map-only or one light groupby over
(url_canon)-sized rows; the text column never moves.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from harvester_ray.functions.urls import (
    canonicalize_urls,
    host_of,
    registrable_domain,
    synth_snap_ts,
    synth_urls,
)
from harvester_ray.stages.topk import topk_per_key


def _docs(sf_dir: str, columns: list[str]) -> "ray.data.Dataset":
    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=columns
    )


def _with_urls(t: pa.Table) -> pa.Table:
    url = synth_urls(t["doc_id"].combine_chunks(), t["source"].combine_chunks())
    return t.append_column("url", url)


def url_canonical(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, url, url_canon) for every document — the canonical-form
    kernel as a map-only stage (zero shuffle at any corpus size)."""

    def canon(t: pa.Table) -> pa.Table:
        t = _with_urls(t)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "url": t["url"],
                "url_canon": canonicalize_urls(t["url"]),
            }
        )

    return _docs(sf_dir, ["doc_id", "source"]).map_batches(
        canon, batch_format="pyarrow"
    )


def url_dedup_latest(sf_dir: str) -> "ray.data.Dataset":
    """Canonical-url snapshot dedup: of all docs sharing a canonical
    url, keep the latest snapshot (max synthetic snap_ts, doc_id as the
    deterministic tie-break) and report the snapshot count. Combiner
    shape: each batch forwards ONE candidate row per local url plus its
    local count, the groupby reduces candidates — the shuffle moves
    O(distinct urls), never the corpus. Output
    (url_canon, doc_id, snap_ts, n_snapshots)."""

    def local_best(t: pa.Table) -> pa.Table:
        t = _with_urls(t)
        tbl = pa.table(
            {
                "url_canon": canonicalize_urls(t["url"]),
                "doc_id": t["doc_id"].cast(pa.int64()),
                "snap_ts": synth_snap_ts(t["doc_id"].combine_chunks()),
            }
        )
        # latest-first within url: one pass keeps each url's first row
        tbl = tbl.sort_by(
            [
                ("url_canon", "ascending"),
                ("snap_ts", "descending"),
                ("doc_id", "descending"),
            ]
        )
        u = tbl["url_canon"].to_numpy(zero_copy_only=False)
        if len(u) == 0:
            return tbl.append_column("n_snapshots", pa.array([], pa.int64()))
        change = np.r_[True, u[1:] != u[:-1]]
        starts = np.flatnonzero(change)
        counts = np.diff(np.r_[starts, len(u)])
        return tbl.take(pa.array(starts)).append_column(
            "n_snapshots", pa.array(counts, pa.int64())
        )

    def finalize(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            g,
            sort_keys=[("snap_ts", "descending"), ("doc_id", "descending")],
        )
        best = g.take(idx[:1])
        return pa.table(
            {
                "url_canon": best["url_canon"],
                "doc_id": best["doc_id"],
                "snap_ts": best["snap_ts"],
                "n_snapshots": pa.array(
                    [pc.sum(g["n_snapshots"]).as_py()], pa.int64()
                ),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "source"])
        .map_batches(local_best, batch_format="pyarrow")
        .groupby("url_canon")
        .map_groups(finalize, batch_format="pyarrow")
    )


def domain_profile(sf_dir: str) -> "ray.data.Dataset":
    """Per registrable-domain corpus profile: distinct hosts, doc count,
    total chars — the domain histogram a curation pipeline consults for
    per-domain caps and blocklists. Two-level combiner: per-batch
    (domain, host) partials, one groupby on (domain, host) collapses
    duplicates, then a (domain) groupby folds hosts — every shuffled row
    is a (domain, host) partial, never a document. Output
    (domain, n_hosts, n_docs, total_chars)."""
    from ray.data.aggregate import Count, Sum

    def partials(t: pa.Table) -> pa.Table:
        t = _with_urls(t)
        host = host_of(t["url"])
        dom = registrable_domain(host)
        tbl = pa.table(
            {
                "domain": dom,
                "host": host,
                "n_docs": pa.array(
                    np.ones(t.num_rows, dtype=np.int64), pa.int64()
                ),
                "total_chars": t["n_chars"].cast(pa.int64()),
            }
        )
        return tbl.group_by(["domain", "host"]).aggregate(
            [("n_docs", "sum"), ("total_chars", "sum")]
        ).rename_columns(["domain", "host", "n_docs", "total_chars"])

    per_host = (
        _docs(sf_dir, ["doc_id", "source", "n_chars"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["domain", "host"])
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("total_chars", alias_name="total_chars"),
        )
    )
    out = per_host.groupby("domain").aggregate(
        Count(alias_name="n_hosts"),
        Sum("n_docs", alias_name="n_docs"),
        Sum("total_chars", alias_name="total_chars"),
    )

    def typed(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "domain": t["domain"].cast(pa.string()),
                "n_hosts": t["n_hosts"].cast(pa.int64()),
                "n_docs": t["n_docs"].cast(pa.int64()),
                "total_chars": t["total_chars"].cast(pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pyarrow")


# --- link graph -------------------------------------------------------------
# Deterministic synthetic out-links: every doc links to 3 targets
# ((d*7+1), (d*13+5), (d*31+11)) mod N over the dense doc_id space —
# multi-edges and self-links allowed, identically on both engines. The
# documents table carries no link column, so the graph is synthesized
# the same way the url column is; swapping in a real (src, dst) edge
# table changes only the explode step.
PR_ITERS = 5
PR_FP = 1_000_000  # rank fixed point
PR_EDGE_MULTS = ((7, 1), (13, 5), (31, 11))


def _n_docs(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    return pq.ParquetFile(
        os.path.join(sf_dir, "documents.parquet")
    ).metadata.num_rows


def pagerank_fixed(sf_dir: str) -> "ray.data.Dataset":
    """PageRank (damping 0.85, PR_ITERS fixed iterations) in pure
    integer arithmetic: r0 = FP // N; each iteration every doc sends
    r // 3 to its 3 targets and
    r' = (15*FP) // (100*N) + (85 * inbound_sum) // 100.

    Scale shape: the canonical iterative web-graph op — one
    explode-map (4 rows per doc: 3 contributions + a zero self-row so
    sink docs keep a row) and one doc-keyed groupby-sum PER ITERATION,
    all lazily chained into a single streaming plan; no edge table is
    materialized (targets are computed from the src id in-map — with a
    real edge table this becomes the same map over co-partitioned
    edges). Exact on both engines (floor division throughout). Output
    (doc_id, rank_fp)."""
    from ray.data.aggregate import Sum

    n = _n_docs(sf_dir)
    base = (15 * PR_FP) // (100 * n)
    r0 = PR_FP // n

    def seed(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "r": pa.array(
                    np.full(t.num_rows, r0, dtype=np.int64), pa.int64()
                ),
            }
        )

    ranks = _docs(sf_dir, ["doc_id"]).map_batches(
        seed, batch_format="pyarrow"
    )

    def explode(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        r = t["r"].to_numpy(zero_copy_only=False).astype(np.int64)
        contrib = r // 3
        dsts = [(d * a + b) % n for a, b in PR_EDGE_MULTS]
        dst = np.concatenate(dsts + [d])  # self zero-row keeps sinks
        c = np.concatenate(
            [contrib] * len(PR_EDGE_MULTS) + [np.zeros(len(d), np.int64)]
        )
        return pa.table(
            {"doc_id": pa.array(dst, pa.int64()), "c": pa.array(c, pa.int64())}
        )

    def finish(t: pa.Table) -> pa.Table:
        s = t["c"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "r": pa.array(base + (85 * s) // 100, pa.int64()),
            }
        )

    for _ in range(PR_ITERS):
        ranks = (
            ranks.map_batches(explode, batch_format="pyarrow")
            .groupby("doc_id")
            .aggregate(Sum("c", alias_name="c"))
            .map_batches(finish, batch_format="pyarrow")
        )

    return ranks.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "rank_fp": t["r"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def _anchor_edges(n: int, term_set: "list[str] | None" = None):
    """map_batches fn exploding each doc's 3 out-links tagged with the
    source page's first analyzer token (the anchor-text stand-in the
    SQL twins mirror with regexp_extract). ``term_set`` restricts the
    explode to anchors in the set (anchor_search's query-term filter);
    None keeps every anchored edge (anchor_text_topk). ONE
    implementation so the regex/explode stays in lockstep with both
    oracles."""

    def fn(t: pa.Table) -> pa.Table:
        lowered = pc.utf8_lower(pc.fill_null(t["text"], ""))
        first = pc.struct_field(
            pc.extract_regex(lowered, r"(?P<t>[a-z0-9]+)"), "t"
        )
        if term_set is None:
            keep = pc.is_valid(first).to_numpy(zero_copy_only=False)
        else:
            keep = pc.is_in(
                first, value_set=pa.array(term_set, pa.string())
            ).to_numpy(zero_copy_only=False)
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        anchor = first.filter(pa.array(keep))
        anchor = (
            anchor.combine_chunks()
            if isinstance(anchor, pa.ChunkedArray)
            else anchor
        )
        dst = np.concatenate([(d * a + b) % n for a, b in PR_EDGE_MULTS])
        anchors = pa.concat_arrays([anchor] * len(PR_EDGE_MULTS))
        return pa.table(
            {"doc_id": pa.array(dst, pa.int64()), "anchor": anchors}
        )

    return fn


def anchor_text_topk(sf_dir: str) -> "ray.data.Dataset":
    """Inbound anchor-text aggregation — the classic web-index signal
    (link text describes the TARGET page better than its own body;
    every large-scale web index folds it in). The link graph is the
    same synthesized 3-out-link graph as pagerank_fixed; each edge
    carries the source page's first analyzer token as its anchor text
    stand-in (deterministic, so the SQL twin mirrors it with
    regexp_extract). Per target doc: total inbound links and the most
    frequent anchor term (count DESC, term ASC tie-break).

    Scale shape: one map (first-token extract + 3-way edge explode —
    the text column never leaves the map), ONE exact (dst, anchor)
    groupby-count, then the per-batch one-candidate-per-doc combiner +
    doc-keyed reduce of url_dedup_latest — the second shuffle moves at
    most one row per (doc, batch). Docs with no inbound anchored edge
    (source text had no token) simply don't appear, identically in
    SQL. Output (doc_id, n_inlinks, top_anchor, top_anchor_n)."""
    n = _n_docs(sf_dir)

    counted = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(_anchor_edges(n), batch_format="pyarrow")
        .groupby(["doc_id", "anchor"])
        .count()
    )

    def local_best(t: pa.Table) -> pa.Table:
        # counts are exact after the groupby; a doc's rows may still
        # span batches, so forward one local winner + a partial sum
        t = t.rename_columns(["doc_id", "anchor", "n"])
        t = t.sort_by(
            [
                ("doc_id", "ascending"),
                ("n", "descending"),
                ("anchor", "ascending"),
            ]
        )
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        if len(d) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "anchor": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "part_inlinks": pa.array([], pa.int64()),
                }
            )
        change = np.r_[True, d[1:] != d[:-1]]
        starts = np.flatnonzero(change)
        seg = np.cumsum(change) - 1
        sums = np.bincount(seg, weights=t["n"].to_numpy(zero_copy_only=False))
        return t.take(pa.array(starts)).append_column(
            "part_inlinks", pa.array(sums.astype(np.int64), pa.int64())
        )

    def finalize(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            g, sort_keys=[("n", "descending"), ("anchor", "ascending")]
        )
        best = g.take(idx[:1])
        return pa.table(
            {
                "doc_id": best["doc_id"].cast(pa.int64()),
                "n_inlinks": pa.array(
                    [pc.sum(g["part_inlinks"]).as_py()], pa.int64()
                ),
                "top_anchor": best["anchor"].cast(pa.string()),
                "top_anchor_n": best["n"].cast(pa.int64()),
            }
        )

    return (
        counted.map_batches(local_best, batch_format="pyarrow")
        .groupby("doc_id")
        .map_groups(finalize, batch_format="pyarrow")
    )


# hosts past this count need the range-partition prefix-scan rank path
# (same contract as fulltext's _EXPORT_OFFSET_KEYS_GUARD)
_FRONTIER_HOSTS_GUARD = 1_000_000


def crawl_frontier(sf_dir: str) -> "ray.data.Dataset":
    """Politeness-scheduled crawl frontier: every url gets a per-host
    WAVE (rank under page priority n_chars DESC, doc_id ASC — one
    fetch per host per wave) and a global SLOT that round-robins the
    hosts (slot = wave * n_hosts + host_rank), i.e. the dispatch order
    a rate-limited fetcher pool consumes. The reference serializes
    per-collection fetches for exactly this reason (one fetcher per
    collection, /root/reference/harvester/fetcher.py run loop); at
    Common-Crawl scale the same contract is per-HOST.

    Scale shape: hosts are ranked from a distinct-host groupby (rows =
    hosts, driver cumsum guarded at _FRONTIER_HOSTS_GUARD — past it
    this becomes the range-partition prefix-scan, the export_sorted
    contract); the corpus itself moves through ONE host-keyed groupby
    of three light columns (text never moves). Output
    (doc_id, host, wave, slot)."""

    def with_host(t: pa.Table) -> pa.Table:
        t = _with_urls(t)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "host": host_of(t["url"]),
                "n_chars": t["n_chars"].cast(pa.int64()),
            }
        )

    hosted = (
        _docs(sf_dir, ["doc_id", "source", "n_chars"])
        .map_batches(with_host, batch_format="pyarrow")
        .materialize()  # light projection, consumed twice
    )
    hosts_ds = hosted.groupby("host").count().materialize()
    n_hosts_total = hosts_ds.count()
    if n_hosts_total > _FRONTIER_HOSTS_GUARD:
        # range-partition prefix-scan rank path: host ranks computed
        # distributed (stages/scan.py, weight=1 per distinct host) and
        # unioned into the same host-keyed groupby as the url rows —
        # one all-to-all, never a host-sized driver dict.
        return _crawl_frontier_scan(hosted, hosts_ds, n_hosts_total)
    hosts = hosts_ds.take_all()
    rank_of = {
        r["host"]: i
        for i, r in enumerate(sorted(hosts, key=lambda r: r["host"]))
    }
    n_hosts = len(rank_of)
    rank_ref = ray.put(rank_of)

    def rank_group(g: pa.Table) -> pa.Table:
        hr = ray.get(rank_ref)
        idx = pc.sort_indices(
            g,
            sort_keys=[("n_chars", "descending"), ("doc_id", "ascending")],
        )
        g = g.take(idx)
        wave = np.arange(len(g), dtype=np.int64)
        return pa.table(
            {
                "doc_id": g["doc_id"].cast(pa.int64()),
                "host": g["host"].cast(pa.string()),
                "wave": pa.array(wave, pa.int64()),
                "slot": pa.array(
                    wave * n_hosts + hr[g["host"][0].as_py()], pa.int64()
                ),
            }
        )

    return hosted.groupby("host").map_groups(
        rank_group, batch_format="pyarrow"
    )


def _crawl_frontier_scan(
    hosted: "ray.data.Dataset",
    hosts_ds: "ray.data.Dataset",
    n_hosts: int,
) -> "ray.data.Dataset":
    """crawl_frontier's past-guard twin: host ranks via the
    distributed prefix scan (weight 1 per distinct host == dense rank
    in host order), unioned into the host-keyed groupby as tagged
    rows so scheduling still costs exactly one all-to-all. Output
    schema identical to the broadcast path."""
    from harvester_ray.stages.scan import keyed_prefix_offsets

    ones = hosts_ds.map_batches(
        lambda t: pa.table(
            {
                "host": t["host"],
                "_one": pa.array(np.ones(t.num_rows, np.int64)),
            }
        ),
        batch_format="pyarrow",
    )
    ranks = keyed_prefix_offsets(
        ones, "host", "_one", offset_name="_rank"
    )

    def tag_data(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "host": t["host"].cast(pa.string()),
                "doc_id": t["doc_id"].cast(pa.int64()),
                "n_chars": t["n_chars"].cast(pa.int64()),
                "_rank": pa.nulls(t.num_rows, pa.int64()),
            }
        )

    def tag_rank(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "host": t["host"].cast(pa.string()),
                "doc_id": pa.nulls(t.num_rows, pa.int64()),
                "n_chars": pa.nulls(t.num_rows, pa.int64()),
                "_rank": t["_rank"].cast(pa.int64()),
            }
        )

    unioned = hosted.map_batches(tag_data, batch_format="pyarrow").union(
        ranks.map_batches(tag_rank, batch_format="pyarrow")
    )

    def rank_group(g: pa.Table) -> pa.Table:
        host_rank = int(pc.max(g["_rank"]).as_py())  # one rank row
        data = g.filter(pc.is_valid(g["doc_id"]))
        idx = pc.sort_indices(
            data,
            sort_keys=[("n_chars", "descending"), ("doc_id", "ascending")],
        )
        data = data.take(idx)
        wave = np.arange(len(data), dtype=np.int64)
        return pa.table(
            {
                "doc_id": data["doc_id"],
                "host": data["host"],
                "wave": pa.array(wave, pa.int64()),
                "slot": pa.array(wave * n_hosts + host_rank, pa.int64()),
            }
        )

    return unioned.groupby("host").map_groups(
        rank_group, batch_format="pyarrow"
    )


# --- HITS (hubs & authorities) ----------------------------------------------
# Same synthesized 3-out-link graph as pagerank_fixed; HITS_ITERS
# interleaved power iterations (a_i = norm(A^T h_{i-1}), h_i =
# norm(A a_i)) with L1 normalization to HITS_FP each half-step so every
# value stays a bounded int64 (c * FP // sum(c), all positive — floor
# division agrees across engines).
HITS_ITERS = 2
HITS_FP = 1_000_000


def _hits_fp(n_docs: int) -> int:
    """Domain-derived L1 scale: the smallest power-of-10 multiple of
    HITS_FP that exceeds the doc count, so the uniform seed FP // n is
    nonzero for ANY corpus size (gate corpora derive HITS_FP itself,
    keeping the static DuckDB oracle green).

    The rescaling step c * fp // total must stay int64: raw counts c
    are bounded by the conserved L1 mass (≈ fp), so the product is
    bounded by ~fp² — past that the iteration would WRAP silently
    (wrong scores), so fail loudly instead, mirroring
    _kmeans_domain_guard's convention."""
    fp = HITS_FP
    while fp // max(n_docs, 1) <= 0:
        fp *= 10
    if fp * (2 * fp) >= 2**63:
        raise NotImplementedError(
            f"derived HITS L1 scale {fp} (doc count {n_docs}) would "
            "overflow the int64 rescaling product c * fp; switch the "
            "rank columns to a wider integer type"
        )
    return fp


def hits_scores(sf_dir: str) -> "ray.data.Dataset":
    """HITS hub/authority scores over the synthetic link graph in pure
    integer arithmetic: (doc_id, auth_fp, hub_fp).

    Scale shape — the pattern PageRank cannot show: the hub half-step
    needs a(dst) AT the src row, i.e. a genuine distributed join of the
    rank table onto the edge stream (edges re-derived in-map from the
    dense id space; a real edge table swaps in as the same join). Per
    iteration: one explode + doc-keyed groupby-sum (authority), one
    edge⨝rank hash join + src-keyed groupby-sum (hub), and two driver
    SCALARS (the L1 sums) — rank tables are kept RAW (unnormalized) and
    the c * FP // total scaling is fused into each consumer map, so the
    only materializations are the two grouped sums per iteration; the
    rank tables live distributed, never collected."""
    from ray.data.aggregate import Sum

    from harvester_ray.stages.joins import ds_join

    n = _n_docs(sf_dir)
    fp = _hits_fp(n)  # domain-derived: always exceeds the doc count

    from harvester_ray.config import shuffle_partitions

    # size-aware join plan: rank tables carry one row per doc, so the
    # all-to-all partition count derives from n (cluster-derived cap at
    # corpus scale, a handful of partitions at fixture scale)
    join_parts = max(4, min(shuffle_partitions(), n // 50_000 + 4))
    raw_schema = pa.schema([("doc_id", pa.int64()), ("c", pa.int64())])
    edge_schema = pa.schema([("src", pa.int64()), ("doc_id", pa.int64())])

    def seed(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "c": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
            }
        )

    def explode_fwd(total: int):
        # scaled h contributions to each target + a zero self-row so
        # docs with no inlinks keep a (zero) authority row
        def fn(t: pa.Table) -> pa.Table:
            d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            c = t["c"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            v = c * fp // total
            dst = np.concatenate(
                [(d * a + b) % n for a, b in PR_EDGE_MULTS] + [d]
            )
            cc = np.concatenate(
                [v] * len(PR_EDGE_MULTS) + [np.zeros(len(d), np.int64)]
            )
            return pa.table(
                {
                    "doc_id": pa.array(dst, pa.int64()),
                    "c": pa.array(cc, pa.int64()),
                }
            )

        return fn

    def edges_of(t: pa.Table) -> pa.Table:
        # (src, doc_id=dst) edge rows re-derived from the dense id space
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = np.concatenate([(d * a + b) % n for a, b in PR_EDGE_MULTS])
        return pa.table(
            {
                "src": pa.array(np.tile(d, len(PR_EDGE_MULTS)), pa.int64()),
                "doc_id": pa.array(dst, pa.int64()),
            }
        )

    def scaled(total: int, out_col: str):
        def fn(t: pa.Table) -> pa.Table:
            c = t["c"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "doc_id": t["doc_id"].cast(pa.int64()),
                    out_col: pa.array(c * fp // total, pa.int64()),
                }
            )

        return fn

    # seed: raw c = 1 per doc with total n scales to FP // n
    h_raw = _docs(sf_dir, ["doc_id"]).map_batches(
        seed, batch_format="pyarrow"
    )
    total_h = n
    a_raw, total_a = h_raw, total_h  # overwritten in the first iteration
    for _ in range(HITS_ITERS):
        a_raw = (
            h_raw.map_batches(explode_fwd(total_h), batch_format="pyarrow")
            .groupby("doc_id")
            .aggregate(Sum("c", alias_name="c"))
            .map_batches(
                lambda t: pa.table(
                    {
                        "doc_id": t["doc_id"].cast(pa.int64()),
                        "c": t["c"].cast(pa.int64()),
                    }
                ),
                batch_format="pyarrow",
            )
            .materialize()
        )
        total_a = int(a_raw.sum("c"))
        edges = a_raw.map_batches(edges_of, batch_format="pyarrow")
        joined = ds_join(
            edges,
            a_raw,
            on=("doc_id",),
            schemas=(edge_schema, raw_schema),
            num_partitions=join_parts,
        )

        def hub_contrib(t: pa.Table, _total=total_a) -> pa.Table:
            c = t["c"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "doc_id": t["src"].cast(pa.int64()),
                    "c": pa.array(c * fp // _total, pa.int64()),
                }
            )

        h_raw = (
            joined.map_batches(hub_contrib, batch_format="pyarrow")
            .groupby("doc_id")
            .aggregate(Sum("c", alias_name="c"))
            .map_batches(
                lambda t: pa.table(
                    {
                        "doc_id": t["doc_id"].cast(pa.int64()),
                        "c": t["c"].cast(pa.int64()),
                    }
                ),
                batch_format="pyarrow",
            )
            .materialize()
        )
        total_h = int(h_raw.sum("c"))

    auth = a_raw.map_batches(
        scaled(total_a, "auth_fp"), batch_format="pyarrow"
    )
    hub = h_raw.map_batches(scaled(total_h, "hub_fp"), batch_format="pyarrow")
    return ds_join(
        auth,
        hub,
        on=("doc_id",),
        schemas=(
            pa.schema([("doc_id", pa.int64()), ("auth_fp", pa.int64())]),
            pa.schema([("doc_id", pa.int64()), ("hub_fp", pa.int64())]),
        ),
        num_partitions=join_parts,
    )


# triangle_count's edge family: the 3 affine out-links + 2 local
# neighbor links (the affine family alone closes no triangles)
TRI_EDGE_MULTS = PR_EDGE_MULTS + ((1, 1), (1, 2))

# process-level cache of materialized graph artifacts — the same
# sharing contract as fulltext._MATCH_SET_CACHE: the canonical edge
# table and the triangle counts are each consumed by several gate
# entries (triangle_count, clustering_coef, kcore_membership), and
# both are bounded int-pair tables (~|TRI_EDGE_MULTS| rows/doc, two
# int64 columns), far smaller than the corpus. Keyed by path only;
# the gate's sf_dirs are read-only testdata.
_GRAPH_CACHE: dict = {}
_GRAPH_CACHE_MAX = 8


def _graph_cached(sf_dir: str, kind: str, build) -> "ray.data.Dataset":
    key = (os.path.abspath(sf_dir), kind)
    hit = _GRAPH_CACHE.get(key)
    if hit is None:
        while len(_GRAPH_CACHE) >= _GRAPH_CACHE_MAX:
            _GRAPH_CACHE.pop(next(iter(_GRAPH_CACHE)))
        hit = _GRAPH_CACHE[key] = build().materialize()
    return hit


def _canonical_edges(sf_dir: str) -> "ray.data.Dataset":
    """Undirected, de-duplicated, self-loop-free (u < v) edges of the
    affine+local link graph — shared by triangle_count,
    clustering_coef and kcore_membership (materialized once per
    process via _graph_cached). Edges synthesize in-map from doc_id;
    dedup is one (u, v)-keyed groupby."""
    return _graph_cached(
        sf_dir, "canonical_edges", lambda: _canonical_edges_plan(sf_dir)
    )


def _canonical_edges_plan(sf_dir: str) -> "ray.data.Dataset":
    from ray.data.aggregate import Count

    n = _n_docs(sf_dir)

    def edges(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([d] * len(TRI_EDGE_MULTS))
        dst = np.concatenate([(d * a + b) % n for a, b in TRI_EDGE_MULTS])
        u, v = np.minimum(src, dst), np.maximum(src, dst)
        keep = u != v
        return pa.table(
            {
                "u": pa.array(u[keep], pa.int64()),
                "v": pa.array(v[keep], pa.int64()),
            }
        )

    return (
        _docs(sf_dir, ["doc_id"])
        .map_batches(edges, batch_format="pyarrow")
        .groupby(["u", "v"])
        .aggregate(Count(alias_name="_m"))  # dedup multi-edges
        .map_batches(
            lambda t: pa.table(
                {"u": t["u"].cast(pa.int64()), "v": t["v"].cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
    )


def triangle_count(sf_dir: str) -> "ray.data.Dataset":
    """Per-doc triangle participation over the synthesized 3-out-link
    graph — the canonical two-join distributed graph op (the workload
    a web-graph clustering-coefficient pass runs at crawl scale).
    Semantics: undirected, de-duplicated, self-loop-free edges
    (u < v); a triangle is {a < b < c} with all three edges present;
    output (doc_id, n_triangles) for every doc in >= 1 triangle.

    The edge family is PR_EDGE_MULTS plus two LOCAL links (d -> d+1,
    d -> d+2, the site-navigation edges of a real crawl): the affine
    family alone is measurably triangle-free at every sf, so the
    local links supply the closable wedges.

    Scale shape: edges synthesize in-map from doc_id (a real edge
    table swaps in); canonicalization is one (u, v)-keyed groupby
    (dedup); wedges come from the SELF-JOIN of the edge table on its
    lower endpoint (partitioned hash join, b < c kept post-join: each
    wedge exists once); closing edges via a second hash join on the
    composite (b, c) key; the final explode + doc-keyed groupby-sum
    counts each doc's triangles. Per-vertex work is bounded by
    degree^2 — with 5 out-links per doc the undirected degree is ~10,
    so wedge fan-out is a small constant (a real power-law graph
    needs the standard high-degree-vertex split on join 1).

    The (doc_id, n_triangles) result is itself cached per process
    (clustering_coef joins it back in)."""
    return _graph_cached(
        sf_dir, "triangle_count", lambda: _triangle_count_plan(sf_dir)
    )


def _triangle_count_plan(sf_dir: str) -> "ray.data.Dataset":
    from ray.data.aggregate import Count

    from harvester_ray.stages.joins import partitioned_join

    edge_ds = _canonical_edges(sf_dir)
    esch = pa.schema([("u", pa.int64()), ("v", pa.int64())])

    # wedges (a, b, c): edges (a,b) and (a,c) sharing lower endpoint a
    right = edge_ds.map_batches(
        lambda t: t.rename_columns(["u", "w"]), batch_format="pyarrow"
    )
    wedges = partitioned_join(
        edge_ds,
        right,
        on=["u"],
        schemas=(esch, pa.schema([("u", pa.int64()), ("w", pa.int64())])),
    ).map_batches(
        lambda t: t.filter(pc.less(t["v"], t["w"])).rename_columns(
            ["a", "b", "c"]
        ),
        batch_format="pyarrow",
    )

    # close each wedge with the (b, c) edge
    tri = partitioned_join(
        wedges.map_batches(
            lambda t: t.rename_columns(["a", "u", "v"]),
            batch_format="pyarrow",
        ),
        edge_ds.map_batches(
            lambda t: t.append_column(
                "_hit", pa.array(np.ones(len(t), np.int64), pa.int64())
            ),
            batch_format="pyarrow",
        ),
        on=["u", "v"],
        schemas=(
            pa.schema(
                [("a", pa.int64()), ("u", pa.int64()), ("v", pa.int64())]
            ),
            pa.schema(
                [("u", pa.int64()), ("v", pa.int64()), ("_hit", pa.int64())]
            ),
        ),
    )

    def explode(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"doc_id": pa.array(np.concatenate([a, b, c]), pa.int64())}
        )

    return (
        tri.map_batches(explode, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Count(alias_name="n_triangles"))
        .map_batches(
            lambda t: pa.table(
                {
                    "doc_id": t["doc_id"].cast(pa.int64()),
                    "n_triangles": t["n_triangles"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


BFS_ITERS = 4
BFS_SEED = 0


def bfs_layers(sf_dir: str) -> "ray.data.Dataset":
    """Single-source shortest HOP distance from doc BFS_SEED over the
    directed affine+local out-link graph, depth-limited to BFS_ITERS —
    the crawl-depth / link-distance signal (how many clicks from the
    seed), and the frontier-expansion iterative shape pagerank_fixed's
    value propagation doesn't exercise. Bellman-Ford relaxation: each
    iteration every reached doc re-emits itself plus (target, dist+1)
    for its out-links, then ONE doc-keyed groupby-min — distances only
    shrink, so BFS_ITERS rounds give exact <=BFS_ITERS-hop distances.
    Targets are computed from the src id in-map (no edge table); the
    whole loop chains lazily into one streaming plan like
    pagerank_fixed. Output (doc_id, dist) for docs reached within
    BFS_ITERS hops."""
    from ray.data.aggregate import Min

    n = _n_docs(sf_dir)

    seed = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([BFS_SEED], pa.int64()),
                "dist": pa.array([0], pa.int64()),
            }
        )
    )

    def relax(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        dist = t["dist"].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = np.concatenate(
            [d] + [(d * a + b) % n for a, b in TRI_EDGE_MULTS]
        )
        nd = np.concatenate([dist] + [dist + 1] * len(TRI_EDGE_MULTS))
        return pa.table(
            {
                "doc_id": pa.array(dst, pa.int64()),
                "dist": pa.array(nd, pa.int64()),
            }
        )

    cur = seed
    for _ in range(BFS_ITERS):
        cur = (
            cur.map_batches(relax, batch_format="pyarrow")
            .groupby("doc_id")
            .aggregate(Min("dist", alias_name="dist"))
        )

    return cur.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "dist": t["dist"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def _edge_degrees(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """(doc_id, degree) over an undirected (u, v) edge table: one
    endpoint-explode map + one doc-keyed groupby-count (shared by
    clustering_coef and every kcore peeling round)."""
    from ray.data.aggregate import Count

    def endpoints(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"doc_id": pa.array(np.concatenate([u, v]), pa.int64())}
        )

    return (
        edges.map_batches(endpoints, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Count(alias_name="degree"))
        .map_batches(
            lambda t: pa.table(
                {
                    "doc_id": t["doc_id"].cast(pa.int64()),
                    "degree": t["degree"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


LCC_FP = 1_000_000  # clustering-coefficient fixed point


def clustering_coef(sf_dir: str) -> "ray.data.Dataset":
    """Per-doc local clustering coefficient over the undirected link
    graph — lcc = 2*T / (deg*(deg-1)) in LCC_FP fixed point (floor
    division; docs with deg < 2 score 0): the web-graph community
    signal triangle_count's raw counts feed. Degrees come from ONE
    endpoint-explode + doc-keyed groupby over the canonical edge
    table; triangle counts join in by doc_id (left outer — most docs
    are in no triangle); the division is a vectorized map. Output
    (doc_id, degree, n_triangles, lcc_fp) for every doc with >= 1
    edge."""
    from harvester_ray.stages.joins import partitioned_join

    deg = _edge_degrees(_canonical_edges(sf_dir))
    joined = partitioned_join(
        deg,
        triangle_count(sf_dir),
        on=["doc_id"],
        how="left_outer",
        schemas=(
            pa.schema([("doc_id", pa.int64()), ("degree", pa.int64())]),
            pa.schema([("doc_id", pa.int64()), ("n_triangles", pa.int64())]),
        ),
    )

    def lcc(t: pa.Table) -> pa.Table:
        d = t["degree"].to_numpy(zero_copy_only=False).astype(np.int64)
        tri = (
            t["n_triangles"]
            .fill_null(0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        denom = d * (d - 1)
        out = np.where(denom > 0, (2 * tri * LCC_FP) // np.maximum(denom, 1), 0)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "degree": pa.array(d, pa.int64()),
                "n_triangles": pa.array(tri, pa.int64()),
                "lcc_fp": pa.array(out, pa.int64()),
            }
        )

    return joined.map_batches(lcc, batch_format="pyarrow")


def domain_rank(sf_dir: str) -> "ray.data.Dataset":
    """Host-level PageRank mass: the per-doc rank_fp of pagerank_fixed
    rolled up to the synthesized url host — the site-authority rollup
    a crawl scheduler prioritizes fetch queues by. ONE doc_id-keyed
    hash join attaches each doc's host (both sides co-partition by the
    same key) and one host-keyed groupby sums; rank rows are two ints,
    so the join moves no text. Output (host, rank_fp, n_docs)."""
    from ray.data.aggregate import Count, Sum

    from harvester_ray.functions.urls import host_of
    from harvester_ray.stages.joins import ds_join

    def hosts(t: pa.Table) -> pa.Table:
        t = _with_urls(t)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "host": host_of(t["url"]),
            }
        )

    host_ds = _docs(sf_dir, ["doc_id", "source"]).map_batches(
        hosts, batch_format="pyarrow"
    )
    joined = ds_join(
        pagerank_fixed(sf_dir),
        host_ds,
        on=("doc_id",),
        schemas=(
            pa.schema([("doc_id", pa.int64()), ("rank_fp", pa.int64())]),
            pa.schema([("doc_id", pa.int64()), ("host", pa.string())]),
        ),
    )
    return (
        joined.groupby("host")
        .aggregate(
            Sum("rank_fp", alias_name="rank_fp"),
            Count(alias_name="n_docs"),
        )
        .map_batches(
            lambda t: pa.table(
                {
                    "host": t["host"].cast(pa.string()),
                    "rank_fp": t["rank_fp"].cast(pa.int64()),
                    "n_docs": t["n_docs"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


KCORE_K = 3
KCORE_ROUNDS = 8  # peel rounds; convergence at this bound is pytest-pinned


def kcore_membership(sf_dir: str) -> "ray.data.Dataset":
    """K-core decomposition (k = KCORE_K) by synchronous degree
    peeling — the graph-densification filter a web-spam / community
    pipeline runs after triangle counting: each round drops every
    vertex with degree < k and every edge touching one, KCORE_ROUNDS
    rounds (fixed bound so the SQL twin unrolls; convergence at the
    bound is pinned in pytest against an unbounded pure-Python peel).
    Per round: ONE endpoint-explode + doc-keyed groupby-count, then
    two empty-partition-safe hash semi-joins filter the edge stream to
    surviving endpoints — edges and degrees stay distributed
    throughout. Output (doc_id, core_degree) for the surviving
    vertices with their within-core degree."""
    from harvester_ray.stages.joins import partitioned_join

    esch = pa.schema([("u", pa.int64()), ("v", pa.int64())])
    vsch = pa.schema([("doc_id", pa.int64()), ("degree", pa.int64())])
    degrees = _edge_degrees

    # each round's edge set feeds THREE consumers (degree count + two
    # semi-joins), so it is materialized per round — the standard
    # iterative-algorithm checkpoint, bounded by the SHRINKING edge
    # table (ints only, ~|TRI_EDGE_MULTS| rows/doc at round 0), never
    # the corpus. Peeling is monotone (the edge set only shrinks and a
    # stable round keeps every edge), so an unchanged edge count means
    # every later round is the identity — exact early exit.
    edges = _canonical_edges(sf_dir)
    prev_m = edges.count()
    for _ in range(KCORE_ROUNDS):
        kept = degrees(edges).map_batches(
            lambda t: t.filter(
                pc.greater_equal(t["degree"], KCORE_K)
            ).select(["doc_id"]),
            batch_format="pyarrow",
        ).materialize()
        for key in ("u", "v"):
            edges = partitioned_join(
                edges,
                kept.map_batches(
                    lambda t, _k=key: t.rename_columns([_k]),
                    batch_format="pyarrow",
                ),
                on=[key],
                # the edge table only SHRINKS: a low fixed fan-out
                # bounds the per-round block count (8 rounds x 2 joins
                # of object-store blocks otherwise exhausts fds)
                num_partitions=8,
                schemas=(esch, pa.schema([(key, pa.int64())])),
            ).map_batches(
                lambda t: t.select(["u", "v"]), batch_format="pyarrow"
            )
        edges = edges.materialize()
        m = edges.count()
        if m == prev_m:
            break
        prev_m = m

    return degrees(edges).map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "core_degree": t["degree"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


# --- geo / spatial search ----------------------------------------------------
# Deterministic synthetic geotags over the dense doc_id space — the
# documents table carries no coordinate column, so (lat, lon) are
# synthesized the same way the url/link columns are (affine mod, both
# engines mirror the arithmetic); swapping in real page geotags changes
# only the in-map synth. Coordinates are INTEGER micro-degrees and the
# distance metric is the squared planar (flat-earth) distance in
# micro-degrees — no trig, no floats, so ranks and distances are exact
# on both engines (the Solr analog is geofilt + sort=geodist with a
# plane-projection distance; great-circle needs only a different
# in-map kernel).
# multipliers exceed the moduli so even a tiny dense id space wraps
# and spreads over the whole coordinate box (products stay < 2^63 for
# any realistic doc count; both engines use the same BIGINT terms)
GEO_LAT_MULT, GEO_LAT_ADD, GEO_LAT_MOD = 2_654_435_761, 11, 180_000_001
GEO_LON_MULT, GEO_LON_ADD, GEO_LON_MOD = 2_246_822_519, 7, 360_000_001
GEO_TOP_K = 10
# squared radius for the geofilt predicate: 90 degrees in micro-degrees
GEO_RADIUS2 = 90_000_000**2
# (query_id, lat_u, lon_u) probe points, micro-degrees
GEO_QUERY_POINTS = (
    (1, 25_000_000, -100_000_000),
    (2, -40_000_000, 150_000_000),
    (3, 60_000_000, 10_000_000),
    (4, 0, 0),
    (5, -10_000_000, -60_000_000),
)
# (query_id, lat_lo, lat_hi, lon_lo, lon_hi) bounding boxes (closed)
GEO_BBOXES = (
    (1, -90_000_000, 0, -180_000_000, 0),
    (2, 0, 90_000_000, 0, 180_000_000),
    (3, -45_000_000, 45_000_000, -90_000_000, 90_000_000),
)


def _geo_coords(ids: "np.ndarray") -> "tuple[np.ndarray, np.ndarray]":
    lat = (ids * GEO_LAT_MULT + GEO_LAT_ADD) % GEO_LAT_MOD - 90_000_000
    lon = (ids * GEO_LON_MULT + GEO_LON_ADD) % GEO_LON_MOD - 180_000_000
    return lat, lon


def geo_radius_topk(sf_dir: str) -> "ray.data.Dataset":
    """Radius-filtered nearest-neighbor search (Solr geofilt +
    sort=geodist): for each GEO_QUERY_POINTS probe, the GEO_TOP_K
    closest documents within GEO_RADIUS2, ranked (dist2 ASC, doc_id
    ASC). Output (query_id, rank, doc_id, dist2).

    Scale shape: coordinates synthesize in-map; each batch computes
    the |batch| x |Q| squared-distance matrix (ints) and applies the
    radius predicate; topk_per_key's per-block pre-prune keeps k rows
    per query (lossless under the total order), so the final
    query-keyed groupby sees <= k x Q x blocks rows — the
    ann_cosine_topk_batch shape with an integer metric. A production
    layout would hive-partition by coarse grid cell and prune probes
    to cells intersecting the radius (the ann_lsh_topk pattern)."""

    def score(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat, lon = _geo_coords(ids)
        out_q, out_d, out_s = [], [], []
        for qid, qlat, qlon in GEO_QUERY_POINTS:
            dist2 = (lat - qlat) ** 2 + (lon - qlon) ** 2
            m = dist2 <= GEO_RADIUS2
            out_q.append(np.full(int(m.sum()), qid, np.int64))
            out_d.append(ids[m])
            out_s.append(dist2[m])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
                "dist2": pa.array(np.concatenate(out_s), pa.int64()),
            }
        )

    return topk_per_key(
        _docs(sf_dir, ["doc_id"]).map_batches(score, batch_format="pyarrow"),
        "query_id",
        [("dist2", "ascending"), ("doc_id", "ascending")],
        GEO_TOP_K,
        ["doc_id", "dist2"],
        rank="rank",
    )


def geo_bbox_stats(sf_dir: str) -> "ray.data.Dataset":
    """Bounding-box spatial facet with stats (the Solr spatial facet +
    stats component): for each GEO_BBOXES box, the count of documents
    whose synthesized point falls inside (closed bounds) and their
    total n_chars. Output (query_id, n_docs, sum_chars).

    Scale shape: map-only membership tests + per-batch partial sums;
    the groupby moves |boxes| x batches rows."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nch = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        lat, lon = _geo_coords(ids)
        qs, ns, cs = [], [], []
        for qid, lat_lo, lat_hi, lon_lo, lon_hi in GEO_BBOXES:
            m = (
                (lat >= lat_lo)
                & (lat <= lat_hi)
                & (lon >= lon_lo)
                & (lon <= lon_hi)
            )
            qs.append(qid)
            ns.append(int(m.sum()))
            cs.append(int(nch[m].sum()))
        return pa.table(
            {
                "query_id": pa.array(qs, pa.int64()),
                "n_docs": pa.array(ns, pa.int64()),
                "sum_chars": pa.array(cs, pa.int64()),
            }
        )

    out = (
        _docs(sf_dir, ["doc_id", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("query_id")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("sum_chars", alias_name="sum_chars"),
        )
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "query_id": t["query_id"].cast(pa.int64()),
                "n_docs": t["n_docs"].cast(pa.int64()),
                "sum_chars": t["sum_chars"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def anchor_search_topk(sf_dir: str) -> "ray.data.Dataset":
    """Anchor-text search — ranking docs by what OTHER pages' links
    say about them (the web-search signal body-BM25 cannot see: a page
    is what its inbound anchors call it). For each OR query, docs rank
    by total inbound anchor hits over the query's terms (hits DESC,
    doc_id ASC, top TOP_K); a doc with no matching inbound anchor
    never appears. Output (query_id, rank, doc_id, hits).

    Scale shape: the edge explode filters anchors to the query-term
    set IN the first map (the query set is a driver constant — the
    only thing broadcast), so the exact (doc, anchor) groupby moves
    only matching edges; the per-query expand is a map over that
    dictionary-bounded table and the final (query, doc) groupby +
    topk_per_key's per-block prune move O(queries x K) rows."""
    from ray.data.aggregate import Sum

    from harvester_ray.functions.text import tokenize
    from harvester_ray.pipelines.fulltext import TOP_K, queries_for_mode

    n = _n_docs(sf_dir)
    qterms = [
        (qid, sorted(set(tokenize(q))))
        for qid, q in queries_for_mode("or")
    ]
    term_list = sorted({t for _, ts in qterms for t in ts})
    qids_of: dict[str, list[int]] = {}
    for qid, ts in qterms:
        for tm in ts:
            qids_of.setdefault(tm, []).append(qid)
    # flat (term -> qids) layout for the vectorized expand: qid_flat
    # holds every term's query ids back to back, starts/counts index it
    term_arr = np.array(term_list)
    counts = np.array([len(qids_of[t]) for t in term_list], np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    qid_flat = np.array(
        [q for t in term_list for q in qids_of[t]], np.int64
    )

    counted = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(
            _anchor_edges(n, term_set=term_list), batch_format="pyarrow"
        )
        .groupby(["doc_id", "anchor"])
        .count()
    )

    def expand(t: pa.Table) -> pa.Table:
        t = t.rename_columns(["doc_id", "anchor", "n"])
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        an = t["anchor"].to_numpy(zero_copy_only=False)
        codes = np.searchsorted(term_arr, an)  # anchors are in the set
        reps = counts[codes]
        total = int(reps.sum())
        # fully vectorized term->qids gather (no per-row Python loop:
        # rows here are (dst doc, anchor) pairs — corpus-proportional)
        base = np.repeat(starts[codes], reps)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(reps) - reps, reps
        )
        return pa.table(
            {
                "query_id": pa.array(qid_flat[base + within], pa.int64()),
                "doc_id": pa.array(np.repeat(d, reps), pa.int64()),
                "hits": pa.array(np.repeat(cnt, reps), pa.int64()),
            }
        )

    summed = (
        counted.map_batches(expand, batch_format="pyarrow")
        .groupby(["query_id", "doc_id"])
        .aggregate(Sum("hits", alias_name="hits"))
    )
    return topk_per_key(
        summed,
        "query_id",
        [("hits", "descending"), ("doc_id", "ascending")],
        TOP_K,
        ["doc_id", "hits"],
        rank="rank",
    )
