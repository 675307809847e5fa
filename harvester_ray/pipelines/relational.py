"""Relational pipelines over the TPC-H-ish test tables, Ray-Data-first.

These cover the reference's relational-shaped behaviors (SURVEY.md
§2.5-§2.7): grouped aggregation with per-batch partial combine,
broadcast dimension joins (the ``_add_registry_data`` pattern,
harvester/fetcher/controller.py:214-241), a hash-shuffle ``Dataset.join``
for two large sides, sorts/top-k/distinct, and a sessionization
``groupby(key).map_groups`` for the stream-shaped ``events`` table
(the `_changes`-feed analog, SURVEY.md §2.9).

Float columns returned to the oracle comparison are fixed-point
encoded (BIGINT of value*10^4, half-up) on BOTH sides (see
_round_cols / oracles.py): float rounding itself differs across
engines in the last ulp, so bit-exact cross-engine equality requires
integers.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data
from ray.data.aggregate import Count, Sum

from harvester_ray.functions.text import flatten_tokens, tokenize_column
from harvester_ray.stages.topk import topk_per_key

STOPWORDS = ("the", "a", "of", "and", "to")
SESSION_GAP_MIN = 30


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    return ray.data.read_parquet(
        os.path.join(sf_dir, f"{table}.parquet"), columns=columns
    )


def _round_cols(ds: "ray.data.Dataset", cols: list[str], digits: int = 4):
    """Fixed-point encode float columns as BIGINT(value * 10^digits,
    half-up) — cross-engine float rounding differs in the last ulp
    (measured: pyarrow round vs DuckDB round disagree by ~5e-14), so
    bit-exact comparison requires integers. The SQL twins apply
    CAST(floor(x * 10^digits + 0.5) AS BIGINT) — same definition."""
    scale = float(10**digits)

    def f(t: pa.Table) -> pa.Table:
        for c in cols:
            x = t[c].cast(pa.float64()).to_numpy(zero_copy_only=False)
            fx = np.floor(x * scale + 0.5).astype(np.int64)
            t = t.set_column(
                t.column_names.index(c), c, pa.array(fx, pa.int64())
            )
        # typed empty output: an empty batch must still carry the full
        # target schema or Ray logs schema-mismatch RefBundle warnings
        if len(t) == 0:
            t = pa.table(
                {c: t[c].cast(pa.int64()) if c in cols else t[c]
                 for c in t.column_names}
            )
        return t

    return ds.map_batches(f, batch_format="pyarrow")


# -- grouped aggregation (q1-style pricing summary) ----------------------
def q1_pricing(sf_dir: str) -> "ray.data.Dataset":
    """Filter → computed column → groupby agg. The per-batch compute is
    all pyarrow kernels; the groupby ships Ray's partial-aggregating
    Sum/Count (combiner before shuffle)."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount", "l_shipdate"],
    )

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.less_equal(t["l_shipdate"], pa.scalar(pd.Timestamp("1998-09-01")))
        )
        disc = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        return t.append_column("disc_price", disc)

    # fixed-point at the ROW, then integer sums: float sums are not
    # associative, and once |sum|*10^4 nears 2^53 the engines' partial
    # orders land on different integers (observed at sf0.1) — integer
    # sums are exact at any scale
    prepped = _round_cols(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["l_quantity", "l_extendedprice", "disc_price"],
    )
    return (
        prepped.groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("l_extendedprice", alias_name="sum_base"),
            Sum("disc_price", alias_name="sum_disc_price"),
            Count(alias_name="n_rows"),
        )
    )


# -- hash-shuffle join (both sides large) --------------------------------
# broadcast-semi-join guard: key sets above this spill to a hash join
# (the customer side of q3 scales WITH the fact data — an unguarded
# driver set is an unbounded materialization at 100x)
_BROADCAST_KEYS_GUARD = 8_000_000


def q3_top_orders(sf_dir: str) -> "ray.data.Dataset":
    """customer⋈orders via broadcast semi-join while the building-key
    set fits the guard (ray.put once, isin per batch), falling back to
    a hash-partitioned ``Dataset.join`` beyond it; then orders⋈lineitem
    via hash join (both sides scale with the fact data), then groupby +
    top-k."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    building = cust.map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING")),
        batch_format="pyarrow",
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    n_building = building.count()
    if n_building <= _BROADCAST_KEYS_GUARD:
        custkeys = set(building.unique("c_custkey"))
        ckeys_ref = ray.put(np.fromiter(custkeys, dtype=np.int64))

        def filt_orders(t: pa.Table) -> pa.Table:
            keys = ray.get(ckeys_ref)
            mask = np.isin(t["o_custkey"].to_numpy(zero_copy_only=False), keys)
            return t.filter(pa.array(mask))

        orders = orders.map_batches(filt_orders, batch_format="pyarrow")
    else:
        from harvester_ray.stages.joins import ds_join

        orders = ds_join(
            orders,
            building.select_columns(["c_custkey"]),
            on=("o_custkey",),
            right_on=("c_custkey",),
            schemas=(
                pa.schema(
                    [("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]
                ),
                pa.schema([("c_custkey", pa.int64())]),
            ),
        ).select_columns(["o_orderkey", "o_custkey"])

    line = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def revenue(t: pa.Table) -> pa.Table:
        rev = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        return pa.table({"l_orderkey": t["l_orderkey"], "revenue": rev})

    # row-level fixed point before the sum (see q1 note)
    line = _round_cols(
        line.map_batches(revenue, batch_format="pyarrow"), ["revenue"]
    )
    from harvester_ray.stages.joins import ds_join

    joined = ds_join(
        line,
        orders,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
        schemas=(
            pa.schema([("l_orderkey", pa.int64()), ("revenue", pa.int64())]),
            pa.schema([("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]),
        ),
    )
    agg = joined.groupby("l_orderkey").aggregate(Sum("revenue", alias_name="revenue"))
    top = agg.sort(["revenue", "l_orderkey"], descending=[True, False]).limit(10)
    return top.map_batches(
        lambda t: pa.table({"o_orderkey": t["l_orderkey"], "revenue": t["revenue"]}),
        batch_format="pyarrow",
    )


# -- broadcast dimension join -------------------------------------------
def region_customer_stats(sf_dir: str) -> "ray.data.Dataset":
    """nation+region are config-scale: captured as a plain dict inside
    the batch fn (the reference's registry broadcast-enrich,
    harvester/fetcher/controller.py:214-241) — no shuffle join."""
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pandas()
    region = pq.read_table(os.path.join(sf_dir, "region.parquet")).to_pandas()
    rmap = dict(zip(region["r_regionkey"], region["r_name"]))
    nk_to_region = {
        int(nk): rmap[rk] for nk, rk in zip(nation["n_nationkey"], nation["n_regionkey"])
    }

    cust = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])
    # vectorized lookup: sorted key array + searchsorted + string take
    # (the per-row dict comprehension was row-rate cost at scale)
    nk_keys = np.array(sorted(nk_to_region), dtype=np.int64)
    nk_names = pa.array([nk_to_region[int(k)] for k in nk_keys], pa.string())

    def add_region(t: pa.Table) -> pa.Table:
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(nk_keys, nk)
        return t.append_column("r_name", pc.take(nk_names, pa.array(idx)))

    return (
        _round_cols(
            cust.map_batches(add_region, batch_format="pyarrow"),
            ["c_acctbal"],
        )
        .groupby("r_name")
        .aggregate(
            Count(alias_name="n_customers"),
            Sum("c_acctbal", alias_name="sum_acctbal"),
        )
    )


# -- simple aggregates / distinct / top-k --------------------------------
def orders_priority_count(sf_dir: str) -> "ray.data.Dataset":
    return (
        _read(sf_dir, "orders", ["o_orderpriority"])
        .groupby("o_orderpriority")
        .aggregate(Count(alias_name="n"))
    )


def distinct_segments(sf_dir: str) -> pa.Table:
    vals = sorted(_read(sf_dir, "customer", ["c_mktsegment"]).unique("c_mktsegment"))
    return pa.table({"c_mktsegment": pa.array(vals, pa.string())})


def part_type_stats(sf_dir: str) -> "ray.data.Dataset":
    # mean = exact integer sum of row-level fixed-point prices / count
    # (one final division of exact ints — deterministic on both sides)
    agg = (
        _round_cols(
            _read(sf_dir, "part", ["p_type", "p_retailprice"]),
            ["p_retailprice"],
        )
        .groupby("p_type")
        .aggregate(
            Count(alias_name="n_parts"),
            Sum("p_retailprice", alias_name="price_fp_sum"),
        )
    )

    def mean_fp(t: pa.Table) -> pa.Table:
        s = t["price_fp_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = t["n_parts"].to_numpy(zero_copy_only=False).astype(np.float64)
        avg = np.floor(s / np.maximum(n, 1.0) + 0.5).astype(np.int64)
        return pa.table(
            {
                "p_type": t["p_type"],
                "n_parts": t["n_parts"],
                "avg_price": pa.array(avg, pa.int64()),
            }
        )

    return agg.map_batches(mean_fp, batch_format="pyarrow")


def top_docs_by_chars(sf_dir: str) -> "ray.data.Dataset":
    return (
        _read(sf_dir, "documents", ["doc_id", "n_chars"])
        .sort(["n_chars", "doc_id"], descending=[True, False])
        .limit(20)
    )


def lang_source_counts(sf_dir: str) -> "ray.data.Dataset":
    return (
        _read(sf_dir, "documents", ["lang", "source", "n_chars"])
        .groupby(["lang", "source"])
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_chars", alias_name="sum_chars"),
        )
    )


# -- per-doc text stats (vectorized Arrow tokenizer) ---------------------
def text_stats(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_tokens, n_stop) — tokenizer-derived quality inputs."""

    def stats(t: pa.Table) -> pa.Table:
        flat, parent = flatten_tokens(tokenize_column(t["text"]))
        n = len(t)
        par = parent.to_numpy(zero_copy_only=False)
        n_tokens = np.bincount(par, minlength=n).astype(np.int64)
        stop_mask = pc.is_in(flat, value_set=pa.array(STOPWORDS)).to_numpy(
            zero_copy_only=False
        )
        n_stop = np.bincount(par[stop_mask], minlength=n).astype(np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "n_stop": pa.array(n_stop, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        stats, batch_format="pyarrow"
    )


# -- events: time-bucketed aggregate + sessionization --------------------
def events_hourly(sf_dir: str) -> "ray.data.Dataset":
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def bucket(t: pa.Table) -> pa.Table:
        return t.append_column("hour", pc.floor_temporal(t["ts"], unit="hour"))

    return (
        _round_cols(ds.map_batches(bucket, batch_format="pyarrow"), ["value"])
        .groupby(["event_type", "hour"])
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="sum_value"))
    )


def events_sessions(sf_dir: str) -> "ray.data.Dataset":
    """Session windows (gap > 30 min) per user: the stream-shaped
    operator — partition by key, sort by event time within the group,
    stateful windowing in pandas (SURVEY.md §2.9 RD mapping).
    Ordering assumption: (ts, event_id) is a total order per user."""

    def sessionize(g: pa.Table) -> pa.Table:
        g = g.take(
            pc.sort_indices(
                g,
                sort_keys=[("ts", "ascending"), ("event_id", "ascending")],
            )
        )
        ts = (
            g["ts"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        gap = np.r_[False, np.diff(ts) > SESSION_GAP_MIN * 60_000_000]
        sid = np.cumsum(gap).astype(np.int64) + 1
        usid, counts = np.unique(sid, return_counts=True)
        return pa.table(
            {
                "user_id": pa.array(
                    np.full(len(usid), g["user_id"][0].as_py(), np.int64),
                    pa.int64(),
                ),
                "session_id": pa.array(usid, pa.int64()),
                "n_events": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    return (
        _read(sf_dir, "events", ["user_id", "event_id", "ts"])
        .groupby("user_id")
        .map_groups(sessionize, batch_format="pyarrow")
    )


# -- exact corpus dedup --------------------------------------------------
def dedup_exact(sf_dir: str) -> "ray.data.Dataset":
    """Corpus-level exact dedup: md5(text) hash-partition + per-group
    min(doc_id) — the reference's md5-keyed image dedup pattern
    (harvester/image_harvest.py:238-257; md5s3stash keying)."""
    import hashlib

    def add_md5(t: pa.Table) -> pa.Table:
        md5s = [
            hashlib.md5((s or "").encode("utf-8")).hexdigest()
            for s in t["text"].to_pylist()
        ]
        return pa.table(
            {"doc_id": t["doc_id"], "text_md5": pa.array(md5s, pa.string())}
        )

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(add_md5, batch_format="pyarrow")
        .groupby("text_md5")
        .aggregate(ray.data.aggregate.Min("doc_id", alias_name="doc_id"))
        .select_columns(["doc_id"])
    )


# -- ANN: brute-force cosine top-k ---------------------------------------
ANN_QUERY_VEC_ID = 0
ANN_TOP_K = 20


def ann_cosine_topk(sf_dir: str) -> pd.DataFrame:
    """Brute-force cosine top-k over the embedding column: per-batch
    numpy matmul against a broadcast query vector (ray.put once), then
    a small global sort. The IVF/LSH scale path lives in
    stages/similarity.py; this is the exact baseline."""
    from harvester_ray.stages.similarity import fetch_query_vectors

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    qrow = fetch_query_vectors(emb_path, [ANN_QUERY_VEC_ID])
    q = np.asarray(qrow["embedding"][0].as_py(), dtype=np.float64)
    qn = q / np.linalg.norm(q)
    q_ref = ray.put(qn)

    def score(t: pa.Table) -> pa.Table:
        qv = ray.get(q_ref)
        E = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
        norms = np.linalg.norm(E, axis=1)
        norms[norms == 0] = 1.0
        sims = np.round((E @ qv) / norms, 6)
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        if len(ids) > ANN_TOP_K:
            # per-batch top-k under the global (sim_r DESC, vec_id ASC)
            # order: lossless, and the global sort input shrinks from
            # corpus-scale to <= k rows per batch
            order = np.lexsort((ids, -sims))[:ANN_TOP_K]
            ids, sims = ids[order], sims[order]
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "sim_r": pa.array(sims, pa.float64()),
            }
        )

    top = (
        ray.data.read_parquet(emb_path, columns=["vec_id", "embedding"])
        .map_batches(score, batch_format="pyarrow")
        .sort(["sim_r", "vec_id"], descending=[True, False])
        .limit(ANN_TOP_K)
        .to_pandas()
    )
    top.insert(0, "rank", np.arange(1, len(top) + 1, dtype=np.int64))
    return top[["rank", "vec_id"]]


# -- reference scalar-operator pipelines (SURVEY.md §2.3/§2.8) -----------
def orders_year_counts(sf_dir: str) -> "ray.data.Dataset":
    """Year extraction (the ``make_datetime`` parse analog,
    harvester/solr_updater.py:197-225) + grouped count/sum."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def add_year(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_year": pc.year(t["o_orderdate"]).cast(pa.int64()),
                "o_totalprice": t["o_totalprice"],
            }
        )

    return (
        _round_cols(
            ds.map_batches(add_year, batch_format="pyarrow"),
            ["o_totalprice"],
        )
        .groupby("o_year")
        .aggregate(
            Count(alias_name="n_orders"),
            Sum("o_totalprice", alias_name="sum_total"),
        )
    )


def orders_decade_facets(sf_dir: str) -> "ray.data.Dataset":
    """Decade bucketing — the reference's ``facet_decade``
    (harvester/solr_updater.py:547-558,625-654) over order dates."""
    ds = _read(sf_dir, "orders", ["o_orderdate"])

    def add_decade(t: pa.Table) -> pa.Table:
        years = pc.year(t["o_orderdate"]).to_numpy(zero_copy_only=False)
        decades = pa.array((years // 10 * 10).astype(np.int64))
        col = pc.binary_join_element_wise(
            pc.cast(decades, pa.string()), "s", ""
        )
        return pa.table({"decade": col})

    return (
        ds.map_batches(add_decade, batch_format="pyarrow")
        .groupby("decade")
        .aggregate(Count(alias_name="n"))
    )


def events_props_sum(sf_dir: str) -> "ray.data.Dataset":
    """JSON-encoded-string field extraction — the reference's ``dejson``
    (harvester/solr_updater.py:137-180) — over events.props, then a
    grouped aggregate."""
    from harvester_ray.functions.reference_ops import json_field

    ds = _read(sf_dir, "events", ["event_type", "props"])

    # Arrow fast path (round-3 vectorization): a strict full-string
    # regex covers the common flat {"k": int} shape — for a matching
    # row json.loads(props).get("k") is exactly that integer, so the
    # kernel is semantics-identical; only non-matching rows pay the
    # Python json_field fallback.
    _FLAT_K = r'^\s*\{\s*"k"\s*:\s*(?P<v>-?\d+)\s*\}\s*$'

    def extract(t: pa.Table) -> pa.Table:
        props = t["props"].combine_chunks().cast(pa.string())
        m = pc.struct_field(pc.extract_regex(props, _FLAT_K), "v")
        ks = pc.fill_null(pc.cast(m, pa.int64()), 0)
        slow = pc.and_(pc.is_null(m), pc.is_valid(props))
        if pc.any(slow).as_py():
            ks = ks.to_numpy(zero_copy_only=False).copy()
            for i in np.flatnonzero(slow.to_numpy(zero_copy_only=False)):
                v = json_field(props[i].as_py(), "k")
                ks[i] = int(v) if v is not None else 0
            ks = pa.array(ks, pa.int64())
        return pa.table(
            {
                "event_type": t["event_type"],
                "k": ks,
            }
        )

    return (
        ds.map_batches(extract, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Count(alias_name="n"), Sum("k", alias_name="sum_k"))
    )


def part_sort_names(sf_dir: str) -> "ray.data.Dataset":
    """Sort-key normalization — the reference's ``normalize_sort_field``
    (harvester/solr_updater.py:561-573): lowercase, strip punctuation,
    collapse whitespace, drop a leading article."""
    from harvester_ray.functions.text import (
        apply_over_unique,
        normalize_sort_text,
    )

    ds = _read(sf_dir, "part", ["p_partkey", "p_name"])

    def norm(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_partkey": t["p_partkey"],
                "sort_name": apply_over_unique(
                    t["p_name"], normalize_sort_text
                ),
            }
        )

    return ds.map_batches(norm, batch_format="pyarrow")


def part_normalized_types(sf_dir: str) -> "ray.data.Dataset":
    """DCMI-style vocabulary normalization — the reference's
    ``normalize_type`` substring-fallback mapping
    (harvester/solr_updater.py:388-418) over part.p_type."""
    from harvester_ray.functions.reference_ops import normalize_type
    from harvester_ray.functions.text import apply_over_unique

    ds = _read(sf_dir, "part", ["p_partkey", "p_type"])

    def norm(t: pa.Table) -> pa.Table:
        # p_type is a bounded vocabulary (~150 values at any scale):
        # the per-row Python remap collapses to one take per batch
        return pa.table(
            {
                "p_partkey": t["p_partkey"],
                "norm_type": apply_over_unique(t["p_type"], normalize_type),
            }
        )

    return ds.map_batches(norm, batch_format="pyarrow")


def lineitem_union_counts(sf_dir: str) -> "ray.data.Dataset":
    """``Dataset.union`` coverage (multi-collection harvest analog,
    scripts/queue_harvest.py:91-103): split lineitem by ship year, union
    the two halves back, grouped count must equal the plain scan."""
    path = ["lineitem", ["l_returnflag", "l_shipdate"]]
    early = _read(sf_dir, *path).map_batches(
        lambda t: t.filter(
            pc.less(t["l_shipdate"], pa.scalar(pd.Timestamp("1996-01-01")))
        ),
        batch_format="pyarrow",
    )
    late = _read(sf_dir, *path).map_batches(
        lambda t: t.filter(
            pc.greater_equal(t["l_shipdate"], pa.scalar(pd.Timestamp("1996-01-01")))
        ),
        batch_format="pyarrow",
    )
    return (
        early.union(late)
        .groupby("l_returnflag")
        .aggregate(Count(alias_name="n"))
    )


def embedding_norms(sf_dir: str) -> "ray.data.Dataset":
    """(vec_id, l2_norm rounded) — per-row vector math over the
    embedding list column, float64 end-to-end."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )

    def norms(t: pa.Table) -> pa.Table:
        E = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
        n = np.sqrt((E * E).sum(axis=1))
        fx = np.floor(n * 10000 + 0.5).astype(np.int64)  # fixed-point 1e-4
        return pa.table(
            {
                "vec_id": t["vec_id"],
                "l2_norm": pa.array(fx, pa.int64()),
            }
        )

    return ds.map_batches(norms, batch_format="pyarrow")


def events_asof_orders(sf_dir: str) -> "ray.data.Dataset":
    """As-of join (stages/joins.asof_join — the inequality-key join
    Ray Data lacks): each event matched to the MOST RECENT order of the
    same customer at or before the event timestamp; ties on order date
    break to the greatest o_orderkey. Inner as-of (unmatched events
    dropped); price fixed-point-4 for the hash gate."""
    from harvester_ray.stages.joins import asof_join

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = _read(
        sf_dir, "orders", ["o_custkey", "o_orderdate", "o_orderkey", "o_totalprice"]
    )
    joined = asof_join(
        events,
        orders,
        left_on="user_id",
        right_on="o_custkey",
        left_ts="ts",
        right_ts="o_orderdate",
        right_values=["o_orderkey", "o_totalprice"],
        right_tiebreak="o_orderkey",
    )

    def fin(t: pa.Table) -> pa.Table:
        price = t["o_totalprice"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_id": t["event_id"].cast(pa.int64()),
                "o_orderkey": t["o_orderkey"].cast(pa.int64()),
                "price_r4": pa.array(
                    np.floor(price * 10_000 + 0.5).astype(np.int64)
                ),
            }
        )

    return joined.map_batches(fin, batch_format="pyarrow")


def top_orders_per_priority(sf_dir: str, k: int = 3) -> "ray.data.Dataset":
    """Grouped top-k through topk_per_key: its per-block pre-prune
    forwards at most k rows per group (so the shuffle moves
    O(k x groups x blocks) rows, not the fact table), then one groupby
    finalizes. Rank rule: o_totalprice DESC, o_orderkey ASC."""
    ds = _read(
        sf_dir, "orders", ["o_orderpriority", "o_orderkey", "o_totalprice"]
    )
    top = topk_per_key(
        ds,
        "o_orderpriority",
        [("o_totalprice", "descending"), ("o_orderkey", "ascending")],
        k,
        ["o_orderkey", "o_totalprice"],
        rank="rank",
    )
    return _round_cols(top, ["o_totalprice"]).rename_columns(
        {"o_totalprice": "price_r4"}
    )


def events_window_1h(sf_dir: str) -> "ray.data.Dataset":
    """Sliding-window aggregate (the windowed-aggregate member of the
    as-of/range/window custom-operator family): per event, the count
    and value-sum of the same user's events in the closed interval
    [ts - 1h, ts] — RANGE-frame semantics (timestamp peers included on
    both sides, exactly like SQL RANGE ... CURRENT ROW). One
    groupby(user) + two vectorized searchsorteds per group; same
    one-key-per-task partitioning contract as sessionization."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    HOUR_US = 3_600_000_000

    def win(g: pa.Table) -> pa.Table:
        g = g.take(
            pc.sort_indices(
                g,
                sort_keys=[("ts", "ascending"), ("event_id", "ascending")],
            )
        )
        t = (
            g["ts"].cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        lo = np.searchsorted(t, t - HOUR_US, side="left")
        hi = np.searchsorted(t, t, side="right")
        # row-level fixed point, integer cumsum: exact at any scale
        v_fp = np.floor(
            g["value"].to_numpy(zero_copy_only=False).astype(np.float64)
            * 10_000
            + 0.5
        ).astype(np.int64)
        cs = np.concatenate(([0], np.cumsum(v_fp)))
        return pa.table(
            {
                "event_id": g["event_id"].cast(pa.int64()),
                "n_1h": pa.array((hi - lo).astype(np.int64), pa.int64()),
                "sum_1h_r4": pa.array(
                    (cs[hi] - cs[lo]).astype(np.int64), pa.int64()
                ),
            }
        )

    return ds.groupby("user_id").map_groups(win, batch_format="pyarrow")


def events_orders_range_join(sf_dir: str) -> "ray.data.Dataset":
    """Range join (the interval member of the as-of/range/window
    family): per event, the count and total price of the same
    customer's orders in the closed interval [ts - 7 days, ts]. Same
    tag-union + one-groupby + searchsorted plan as asof_join — the
    range predicate resolves to two binary searches per left row."""
    WEEK_US = 7 * 24 * 3_600_000_000
    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])

    def tag_e(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": t["user_id"].cast(pa.int64()),
                "ts": t["ts"],
                "side": pa.array(np.zeros(len(t), np.int8)),
                "event_id": t["event_id"],
                "price": pa.nulls(len(t), pa.float64()),
            }
        )

    def tag_o(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": t["o_custkey"].cast(pa.int64()),
                "ts": t["o_orderdate"],
                "side": pa.array(np.ones(len(t), np.int8)),
                "event_id": pa.nulls(len(t), pa.int64()),
                "price": t["o_totalprice"],
            }
        )

    tagged = events.map_batches(tag_e, batch_format="pyarrow").union(
        orders.map_batches(tag_o, batch_format="pyarrow")
    )

    def resolve(g: pa.Table) -> pa.Table:
        side = g["side"].to_numpy(zero_copy_only=False)
        lefts = g.filter(pa.array(side == 0))
        rights = g.filter(pa.array(side == 1))
        if lefts.num_rows == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "n_orders_7d": pa.array([], pa.int64()),
                    "sum_price_7d_r4": pa.array([], pa.int64()),
                }
            )
        rights = rights.take(
            pc.sort_indices(rights, sort_keys=[("ts", "ascending")])
        )
        lt = (
            lefts["ts"].cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        rt = (
            rights["ts"].cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        lo = np.searchsorted(rt, lt - WEEK_US, side="left")
        hi = np.searchsorted(rt, lt, side="right")
        p_fp = np.floor(
            rights["price"].to_numpy(zero_copy_only=False).astype(np.float64)
            * 10_000
            + 0.5
        ).astype(np.int64)
        cs = np.concatenate(([0], np.cumsum(p_fp)))
        return pa.table(
            {
                "event_id": lefts["event_id"].cast(pa.int64()),
                "n_orders_7d": pa.array((hi - lo).astype(np.int64), pa.int64()),
                "sum_price_7d_r4": pa.array(
                    (cs[hi] - cs[lo]).astype(np.int64), pa.int64()
                ),
            }
        )

    return tagged.groupby("key").map_groups(resolve, batch_format="pyarrow")


SAMPLE_PCT = 5
_SAMPLE_MULT = 2654435761  # Knuth multiplicative hash constant
_SAMPLE_MOD = 1_000_003    # prime pre-mod keeps the product in int64


def sample_documents(sf_dir: str, pct: int = SAMPLE_PCT) -> "ray.data.Dataset":
    """Deterministic hash-sampling — the scale-correct way to
    downsample a training corpus: membership depends only on doc_id
    (reproducible across runs, partitionings and engines; no RNG
    state, no coordination), unlike random_sample whose output depends
    on block layout. Keep a doc iff
    hash(doc_id) % 100 < pct, hash = (|id| % P) * KNUTH % 2^32.

    The id is abs()'d FIRST on both sides: numpy ``%`` is floored
    (always non-negative for a positive divisor) while SQL ``%`` takes
    the dividend's sign, so signed ids (blake2b-derived ids elsewhere
    in this engine are signed) would otherwise hash differently in the
    engine and the DuckDB oracle."""

    def keep(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = ((np.abs(ids) % _SAMPLE_MOD) * _SAMPLE_MULT) % (1 << 32)
        return t.filter(pa.array((h % 100) < pct))

    return _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"]).map_batches(
        keep, batch_format="pyarrow"
    )


def stratified_sample(sf_dir: str) -> "ray.data.Dataset":
    """Per-stratum deterministic sampling: each `source` stratum keeps
    its own rate (5 + last digit of the source name, a stand-in for a
    per-source quality weight), membership by the same Knuth doc_id
    hash as sample_documents — reproducible across runs, partitionings
    and engines. Rates are computed once per UNIQUE source per batch
    (dictionary encode), never per row."""

    def keep(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = ((np.abs(ids) % _SAMPLE_MOD) * _SAMPLE_MULT) % (1 << 32)
        denc = pc.dictionary_encode(t["source"]).combine_chunks()
        uniq = denc.dictionary.to_pylist()
        pcts = np.array(
            [
                5 + int(s[-1]) if s and s[-1].isdigit() else 5
                for s in uniq
            ],
            dtype=np.int64,
        )
        pct_row = pcts[denc.indices.to_numpy(zero_copy_only=False)]
        return t.filter(pa.array((h % 100) < pct_row))

    return _read(sf_dir, "documents", ["doc_id", "source"]).map_batches(
        keep, batch_format="pyarrow"
    )


def events_type_users(sf_dir: str) -> "ray.data.Dataset":
    """Exact count-distinct per key without materializing the distinct
    set anywhere: (event_type, user_id) combiner groupby collapses to
    one row per pair, then the per-type groupby counts rows (=distinct
    users) and sums the pair counts (=events). Two shuffles, both on
    pre-combined rows — the classic exact-distinct shape."""
    per = (
        _read(sf_dir, "events", ["event_type", "user_id"])
        .groupby(["event_type", "user_id"])
        .aggregate(Count(alias_name="n"))
        .map_batches(  # typed re-emit after the aggregate
            lambda t: pa.table(
                {
                    "event_type": t["event_type"].cast(pa.string()),
                    "user_id": t["user_id"].cast(pa.int64()),
                    "n": t["n"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )
    return per.groupby("event_type").aggregate(
        Count(alias_name="n_users"), Sum("n", alias_name="n_events")
    )


ANN_BATCH_QUERY_IDS = (0, 1, 2, 3, 4, 5, 6, 7)
ANN_BATCH_TOP_K = 5


def ann_cosine_topk_batch(
    sf_dir: str, read_filter: "object | None" = None
) -> "ray.data.Dataset":
    """Batched brute-force ANN: top-k neighbors for a whole QUERY SET
    in one pipeline — each batch does ONE (rows x dim) @ (dim x Q)
    matmul against the broadcast normalized query matrix, and
    topk_per_key's per-block pre-prune keeps k rows per query
    (lossless under the (sim DESC, vec_id ASC) order), so the final
    groupby handles <= k x Q x blocks rows. The batched-inference
    shape every embedding-scoring stage uses at scale. ``read_filter``
    (a parquet dataset expression) restricts the candidate set AT THE
    READ — the filtered-search entry below rides it."""
    from harvester_ray.stages.similarity import fetch_query_vectors

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    qrows = fetch_query_vectors(emb_path, ANN_BATCH_QUERY_IDS)
    q_ids = qrows["vec_id"].to_numpy()
    Q = np.asarray(qrows["embedding"].to_pylist(), dtype=np.float64)
    Qn = Q / np.linalg.norm(Q, axis=1)[:, None]
    q_ref = ray.put((q_ids, Qn))
    k = ANN_BATCH_TOP_K

    def score(t: pa.Table) -> pa.Table:
        qids, qm = ray.get(q_ref)
        E = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
        norms = np.linalg.norm(E, axis=1)
        norms[norms == 0] = 1.0
        S = np.round((E @ qm.T) / norms[:, None], 6)  # rows x Q
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "query_vec_id": pa.array(
                    np.repeat(qids, len(ids)), pa.int64()
                ),
                "vec_id": pa.array(np.tile(ids, len(qids)), pa.int64()),
                "sim_r": pa.array(S.T.reshape(-1), pa.float64()),
            }
        )

    cands = ray.data.read_parquet(
        emb_path, columns=["vec_id", "embedding"], filter=read_filter
    ).map_batches(score, batch_format="pyarrow")

    return topk_per_key(
        cands,
        "query_vec_id",
        [("sim_r", "descending"), ("vec_id", "ascending")],
        k,
        ["vec_id"],
        rank="rank",
    )


ANN_FILTER_LABELS = (1, 3, 7)  # metadata predicate of the filtered search


def ann_filtered_topk(sf_dir: str) -> "ray.data.Dataset":
    """Metadata-filtered vector search — the production vector-DB
    feature (filter + ANN in one query): the batched brute-force
    cosine top-k restricted to vectors whose label is in
    ANN_FILTER_LABELS. The filter is PUSHED TO THE READ (parquet
    row-group predicate via ann_cosine_topk_batch's read_filter), so
    non-matching vectors never enter the matmul — at 100 TB the
    pre-filter is the difference between scanning the corpus and
    scanning the hit set. Output (query_vec_id, rank, vec_id)."""
    import pyarrow.dataset as pads

    return ann_cosine_topk_batch(
        sf_dir,
        read_filter=pads.field("label").isin(list(ANN_FILTER_LABELS)),
    )


QUANTILES_R4 = (2500, 5000, 7500, 9500)


def lineitem_quantity_quantiles(sf_dir: str) -> pa.Table:
    """EXACT distributed quantiles via histogram: the combiner groupby
    builds the value histogram (the only corpus-scale work — countable
    in one shuffle of |distinct values| rows), the tiny histogram comes
    to the driver, and each quantile is the smallest value whose
    cumulative count reaches ceil(q * n) — the deterministic rule both
    engines implement verbatim (no interpolation-mode ambiguity)."""
    hist = (
        _read(sf_dir, "lineitem", ["l_quantity"])
        .groupby("l_quantity")
        .aggregate(Count(alias_name="c"))
        .to_pandas()
        .sort_values("l_quantity", kind="stable")
    )
    v = hist["l_quantity"].to_numpy(dtype=np.float64)
    c = hist["c"].to_numpy(dtype=np.int64)
    cum = np.cumsum(c)
    n = int(cum[-1]) if len(cum) else 0
    out_q, out_v = [], []
    for q_r4 in QUANTILES_R4:
        target = int(np.ceil(q_r4 * n / 10_000.0))
        i = int(np.searchsorted(cum, target, side="left"))
        out_q.append(q_r4)
        out_v.append(int(np.floor(v[i] * 10_000 + 0.5)))
    return pa.table(
        {
            "q_r4": pa.array(out_q, pa.int64()),
            "value_r4": pa.array(out_v, pa.int64()),
        }
    )


def events_latest_per_user(sf_dir: str) -> "ray.data.Dataset":
    """Latest event per user — argmax / "latest version wins" upsert
    semantics (the reference's exists→update couch sync,
    harvester/couchdb_sync_db_by_collection.py:62-88, and the solr doc
    merge keyed by id). topk_per_key with k = 1: its per-block
    pre-prune forwards at most ONE row per user (local argmax), so the
    groupby shuffles O(users x blocks) rows, never the event stream.
    Order rule:
    ts DESC, event_id DESC (a total order per user).

    ts is emitted as epoch microseconds (BIGINT) so the cross-engine
    value hash is integer-exact; value is fixed-point 1e-4."""

    def fin(t: pa.Table) -> pa.Table:
        value = t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "user_id": t["user_id"],
                "event_id": t["event_id"],
                # epoch microseconds (BIGINT): cast through the typed
                # timestamp so a [ns]-typed block cannot leak epoch ns
                "ts_us": t["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
                "event_type": t["event_type"],
                "value_r4": pa.array(
                    np.floor(value * 10_000 + 0.5).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    latest = topk_per_key(
        _read(
            sf_dir,
            "events",
            ["user_id", "event_id", "ts", "event_type", "value"],
        ),
        "user_id",
        [("ts", "descending"), ("event_id", "descending")],
        1,
        ["event_id", "ts", "event_type", "value"],
    )
    return latest.map_batches(fin, batch_format="pyarrow")


SOURCE_CAP = 50


def source_capped_sample(sf_dir: str) -> "ray.data.Dataset":
    """Per-source document cap: keep the first SOURCE_CAP docs of every
    `source` (doc_id ASC) — the per-domain cap every web-scale corpus
    pipeline applies so one crawl host cannot dominate training data.
    topk_per_key without a rank column: its per-block pre-prune
    forwards at most SOURCE_CAP rows per source, so the shuffle moves
    O(cap x sources x blocks) rows at 100 TB, never the corpus."""
    return topk_per_key(
        _read(sf_dir, "documents", ["source", "doc_id"]),
        "source",
        [("doc_id", "ascending")],
        SOURCE_CAP,
        ["doc_id"],
    )


SHUFFLE_SEED = 7
SHUFFLE_SHARDS = 8
# split thresholds over hash % 100: [0,90) train, [90,95) val, rest test
SPLIT_TRAIN_PCT = 90
SPLIT_VAL_PCT = 95


_SHUF_P = (1 << 31) - 1  # Mersenne prime: products fit BIGINT/int64
_SHUF_A = 1103515245
_SHUF_B = 12345
_SHUF_A2 = 69069
_SHUF_B2 = 362437


def _seeded_hash(ids: np.ndarray, seed: int) -> np.ndarray:
    """Double-quadratic hash mod the Mersenne prime (the sketches.py
    construction): 2^31-value key space — the Knuth sample hash
    pre-mods by ~1e6, which would fold doc_ids 1_000_003 apart onto
    identical shuffle keys and degrade the "shuffle" into id-ordered
    runs past ~1M docs. abs() FIRST so numpy %% and SQL %% agree on
    signed ids; every product of two sub-2^31 values fits int64 on
    both engines."""
    xm = (np.abs(ids) + seed) % _SHUF_P
    r1 = (xm * xm + _SHUF_A * xm + _SHUF_B) % _SHUF_P
    return (r1 * r1 + _SHUF_A2 * r1 + _SHUF_B2) % _SHUF_P


def seeded_shuffle(
    sf_dir: str, shards: int = SHUFFLE_SHARDS
) -> "ray.data.Dataset":
    """Reproducible global shuffle for training-data export —
    random_shuffle's output depends on block layout and RNG state;
    a training pipeline needs the SAME order every rerun on any
    cluster shape. Every doc gets (shard, pos, doc_id): shard =
    seeded hash % shards, pos = rank within the shard under
    (hash, doc_id). Shards are hash-partitioned groups, so the
    intra-shard sort is co-located and NO global rank structure
    exists anywhere — readers consume shards in any order, each
    internally shuffled. One groupby, no broadcast.

    SIZE THE SHARD COUNT to the corpus: each shard materializes on
    one worker for its rank pass (corpus/shards rows), so production
    runs pass shards ≈ corpus_rows / worker_budget — the shard id is
    part of the output contract, so it is a CALLER choice, not a
    cluster-derived value (the fixed gate entry uses SHUFFLE_SHARDS
    so the oracle is stable across driver CPU counts)."""
    import pyarrow.compute as pc

    def hashed(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = _seeded_hash(ids, SHUFFLE_SEED)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "h": pa.array(h.astype(np.int64), pa.int64()),
                "shard": pa.array(
                    (h % shards).astype(np.int64), pa.int64()
                ),
            }
        )

    def rank_shard(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            g, sort_keys=[("h", "ascending"), ("doc_id", "ascending")]
        )
        g = g.take(idx)
        return pa.table(
            {
                "shard": g["shard"],
                "pos": pa.array(
                    np.arange(1, len(g) + 1, dtype=np.int64), pa.int64()
                ),
                "doc_id": g["doc_id"],
            }
        )

    return (
        _read(sf_dir, "documents", ["doc_id"])
        .map_batches(hashed, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(rank_shard, batch_format="pyarrow")
    )


def dataset_split(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic train/val/test assignment (90/5/5 by the seeded
    doc_id hash) — membership is a pure function of the id, so the
    split is stable across reruns, repartitioning and engines, and a
    doc can never leak between splits. One stateless map, no shuffle."""

    def assign(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = _seeded_hash(ids, SHUFFLE_SEED) % 100
        split = np.where(
            b < SPLIT_TRAIN_PCT,
            "train",
            np.where(b < SPLIT_VAL_PCT, "val", "test"),
        )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "split": pa.array(split.tolist(), pa.string()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(
        assign, batch_format="pyarrow"
    )


Q5_REGION = "ASIA"
Q5_DATE_LO = "1996-01-01"
Q5_DATE_HI = "1998-01-01"


def q5_revenue(sf_dir: str) -> "ray.data.Dataset":
    """TPC-H Q5 shape — revenue per nation where the customer and the
    line's supplier share a nation inside one region, over a date
    range: the multi-way join-planning workout (5 joins, 3 different
    physical plans). region⨝nation is config-scale (driver fold);
    supplier and customer are key→nation maps broadcast under the q3
    guard, and past it each leg degrades to a hash ``ds_join``
    (supplier onto the line stream, customer onto the joined stream)
    instead of aborting; orders⨝lineitem — the two fact tables — is
    always a genuine hash-partitioned join. Dates prune at the read
    via a parquet row-group filter. Revenue is row-level fixed-point
    (q1/q3 rule) so distributed sums are order-free.
    Output (n_name, revenue)."""
    import datetime as _dt

    import pyarrow.dataset as pads

    from harvester_ray.stages.joins import ds_join

    # config-scale dims on the driver: nations of the target region
    regionkeys = {
        r["r_regionkey"]
        for r in _read(sf_dir, "region").take_all()
        if r["r_name"] == Q5_REGION
    }
    nation_rows = _read(sf_dir, "nation").take_all()
    nname_of = {
        r["n_nationkey"]: r["n_name"]
        for r in nation_rows
        if r["n_regionkey"] in regionkeys
    }
    region_nations = np.array(sorted(nname_of), dtype=np.int64)
    region_names = np.array(
        [nname_of[k] for k in region_nations], dtype=object
    )

    def _key_map(table: str, key: str, val: str):
        # small-dim key→nationkey map as SORTED parallel arrays (one
        # vectorized searchsorted per batch, no per-row dict.get),
        # guarded like q3's semi-join side; past the guard the caller
        # hash-joins the dim instead (returns None)
        ds = _read(sf_dir, table, [key, val])
        if ds.count() > _BROADCAST_KEYS_GUARD:
            return None
        rows = ds.take_all()
        keys = np.array([r[key] for r in rows], dtype=np.int64)
        vals = np.array([r[val] for r in rows], dtype=np.int64)
        order = np.argsort(keys)
        return keys[order], vals[order]

    def _lookup(pair, probe: np.ndarray, miss: int) -> np.ndarray:
        keys, vals = pair
        pos = np.searchsorted(keys, probe)
        pos = np.minimum(pos, len(keys) - 1)
        out = vals[pos]
        out[keys[pos] != probe] = miss
        return out

    supp_map = _key_map("supplier", "s_suppkey", "s_nationkey")
    cust_map = _key_map("customer", "c_custkey", "c_nationkey")
    supp_ref = ray.put(supp_map) if supp_map is not None else None
    cust_ref = ray.put(cust_map) if cust_map is not None else None

    lo = _dt.datetime.fromisoformat(Q5_DATE_LO)
    hi = _dt.datetime.fromisoformat(Q5_DATE_HI)
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
        filter=(pads.field("o_orderdate") >= lo)
        & (pads.field("o_orderdate") < hi),
    )

    line = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]
    )

    def _rev_fp(t: pa.Table) -> np.ndarray:
        rev = (
            t["l_extendedprice"].cast(pa.float64()).to_numpy(zero_copy_only=False)
            * (1.0 - t["l_discount"].cast(pa.float64()).to_numpy(zero_copy_only=False))
        )
        return np.floor(rev * 10000.0 + 0.5).astype(np.int64)

    def _region_rows(
        t: pa.Table, snat: np.ndarray, rev_fp: np.ndarray
    ) -> pa.Table:
        keep = np.isin(snat, region_nations)
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"].cast(pa.int64())
                .filter(pa.array(keep)),
                "s_nationkey": pa.array(snat[keep], pa.int64()),
                "revenue": pa.array(rev_fp[keep], pa.int64()),
            }
        )

    if supp_ref is not None:

        def line_rev(t: pa.Table) -> pa.Table:
            # supplier lookup + region filter + row-level fixed point
            sk = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            return _region_rows(t, _lookup(ray.get(supp_ref), sk, -1), _rev_fp(t))

        line = line.map_batches(line_rev, batch_format="pyarrow")
    else:
        # supplier past the guard: hash-join the dim onto the line
        # stream, then apply the same region filter post-join
        def line_keyed(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "l_orderkey": t["l_orderkey"].cast(pa.int64()),
                    "l_suppkey": t["l_suppkey"].cast(pa.int64()),
                    "revenue": pa.array(_rev_fp(t), pa.int64()),
                }
            )

        line = ds_join(
            line.map_batches(line_keyed, batch_format="pyarrow"),
            _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
            on=("l_suppkey",),
            right_on=("s_suppkey",),
            schemas=(
                pa.schema(
                    [
                        ("l_orderkey", pa.int64()),
                        ("l_suppkey", pa.int64()),
                        ("revenue", pa.int64()),
                    ]
                ),
                pa.schema(
                    [("s_suppkey", pa.int64()), ("s_nationkey", pa.int64())]
                ),
            ),
        ).map_batches(
            lambda t: _region_rows(
                t,
                t["s_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64),
                t["revenue"].to_numpy(zero_copy_only=False),
            ),
            batch_format="pyarrow",
        )

    joined = ds_join(
        line,
        orders,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
        schemas=(
            pa.schema(
                [
                    ("l_orderkey", pa.int64()),
                    ("s_nationkey", pa.int64()),
                    ("revenue", pa.int64()),
                ]
            ),
            pa.schema([("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]),
        ),
    )

    def _named_rows(t: pa.Table, cnat: np.ndarray) -> pa.Table:
        keep = cnat == t["s_nationkey"].to_numpy(zero_copy_only=False)
        names = region_names[
            np.searchsorted(region_nations, cnat[keep])
        ]
        return pa.table(
            {
                "n_name": pa.array(names.astype(str), pa.string()),
                "revenue": t["revenue"].filter(pa.array(keep)),
            }
        )

    if cust_ref is not None:

        def same_nation(t: pa.Table) -> pa.Table:
            ck = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            return _named_rows(t, _lookup(ray.get(cust_ref), ck, -2))

        named = joined.map_batches(same_nation, batch_format="pyarrow")
    else:
        # customer past the guard: hash-join the dim onto the joined
        # fact stream; the equality filter runs post-join
        named = ds_join(
            joined,
            _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
            on=("o_custkey",),
            right_on=("c_custkey",),
            schemas=(
                pa.schema(
                    [
                        ("l_orderkey", pa.int64()),
                        ("s_nationkey", pa.int64()),
                        ("revenue", pa.int64()),
                        ("o_custkey", pa.int64()),
                    ]
                ),
                pa.schema(
                    [("c_custkey", pa.int64()), ("c_nationkey", pa.int64())]
                ),
            ),
        ).map_batches(
            lambda t: _named_rows(
                t,
                t["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64),
            ),
            batch_format="pyarrow",
        )

    from ray.data.aggregate import Sum

    out = named.groupby("n_name").aggregate(
        Sum("revenue", alias_name="revenue")
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "n_name": t["n_name"].cast(pa.string()),
                "revenue": t["revenue"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def events_running_total(sf_dir: str) -> "ray.data.Dataset":
    """Per-user running aggregate over event time — the ROWS UNBOUNDED
    PRECEDING window (events_window_1h covers the RANGE frame): for
    every event, the cumulative count and cumulative fixed-point value
    sum of that user's events at-or-before it (ties broken by
    event_id, both engines). One user-keyed groupby; each group sorts
    locally and cumsums vectorized. Output
    (event_id, user_id, running_n, running_value_r4)."""

    def cum(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            g, sort_keys=[("ts", "ascending"), ("event_id", "ascending")]
        )
        g = g.take(idx)
        v = g["value"].cast(pa.float64()).to_numpy(zero_copy_only=False)
        v_fp = np.floor(v * 10000.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "event_id": g["event_id"].cast(pa.int64()),
                "user_id": g["user_id"].cast(pa.int64()),
                "running_n": pa.array(
                    np.arange(1, len(g) + 1, dtype=np.int64), pa.int64()
                ),
                "running_value_r4": pa.array(np.cumsum(v_fp), pa.int64()),
            }
        )

    return (
        _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
        .groupby("user_id")
        .map_groups(cum, batch_format="pyarrow")
    )


def events_interarrival(sf_dir: str) -> "ray.data.Dataset":
    """Per-user inter-arrival gaps — the LAG window (running_total
    covers the cumulative frame, window_1h the RANGE frame): for every
    event, microseconds since the user's previous event (NULL-coded -1
    for each user's first). Same one-groupby shape as sessionize.
    Output (event_id, user_id, gap_us)."""

    def gaps(g: pa.Table) -> pa.Table:
        g = g.take(
            pc.sort_indices(
                g,
                sort_keys=[("ts", "ascending"), ("event_id", "ascending")],
            )
        )
        ts = (
            g["ts"]
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        gap = np.r_[np.int64(-1), np.diff(ts)].astype(np.int64)
        return pa.table(
            {
                "event_id": g["event_id"].cast(pa.int64()),
                "user_id": g["user_id"].cast(pa.int64()),
                "gap_us": pa.array(gap, pa.int64()),
            }
        )

    return (
        _read(sf_dir, "events", ["event_id", "ts", "user_id"])
        .groupby("user_id")
        .map_groups(gaps, batch_format="pyarrow")
    )


def orders_rollup(sf_dir: str) -> "ray.data.Dataset":
    """GROUP BY ROLLUP(year, priority) order counts — multi-level
    aggregates derived from ONE fact pass: the fine (year, priority)
    partials are computed once (per-batch combiner + one groupby), and
    the year and grand-total levels fold those partials, never
    re-reading the facts. NULL group keys are coded 'ALL' (both
    engines). Output (o_year, o_orderpriority, n_orders)."""
    from ray.data.aggregate import Sum

    def partials(t: pa.Table) -> pa.Table:
        yr = pc.year(t["o_orderdate"]).cast(pa.int64())
        tbl = pa.table(
            {
                "o_year": pc.cast(yr, pa.string()),
                "o_orderpriority": t["o_orderpriority"].cast(pa.string()),
                "n_orders": pa.array(np.ones(len(t), np.int64), pa.int64()),
            }
        )
        return tbl.group_by(["o_year", "o_orderpriority"]).aggregate(
            [("n_orders", "sum")]
        ).rename_columns(["o_year", "o_orderpriority", "n_orders"])

    fine = (
        _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["o_year", "o_orderpriority"])
        .aggregate(Sum("n_orders", alias_name="n_orders"))
        .materialize()  # fine level reused by both coarser levels
    )

    def relabel(cols: dict):
        def fn(t: pa.Table) -> pa.Table:
            n = len(t)
            return pa.table(
                {
                    "o_year": t["o_year"].cast(pa.string())
                    if "o_year" not in cols
                    else pa.array([cols["o_year"]] * n, pa.string()),
                    "o_orderpriority": t["o_orderpriority"].cast(pa.string())
                    if "o_orderpriority" not in cols
                    else pa.array(
                        [cols["o_orderpriority"]] * n, pa.string()
                    ),
                    "n_orders": t["n_orders"].cast(pa.int64()),
                }
            )

        return fn

    year_level = (
        fine.map_batches(
            relabel({"o_orderpriority": "ALL"}), batch_format="pyarrow"
        )
        .groupby("o_year")
        .aggregate(Sum("n_orders", alias_name="n_orders"))
        .map_batches(relabel({"o_orderpriority": "ALL"}),
                     batch_format="pyarrow")
    )
    total_level = (
        fine.map_batches(
            relabel({"o_year": "ALL", "o_orderpriority": "ALL"}),
            batch_format="pyarrow",
        )
        .groupby("o_year")
        .aggregate(Sum("n_orders", alias_name="n_orders"))
        .map_batches(relabel({"o_orderpriority": "ALL"}),
                     batch_format="pyarrow")
    )
    fine_typed = fine.map_batches(relabel({}), batch_format="pyarrow")
    return fine_typed.union(year_level).union(total_level)


FUNNEL_STEPS = ("view", "click", "purchase")


def funnel_counts(sf_dir: str) -> "ray.data.Dataset":
    """Event-funnel completion: how many users reached each stage of
    view -> click -> purchase with STRICTLY increasing timestamps —
    the product-analytics op every event warehouse runs. Greedy
    earliest-chain semantics (exists an ordered chain iff the greedy
    chain over per-stage earliest-qualifying events succeeds —
    identical nested min-filters in the SQL twin). ONE user-keyed
    groupby (per-user events sort locally; each group emits one
    reached-stage row), then a stage explode + tiny stage groupby.
    Output (stage, event_type, n_users)."""
    from ray.data.aggregate import Count

    def reach(g: pa.Table) -> pa.Table:
        ts = g["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        et = g["event_type"].to_numpy(zero_copy_only=False)
        cur = None  # last chained event time (us); strict > once set
        stage = 0
        for step in FUNNEL_STEPS:
            cand = ts[(et == step) if cur is None else ((et == step) & (ts > cur))]
            if len(cand) == 0:
                break
            cur = int(cand.min())
            stage += 1
        return pa.table({"stage_reached": pa.array([stage], pa.int64())})

    def explode(t: pa.Table) -> pa.Table:
        s = t["stage_reached"].to_numpy(zero_copy_only=False).astype(np.int64)
        stages = (
            np.concatenate(
                [np.arange(1, k + 1, dtype=np.int64) for k in s]
            )
            if len(s)
            else np.empty(0, np.int64)
        )  # one row per completed stage
        return pa.table({"stage": pa.array(stages, pa.int64())})

    out = (
        _read(sf_dir, "events", ["user_id", "ts", "event_type"])
        .groupby("user_id")
        .map_groups(reach, batch_format="pyarrow")
        .map_batches(explode, batch_format="pyarrow")
        .groupby("stage")
        .aggregate(Count(alias_name="n_users"))
    )
    names = {i + 1: s for i, s in enumerate(FUNNEL_STEPS)}

    def label(t: pa.Table) -> pa.Table:
        st = t["stage"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "stage": pa.array(st, pa.int64()),
                "event_type": pa.array(
                    [names[int(k)] for k in st], pa.string()
                ),
                "n_users": t["n_users"].cast(pa.int64()),
            }
        )

    return out.map_batches(label, batch_format="pyarrow")


def retention_cohorts(sf_dir: str) -> "ray.data.Dataset":
    """Cohort retention triangle: users grouped by first-active DAY
    (integer epoch days — identical floor arithmetic in the twin),
    counted distinct per (cohort_day, offset_days). ONE user-keyed
    groupby emits each user's distinct (cohort, offset) rows (a
    per-user combiner — rows out <= active days, never events), then
    one (cohort, offset) groupby counts. Output
    (cohort_day, offset_days, n_users)."""
    from ray.data.aggregate import Count

    US_PER_DAY = 86_400_000_000

    def per_user(g: pa.Table) -> pa.Table:
        ts = g["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        days = ts // US_PER_DAY
        cohort = int(days.min())
        offs = np.unique(days - cohort)
        return pa.table(
            {
                "cohort_day": pa.array(
                    np.full(len(offs), cohort, np.int64), pa.int64()
                ),
                "offset_days": pa.array(offs, pa.int64()),
            }
        )

    return (
        _read(sf_dir, "events", ["user_id", "ts"])
        .groupby("user_id")
        .map_groups(per_user, batch_format="pyarrow")
        .groupby(["cohort_day", "offset_days"])
        .aggregate(Count(alias_name="n_users"))
        .map_batches(
            lambda t: pa.table(
                {
                    "cohort_day": t["cohort_day"].cast(pa.int64()),
                    "offset_days": t["offset_days"].cast(pa.int64()),
                    "n_users": t["n_users"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )



def _ed_le1(a: np.ndarray, b: np.ndarray, la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Vectorized edit-distance<=1 verify over padded uint8 char
    matrices (n, L) — exact for the blocking join's candidate pairs
    (no DP needed at threshold 1: equal-length pairs check hamming,
    length-diff-1 pairs check the single-deletion alignment)."""
    L = a.shape[1]
    pos = np.arange(L)
    res = np.zeros(len(la), dtype=bool)
    same = la == lb
    if same.any():
        mism = ((a != b) & (pos < la[:, None])).sum(axis=1)
        res[same] = mism[same] <= 1
    d1 = np.abs(la - lb) == 1
    if d1.any():
        swap = lb > la
        x = np.where(swap[:, None], b, a)
        y = np.where(swap[:, None], a, b)
        ly = np.where(swap, la, lb)
        valid = pos < ly[:, None]
        neq = (x != y) & valid
        first = np.where(neq.any(axis=1), neq.argmax(axis=1), ly)
        # compare x with the char at `first` dropped against y
        idx = np.minimum(pos[None, :] + (pos[None, :] >= first[:, None]), L - 1)
        xs = np.take_along_axis(x, idx, axis=1)
        res[d1] = (((xs != y) & valid).sum(axis=1) == 0)[d1]
    return res


def _char_matrix(names: list) -> tuple[np.ndarray, np.ndarray]:
    """(padded uint32 code-point matrix, lengths). One cell per
    CHARACTER (utf-32), not per byte — DuckDB's levenshtein is
    character-based, and a multi-byte name would otherwise overrun
    its row."""
    la = np.array([len(s) for s in names], dtype=np.int64)
    L = max(1, int(la.max()) + 1 if len(la) else 1)
    m = np.zeros((len(names), L), dtype=np.uint32)
    for i, s in enumerate(names):
        m[i, : len(s)] = np.frombuffer(
            s.encode("utf-32-le"), dtype=np.uint32
        )
    return m, la


def fuzzy_join(sf_dir: str) -> "ray.data.Dataset":
    """Entity resolution / record-linkage fuzzy join: each part row's
    DIRTY name (deterministic one-edit corruption keyed by p_partkey —
    delete or overwrite the (key mod len)-th char) is matched against
    the canonical DISTINCT part-name dictionary at edit distance <= 1.
    The distributed similarity-join pattern: both sides explode into
    their deletion-1 neighborhoods (ed<=1 pairs ALWAYS share a
    variant), ONE variant-keyed hash join yields a candidate superset,
    a (dirty, clean) groupby dedups, and a vectorized ed<=1 kernel
    verifies — no cross product anywhere. Output
    (dirty_key, clean_name, dist)."""
    from ray.data.aggregate import Count

    from harvester_ray.stages.joins import partitioned_join

    def _variant_rows(names: "pa.ChunkedArray | pa.Array") -> tuple:
        """(variant array, parent row indices) — all deletion-1
        variants incl. self, vectorized per DELETION POSITION (the
        loop is over <= max-name-length positions, never rows)."""
        names = (
            names.combine_chunks()
            if isinstance(names, pa.ChunkedArray)
            else names
        )
        ln = pc.utf8_length(names).to_numpy(zero_copy_only=False)
        max_len = int(ln.max()) if len(ln) else 0
        rows = np.arange(len(names), dtype=np.int64)
        out_v = [names]
        out_p = [rows]
        for p in range(max_len):
            sel = ln > p  # rows long enough to delete position p
            idx = pa.array(rows[sel])
            sub = names.take(idx)
            var = pc.binary_join_element_wise(
                pc.utf8_slice_codeunits(sub, 0, p),
                pc.utf8_slice_codeunits(sub, p + 1),
                "",
            )
            out_v.append(var)
            out_p.append(rows[sel])
        return pa.concat_arrays(
            [v.cast(pa.string()) for v in out_v]
        ), np.concatenate(out_p)

    def _corrupt(t: pa.Table) -> tuple:
        """Deterministic one-edit corruption of p_name keyed by
        p_partkey: delete (key%3==0) or overwrite with 'x' the
        (key mod len)-th char — vectorized per position."""
        keys = t["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        names = t["p_name"].combine_chunks()
        ln = pc.utf8_length(names).to_numpy(zero_copy_only=False)
        p_of = keys % np.maximum(ln, 1)
        delete = keys % 3 == 0
        out = np.empty(len(keys), dtype=object)
        rows = np.arange(len(keys), dtype=np.int64)
        for p in np.unique(p_of):
            sel = p_of == p
            idx = pa.array(rows[sel])
            sub = names.take(idx)
            head = pc.utf8_slice_codeunits(sub, 0, int(p))
            tail = pc.utf8_slice_codeunits(sub, int(p) + 1)
            dels = pc.binary_join_element_wise(head, tail, "")
            subs = pc.binary_join_element_wise(head, "x", tail, "")
            vals = np.where(
                delete[sel],
                dels.to_numpy(zero_copy_only=False),
                subs.to_numpy(zero_copy_only=False),
            )
            out[sel] = vals
        return keys, pa.array(out, pa.string())

    def dirty_variants(t: pa.Table) -> pa.Table:
        keys, dirty_names = _corrupt(t)
        variants, parents = _variant_rows(dirty_names)
        par = pa.array(parents)
        return pa.table(
            {
                "variant": variants,
                "dirty_key": pa.array(keys[parents], pa.int64()),
                "dirty_name": dirty_names.take(par),
            }
        )

    def clean_variants(t: pa.Table) -> pa.Table:
        names = t["p_name"].combine_chunks()
        variants, parents = _variant_rows(names)
        return pa.table(
            {
                "variant": variants,
                "clean_name": names.take(pa.array(parents)),
            }
        )

    dirty = _read(sf_dir, "part", ["p_partkey", "p_name"]).map_batches(
        dirty_variants, batch_format="pyarrow"
    )
    clean = (
        _read(sf_dir, "part", ["p_name"])
        .groupby("p_name")
        .aggregate(Count(alias_name="_c"))  # distinct canonical names
        .map_batches(
            lambda t: clean_variants(t.select(["p_name"])),
            batch_format="pyarrow",
        )
    )
    cands = partitioned_join(
        dirty,
        clean,
        on=["variant"],
        schemas=(
            pa.schema(
                [
                    ("variant", pa.string()),
                    ("dirty_key", pa.int64()),
                    ("dirty_name", pa.string()),
                ]
            ),
            pa.schema([("variant", pa.string()), ("clean_name", pa.string())]),
        ),
    )

    def verify(g: pa.Table) -> pa.Table:
        dn = g["dirty_name"].to_pylist()
        cn = g["clean_name"].to_pylist()
        a, la = _char_matrix(dn)
        b, lb = _char_matrix(cn)
        L = max(a.shape[1], b.shape[1])
        a = np.pad(a, ((0, 0), (0, L - a.shape[1])))
        b = np.pad(b, ((0, 0), (0, L - b.shape[1])))
        ok = _ed_le1(a, b, la, lb)
        eq = pc.equal(g["dirty_name"], g["clean_name"]).to_numpy(
            zero_copy_only=False
        )
        dist = np.where(eq, 0, 1).astype(np.int64)
        return pa.table(
            {
                "dirty_key": g["dirty_key"].cast(pa.int64()).filter(pa.array(ok)),
                "clean_name": g["clean_name"].filter(pa.array(ok)),
                "dist": pa.array(dist[ok], pa.int64()),
            }
        )

    return (
        cands.groupby(["dirty_key", "clean_name", "dirty_name"])
        .aggregate(Count(alias_name="_n"))  # dedup candidate pairs
        .map_batches(verify, batch_format="pyarrow")
        .map_batches(
            lambda t: t.select(["dirty_key", "clean_name", "dist"]),
            batch_format="pyarrow",
        )
    )


Z_OUT_THRESH = 3  # |value - mean| > 3 sigma


def value_outliers(sf_dir: str) -> "ray.data.Dataset":
    """Exact distributed z-score outlier detection over events.value —
    the data-quality gate of a numeric pipeline, with NO floating
    point anywhere: flag v iff (v·n − s)² > t²·(q·n − s²) over the
    fixed-point values, evaluated as |v·n − s| > isqrt(t²·(q·n − s²))
    (floor-sqrt equivalence is exact for integers), so the per-row
    test is one int64 compare. Two passes: per-batch (count, sum,
    sumsq) partial rows fold to exact PYTHON ints on the driver (one
    row per batch — immune to int64 overflow at any corpus size),
    then the filter map streams. Output (event_id, value_r4, dev)
    where dev = |v·n − s| (the integer deviation numerator)."""
    import math

    ds = _read(sf_dir, "events", ["event_id", "value"])

    def partial(t: pa.Table) -> pa.Table:
        v = t["value"].cast(pa.float64()).to_numpy(zero_copy_only=False)
        vfp = np.floor(v * 10000.0 + 0.5).astype(np.int64)
        mx = int(np.abs(vfp).max()) if len(vfp) else 0
        # the per-batch int64 sumsq must not wrap (value domain is an
        # input property — probe it, don't assume it). Wide domains
        # fall back to exact arbitrary-precision Python-int sums for
        # THIS batch only — still one partial row out, bit-identical
        # to DuckDB's HUGEINT accumulation; the CROSS-batch fold is
        # Python ints and immune either way.
        if len(vfp) and (
            mx * mx >= 2**62 // len(vfp) or mx * len(vfp) >= 2**62
        ):
            vo = vfp.astype(object)
            s_b, q_b = int((vo).sum()), int((vo * vo).sum())
        else:
            s_b, q_b = int(vfp.sum()), int((vfp * vfp).sum())
        return pa.table(
            {
                "n": pa.array([len(vfp)], pa.int64()),
                "s": pa.array([str(s_b)], pa.string()),
                "q": pa.array([str(q_b)], pa.string()),
                "m": pa.array([mx], pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    n = sum(int(r["n"]) for r in parts)
    s = sum(int(r["s"]) for r in parts)
    q = sum(int(r["q"]) for r in parts)
    m = max((int(r["m"]) for r in parts), default=0)
    thresh = math.isqrt(Z_OUT_THRESH * Z_OUT_THRESH * (q * n - s * s))
    # wide domain: |vfp*n - s| and/or thresh exceed int64 — evaluate
    # the per-row test in exact Python ints (DuckDB's HUGEINT path);
    # the OUTPUT dev column stays int64, so a kept row whose deviation
    # cannot be represented is a genuine contract breach on both
    # engines (DuckDB's final BIGINT cast errors loudly there too)
    wide = m * n >= 2**62 or thresh >= 2**62
    s_ref, n_ref = s, n  # driver-computed exact scalars close over

    def flag(t: pa.Table) -> pa.Table:
        v = t["value"].cast(pa.float64()).to_numpy(zero_copy_only=False)
        vfp = np.floor(v * 10000.0 + 0.5).astype(np.int64)
        if wide:
            dev_o = np.abs(vfp.astype(object) * n_ref - s_ref)
            keep = (dev_o > thresh).astype(bool)
            kept = dev_o[keep]
            if any(d >= 2**63 for d in kept):
                raise NotImplementedError(
                    "a flagged deviation exceeds the int64 output "
                    "column (the DuckDB twin's BIGINT cast errors on "
                    "the same input)"
                )
            dev_out = np.array([int(d) for d in kept], dtype=np.int64)
        else:
            dev = np.abs(vfp * n_ref - s_ref)
            keep = dev > thresh
            dev_out = dev[keep]
        return pa.table(
            {
                "event_id": t["event_id"].cast(pa.int64())
                .filter(pa.array(keep)),
                "value_r4": pa.array(vfp[keep], pa.int64()),
                "dev": pa.array(dev_out, pa.int64()),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow")


# --- data profiling (ANALYZE) ------------------------------------------------
PROFILE_COLUMNS = ("lang", "source", "n_chars")


def table_profile(sf_dir: str) -> pa.Table:
    """Column-statistics profile of the documents table — the ANALYZE /
    data-profiling pass a pipeline runs before choosing partition keys
    and filters: per column, row count, null count, exact distinct
    count, and min/max (computed on the NATIVE type, stringified only
    for the uniform output schema). Output
    (column, n_rows, n_null, n_distinct, min_v, max_v).

    Scale shape — exactly TWO fused Dataset plans over one
    column-pruned scan each, independent of how many columns are
    profiled: (1) a map-only pass emitting ONE partial row per batch
    holding count / nulls / NATIVE-typed min+max for every profiled
    column side by side, folded on the driver (batches rows — the
    sketch driver-fold cost class); (2) a distinct pass that explodes
    per-batch-unique (column, value) pairs (the combiner bounds the
    exploded rows by batches x distinct-per-batch) into one value-keyed
    groupby, counted per column on the driver over the distinct-value
    rows (bounded by total distinct, the profile's own output class).
    The pair explode stringifies values, which is injective for the
    string/int profile columns here; a by-type fanout would keep native
    keys if a column family ever needs it."""
    from ray.data.aggregate import Count

    cols = PROFILE_COLUMNS
    ds = _read(sf_dir, "documents", list(cols))

    def partial(t: pa.Table) -> pa.Table:
        out: dict[str, pa.Array] = {}
        for c in cols:
            arr = t[c]
            n = len(arr)
            n_null = arr.null_count
            if n - n_null > 0:
                mm = pc.min_max(arr)
                lo, hi = mm["min"].as_py(), mm["max"].as_py()
            else:
                lo = hi = None
            out[f"n_{c}"] = pa.array([n], pa.int64())
            out[f"null_{c}"] = pa.array([n_null], pa.int64())
            out[f"min_{c}"] = pa.array([lo], type=arr.type)
            out[f"max_{c}"] = pa.array([hi], type=arr.type)
        return pa.table(out)

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()

    def uniq_pairs(t: pa.Table) -> pa.Table:
        names, values = [], []
        for c in cols:
            u = pc.unique(t[c].drop_null())
            u = pc.cast(u, pa.string())
            values.append(u)
            names.append(pa.array([c] * len(u), pa.string()))
        return pa.table(
            {
                "column": pa.concat_arrays(names),
                "value": pa.concat_arrays(values) if values else pa.array([], pa.string()),
            }
        )

    distinct_rows = (
        ds.map_batches(uniq_pairs, batch_format="pyarrow")
        .groupby(["column", "value"])
        .aggregate(Count(alias_name="_n"))
        .select_columns(["column"])
        .take_all()
    )
    n_distinct = {c: 0 for c in cols}
    for r in distinct_rows:
        n_distinct[r["column"]] += 1

    rows = []
    for c in cols:
        n_rows = sum(p[f"n_{c}"] for p in parts)
        n_null = sum(p[f"null_{c}"] for p in parts)
        mins = [p[f"min_{c}"] for p in parts if p[f"min_{c}"] is not None]
        maxs = [p[f"max_{c}"] for p in parts if p[f"max_{c}"] is not None]
        lo = min(mins) if mins else None
        hi = max(maxs) if maxs else None
        # all-null columns keep SQL NULL semantics (not the string
        # 'None') so the twin's CAST(min(c) AS VARCHAR) matches
        rows.append(
            (
                c,
                n_rows,
                n_null,
                n_distinct[c],
                None if lo is None else str(lo),
                None if hi is None else str(hi),
            )
        )

    return pa.table(
        {
            "column": pa.array([r[0] for r in rows], pa.string()),
            "n_rows": pa.array([r[1] for r in rows], pa.int64()),
            "n_null": pa.array([r[2] for r in rows], pa.int64()),
            "n_distinct": pa.array([r[3] for r in rows], pa.int64()),
            "min_v": pa.array([r[4] for r in rows], pa.string()),
            "max_v": pa.array([r[5] for r in rows], pa.string()),
        }
    )
