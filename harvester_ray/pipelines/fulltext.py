"""Fulltext pipelines over the driver `documents` table — the engine's
flagship queries, each mirrored by DuckDB oracle SQL (pipelines/oracles.py).

The embedded ``QUERY_SET`` is the "reference query set" of the north
star (FIXTURES.md §2): head/mid/rare vocabulary terms, OOV terms, and
both AND / OR modes, fixed so every engine run and the SQL oracle rank
the same queries.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import ray.data

from harvester_ray.config import DEFAULT_INDEX_CONFIG, cache_root
from harvester_ray.index.build import (
    DOC_COLUMNS,
    ENGINE_VERSION,
    IndexPaths,
    build_index,
    read_segment_postings,
)
from harvester_ray.index.query import QueryActor
from harvester_ray.stages.joins import ds_join, join_parquet_side
from harvester_ray.stages.topk import topk_per_key

# (query_id, query, mode) — stable ids; OR queries first, AND after.
QUERY_SET: list[tuple[int, str, str]] = [
    (0, "scan", "or"),
    (1, "scan join", "or"),
    (2, "dup", "or"),
    (3, "dup merge sort", "or"),
    (4, "zzzq scan", "or"),              # OOV + head term
    (5, "the a key value table", "or"),
    (6, "group order window", "or"),
    (7, "query fast slow", "or"),
    (8, "vector stream", "or"),
    (9, "column row line", "or"),
    (10, "scan join", "and"),
    (11, "dup merge sort", "and"),
    (12, "zzzq scan", "and"),            # OOV conjunct -> empty
    (13, "vector stream big slow", "and"),
    (14, "filter row column", "and"),
    (15, "the a", "and"),
]

TOP_K = 10

# (phrase_id, phrase) — the phrase-query set for the positional tier:
# adjacent bigrams/trigrams from the corpus vocabulary, a self-
# overlapping phrase ("batch batch" — overlap-exact counting), a rare
# trigram, an OOV conjunct (matches nothing) and a stopword-ish bigram.
PHRASE_SET: list[tuple[int, str]] = [
    (0, "scan join"),
    (1, "group order window"),
    (2, "batch batch"),
    (3, "key value table"),
    (4, "zzzq scan"),
    (5, "the a"),
]

# (proximity_id, phrase, window) — ordered-window proximity queries:
# terms in order, total span (last - first) <= window tokens.
# window = k-1 degenerates to the exact phrase (checked by a test).
PROXIMITY_SET: list[tuple[int, str, int]] = [
    (0, "scan join", 4),
    (1, "key table", 6),
    (2, "group window", 5),
    (3, "sort merge join", 8),
    (4, "zzzq scan", 10),  # OOV conjunct -> empty
    (5, "scan", 3),  # k=1: every occurrence matches
]


def queries_for_mode(mode: str) -> list[tuple[int, str]]:
    return [(qid, q) for qid, q, m in QUERY_SET if m == mode]


def index_for(sf_dir: str) -> IndexPaths:
    """Build (or reuse a cached) index over ``sf_dir``/documents.parquet.

    The cache key folds in the engine version so stale formats rebuild;
    testdata is read-only so input staleness cannot occur.
    """
    key = hashlib.md5(
        f"{os.path.abspath(sf_dir)}:{ENGINE_VERSION}".encode()
    ).hexdigest()[:16]
    out = os.path.join(cache_root(), f"idx_{key}")
    paths = IndexPaths(out)
    if os.path.exists(paths.stats):
        return paths
    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=list(DOC_COLUMNS),
    )
    return build_index(docs, out)


def term_dictionary(sf_dir: str) -> "ray.data.Dataset":
    """(term, df, cf) — the index dictionary (FIXTURES.md §3)."""
    paths = index_for(sf_dir)
    return ray.data.read_parquet(
        paths.dictionary, columns=["term", "df", "cf"]
    )


TERMS_PREFIXES = ("s", "b", "c")   # Solr /terms terms.prefix values
TERMS_MINCOUNT = 2                 # terms.mincount
TERMS_K = 5                        # terms.limit


def terms_enum(sf_dir: str) -> "ray.data.Dataset":
    """Solr /terms handler parity: for each requested prefix, the
    top-TERMS_K indexed terms by document frequency (df desc, term asc
    ties) with df >= TERMS_MINCOUNT. The dictionary is the only input
    — a (vocab-sized, tiny vs the corpus) distributed scan with one
    vectorized starts_with per prefix, then a per-prefix grouped
    top-k; no postings are touched. Output (prefix_id, rank, term,
    df)."""
    import numpy as np
    import pyarrow.compute as pc

    paths = index_for(sf_dir)
    dic = ray.data.read_parquet(paths.dictionary, columns=["term", "df"])

    def match(t: pa.Table) -> pa.Table:
        outs = []
        for pid, pref in enumerate(TERMS_PREFIXES):
            m = pc.and_(
                pc.starts_with(t["term"], pattern=pref),
                pc.greater_equal(t["df"], TERMS_MINCOUNT),
            )
            hit = t.filter(m)
            outs.append(
                pa.table(
                    {
                        "prefix_id": pa.array(
                            np.full(hit.num_rows, pid, dtype=np.int64)
                        ),
                        "term": hit["term"].cast(pa.string()),
                        "df": hit["df"].cast(pa.int64()),
                    }
                )
            )
        return pa.concat_tables(outs)

    return topk_per_key(
        dic.map_batches(match, batch_format="pyarrow"),
        "prefix_id",
        [("df", "descending"), ("term", "ascending")],
        TERMS_K,
        ["term", "df"],
        rank="rank",
    )


def postings(sf_dir: str) -> "ray.data.Dataset":
    """(term, doc_id, tf) — the posting rows, decoded from the
    segments."""
    paths = index_for(sf_dir)
    return read_segment_postings(paths).select_columns(
        ["term", "doc_id", "tf"]
    ).map_batches(
        lambda t: t.set_column(
            t.column_names.index("tf"), "tf", t["tf"].cast(pa.int64())
        ),
        batch_format="pyarrow",
    )


def doc_stats(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, doc_len) for every doc with >= 1 token."""
    paths = index_for(sf_dir)
    return ray.data.read_parquet(paths.doc_table).map_batches(
        lambda t: t.set_column(
            t.column_names.index("doc_len"), "doc_len", t["doc_len"].cast(pa.int64())
        ),
        batch_format="pyarrow",
    )


# Long-lived serving actors per (index root, pool config): the one
# stateful batch shape of the pipelines. A serving tier keeps its query
# actors RESIDENT across requests, so the per-actor index load amortizes
# over the query stream instead of repeating per entry; every pipeline
# query set (each 200 rows or fewer) goes through it. Bounded LRU;
# evicted pools are killed. The key folds in the index's stats/deltas
# mtimes so an in-process upsert/compaction refreshes the pool instead
# of serving stale state. A query LOG of any size streams through the
# CLI's map_batches(QueryActor) pool instead (cli.cmd_query_batch).
_SERVE_POOL: "dict[tuple, list]" = {}
_SERVE_POOL_MAX = 6
_SERVE_POOL_SIZE = 2


def _serving_pool(cls, root: str, **ctor_kwargs) -> list:
    fp = 0
    for sub in ("stats.json", "deltas", ""):
        try:
            fp = fp * 1_000_003 + os.stat(
                os.path.join(root, sub) if sub else root
            ).st_mtime_ns
        except OSError:
            fp = fp * 1_000_003
    key = (cls.__qualname__, root, tuple(sorted(ctor_kwargs.items())), fp)
    pool = _SERVE_POOL.get(key)
    if pool is None:
        while len(_SERVE_POOL) >= _SERVE_POOL_MAX:
            for a in _SERVE_POOL.pop(next(iter(_SERVE_POOL))):
                ray.kill(a)
        # num_cpus=0: resident pools must not RESERVE cores while idle —
        # several pools (per algorithm/scorer) would otherwise pin every
        # CPU and starve the Ray Data executions sharing the cluster
        # (observed as a full-process hang at 8 CPUs). A dedicated
        # serving deployment would size real num_cpus per actor.
        act = ray.remote(num_cpus=0)(cls)
        pool = [
            act.remote(root, **ctor_kwargs)
            for _ in range(_SERVE_POOL_SIZE)
        ]
        _SERVE_POOL[key] = pool
    return pool


def _pool_eval(pool: list, tbl: pa.Table) -> "pa.Table | None":
    """Round-robin ``tbl`` across the resident pool; None if no rows
    came back (callers emit their typed empty)."""
    step = -(-tbl.num_rows // len(pool))  # ceil
    refs = [
        a.__call__.remote(tbl.slice(i * step, step))
        for i, a in enumerate(pool)
        if i * step < tbl.num_rows
    ]
    parts = [p for p in ray.get(refs) if p.num_rows]
    return pa.concat_tables(parts) if parts else None


def _query_pool(
    paths: IndexPaths,
    items,
    k: int = TOP_K,
    algorithm: str = "auto",
    scorer: "str | None" = None,
    keep_score: bool = False,
    as_of: "int | None" = None,
) -> "ray.data.Dataset":
    """The shared resident QueryActor-pool stage every ranked entry
    runs: ``items`` (list of dicts or a typed Arrow table with query_id /
    query [/ mode / exclude / after_*]) -> (query_id, rank, doc_id
    [, score]). The pool and the typed re-emit live HERE so page-1,
    page-2, expansions and NOT queries cannot drift apart."""
    tbl = items if isinstance(items, pa.Table) else pa.Table.from_pylist(items)
    out_t = None
    if tbl.num_rows:
        pool = _serving_pool(
            QueryActor,
            paths.root,
            k=k,
            algorithm=algorithm,
            scorer=scorer,
            as_of=as_of,
        )
        out_t = _pool_eval(pool, tbl)
    if out_t is None:  # typed empty, QueryActor's output schema
        out_t = pa.schema(
            [
                ("query_id", pa.int64()),
                ("rank", pa.int32()),
                ("doc_id", pa.int64()),
                ("score", pa.float64()),
            ]
        ).empty_table()
    cols = {
        "query_id": out_t["query_id"],
        "rank": out_t["rank"].cast(pa.int64()),
        "doc_id": out_t["doc_id"],
    }
    if keep_score:
        cols["score"] = out_t["score"]
    return ray.data.from_arrow(pa.table(cols))


def _bm25(
    sf_dir: str,
    mode: str,
    algorithm: str = "auto",
    scorer: "str | None" = None,
) -> "ray.data.Dataset":
    """Top-10 per query via the QueryActor pool: (query_id, rank, doc_id).

    Scores are intentionally not returned here — the oracle-checked
    contract is *rank-identity* (ints only); score values are covered by
    the pytest oracle at double precision.
    """
    paths = index_for(sf_dir)
    items = [
        {"query_id": qid, "query": q, "mode": mode}
        for qid, q in queries_for_mode(mode)
    ]
    return _query_pool(paths, items, algorithm=algorithm, scorer=scorer)


def bm25_topk_or(sf_dir: str) -> "ray.data.Dataset":
    return _bm25(sf_dir, "or")


def bm25_topk_and(sf_dir: str) -> "ray.data.Dataset":
    return _bm25(sf_dir, "and")


def bm25_topk_wand(sf_dir: str) -> "ray.data.Dataset":
    """The Block-Max WAND execution path, checked against the SAME SQL
    oracle as the exhaustive OR path (rank identity in the driver gate)."""
    return _bm25(sf_dir, "or", algorithm="wand")


def bm25_topk_and_bmand(sf_dir: str) -> "ray.data.Dataset":
    """The conjunctive Block-Max AND path (leapfrog intersection with
    block-max pruning), checked against the SAME SQL oracle as the
    exhaustive AND path."""
    return _bm25(sf_dir, "and", algorithm="wand")


def tfidf_topk(sf_dir: str) -> "ray.data.Dataset":
    """Disjunctive top-10 under the injected cosine TF-IDF scorer
    (query.tfidf_score) — the SURVEY §2.10 scorer plug point exercised
    end-to-end through the actor pool, oracled against the same SQL
    formula. Reference analog: the Solr relevancy knobs the harvester's
    query layer delegates to (couchdb/views, SURVEY §2.10)."""
    return _bm25(sf_dir, "or", scorer="tfidf")


# -- dictionary-expansion queries (index/expand.py) -----------------------

# (query_id, prefix): multi-term expansions, a cap-exercising head
# prefix, single-term, and an OOV prefix (empty result set)
PREFIX_SET: list[tuple[int, str]] = [
    (0, "s"),    # scan slow small sort spark stream -> capped at 4
    (1, "gr"),   # group
    (2, "c"),    # column customer
    (3, "zz"),   # no expansion -> no rows
    (4, "qu"),   # query
]
PREFIX_CAP = 4

# (query_id, query): per-token edit<=1 expansion; covers substitution
# ("scann"->scan? no: deletion), deletion, insertion, an ed-2 typo that
# must NOT match ("tabel" vs table) and a pure-OOV token
FUZZY_SET: list[tuple[int, str]] = [
    (0, "scann sort"),   # scan (ins) + sort/sorts...
    (1, "joim"),         # join (sub)
    (2, "tabel"),        # ed 2 from table -> expands to nothing
    (3, "qzzzz"),        # OOV
    (4, "windoq merg"),  # window? (windoq ed1 of window) + merge (ins)
]

# (query_id, misspelled term) for did-you-mean suggestions (<= ed 2)
SUGGEST_SET: list[tuple[int, str]] = [
    (0, "scann"),
    (1, "tabel"),    # ed 2 -> table
    (2, "qzzzz"),    # nothing within 2 -> no row
    (3, "ordr"),
    (4, "window"),
]


def _dict_ds(paths: IndexPaths) -> "ray.data.Dataset":
    return ray.data.read_parquet(
        paths.dictionary, columns=["term", "df", "cf"]
    )


def _ranked_for_expansions(
    paths: IndexPaths, exp: "object"
) -> "ray.data.Dataset":
    """Run the OR BM25 path over per-query expanded term sets.
    ``exp``: DataFrame (query_id, term). Queries with an empty
    expansion produce no rows (same as the SQL side)."""
    by_q: dict[int, list[str]] = {}
    for qid, term in zip(exp["query_id"], exp["term"]):
        by_q.setdefault(int(qid), []).append(str(term))
    items = [
        {"query_id": qid, "query": " ".join(sorted(set(ts))), "mode": "or"}
        for qid, ts in sorted(by_q.items())
    ]
    return _query_pool(paths, items)


def prefix_search(sf_dir: str) -> "ray.data.Dataset":
    """Prefix queries: expand each prefix against the dictionary
    (top-PREFIX_CAP by df DESC, term ASC), then BM25-OR over the
    expansion — Lucene-style multi-term rewrite, with the expansion
    itself a distributed dictionary scan (index/expand.py)."""
    from harvester_ray.index.expand import prefix_expansions

    paths = index_for(sf_dir)
    exp = prefix_expansions(_dict_ds(paths), PREFIX_SET, PREFIX_CAP)
    return _ranked_for_expansions(paths, exp)


def fuzzy_search(sf_dir: str) -> "ray.data.Dataset":
    """Fuzzy queries: per-token edit-distance<=1 dictionary expansion
    (vectorized byte-matrix kernel, exact vs Levenshtein), union per
    query, then BM25-OR over the expanded set."""
    from harvester_ray.index.expand import fuzzy_expansions

    paths = index_for(sf_dir)
    exp = fuzzy_expansions(_dict_ds(paths), FUZZY_SET)
    return _ranked_for_expansions(paths, exp)


def did_you_mean(sf_dir: str) -> pa.Table:
    """Spelling suggestion: the dictionary term at minimal edit
    distance (<= 2) per query term, ties by cf DESC then term ASC —
    per-batch local best (combiner) + tiny grouped global reduction."""
    from harvester_ray.index.expand import best_suggestions

    paths = index_for(sf_dir)
    return best_suggestions(_dict_ds(paths), SUGGEST_SET, max_dist=2)


# (query_id, source doc_id) — more-like-this seeds (ids exist at every sf)
MLT_SET: list[tuple[int, int]] = [(0, 3), (1, 71), (2, 205)]
MLT_TERMS = 5  # expansion size: top tf-idf terms of the source doc


def more_like_this(sf_dir: str) -> pa.Table:
    """More-like-this: seed doc -> its top-MLT_TERMS terms by
    round(tf * idf, 6) DESC, term ASC (BM25 idf) -> BM25-OR over those
    terms, seed doc excluded, re-ranked top-10.

    Seed text and per-term df are ROW-GROUP-PRUNED filtered reads
    (3 docs / a handful of terms — never a table scan); the ranking
    runs through the same QueryActor pool as every other query entry."""
    import json as _json

    import pyarrow.parquet as pq

    from harvester_ray.functions.text import tokenize
    from harvester_ray.index.build import bm25_idf

    paths = index_for(sf_dir)
    src_ids = [d for _, d in MLT_SET]
    src = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=[("doc_id", "in", src_ids)],
    )
    text_by_id = dict(
        zip(src["doc_id"].to_pylist(), src["text"].to_pylist())
    )
    with open(paths.stats) as f:
        n_docs = float(_json.load(f)["n_docs"])

    # tf of every seed term, then df via one pruned dictionary read
    tf_by_q: dict[int, dict[str, int]] = {}
    all_terms: set[str] = set()
    for qid, did in MLT_SET:
        tf: dict[str, int] = {}
        for tok in tokenize(text_by_id[did]):
            tf[tok] = tf.get(tok, 0) + 1
        tf_by_q[qid] = tf
        all_terms.update(tf)
    dft = pq.read_table(
        paths.dictionary,
        columns=["term", "df"],
        filters=[("term", "in", sorted(all_terms))],
    )
    df_by_term = dict(zip(dft["term"].to_pylist(), dft["df"].to_pylist()))

    items = []
    for qid, did in MLT_SET:
        scored = sorted(
            (
                (-round(tf * bm25_idf(float(df_by_term[t]), n_docs), 6), t)
                for t, tf in tf_by_q[qid].items()
            )
        )[:MLT_TERMS]
        terms = sorted(t for _, t in scored)
        items.append(
            {"query_id": qid, "query": " ".join(terms), "mode": "or"}
        )

    # k = TOP_K + 1 absorbs the excluded seed doc
    out = _query_pool(paths, items, k=TOP_K + 1).to_pandas()
    seed_by_q = dict(MLT_SET)
    out = out[
        out["doc_id"] != out["query_id"].map(seed_by_q)
    ].copy()
    out["rank"] = out.groupby("query_id")["rank"].rank(method="first")
    out = out[out["rank"] <= TOP_K]
    return pa.table(
        {
            "query_id": pa.array(out["query_id"], pa.int64()),
            "rank": pa.array(out["rank"].astype("int64"), pa.int64()),
            "doc_id": pa.array(out["doc_id"], pa.int64()),
        }
    )


# process-level cache of materialized match sets: the gate's six
# full-match-set consumers (search_facets/numfound/range/pivot,
# collapse_topk, bm25_topk_filtered, sort_by_field_topk) each used to
# recompute the postings scan + (query, doc) shuffle; one driver
# process now pays it once per sf_dir. Match sets are query-bounded
# (|queries| × matches), far smaller than the corpus, so pinning the
# materialized blocks in the object store is safe. Bounded (LRU-ish:
# oldest evicted past _MATCH_SET_CACHE_MAX) so a long-lived driver
# touching many sf_dirs cannot grow the object store monotonically.
# Staleness contract: keyed by path only — callers that REBUILD the
# corpus under an existing path in-process must clear the cache (the
# gate's sf_dirs are read-only testdata).
_MATCH_SET_CACHE: dict = {}
_MATCH_SET_CACHE_MAX = 8


def _match_set_cached(sf_dir: str, kind: str, build) -> "ray.data.Dataset":
    key = (os.path.abspath(sf_dir), kind)
    hit = _MATCH_SET_CACHE.get(key)
    if hit is None:
        while len(_MATCH_SET_CACHE) >= _MATCH_SET_CACHE_MAX:
            _MATCH_SET_CACHE.pop(next(iter(_MATCH_SET_CACHE)))
        hit = _MATCH_SET_CACHE[key] = build().materialize()
    return hit


def _distinct_match_set(sf_dir: str) -> "ray.data.Dataset":
    """(query_id, doc_id) — each OR query's FULL distinct match set.
    Derived as a projection of the cached scored match set (one row per
    (query, doc) there), so the facet/sort/filter consumers and the
    ranked consumers share ONE postings scan + (query, doc) shuffle per
    process instead of building two parallel match sets."""
    return _match_set_cached(
        sf_dir,
        "distinct",
        lambda: _scored_match_set(sf_dir).select_columns(
            ["query_id", "doc_id"]
        ),
    )


def search_facets(sf_dir: str) -> "ray.data.Dataset":
    """Facet counts over each OR query's FULL match set (not top-k):
    (query_id, source, n_docs) — how many matching docs each `source`
    facet value holds. The Solr faceting the reference's registry UI
    runs on every search (SURVEY §2.6 facet counts), re-expressed as:
    _distinct_match_set → hash join onto the documents facet column →
    facet groupby. Both shuffles are corpus-scale-safe."""
    from ray.data.aggregate import Count

    matches = _distinct_match_set(sf_dir)
    joined = join_parquet_side(
        matches,
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source"],
        on=["doc_id"],
    )
    return (
        joined.groupby(["query_id", "source"])
        .aggregate(Count(alias_name="n_docs"))
    )


JSON_FACET_K = 3   # facet.limit: buckets kept per query


def json_facet_stats(sf_dir: str) -> "ray.data.Dataset":
    """Solr JSON Facet API parity (nested aggregations inside facet
    buckets): per OR query, the top-JSON_FACET_K `source` buckets of
    the FULL match set by doc count (ties source asc), each carrying
    nested stats — count, sum(n_chars), and integer-exact avg
    (sum*FP4 floor-div count; safe while sum_chars < 2^63/10^4 ≈ 9e14,
    i.e. ~10^11 docs of 10^4 chars per bucket). Shuffle shape: the
    cached distinct match set joins the pruned documents columns, one
    (query, source) grouped aggregate, then a per-query bucket top-k —
    all corpus-scale-safe. Output (query_id, bucket_rank, source,
    n_docs, sum_chars, avg_chars_fp4)."""
    import numpy as np
    from ray.data.aggregate import Count, Sum

    matches = _distinct_match_set(sf_dir)
    joined = join_parquet_side(
        matches,
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "n_chars"],
        on=["doc_id"],
    )
    buckets = joined.groupby(["query_id", "source"]).aggregate(
        Count(alias_name="n_docs"), Sum("n_chars", alias_name="sum_chars")
    )

    def avg(t: pa.Table) -> pa.Table:
        n = t["n_docs"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = t["sum_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column(
            "avg_chars_fp4", pa.array((s * _FP4) // n, pa.int64())
        )

    return topk_per_key(
        buckets,
        "query_id",
        [("n_docs", "descending"), ("source", "ascending")],
        JSON_FACET_K,
        ["source", "n_docs", "sum_chars"],
        rank="bucket_rank",
    ).map_batches(avg, batch_format="pyarrow")


def sort_by_field_topk(sf_dir: str) -> "ray.data.Dataset":
    """Sort-by-field results (Solr `sort=field desc` parity): per OR
    query, the top-10 docs of the FULL match set ordered by a DOC
    FIELD, not by score — (n_chars DESC, doc_id ASC). This is exactly
    the reference's deferred-sort-key design: solr_updater computes
    sort keys (sort_title, sort_date_start/end,
    harvester/solr_updater.py:561-608) and delegates the ordering to
    the index tier; here the engine owns it: _distinct_match_set →
    n_chars hash join → topk_per_key (its per-block prune keeps the
    shuffle at <= 10 x queries x blocks rows)."""
    matches = _distinct_match_set(sf_dir)
    joined = join_parquet_side(
        matches,
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "n_chars"],
        on=["doc_id"],
    )
    return topk_per_key(
        joined,
        "query_id",
        [("n_chars", "descending"), ("doc_id", "ascending")],
        TOP_K,
        ["doc_id", "n_chars"],
        rank="rank",
    )


def doc_len_quantiles(sf_dir: str) -> pa.Table:
    """Corpus profiling: exact doc-length quantiles (p25/50/75/95) from
    the index doc table via the histogram-combiner rule shared with
    lineitem_quantity_quantiles — one |distinct lengths| shuffle, tiny
    histogram to the driver, smallest value with cum >= ceil(q*n)."""
    import numpy as np
    from ray.data.aggregate import Count

    from harvester_ray.pipelines.relational import QUANTILES_R4

    paths = index_for(sf_dir)
    hist = (
        ray.data.read_parquet(paths.doc_table, columns=["doc_len"])
        .groupby("doc_len")
        .aggregate(Count(alias_name="c"))
        .to_pandas()
        .sort_values("doc_len", kind="stable")
    )
    v = hist["doc_len"].to_numpy(dtype=np.int64)
    c = hist["c"].to_numpy(dtype=np.int64)
    cum = np.cumsum(c)
    n = int(cum[-1]) if len(cum) else 0
    out_q, out_v = [], []
    for q_r4 in QUANTILES_R4:
        target = int(np.ceil(q_r4 * n / 10_000.0))
        i = int(np.searchsorted(cum, target, side="left"))
        out_q.append(q_r4)
        out_v.append(int(v[i]))
    return pa.table(
        {
            "q_r4": pa.array(out_q, pa.int64()),
            "doc_len": pa.array(out_v, pa.int64()),
        }
    )


COLLAPSE_K = 5  # top source groups kept per query
# per-posting fixed-point scale: scores become integers BEFORE the
# distributed sum, so partial-sum order cannot move a rank (same
# sum-of-fp rule as the relational q1 contract)
_FP8 = 100_000_000
_LM_MU = 2000     # Dirichlet smoothing mass (Lucene LMDirichlet default)
RERANK_N = 50     # first-phase candidate depth for rerank_topk


def _scored_match_set(sf_dir: str) -> "ray.data.Dataset":
    return _match_set_cached(
        sf_dir, "scored", lambda: _weighted_match_set_build(sf_dir, "bm25")
    )


def _tfidf_match_set(sf_dir: str) -> "ray.data.Dataset":
    return _match_set_cached(
        sf_dir,
        "scored_tfidf",
        lambda: _weighted_match_set_build(sf_dir, "tfidf"),
    )


def _lm_match_set(sf_dir: str) -> "ray.data.Dataset":
    return _match_set_cached(
        sf_dir,
        "scored_lm",
        lambda: _weighted_match_set_build(sf_dir, "lmdirichlet"),
    )


def _query_joined_postings(
    sf_dir: str, paths: "IndexPaths", all_terms: list
) -> "ray.data.Dataset":
    """(term, doc_id, tf, doc_len) for the OR query set's terms — the
    term-pruned segment decode every weighting's match set starts from
    (doc_len rides on every decoded posting, so no doc-table join),
    materialized ONCE per sf_dir and shared (the per-weighting scoring
    maps are cheap). all_terms is a pure function of the fixed query
    set, so the cache key needs only sf_dir."""
    return _match_set_cached(
        sf_dir,
        "qjoined",
        lambda: read_segment_postings(paths, all_terms).select_columns(
            ["term", "doc_id", "tf", "doc_len"]
        ),
    )


def _weighted_match_set_build(
    sf_dir: str, weighting: str = "bm25"
) -> "ray.data.Dataset":
    """(query_id, doc_id, score_fp) — exhaustive scoring over each OR
    query's FULL match set under the named weighting, recomputed
    distributedly from the segment postings (not the top-k actor):
    term-pruned segment decode → per-posting fixed-point-8
    score → (query, doc) integer sum. Every float becomes an integer
    at the ROW, so the distributed sums are exact and rank-stable
    against the SQL oracles. Weightings (each one per-term driver
    constant w + an elementwise kernel, op order mirrored verbatim in
    the oracle SQL):
      bm25        — w = idf(df);        s = w * bm25_norm(tf, dl)
      tfidf       — w = ln((N+1)/(df+1)); s = (1+ln tf) * w / sqrt(dl)
      lmdirichlet — w = MU*cf/C (the smoothing mass MU*p(t|C));
                    s = ln(1 + tf/w) + ln(MU/(dl+MU))  [query
                    likelihood, Dirichlet smoothing, mu=_LM_MU]
    Shared by the full-match-set consumers (collapse_topk,
    bm25_topk_filtered, rerank_topk, lmdirichlet_topk)."""
    import json as _json
    import math

    import numpy as np
    import pyarrow.parquet as pq
    from ray.data.aggregate import Count, Sum

    from harvester_ray.functions.text import tokenize
    from harvester_ray.index.build import bm25_idf, bm25_norm

    paths = index_for(sf_dir)
    with open(paths.stats) as f:
        st = _json.load(f)
    n_docs, avgdl = float(st["n_docs"]), float(st["avgdl"])
    k1, b = float(st["k1"]), float(st["b"])
    total_tokens = int(st["total_tokens"])
    qterms = [
        (qid, sorted(set(tokenize(q)))) for qid, q in queries_for_mode("or")
    ]
    all_terms = sorted({t for _, ts in qterms for t in ts})
    dft = pq.read_table(  # pruned dictionary read: query terms only
        paths.dictionary, columns=["term", "df", "cf"],
        filters=[("term", "in", all_terms)],
    )
    # per-term constants precomputed once on the driver (query terms
    # are few): the weighting's w plus the list of query_ids
    # containing the term
    if weighting == "bm25":
        const_by_term = {
            tm: bm25_idf(float(df), n_docs)
            for tm, df in zip(dft["term"].to_pylist(), dft["df"].to_pylist())
        }
    elif weighting == "tfidf":
        const_by_term = {
            tm: math.log((n_docs + 1.0) / (float(df) + 1.0))
            for tm, df in zip(dft["term"].to_pylist(), dft["df"].to_pylist())
        }
    elif weighting == "lmdirichlet":
        # exact-int product then one float division — the same double
        # DuckDB's (MU * cf) / C BIGINT division produces
        const_by_term = {
            tm: (_LM_MU * int(cf)) / total_tokens
            for tm, cf in zip(dft["term"].to_pylist(), dft["cf"].to_pylist())
        }
    else:  # pragma: no cover - caller bug
        raise ValueError(f"unknown weighting {weighting!r}")
    qids_by_term: dict[str, "np.ndarray"] = {}
    for qid, ts in qterms:
        for tm in ts:
            qids_by_term.setdefault(tm, []).append(qid)  # type: ignore[arg-type]
    qids_by_term = {
        tm: np.asarray(v, dtype=np.int64) for tm, v in qids_by_term.items()
    }

    post = _query_joined_postings(sf_dir, paths, all_terms)

    _EMPTY = pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
            "score_fp": pa.array([], pa.int64()),
        }
    )
    _NO_QIDS = np.empty(0, dtype=np.int64)

    def score_rows(t: pa.Table) -> pa.Table:
        # fully vectorized: dictionary-encode the term column once per
        # batch, look up idf / query membership only on the (few)
        # unique terms, then score every row elementwise and explode
        # rows whose term belongs to multiple queries via a segmented
        # gather — no Python loop over rows or queries.
        if t.num_rows == 0:
            return _EMPTY
        enc = t["term"].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = enc.dictionary.to_pylist()
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        dl = t["doc_len"].to_numpy(zero_copy_only=False).astype(np.float64)
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        w_u = np.asarray(
            [const_by_term[tm] for tm in uniq], dtype=np.float64
        )
        # per-term scalar × elementwise kernel, op order matching the
        # engine scorer (bm25/tfidf) resp. the oracle SQL (lm) exactly
        # → bit-identical doubles before the fixed-point floor. Logs
        # run through SCALAR math.log on UNIQUE arguments only (then a
        # vectorized gather): vectorized np.log is 1-ulp off libm on
        # ~half of all arguments while math.log is bit-identical to
        # DuckDB's ln, so this keeps the fixed point deterministic
        # rather than probabilistically safe. Unique counts are tiny:
        # tf values resp. (query-term, tf) pairs resp. distinct doc
        # lengths per batch — never one log per row.
        if weighting == "bm25":
            # no per-row transcendentals: idf was math.log'd on the
            # driver, bm25_norm is exact IEEE mul/div/add
            s = w_u[codes] * bm25_norm(tf, dl, avgdl, k1, b)
        elif weighting == "tfidf":
            utf, itf = np.unique(tf, return_inverse=True)
            ltf = np.asarray([math.log(x) for x in utf])
            s = (1.0 + ltf[itf]) * w_u[codes] / np.sqrt(dl)
        else:  # lmdirichlet: ln(1 + tf/w) + ln(MU/(dl + MU))
            tf_i = tf.astype(np.int64)
            span = int(tf_i.max()) + 1
            upair, ip = np.unique(codes * span + tf_i, return_inverse=True)
            la = np.asarray(
                [
                    math.log(1.0 + float(p % span) / w_u[p // span])
                    for p in upair
                ]
            )
            udl, idl = np.unique(dl, return_inverse=True)
            lb = np.asarray(
                [math.log(_LM_MU / (x + _LM_MU)) for x in udl]
            )
            s = la[ip] + lb[idl]
        s_fp = np.floor(s * _FP8 + 0.5).astype(np.int64)
        q_u = [qids_by_term.get(tm, _NO_QIDS) for tm in uniq]
        k_u = np.asarray([len(q) for q in q_u], dtype=np.int64)
        reps = k_u[codes]
        total = int(reps.sum())
        if total == 0:
            return _EMPTY
        qflat = np.concatenate(q_u)
        off_u = np.cumsum(k_u) - k_u
        row_rep = np.repeat(np.arange(len(codes), dtype=np.int64), reps)
        seg_start = np.cumsum(reps) - reps
        intra = np.arange(total, dtype=np.int64) - np.repeat(seg_start, reps)
        out_qid = qflat[np.repeat(off_u[codes], reps) + intra]
        return pa.table(
            {
                "query_id": pa.array(out_qid, pa.int64()),
                "doc_id": pa.array(did[row_rep], pa.int64()),
                "score_fp": pa.array(s_fp[row_rep], pa.int64()),
            }
        )

    return (
        post.map_batches(score_rows, batch_format="pyarrow")
        .groupby(["query_id", "doc_id"])
        # nterms rides along for free: each expanded row is one
        # (query-term, doc) posting, so the group count IS the
        # distinct-query-term match count (mm_topk's input)
        .aggregate(
            Sum("score_fp", alias_name="score_fp"),
            Count(alias_name="nterms"),
        )
        .map_batches(  # typed re-emit after the aggregate
            lambda t: pa.table(
                {
                    "query_id": t["query_id"].cast(pa.int64()),
                    "doc_id": t["doc_id"].cast(pa.int64()),
                    "score_fp": t["score_fp"].cast(pa.int64()),
                    "nterms": t["nterms"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


def _doc_topk(ds: "ray.data.Dataset", score: str, k: int = TOP_K):
    """Per query_id, the top-k docs by (score desc, doc_id asc) as
    (query_id, rank 1..k, doc_id)."""
    return topk_per_key(
        ds,
        "query_id",
        [(score, "descending"), ("doc_id", "ascending")],
        k,
        ["doc_id"],
        rank="rank",
    )


def lmdirichlet_topk(sf_dir: str) -> "ray.data.Dataset":
    """Query-likelihood retrieval with Dirichlet smoothing (mu =
    _LM_MU), Lucene LMDirichletSimilarity's model family: per matched
    posting score_fp = fp8(ln(1 + tf/(mu*cf/C)) + ln(mu/(dl+mu))),
    summed per (query, doc), top-TOP_K. A third ranking model through
    the same full-match-set pipeline as BM25/tfidf — one pruned
    postings read + one doc_len join + grouped integer sum; nothing
    new moves at 100 TB. (query_id, rank, doc_id)."""
    return _doc_topk(_lm_match_set(sf_dir), "score_fp")


def rerank_topk(sf_dir: str) -> "ray.data.Dataset":
    """Two-phase retrieval (Solr rq / LTR rerank parity): phase 1 =
    BM25 top-RERANK_N per query over the full match set; phase 2 =
    rescore ONLY those candidates under the tfidf weighting and
    re-rank to top-TOP_K. The candidate set is |queries| x RERANK_N
    rows — bounded by the QUERY set, not the corpus — so it ships as
    one ray.put broadcast into a vectorized membership filter over the
    (cached, shared) tfidf match set: no candidate shuffle, and at
    100 TB the phase-2 cost is the match-set scoring both phases
    already share. (query_id, rank, doc_id)."""
    import numpy as np

    cand = (
        _doc_topk(_scored_match_set(sf_dir), "score_fp", RERANK_N)
        .select_columns(["query_id", "doc_id"])
        .take_all()
    )
    by_q: dict[int, list] = {}
    for r in cand:
        by_q.setdefault(int(r["query_id"]), []).append(int(r["doc_id"]))
    cand_ref = ray.put(
        {q: np.asarray(sorted(v), dtype=np.int64) for q, v in by_q.items()}
    )

    def keep_cand(t: pa.Table) -> pa.Table:
        cd = ray.get(cand_ref)
        qid = t["query_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.zeros(len(qid), dtype=bool)
        for q, docs in cd.items():  # one vectorized isin per query
            m = qid == q
            if m.any():
                keep[m] = np.isin(did[m], docs)
        return t.filter(pa.array(keep))

    kept = _tfidf_match_set(sf_dir).map_batches(
        keep_cand, batch_format="pyarrow"
    )
    return _doc_topk(kept, "score_fp")


def collapse_topk(sf_dir: str) -> "ray.data.Dataset":
    """Field collapsing (Lucene/Solr collapse parity): per OR query,
    the best-scoring doc of EVERY `source` group over the FULL match
    set (_scored_match_set), then the top-COLLAPSE_K groups ranked by
    their representative: (query_id, grp_rank, source, doc_id) via
    source join → grouped top-1 → per-query group ranking."""
    scored = _scored_match_set(sf_dir)
    joined = join_parquet_side(
        scored,
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source"],
        on=["doc_id"],
    )
    _SORT = [("score_fp", "descending"), ("doc_id", "ascending")]
    reps = topk_per_key(
        joined, ["query_id", "source"], _SORT, 1, ["doc_id", "score_fp"]
    )
    return topk_per_key(
        reps,
        "query_id",
        _SORT,
        COLLAPSE_K,
        ["source", "doc_id"],
        rank="grp_rank",
    )


# (query_id, positive query, excluded terms) — boolean NOT set (OR mode
# positives; AND-NOT is covered by unit tests against brute force)
NOT_SET: list[tuple[int, str, str]] = [
    (0, "scan join", "merge"),
    (1, "dup", "the"),
    (2, "scan", "zzzq"),            # OOV negative -> plain OR
    (3, "the a", "scan join sort"),
    (4, "query fast slow", "merge"),
]


def bm25_topk_not(sf_dir: str) -> "ray.data.Dataset":
    """Boolean NOT: disjunctive BM25 over the positive terms with docs
    containing ANY excluded term dropped BEFORE top-k (query.py
    search(exclude=...)) — the '-term' operator of a web search box."""
    paths = index_for(sf_dir)
    items = [
        {"query_id": qid, "query": q, "mode": "or", "exclude": ex}
        for qid, q, ex in NOT_SET
    ]
    return _query_pool(paths, items)


SNIPPET_W = 8  # snippet window: 8 consecutive tokens


def snippet_topk(sf_dir: str) -> pa.Table:
    """Result highlighting: for every (query, doc) in the OR-mode BM25
    top-10, the best SNIPPET_W-token window — anchored at query-term
    positions, maximizing distinct query terms covered, ties to the
    earliest start (index/positional.py snippet_windows_multi). The
    Solr-highlighter analog of the reference's delegated search tier,
    re-expressed over the engine's own positional store."""
    from harvester_ray.functions.text import tokenize
    from harvester_ray.index.positional import snippet_windows_multi

    hits = _bm25(sf_dir, "or").to_pandas()  # <= TOP_K x |queries| rows
    docs_by_q: dict[int, set[int]] = {}
    for qid, did in zip(hits["query_id"], hits["doc_id"]):
        docs_by_q.setdefault(int(qid), set()).add(int(did))
    specs = [
        (qid, sorted(set(tokenize(q))), docs_by_q.get(qid, set()))
        for qid, q in queries_for_mode("or")
    ]
    return snippet_windows_multi(positions_for(sf_dir), specs, SNIPPET_W)


# -- incremental add (delta segments) ------------------------------------
def index_for_incremental(sf_dir: str) -> IndexPaths:
    """Build a BASE index over the even doc_ids, then incrementally ADD
    the odd doc_ids as a delta source (maintenance.add_docs — the
    `_changes` add path, harvester/solr_updater.py:875-962). The driver
    gate compares the merged result against the SAME full-corpus SQL
    oracles as the one-shot build, proving add-then-query is exact."""
    import pyarrow.compute as pc

    from harvester_ray.index.maintenance import add_docs, delta_dirs

    key = hashlib.md5(
        f"{os.path.abspath(sf_dir)}:{ENGINE_VERSION}:incr".encode()
    ).hexdigest()[:16]
    out = os.path.join(cache_root(), f"idx_{key}")
    paths = IndexPaths(out)
    if os.path.exists(paths.stats) and delta_dirs(out):
        return paths
    src = os.path.join(sf_dir, "documents.parquet")
    cols = list(DOC_COLUMNS)

    def half(parity: int):
        return ray.data.read_parquet(src, columns=cols).map_batches(
            lambda t, p=parity: t.filter(
                pc.equal(pc.bit_wise_and(t["doc_id"], 1), p)
            ),
            batch_format="pyarrow",
        )

    build_index(half(0), out)
    add_docs(out, half(1))
    return paths


def term_dictionary_incremental(sf_dir: str) -> pa.Table:
    """(term, df, cf) served from base+delta — must equal the
    full-corpus TERM_DICTIONARY oracle bit for bit."""
    from harvester_ray.index.query import InvertedIndex

    paths = index_for_incremental(sf_dir)
    idx = InvertedIndex(paths.root)
    terms = sorted(idx.dictionary)
    return pa.table(
        {
            "term": pa.array(terms, pa.string()),
            "df": pa.array([idx.dictionary[t][1] for t in terms], pa.int64()),
            "cf": pa.array([idx.dictionary[t][2] for t in terms], pa.int64()),
        }
    )


def bm25_topk_or_incremental(sf_dir: str) -> "ray.data.Dataset":
    """Reference query set served from base+delta — must match the
    full-corpus BM25_TOPK_OR oracle rank for rank."""
    paths = index_for_incremental(sf_dir)
    items = [
        {"query_id": qid, "query": q, "mode": "or"}
        for qid, q in queries_for_mode("or")
    ]
    return _query_pool(paths, items)


def bm25_topk_or_sharded(sf_dir: str, n_shards: int = 4) -> "object":
    """The doc-sharded serving grid (index/serving.py, T = 1) under the
    correctness gate: the same OR query set answered by ShardedIndex
    scatter-gather over ``n_shards`` cells, each loading 1/S of doc
    space from an index built with ``segment_doc_chunks=n_shards``. Same SQL
    oracle as bm25_topk_or — rank identity proves shard-merge
    losslessness end to end."""
    import pandas as pd

    from harvester_ray.config import IndexConfig
    from harvester_ray.index.serving import ShardedIndex

    key = hashlib.md5(
        f"{os.path.abspath(sf_dir)}:{ENGINE_VERSION}:chunks{n_shards}".encode()
    ).hexdigest()[:16]
    out = os.path.join(cache_root(), f"idx_sh_{key}")
    paths = IndexPaths(out)
    if not os.path.exists(paths.stats):
        docs = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=list(DOC_COLUMNS),
        )
        build_index(
            docs, out, IndexConfig(segment_doc_chunks=n_shards)
        )
    sh = ShardedIndex(out, n_doc_shards=n_shards)
    try:
        rows = []
        for qid, q in queries_for_mode("or"):
            for rank, (doc_id, _s) in enumerate(
                sh.search(q, k=TOP_K, mode="or"), start=1
            ):
                rows.append((qid, rank, doc_id))
    finally:
        sh.shutdown()
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id"])


FACET_SHARDED_K = 3          # facet.limit per query
# Solr facet.overrequest analog; K*8 = 24 phase-1 buckets per shard
# keeps the 20-value `source` facet inside the provably-exact regime
# (every non-zero bucket reported by every shard) while still forcing
# refinement calls wherever a shard's local match set misses a value.
FACET_SHARDED_OVERREQUEST = 8


def search_facets_sharded(sf_dir: str, n_shards: int = 4) -> "object":
    """Distributed faceting on the doc-sharded serving tier: each OR
    query's top-FACET_SHARDED_K `source` buckets via the two-phase
    overrequest + refine protocol (ShardedIndex.facet_search) — facet
    partials cross shards, never match sets. The tier reuses
    bm25_topk_or_sharded's index build (segment_doc_chunks=n_shards);
    each cell lazily loads only ITS doc range's facet column
    (row-group-pruned — chunks are contiguous doc_id ranges). The SQL
    oracle is the full unsharded facet count + per-query top-K, so a
    pass proves phase-1 membership + refinement sum exactly equal the
    global counts (the per-run ``exact`` flag is asserted: the test
    corpus' bucket count is under the phase-1 limit, the regime where
    the protocol is provably lossless)."""
    import pandas as pd

    from harvester_ray.config import IndexConfig
    from harvester_ray.index.serving import ShardedIndex

    key = hashlib.md5(
        f"{os.path.abspath(sf_dir)}:{ENGINE_VERSION}:chunks{n_shards}".encode()
    ).hexdigest()[:16]
    out = os.path.join(cache_root(), f"idx_sh_{key}")
    paths = IndexPaths(out)
    if not os.path.exists(paths.stats):
        docs = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=list(DOC_COLUMNS),
        )
        build_index(docs, out, IndexConfig(segment_doc_chunks=n_shards))
    facet_parquet = os.path.join(sf_dir, "documents.parquet")
    sh = ShardedIndex(out, n_doc_shards=n_shards)
    try:
        rows = []
        for qid, q in queries_for_mode("or"):
            ranked, exact = sh.facet_search(
                q,
                facet_parquet,
                "source",
                k=FACET_SHARDED_K,
                mode="or",
                overrequest=FACET_SHARDED_OVERREQUEST,
            )
            if not exact:
                raise AssertionError(
                    f"facet phase-1 truncated for query {qid}; raise "
                    "FACET_SHARDED_OVERREQUEST for an exact gate run"
                )
            for rank, (val, n) in enumerate(ranked, start=1):
                rows.append((qid, rank, val, n))
    finally:
        sh.shutdown()
    return pd.DataFrame(
        rows, columns=["query_id", "bucket_rank", "source", "n_docs"]
    )


def bm25_topk_or_termsharded(sf_dir: str, n_shards: int = 4) -> "object":
    """The TERM-sharded (vocabulary-partitioned) serving grid under the
    correctness gate: the same OR query set answered by ShardedIndex with
    S = 1 — each cell loads only its term buckets' dictionary parts +
    segment files, the router accumulates per-term scored postings in
    sorted-term order. Same SQL oracle as bm25_topk_or — rank identity
    proves the vocabulary partition + router merge end to end."""
    import pandas as pd

    from harvester_ray.index.serving import ShardedIndex

    paths = index_for(sf_dir)
    tier = ShardedIndex(paths.root, n_term_shards=n_shards)
    try:
        rows = []
        for qid, q in queries_for_mode("or"):
            for rank, (doc_id, _s) in enumerate(
                tier.search(q, k=TOP_K, mode="or"), start=1
            ):
                rows.append((qid, rank, doc_id))
    finally:
        tier.shutdown()
    return pd.DataFrame(rows, columns=["query_id", "rank", "doc_id"])


def term_dictionary_merged(sf_dir: str) -> pa.Table:
    """(term, df, cf) AFTER true compaction: base (even ids) + delta
    (odd ids) merged by maintenance.merge_sources (no retokenize) —
    must still equal the full-corpus TERM_DICTIONARY oracle bit for
    bit, proving the merge under the external gate."""
    from harvester_ray.index.maintenance import merge_sources

    inc = index_for_incremental(sf_dir)
    key = hashlib.md5(
        f"{os.path.abspath(sf_dir)}:{ENGINE_VERSION}:merged".encode()
    ).hexdigest()[:16]
    out = os.path.join(cache_root(), f"idx_{key}")
    paths = IndexPaths(out)
    if not os.path.exists(paths.stats):
        paths = merge_sources(inc.root, out)
    return ray.data.read_parquet(
        paths.dictionary, columns=["term", "df", "cf"]
    ).map_batches(
        lambda t: pa.table(
            {
                "term": t["term"],
                "df": t["df"].cast(pa.int64()),
                "cf": t["cf"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


# -- positional tier: exact phrase queries --------------------------------
def positions_for(sf_dir: str) -> str:
    """Build (or reuse a cached) positional store over
    ``sf_dir``/documents.parquet (index/positional.py)."""
    from harvester_ray.index.positional import (
        POSITIONAL_VERSION,
        build_positions,
    )
    from harvester_ray.state.lineage import dir_fingerprint

    key = hashlib.md5(
        f"{os.path.abspath(sf_dir)}:pos{POSITIONAL_VERSION}".encode()
    ).hexdigest()[:16]
    out = os.path.join(cache_root(), f"pos_{key}")
    src = os.path.join(sf_dir, "documents.parquet")
    if os.path.exists(os.path.join(out, "stats.json")):
        return out
    docs = ray.data.read_parquet(src, columns=["doc_id", "text"])
    return build_positions(
        docs, out, input_fingerprint=dir_fingerprint(src)
    )


def phrase_match(sf_dir: str) -> pa.Table:
    """(phrase_id, doc_id, n_occurrences) for every PHRASE_SET phrase
    over the positional store — occurrence counts are overlap-exact
    (see index/positional.py), checked against a DuckDB list-
    comprehension oracle (oracles.PHRASE_MATCH). The whole set runs
    as ONE pipeline (batch query execution: union-pruned read, one
    anchor explode, two groupbys)."""
    from harvester_ray.index.positional import phrase_occurrences_multi

    return phrase_occurrences_multi(positions_for(sf_dir), PHRASE_SET)


def proximity_match(sf_dir: str) -> pa.Table:
    """(proximity_id, doc_id, n_matches) for every PROXIMITY_SET entry
    — ordered-window proximity over the positional store, greedy-
    minimal chain semantics shared verbatim with the DuckDB oracle
    (oracles.PROXIMITY_MATCH). The whole set runs as ONE pipeline
    (union-pruned read, one groupby(doc).map_groups running every
    query per candidate doc)."""
    from harvester_ray.index.positional import proximity_occurrences_multi

    return proximity_occurrences_multi(positions_for(sf_dir), PROXIMITY_SET)


# -- passage retrieval: BM25 over chunks + doc-level max-pooling ----------
def chunk_corpus_for(sf_dir: str) -> tuple[IndexPaths, str]:
    """Build (or reuse) the CHUNK-granularity index: documents are
    split into token windows (stages/chunking.py), each chunk becomes
    an index "document" keyed by hash64("{doc_id}:{chunk_id}"), and
    the chunk corpus checkpoint doubles as the chunk_key -> parent doc
    mapping. Returns (index paths, mapping dir)."""
    import pyarrow.compute as pc

    from harvester_ray.functions.text import hash64_array
    from harvester_ray.stages.chunking import (
        CHUNK_OVERLAP,
        CHUNK_SIZE,
        doc_chunks,
    )

    key = hashlib.md5(
        f"{os.path.abspath(sf_dir)}:{ENGINE_VERSION}:chunks:"
        f"{CHUNK_SIZE}:{CHUNK_OVERLAP}".encode()
    ).hexdigest()[:16]
    out = os.path.join(cache_root(), f"idx_{key}")
    mapping = os.path.join(cache_root(), f"chunkmap_{key}")
    paths = IndexPaths(out)
    if os.path.exists(paths.stats) and os.path.isdir(mapping):
        return paths, mapping

    def keyed(batch: pa.Table) -> pa.Table:
        label = pc.binary_join_element_wise(
            pc.cast(batch["doc_id"], pa.string()),
            pc.cast(batch["chunk_id"], pa.string()),
            ":",
        )
        keys = hash64_array(label.combine_chunks() if hasattr(label, "combine_chunks") else label)
        return pa.table(
            {
                "doc_id": pa.array(keys, pa.int64()),  # index doc key
                "parent_doc": batch["doc_id"],
                "chunk_id": batch["chunk_id"],
                "text": batch["chunk_text"],
            }
        )

    if not os.path.isdir(mapping):
        tmp = f"{mapping}.tmp-{os.getpid()}"
        doc_chunks(sf_dir).map_batches(
            keyed, batch_format="pyarrow", zero_copy_batch=True
        ).write_parquet(tmp)
        os.rename(tmp, mapping)
    chunks = ray.data.read_parquet(mapping, columns=["doc_id", "text"])
    build_index(chunks, out)
    return paths, mapping


def passage_topk(sf_dir: str) -> pa.Table:
    """Passage retrieval with doc-level max-pooling ("maxP"): BM25
    top-k over the CHUNK index, then each document is scored by its
    best chunk; top-10 docs per query by (round(score,6) DESC, doc_id).

    Exactness of the chunk top-k': if a doc is in the true doc-level
    top-10, chunks scoring above its best chunk belong to at most 9
    other docs, each contributing at most max_chunks_per_doc of them —
    so its best chunk ranks within 10 * max_chunks_per_doc and
    k' = TOP_K * max_chunks_per_doc retrieves every chunk that can
    decide the doc top-10.
    """
    import numpy as np
    import pyarrow.dataset as pads

    paths, mapping = chunk_corpus_for(sf_dir)
    # distributed: chunks per parent doc -> max (tiny result)
    per_doc = (
        ray.data.read_parquet(mapping, columns=["parent_doc"])
        .groupby("parent_doc")
        .count()
    )
    max_chunks = int(per_doc.max("count()"))
    kprime = TOP_K * max_chunks
    qs = queries_for_mode("or")
    hits = _query_pool(
        paths,
        [{"query_id": qid, "query": q, "mode": "or"} for qid, q in qs],
        k=kprime,
        keep_score=True,
    ).take_all()  # <= |queries| * k' rows — the top-k scatter-gather tail
    if not hits:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
            }
        )
    chunk_keys = sorted({int(r["doc_id"]) for r in hits})
    # pruned mapping read: only the hit chunk keys (row-group pruning)
    mds = pads.dataset(mapping)
    mtbl = mds.to_table(
        columns=["doc_id", "parent_doc"],
        filter=pads.field("doc_id").isin(pa.array(chunk_keys, pa.int64())),
    )
    parent_of = dict(
        zip(mtbl["doc_id"].to_pylist(), mtbl["parent_doc"].to_pylist())
    )
    best: dict[tuple[int, int], float] = {}
    for r in hits:
        kq = (int(r["query_id"]), int(parent_of[int(r["doc_id"])]))
        s = float(r["score"])
        if kq not in best or s > best[kq]:
            best[kq] = s
    out_q, out_rank, out_doc = [], [], []
    for qid, _ in qs:
        rows = [(d, s) for (q, d), s in best.items() if q == qid]
        if not rows:
            continue
        docs = np.array([d for d, _ in rows], dtype=np.int64)
        scores = np.round(np.array([s for _, s in rows]), 6)
        order = np.lexsort((docs, -scores))[:TOP_K]
        for rank, i in enumerate(order, start=1):
            out_q.append(qid)
            out_rank.append(rank)
            out_doc.append(int(docs[i]))
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_rank, pa.int64()),
            "doc_id": pa.array(out_doc, pa.int64()),
        }
    )


def search_after_page2(sf_dir: str) -> "ray.data.Dataset":
    """Deep paging via a search-after cursor — the reference pages its
    whole index through Solr's cursorMark exactly this way
    (harvester/fetcher/solr_fetcher.py:41-44,124-125 `sort=id asc` +
    cursorMark). Page 1 = OR-mode BM25 top-10; each query's cursor is
    its LAST page-1 hit (round-6 score, doc_id); page 2 re-runs the
    query with `after=cursor`, which masks everything at-or-before the
    cursor BEFORE top-k — page n+1 costs the same as page 1 (no
    deep-offset re-rank), the property that lets a 10^12-doc index be
    paged without O(page * k) heaps.

    Output: (query_id, rank 1..10, doc_id) for PAGE 2, gated against
    the SQL ranks 11..20."""
    paths = index_for(sf_dir)
    page1 = _query_pool(
        paths,
        [
            {"query_id": qid, "query": q, "mode": "or"}
            for qid, q in queries_for_mode("or")
        ],
        keep_score=True,
    ).to_pandas()  # <= TOP_K x |queries| rows
    last = (
        page1.sort_values(["query_id", "rank"], kind="stable")
        .groupby("query_id", sort=True)
        .tail(1)
    )
    cursor_by_q = {
        int(r.query_id): (float(r.score), int(r.doc_id))
        for r in last.itertuples()
    }
    items = [
        {
            "query_id": qid,
            "query": q,
            "mode": "or",
            "after_score": cursor_by_q[qid][0],
            "after_doc": cursor_by_q[qid][1],
        }
        for qid, q in queries_for_mode("or")
        if qid in cursor_by_q  # no page-1 hits -> no page 2
    ]
    return _query_pool(paths, items)


FILTER_LANG = "en"


def bm25_topk_filtered(sf_dir: str) -> "ray.data.Dataset":
    """Filtered search (Solr `fq` parity — the filter queries the
    reference's registry UI attaches to every search): BM25 top-10
    restricted to docs whose metadata passes a predicate
    (lang == FILTER_LANG). The filter is applied as a doc_id hash join
    of the scored FULL match set against the documents metadata — no
    allowed-doc-set broadcast (which a 10^12-doc filter could never
    ship), no post-hoc re-query: one extra shuffle of the match set.
    Output (query_id, rank 1..10, doc_id) on the filtered ranking."""
    import pyarrow.compute as pc

    scored = _scored_match_set(sf_dir)
    joined = join_parquet_side(
        scored,
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang"],
        on=["doc_id"],
    )
    flt = joined.map_batches(
        lambda t: t.filter(pc.equal(t["lang"], FILTER_LANG)),
        batch_format="pyarrow",
    )

    return _doc_topk(flt, "score_fp")


# (query_id, LIKE pattern): middle/suffix wildcards, one broad pattern
# exercising the cap, an underscore single-char wildcard, and a
# no-match pattern (empty result set)
WILDCARD_SET: list[tuple[int, str]] = [
    (0, "s%n"),     # scan ...
    (1, "%ow"),     # slow row window? (suffix match)
    (2, "j_in"),    # join (single-char wildcard)
    (3, "%qz%"),    # no match -> no rows
    (4, "%a%"),     # broad: cap decides
]
WILDCARD_CAP = 4


def wildcard_search(sf_dir: str) -> "ray.data.Dataset":
    """Wildcard queries (Lucene WildcardQuery rewrite): expand each
    SQL-LIKE pattern against the dictionary (top-WILDCARD_CAP by df
    DESC, term ASC — the same rewrite cap as prefix_search, of which
    prefix is the 'p%' special case), then BM25-OR over the expansion.
    The pattern string is shared VERBATIM with the DuckDB oracle
    (pc.match_like == SQL LIKE)."""
    from harvester_ray.index.expand import wildcard_expansions

    paths = index_for(sf_dir)
    exp = wildcard_expansions(_dict_ds(paths), WILDCARD_SET, WILDCARD_CAP)
    return _ranked_for_expansions(paths, exp)


# (query_id, boolean query string) — the query-language set: plain OR,
# MUST conjunction, NOT, a quoted phrase, a mixed query, an OOV MUST
# (matches nothing), and the round-4 grammar extensions: OR groups
# (unsigned = SHOULD flatten, + = must-match-one), term boosts, and
# field filters (equality, numeric range, negated)
QL_SET: list[tuple[int, str]] = [
    (0, "scan join"),
    (1, "+scan +join"),
    (2, "scan join -merge"),
    (3, '"scan join"'),
    (4, '+scan "key value" -dup'),
    (5, "the a +zzzq"),
    (6, "(scan OR merge) join"),
    (7, "+(scan merge) -join"),
    (8, "scan^2 join"),
    (9, "scan join lang:en"),
    (10, "n_chars:[150 TO 350] scan"),
    (11, "-source:src3 scan join"),
]


def query_language(sf_dir: str) -> "ray.data.Dataset":
    """Boolean query-language surface (index/queryparse.py): parse
    `+must -not "phrase" bare` strings and execute them against the
    engine's own primitives — the search-box grammar of the Solr tier
    the reference delegates to. Phrase clauses resolve through the
    positional tier FIRST (ONE phrase_occurrences_multi pipeline for
    the whole query set, reads pruned to the phrases' term buckets);
    each query's phrase doc sets are intersected into an allowed set
    the ranking actor masks before top-k."""
    import numpy as np
    import pyarrow.dataset as pads

    from harvester_ray.index.positional import phrase_occurrences_multi
    from harvester_ray.index.queryparse import (
        BooleanQueryActor,
        parse_query,
    )

    from harvester_ray.functions.text import tokenize

    def _num(s: str):
        v = float(s)
        return int(v) if v.is_integer() else v

    paths = index_for(sf_dir)
    parsed = [(qid, parse_query(q)) for qid, q in QL_SET]
    phrase_specs = []  # (global phrase id, (query_id, n-th phrase))
    phrase_of = []
    for qid, p in parsed:
        for ph in p.phrases:
            if not tokenize(ph):
                continue  # punctuation-only phrase: a no-op clause
            phrase_specs.append((len(phrase_specs), ph))
            phrase_of.append(qid)
    allowed_by_q: dict[int, "np.ndarray"] = {}
    if phrase_specs:
        occ = phrase_occurrences_multi(positions_for(sf_dir), phrase_specs)
        pid = occ["phrase_id"].to_numpy()
        did = occ["doc_id"].to_numpy()
        for i, qid in enumerate(phrase_of):
            docs = np.unique(did[pid == i])
            if qid in allowed_by_q:  # all phrases must match: intersect
                allowed_by_q[qid] = np.intersect1d(
                    allowed_by_q[qid], docs, assume_unique=True
                )
            else:
                allowed_by_q[qid] = docs
    # field filter clauses (lang:en, n_chars:[lo TO hi], -source:x):
    # ONE pruned read per filtered query — only doc_id leaves storage
    # and the predicate pushes into parquet row groups; the resulting
    # doc set rides the same allowed_docs mechanism as phrases. The
    # allowed set is bounded by filter selectivity; for dense filters
    # at corpus scale the join path of bm25_topk_filtered is the
    # scale-out twin of this mechanism.
    for qid, p in parsed:
        if not p.filters:
            continue
        expr = None
        for fc in p.filters:
            f = pads.field(fc.field)
            if fc.is_range:
                lo, hi = fc.lo, fc.hi
                if fc.is_numeric:
                    lo, hi = _num(lo), _num(hi)
                e = (f >= lo) & (f <= hi)
            else:
                e = f == (_num(fc.lo) if fc.is_numeric else fc.lo)
            if fc.negated:
                e = ~e
            expr = e if expr is None else expr & e
        ids = np.unique(
            ray.data.read_parquet(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id"],
                filter=expr,
            )
            .to_pandas()["doc_id"]
            .to_numpy()
            .astype(np.int64)
        )
        if qid in allowed_by_q:
            allowed_by_q[qid] = np.intersect1d(
                allowed_by_q[qid], ids, assume_unique=True
            )
        else:
            allowed_by_q[qid] = ids
    # typed table (not from_items): an all-null allowed_docs block
    # would otherwise infer `null` and clash with list<int64> blocks.
    # empty list != None: a phrase that matched nothing pins the
    # allowed set to {} (query returns no rows)
    items = pa.table(
        {
            "query_id": pa.array([qid for qid, _ in QL_SET], pa.int64()),
            "query": pa.array([q for _, q in QL_SET], pa.string()),
            "allowed_docs": pa.array(
                [
                    [int(x) for x in allowed_by_q[qid]]
                    if qid in allowed_by_q
                    else None
                    for qid, _ in QL_SET
                ],
                pa.list_(pa.int64()),
            ),
        }
    )
    pool = _serving_pool(BooleanQueryActor, paths.root, k=TOP_K)
    out_t = _pool_eval(pool, items)
    if out_t is None:
        out_t = pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
            }
        )
        return ray.data.from_arrow(out_t)
    return ray.data.from_arrow(
        pa.table(
            {
                "query_id": out_t["query_id"],
                "rank": out_t["rank"].cast(pa.int64()),
                "doc_id": out_t["doc_id"],
            }
        )
    )


def search_numfound(sf_dir: str) -> "ray.data.Dataset":
    """numFound per query — the total-match count every Solr response
    header carries (the count the reference's reconciliation scripts
    compare against couch row counts, SURVEY §2.6): the distinct match
    set reduced by one grouped count. (query_id, num_found)."""
    from ray.data.aggregate import Count

    return (
        _distinct_match_set(sf_dir)
        .groupby("query_id")
        .aggregate(Count(alias_name="num_found"))
    )


RANGE_FACET_WIDTH = 200  # n_chars bucket width (facet.range.gap)


def search_range_facets(sf_dir: str) -> "ray.data.Dataset":
    """Range faceting (Solr facet.range parity): per OR query, how many
    matching docs fall in each fixed-width n_chars bucket —
    (query_id, bucket_lo, n_docs), bucket_lo = floor(n_chars / W) * W.
    Match set join + one grouped count; the bucket is computed
    vectorized at the row."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    matches = _distinct_match_set(sf_dir)
    joined = join_parquet_side(
        matches,
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "n_chars"],
        on=["doc_id"],
    )

    def bucket(t: pa.Table) -> pa.Table:
        lo = pc.multiply(
            pc.floor(
                pc.divide(
                    t["n_chars"].cast(pa.float64()),
                    float(RANGE_FACET_WIDTH),
                )
            ),
            float(RANGE_FACET_WIDTH),
        ).cast(pa.int64())
        return pa.table({"query_id": t["query_id"], "bucket_lo": lo})

    return (
        joined.map_batches(bucket, batch_format="pyarrow")
        .groupby(["query_id", "bucket_lo"])
        .aggregate(Count(alias_name="n_docs"))
    )


RRF_K = 60              # the standard RRF constant (Cormack et al.)
_RRF_FP = 10**12        # integer contribution: _RRF_FP // (RRF_K + rank)


def hybrid_rrf(sf_dir: str) -> "ray.data.Dataset":
    """Hybrid-search rank fusion: Reciprocal Rank Fusion of two
    rankings of the SAME query set — BM25 and the injected cosine
    TF-IDF scorer (the two retrievers a hybrid deployment fuses).
    Each hit contributes floor(1e12 / (60 + rank)) — an INTEGER, so
    the fused ordering is exact on both engines (no float RRF drift).
    Output (query_id, rank 1..10, doc_id) on the fused ranking."""
    import numpy as np
    from ray.data.aggregate import Sum

    both = _bm25(sf_dir, "or").union(_bm25(sf_dir, "or", scorer="tfidf"))

    def fp(t: pa.Table) -> pa.Table:
        rank = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "query_id": t["query_id"],
                "doc_id": t["doc_id"],
                "rrf_fp": pa.array(_RRF_FP // (RRF_K + rank), pa.int64()),
            }
        )

    fused = (
        both.map_batches(fp, batch_format="pyarrow")
        .groupby(["query_id", "doc_id"])
        .aggregate(Sum("rrf_fp", alias_name="rrf_fp"))
        .map_batches(  # typed re-emit after the aggregate
            lambda t: pa.table(
                {
                    "query_id": t["query_id"].cast(pa.int64()),
                    "doc_id": t["doc_id"].cast(pa.int64()),
                    "rrf_fp": t["rrf_fp"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )

    return _doc_topk(fused, "rrf_fp")


PRF_TOP = 3  # feedback depth: embeddings of the top-3 BM25 hits


def prf_rerank(sf_dir: str) -> pa.Table:
    """Pseudo-relevance-feedback re-rank (Rocchio over the dense
    column): per OR query, the BM25 top-10 re-ordered by cosine to the
    SUM of the top-PRF_TOP hits' embeddings (vec_id == doc_id in the
    driver tables). SUM, not mean — cosine is scale-invariant and the
    sum of 3 float32-origin values is EXACT in float64 regardless of
    order, so both engines build bit-identical centroids; per-doc
    similarity follows the ANN recipe (round-6, doc_id tiebreak).

    The hit embeddings are a row-group-pruned filtered read (<=
    10 x |queries| rows, never a table scan); the re-rank itself
    operates on one page of results per query — driver-side by
    design, like more_like_this."""
    import numpy as np
    import pyarrow.parquet as pq

    hits = _bm25(sf_dir, "or").to_pandas()  # <= TOP_K x |queries| rows
    ids = sorted({int(d) for d in hits["doc_id"]})
    emb = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", ids)],
    )
    vec_by_id = {
        int(v): np.asarray(e, dtype=np.float64)
        for v, e in zip(
            emb["vec_id"].to_pylist(), emb["embedding"].to_pylist()
        )
    }
    out_q, out_r, out_d = [], [], []
    for qid, g in hits.groupby("query_id", sort=True):
        g = g.sort_values("rank", kind="stable")
        top = [vec_by_id[int(d)] for d in g["doc_id"].head(PRF_TOP)]
        cent = np.sum(top, axis=0)
        cn = np.linalg.norm(cent)
        if cn == 0:
            cn = 1.0
        sims, dids = [], []
        for d in g["doc_id"]:
            e = vec_by_id[int(d)]
            en = np.linalg.norm(e)
            if en == 0:
                en = 1.0
            sims.append(round(float(e @ cent) / (en * cn), 6))
            dids.append(int(d))
        order = np.lexsort((np.array(dids), -np.array(sims)))
        for rank, i in enumerate(order, start=1):
            out_q.append(int(qid))
            out_r.append(rank)
            out_d.append(dids[i])
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_r, pa.int64()),
            "doc_id": pa.array(out_d, pa.int64()),
        }
    )


def search_pivot_facets(sf_dir: str) -> "ray.data.Dataset":
    """Pivot faceting (Solr facet.pivot parity): two-level
    (source, lang) counts per query over the FULL match set —
    (query_id, source, lang, n_docs). Completes the facet family
    (field, range, pivot, numFound, collapse) with the same
    match-set-join shape."""
    from ray.data.aggregate import Count

    matches = _distinct_match_set(sf_dir)
    joined = join_parquet_side(
        matches,
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "lang"],
        on=["doc_id"],
    )
    return (
        joined.groupby(["query_id", "source", "lang"])
        .aggregate(Count(alias_name="n_docs"))
    )


# one-directional synonym table (config-sized side data — the analog of
# the reference's field-mapping dicts, harvester/solr_updater.py:64-134);
# values chosen from the corpus vocabulary so expansions hit postings
SYNONYMS: dict[str, tuple[str, ...]] = {
    "fast": ("slow",),
    "big": ("small",),
    "row": ("line",),
}

# (query_id, query) — synonym-eligible terms, a multi-expansion mix,
# a no-synonym query and an OOV query
SYNONYM_SET: list[tuple[int, str]] = [
    (0, "fast join"),
    (1, "big"),
    (2, "row scan"),
    (3, "merge sort"),   # no synonyms -> plain OR
    (4, "zzzq"),         # OOV -> no rows
]


def synonym_search(sf_dir: str) -> "ray.data.Dataset":
    """Synonym-expanded search (Lucene SynonymFilter parity): each
    query term expands to itself plus its SYNONYMS entries (one-way),
    then BM25-OR over the union — query rewrite via a config-sized
    side table, the engine-owned version of the reference's
    registry-driven field-mapping dicts. The map is driver-side by
    design (synonym tables are KBs; at cluster scale they'd ride the
    same ray.put broadcast as every small side table)."""
    import pandas as pd

    from harvester_ray.functions.text import tokenize

    paths = index_for(sf_dir)
    rows = []
    for qid, q in SYNONYM_SET:
        terms = set()
        for t in sorted(set(tokenize(q))):
            terms.add(t)
            terms.update(SYNONYMS.get(t, ()))
        rows.extend((qid, t) for t in sorted(terms))
    exp = pd.DataFrame(rows, columns=["query_id", "term"])
    return _ranked_for_expansions(paths, exp)


# (span_id, phrase, window) — unordered span-near queries: an ordered
# pair plus its reversal (must match identically), a wide trigram, an
# OOV conjunct (empty) and a tight stopword pair
SPAN_NEAR_SET: list[tuple[int, str, int]] = [
    (0, "scan join", 4),
    (1, "join scan", 4),      # reversal: identical match set to 0
    (2, "key value table", 8),
    (3, "zzzq scan", 10),     # OOV conjunct -> empty
    (4, "the a", 3),
]


def span_near_match(sf_dir: str) -> pa.Table:
    """Unordered span-near (Lucene SpanNearQuery inOrder=false): docs
    where one occurrence of EACH query term fits in a window of span
    <= W, in any order — (span_id, doc_id) existence rows over the
    positional tier, whole query set in one pipeline."""
    from harvester_ray.index.positional import span_near_occurrences_multi

    return span_near_occurrences_multi(positions_for(sf_dir), SPAN_NEAR_SET)


# ── BM25F fielded ranking (multi-field index documents) ─────────────
#
# The reference's index document is MANY-field: map_couch_to_solr_doc
# produces title/creator/subject/description fields
# (/root/reference/harvester/solr_updater.py:64-134,688-745) and the
# Solr tier it delegates to searches and boosts across them (qf).
# The engine's fielded analog: each document is split into a `title`
# field (its first TITLE_TOKENS analyzer tokens) and a `body` field
# (the rest) — a deterministic split both the Ray pipeline and the SQL
# oracle derive from `text` — and ranked with BM25F
# (Robertson/Zaragoza "Simple BM25 extension to multiple weighted
# fields"): per-field weighted, length-normalized tfs are combined
# BEFORE the k1 saturation, with idf over the whole document.
TITLE_TOKENS = 5
BM25F_W_TITLE = 2.0   # Solr qf analog: title^2 body^1
BM25F_W_BODY = 1.0
BM25F_B_TITLE = 0.75  # per-field length-norm b
BM25F_B_BODY = 0.75


def _fielded_postings(sf_dir: str, all_terms: list[str]):
    """Per-field posting rows for the query terms, with per-doc field
    lengths carried on the row (no doc-table join needed — lengths are
    known in-batch at tokenize time):
    (doc_id, term, tf_title, tf_body, len_title, len_body).

    One streaming pass over documents; only `doc_id, text` leave
    storage, and only rows whose term is in the query set leave the
    batch. The title/body split is positional (token index <
    TITLE_TOKENS), so field token streams partition the document."""
    import numpy as np

    from harvester_ray.functions.text import flatten_tokens, tokenize_column

    terms_arr = pa.array(all_terms, pa.string())
    n_terms = len(all_terms)

    def fielded(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        toks, parent = flatten_tokens(tokenize_column(t["text"]))
        parent_np = parent.to_numpy(zero_copy_only=False).astype(np.int64)
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(parent_np)
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "term": pa.array([], pa.string()),
                "tf_title": pa.array([], pa.int64()),
                "tf_body": pa.array([], pa.int64()),
                "len_title": pa.array([], pa.int64()),
                "len_body": pa.array([], pa.int64()),
            }
        )
        if n == 0:
            return empty
        # token position within its doc (parent indices are ordered)
        change = np.r_[True, parent_np[1:] != parent_np[:-1]]
        starts = np.flatnonzero(change)
        seg_id = np.cumsum(change) - 1
        pos = np.arange(n, dtype=np.int64) - starts[seg_id]
        is_title = pos < TITLE_TOKENS
        len_total = np.bincount(parent_np, minlength=t.num_rows)
        len_title = np.minimum(len_total, TITLE_TOKENS)
        len_body = len_total - len_title
        # prune to query terms, then count per (doc, term, field)
        codes = pc.index_in(toks, value_set=terms_arr)
        valid = pc.is_valid(codes).to_numpy(zero_copy_only=False)
        if not valid.any():
            return empty
        code_np = codes.to_numpy(zero_copy_only=False)[valid].astype(np.int64)
        par = parent_np[valid]
        fld = is_title[valid].astype(np.int64)
        key = (par * n_terms + code_np) * 2 + fld
        ukey, counts = np.unique(key, return_counts=True)
        pk = ukey >> 1
        upk, inv = np.unique(pk, return_inverse=True)
        tf_t = np.zeros(len(upk), dtype=np.int64)
        tf_b = np.zeros(len(upk), dtype=np.int64)
        title_rows = (ukey & 1) == 1
        np.add.at(tf_t, inv[title_rows], counts[title_rows])
        np.add.at(tf_b, inv[~title_rows], counts[~title_rows])
        out_par = upk // n_terms
        out_code = upk % n_terms
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[out_par], pa.int64()),
                "term": pc.take(terms_arr, pa.array(out_code)),
                "tf_title": pa.array(tf_t, pa.int64()),
                "tf_body": pa.array(tf_b, pa.int64()),
                "len_title": pa.array(len_title[out_par], pa.int64()),
                "len_body": pa.array(len_body[out_par], pa.int64()),
            }
        )

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return docs.map_batches(fielded, batch_format="pyarrow")


def _field_length_stats(sf_dir: str) -> tuple[int, int, int]:
    """(n_docs, sum_len_title, sum_len_body) — exact integer sums via a
    per-batch combiner (one tiny row per batch to the driver)."""
    import numpy as np

    from harvester_ray.functions.text import flatten_tokens, tokenize_column

    def partial(t: pa.Table) -> pa.Table:
        _toks, parent = flatten_tokens(tokenize_column(t["text"]))
        parent_np = parent.to_numpy(zero_copy_only=False).astype(np.int64)
        len_total = np.bincount(parent_np, minlength=t.num_rows)
        len_t = np.minimum(len_total, TITLE_TOKENS)
        return pa.table(
            {
                "n": pa.array([t.num_rows], pa.int64()),
                "sum_t": pa.array([int(len_t.sum())], pa.int64()),
                "sum_b": pa.array([int((len_total - len_t).sum())], pa.int64()),
            }
        )

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    parts = docs.map_batches(partial, batch_format="pyarrow").to_pandas()
    return (
        int(parts["n"].sum()),
        int(parts["sum_t"].sum()),
        int(parts["sum_b"].sum()),
    )


def bm25f_topk(sf_dir: str) -> "ray.data.Dataset":
    """(query_id, rank, doc_id) — BM25F top-10 per OR query over the
    (title, body) fielded document: per (term, doc) the field tfs
    combine as w_f·tf_f/B_f (B_f the per-field length norm) BEFORE the
    k1 saturation, times whole-document idf (title ∪ body = all tokens,
    so df is the main dictionary's df — reused via a pruned read).
    Per-(query, term, doc) contributions are fixed-pointed at the row,
    so the distributed integer sums are order-independent; rank by
    score_fp DESC, doc_id ASC. Reference analog: the Solr qf field
    boosts (title^2) every Calisphere search runs through."""
    import json as _json

    import numpy as np
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    from harvester_ray.functions.text import tokenize
    from harvester_ray.index.build import bm25_idf

    paths = index_for(sf_dir)
    with open(paths.stats) as f:
        st = _json.load(f)
    k1 = float(st["k1"])
    qterms = [
        (qid, sorted(set(tokenize(q)))) for qid, q in queries_for_mode("or")
    ]
    all_terms = sorted({t for _, ts in qterms for t in ts})
    n_docs, sum_t, sum_b = _field_length_stats(sf_dir)
    avg_t = sum_t / n_docs
    avg_b = sum_b / n_docs
    dft = pq.read_table(  # df over the whole doc == the main dictionary
        paths.dictionary, columns=["term", "df"],
        filters=[("term", "in", all_terms)],
    )
    idf_by_term = {
        tm: bm25_idf(float(df), float(n_docs))
        for tm, df in zip(dft["term"].to_pylist(), dft["df"].to_pylist())
    }
    qids_by_term: dict[str, "np.ndarray"] = {}
    for qid, ts in qterms:
        for tm in ts:
            qids_by_term.setdefault(tm, []).append(qid)  # type: ignore[arg-type]
    qids_by_term = {
        tm: np.asarray(v, dtype=np.int64) for tm, v in qids_by_term.items()
    }
    one_minus_bt = 1.0 - BM25F_B_TITLE
    one_minus_bb = 1.0 - BM25F_B_BODY

    _EMPTY = pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
            "score_fp": pa.array([], pa.int64()),
        }
    )
    _NO_QIDS = np.empty(0, dtype=np.int64)

    def score_rows(t: pa.Table) -> pa.Table:
        # same vectorized shape as _scored_match_set.score_rows: encode
        # terms once, score rows elementwise, segmented-gather explode
        # into the queries containing each term
        if t.num_rows == 0:
            return _EMPTY
        enc = t["term"].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = enc.dictionary.to_pylist()
        tf_t = t["tf_title"].to_numpy(zero_copy_only=False).astype(np.float64)
        tf_b = t["tf_body"].to_numpy(zero_copy_only=False).astype(np.float64)
        ln_t = t["len_title"].to_numpy(zero_copy_only=False).astype(np.float64)
        ln_b = t["len_body"].to_numpy(zero_copy_only=False).astype(np.float64)
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # expression tree mirrored in oracles.BM25F_TOPK term by term
        tfw = (BM25F_W_TITLE * tf_t) / (
            one_minus_bt + BM25F_B_TITLE * (ln_t / avg_t)
        ) + (BM25F_W_BODY * tf_b) / (
            one_minus_bb + BM25F_B_BODY * (ln_b / avg_b)
        )
        idf_u = np.asarray([idf_by_term[tm] for tm in uniq], dtype=np.float64)
        s = idf_u[codes] * (tfw / (k1 + tfw))
        s_fp = np.floor(s * _FP8 + 0.5).astype(np.int64)
        q_u = [qids_by_term.get(tm, _NO_QIDS) for tm in uniq]
        k_u = np.asarray([len(q) for q in q_u], dtype=np.int64)
        reps = k_u[codes]
        total = int(reps.sum())
        if total == 0:
            return _EMPTY
        qflat = np.concatenate(q_u)
        off_u = np.cumsum(k_u) - k_u
        row_rep = np.repeat(np.arange(len(codes), dtype=np.int64), reps)
        seg_start = np.cumsum(reps) - reps
        intra = np.arange(total, dtype=np.int64) - np.repeat(seg_start, reps)
        out_qid = qflat[np.repeat(off_u[codes], reps) + intra]
        return pa.table(
            {
                "query_id": pa.array(out_qid, pa.int64()),
                "doc_id": pa.array(did[row_rep], pa.int64()),
                "score_fp": pa.array(s_fp[row_rep], pa.int64()),
            }
        )

    scored = (
        _fielded_postings(sf_dir, all_terms)
        .map_batches(score_rows, batch_format="pyarrow")
        .groupby(["query_id", "doc_id"])
        .aggregate(Sum("score_fp", alias_name="score_fp"))
    )

    return _doc_topk(scored, "score_fp")


# ── porter_en fielded entries: the second real analyzer end-to-end ──


def index_for_porter(sf_dir: str) -> IndexPaths:
    """Build (or reuse) an index over sf_dir/documents with the
    porter_en analyzer (English stopwords + Porter stemming) — the
    §2.10 registry's second REAL analyzer, exercised through the same
    build/query machinery as the default index."""
    import dataclasses

    key = hashlib.md5(
        f"{os.path.abspath(sf_dir)}:{ENGINE_VERSION}:porter".encode()
    ).hexdigest()[:16]
    out = os.path.join(cache_root(), f"idx_{key}")
    paths = IndexPaths(out)
    if os.path.exists(paths.stats):
        return paths
    cfg = dataclasses.replace(
        DEFAULT_INDEX_CONFIG, analyzer_name="porter_en"
    )
    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=list(DOC_COLUMNS),
    )
    return build_index(docs, out, cfg)


def porter_doc_stats(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, doc_len) under the porter_en analyzer — doc_len counts
    the NON-STOPWORD tokens (stemming is length-preserving, so the SQL
    twin only needs the stopword filter; the stemmed dictionary itself
    is covered by term_dictionary_porter + the Porter vector tests)."""
    import pyarrow.compute as pc

    paths = index_for_porter(sf_dir)
    ds = ray.data.read_parquet(paths.doc_table, columns=["doc_id", "doc_len"])
    return ds.map_batches(
        lambda t: t.filter(pc.greater(t["doc_len"], 0)),
        batch_format="pyarrow",
    )


def term_dictionary_porter(sf_dir: str) -> "ray.data.Dataset":
    """(term, df, cf) of the porter_en index — stemmed, stopword-free
    vocabulary (rows-only driver check; the stemmer itself is pinned
    by the canonical Porter vectors in tests/test_analyzer.py)."""
    paths = index_for_porter(sf_dir)
    return ray.data.read_parquet(
        paths.dictionary, columns=["term", "df", "cf"]
    )


def field_indexes_for(sf_dir: str) -> dict[str, IndexPaths]:
    """Build (or reuse) the per-field (title, body) indexes for the
    BM25F serving tier over sf_dir/documents."""
    from harvester_ray.index.fielded import build_field_indexes

    key = hashlib.md5(
        f"{os.path.abspath(sf_dir)}:{ENGINE_VERSION}:fielded".encode()
    ).hexdigest()[:16]
    out = os.path.join(cache_root(), f"fidx_{key}")
    done = {
        name: IndexPaths(os.path.join(out, name))
        for name in ("title", "body")
    }
    if all(os.path.exists(p.stats) for p in done.values()):
        return done
    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return build_field_indexes(docs, out, TITLE_TOKENS)


def bm25f_topk_served(sf_dir: str) -> pa.Table:
    """(query_id, rank, doc_id) — BM25F through the SERVING tier
    (index/fielded.FieldedIndex over one real per-field index each),
    driver-gated against the SAME BM25F_TOPK SQL oracle as the
    distributed pipeline twin: serving and pipeline must agree with
    the oracle independently. The query set is request-shaped by
    nature (10 queries), so the loop is driver-side like any search
    client; state loads once."""
    from harvester_ray.index.fielded import FieldedIndex, FieldSpec
    from harvester_ray.index.query import InvertedIndex

    main = InvertedIndex(index_for(sf_dir).root, preload=True)
    fdirs = field_indexes_for(sf_dir)
    fidx = FieldedIndex(
        main,
        [
            (
                FieldSpec("title", BM25F_W_TITLE, BM25F_B_TITLE),
                InvertedIndex(fdirs["title"].root),
            ),
            (
                FieldSpec("body", BM25F_W_BODY, BM25F_B_BODY),
                InvertedIndex(fdirs["body"].root),
            ),
        ],
    )
    qids, ranks, dids = [], [], []
    for qid, q in queries_for_mode("or"):
        for rank, doc_id, _fp in fidx.search(q, k=TOP_K):
            qids.append(qid)
            ranks.append(rank)
            dids.append(doc_id)
    import numpy as np

    return pa.table(
        {
            "query_id": pa.array(np.asarray(qids, np.int64), pa.int64()),
            "rank": pa.array(np.asarray(ranks, np.int64), pa.int64()),
            "doc_id": pa.array(np.asarray(dids, np.int64), pa.int64()),
        }
    )


def bm25f_topk_termsharded(sf_dir: str, n_shards: int = 4) -> pa.Table:
    """(query_id, rank, doc_id) — BM25F through the DISTRIBUTED
    vocabulary-partitioned serving grid (index/serving.ShardedIndex,
    payload bm25f: 4 cells, each loading
    only its term buckets' slice of the main AND both field indexes;
    the router fans each query term to its single owning cell and
    integer-sums the fp8 contributions). Driver-gated against the SAME
    BM25F_TOPK SQL oracle as the pipeline and single-process serving
    twins — rank identity proves the vocabulary partition, the shared
    bucket map across three indexes, and the router fuse end to end."""
    import numpy as np

    from harvester_ray.index.fielded import FieldSpec
    from harvester_ray.index.serving import ShardedIndex

    paths = index_for(sf_dir)
    fdirs = field_indexes_for(sf_dir)
    tier = ShardedIndex(
        paths.root,
        n_term_shards=n_shards,
        payload="bm25f",
        fields=[
            (
                FieldSpec("title", BM25F_W_TITLE, BM25F_B_TITLE),
                fdirs["title"].root,
            ),
            (
                FieldSpec("body", BM25F_W_BODY, BM25F_B_BODY),
                fdirs["body"].root,
            ),
        ],
    )
    try:
        qids, ranks, dids = [], [], []
        for qid, q in queries_for_mode("or"):
            for rank, doc_id, _fp in tier.search(q, k=TOP_K):
                qids.append(qid)
                ranks.append(rank)
                dids.append(doc_id)
    finally:
        tier.shutdown()
    return pa.table(
        {
            "query_id": pa.array(np.asarray(qids, np.int64), pa.int64()),
            "rank": pa.array(np.asarray(ranks, np.int64), pa.int64()),
            "doc_id": pa.array(np.asarray(dids, np.int64), pa.int64()),
        }
    )


def phrase_match_sharded(sf_dir: str) -> pa.Table:
    """(phrase_id, doc_id, n_occurrences) for PHRASE_SET through the
    TERM-SHARDED positional serving grid (index/serving.ShardedIndex,
    payload positions, 4 term rows) — gated against
    the SAME PHRASE_MATCH SQL oracle as the pipeline twin, proving the
    sharded router's base-intersection counts are overlap-exact."""
    import numpy as np

    from harvester_ray.index.serving import ShardedIndex

    tier = ShardedIndex(
        positions_for(sf_dir), n_term_shards=4, payload="positions"
    )
    pids, dids, counts = [], [], []
    try:
        for pid, phrase in PHRASE_SET:
            docs, n_occ = tier.phrase_occurrences(phrase)
            pids.append(np.full(len(docs), pid, dtype=np.int64))
            dids.append(docs)
            counts.append(n_occ)
    finally:
        tier.shutdown()
    return pa.table(
        {
            "phrase_id": pa.array(np.concatenate(pids), pa.int64()),
            "doc_id": pa.array(np.concatenate(dids), pa.int64()),
            "n_occurrences": pa.array(np.concatenate(counts), pa.int64()),
        }
    )


# --- Solr function-query boost / stats / grouping / elevation --------
# The reference delegates ranking features to its Solr tier
# (reference: solr_updater.py:688-745 pushes the documents Solr
# searches over; scripts/report_harvested_to_solr.py:55-67 shows the
# query surface); these four entries re-express the remaining Solr
# request handlers (boost=, stats=, group=, elevateIds=) Ray-Data-first
# over the engine's own index, each with an exact-integer SQL oracle.

# boost = recip(n_chars, 1, A, B) = A / (n_chars + B) — Solr's
# canonical recency/brevity function query, fixed-pointed with PURE
# INTEGER floor division (A*FP4 // (n+B)) so Ray and DuckDB agree
# bit-exactly with no libm dependence.
BOOST_RECIP_A = 1000
BOOST_RECIP_B = 1000
_FP4 = 10_000


def bm25_boosted_topk(sf_dir: str) -> "ray.data.Dataset":
    """Multiplicative function-query boost (Solr `boost=recip(...)`):
    final rank key = score_fp * (A*FP4 // (n_chars + B)) over the FULL
    OR match set — brevity-boosted BM25. The boost factor joins in via
    the same doc_id hash shuffle as bm25_topk_filtered (no doc-table
    broadcast); both factors are int64 so the product is exact
    (score_fp <~ 1e10, boost_fp <= 1e4 -> < 1e14 << 2^63).
    Output (query_id, rank, doc_id, boosted_fp)."""
    import numpy as np

    scored = _scored_match_set(sf_dir)
    joined = join_parquet_side(
        scored,
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "n_chars"],
        on=["doc_id"],
    )

    def boost(t: pa.Table) -> pa.Table:
        n = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        sc = t["score_fp"].to_numpy(zero_copy_only=False).astype(np.int64)
        bfp = np.floor_divide(BOOST_RECIP_A * _FP4, n + BOOST_RECIP_B)
        return pa.table(
            {
                "query_id": t["query_id"].cast(pa.int64()),
                "doc_id": t["doc_id"].cast(pa.int64()),
                "boosted_fp": pa.array(sc * bfp, pa.int64()),
            }
        )

    return topk_per_key(
        joined.map_batches(boost, batch_format="pyarrow"),
        "query_id",
        [("boosted_fp", "descending"), ("doc_id", "ascending")],
        TOP_K,
        ["doc_id", "boosted_fp"],
        rank="rank",
    )


def search_field_stats(sf_dir: str) -> "ray.data.Dataset":
    """Solr stats component (`stats=true&stats.field=n_chars`): per OR
    query, exact BIGINT stats of n_chars over the FULL match set —
    (query_id, n_matches, min_chars, max_chars, sum_chars). One doc_id
    hash join of the (already distinct) scored match set against the
    documents metadata, then a tiny per-query aggregate; integer sums
    are exact so the oracle hash-matches."""
    from ray.data.aggregate import Count, Max, Min, Sum

    scored = _scored_match_set(sf_dir)
    joined = join_parquet_side(
        scored,
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "n_chars"],
        on=["doc_id"],
    )
    agg = joined.groupby("query_id").aggregate(
        Count(alias_name="n_matches"),
        Min("n_chars", alias_name="min_chars"),
        Max("n_chars", alias_name="max_chars"),
        Sum("n_chars", alias_name="sum_chars"),
    )
    return agg.map_batches(  # typed re-emit after the aggregate
        lambda t: pa.table(
            {
                "query_id": t["query_id"].cast(pa.int64()),
                "n_matches": t["n_matches"].cast(pa.int64()),
                "min_chars": t["min_chars"].cast(pa.int64()),
                "max_chars": t["max_chars"].cast(pa.int64()),
                "sum_chars": t["sum_chars"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


GROUPS_K = 4       # top source groups returned per query
GROUP_LIMIT = 2    # docs returned per group (Solr group.limit)


def grouped_search_topk(sf_dir: str) -> "ray.data.Dataset":
    """Solr result grouping (`group=true&group.field=source&
    group.limit=2`): per OR query, the top-GROUP_LIMIT docs of each
    source group over the FULL match set, for the top-GROUPS_K groups
    ranked by their best doc (score desc, doc_id asc — same group
    ordering rule as collapse_topk, which returns only group heads).
    Output (query_id, grp_rank, source, doc_rank, doc_id)."""
    import numpy as np
    import pyarrow.compute as pc

    scored = _scored_match_set(sf_dir)
    joined = join_parquet_side(
        scored,
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source"],
        on=["doc_id"],
    )
    _SORT = [("score_fp", "descending"), ("doc_id", "ascending")]

    def group_top(g: pa.Table) -> pa.Table:
        # per (query, source): keep GROUP_LIMIT best docs, tag each
        # with its in-group rank and the group's head key for the
        # final per-query group ranking
        idx = pc.sort_indices(g, sort_keys=_SORT)[:GROUP_LIMIT]
        g = g.take(idx)
        n = len(g)
        head_fp = g["score_fp"][0].as_py() if n else 0
        head_doc = g["doc_id"][0].as_py() if n else 0
        return pa.table(
            {
                "query_id": g["query_id"].cast(pa.int64()),
                "source": g["source"].cast(pa.string()),
                "doc_rank": pa.array(
                    np.arange(1, n + 1, dtype=np.int64), pa.int64()
                ),
                "doc_id": g["doc_id"].cast(pa.int64()),
                "head_fp": pa.array(np.full(n, head_fp, np.int64)),
                "head_doc": pa.array(np.full(n, head_doc, np.int64)),
            }
        )

    def rank_groups(g: pa.Table) -> pa.Table:
        # order this query's group-rows by their head key, number the
        # distinct groups, keep the first GROUPS_K groups
        import numpy as _np

        idx = pc.sort_indices(
            g,
            sort_keys=[
                ("head_fp", "descending"),
                ("head_doc", "ascending"),
                ("doc_rank", "ascending"),
            ],
        )
        g = g.take(idx)
        hd = g["head_doc"].to_numpy(zero_copy_only=False)
        change = _np.r_[True, hd[1:] != hd[:-1]] if len(hd) else hd
        grp = _np.cumsum(change)  # 1-based group rank
        keep = grp <= GROUPS_K
        g = g.filter(pa.array(keep))
        return pa.table(
            {
                "query_id": g["query_id"].cast(pa.int64()),
                "grp_rank": pa.array(grp[keep], pa.int64()),
                "source": g["source"].cast(pa.string()),
                "doc_rank": g["doc_rank"].cast(pa.int64()),
                "doc_id": g["doc_id"].cast(pa.int64()),
            }
        )

    return (
        joined.groupby(["query_id", "source"])
        .map_groups(group_top, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(rank_groups, batch_format="pyarrow")
    )


# query_id -> pinned doc_ids, in elevation order (Solr elevate.xml /
# elevateIds=): elevated docs take ranks 1..E regardless of match or
# score; the scored ranking fills the remaining TOP_K - E slots.
ELEVATE_SET: dict[int, list[int]] = {
    0: [5, 2],
    1: [10],
    3: [1, 7, 3],
    7: [0],
}


def elevated_topk(sf_dir: str) -> "ray.data.Dataset":
    """Query elevation (Solr QueryElevationComponent): per OR query,
    the ELEVATE_SET doc_ids pinned at ranks 1..E in their given order,
    then the BM25 full-match-set ranking (elevated ids excluded) from
    rank E+1 down to TOP_K. The pin table is a driver constant (a few
    rows — the editorial list is tiny by construction); the scored
    remainder reuses _scored_match_set with a vectorized anti-filter.
    Output (query_id, rank, doc_id)."""
    import numpy as np

    scored = _scored_match_set(sf_dir)
    pinned = sorted(
        (qid, did) for qid, dids in ELEVATE_SET.items() for did in dids
    )
    off_arr = np.zeros(max(q[0] for q in QUERY_SET) + 1, np.int64)
    for qid, dids in ELEVATE_SET.items():
        off_arr[qid] = len(dids)

    def drop_pinned(t: pa.Table) -> pa.Table:
        # exact (query_id, doc_id) pair test — one vectorized mask per
        # pin (the editorial list is tiny by construction); no bit
        # packing, so arbitrary doc_id ranges are safe
        if t.num_rows == 0 or not pinned:
            return t
        q = t["query_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.ones(len(q), dtype=bool)
        for pq, pd_ in pinned:
            keep &= ~((q == pq) & (d == pd_))
        return t.filter(pa.array(keep))

    def shift(t: pa.Table) -> pa.Table:
        # ranks 1..TOP_K move below the query's pins; keep <= TOP_K
        q = t["query_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        r = t["rank"].to_numpy(zero_copy_only=False) + off_arr[q]
        return t.set_column(
            t.column_names.index("rank"), "rank", pa.array(r, pa.int64())
        ).filter(pa.array(r <= TOP_K))

    rest = _doc_topk(
        scored.map_batches(drop_pinned, batch_format="pyarrow"), "score_fp"
    ).map_batches(shift, batch_format="pyarrow")
    elev_rows = pa.table(
        {
            "query_id": pa.array(
                [q for q, dids in sorted(ELEVATE_SET.items()) for _ in dids],
                pa.int64(),
            ),
            "rank": pa.array(
                [
                    r
                    for _, dids in sorted(ELEVATE_SET.items())
                    for r in range(1, len(dids) + 1)
                ],
                pa.int64(),
            ),
            "doc_id": pa.array(
                [d for _, dids in sorted(ELEVATE_SET.items()) for d in dids],
                pa.int64(),
            ),
        }
    )
    return ray.data.from_arrow(elev_rows).union(rest)


# --- significant terms (Solr significantTerms / ES significant_terms)
SIG_TOP_K = 10
SIG_MIN_FG = 2          # min foreground df — cuts one-doc noise
_SIG_FP = 1_000_000     # lift fixed-point scale


def _lift_fp_exact(df_fg, df, m, n_docs: int):
    """(df_fg * n_docs * _SIG_FP) // (df * m), element-wise and EXACT
    at any magnitude: int64 vectorized fast path while the BIGINT-sized
    intermediates (numerator df_fg*n_docs*FP, denominator df*m) stay
    below 2^62, else an exact Python-int fallback — the twin of the
    oracle's HUGEINT arithmetic, so neither side wraps or raises where
    the other doesn't. The final lift is bounded by n_docs*FP
    (BIGINT-safe to ~9.2e12 docs; both engines raise, identically,
    past that). Inputs are same-length int64 arrays with df>0, m>0."""
    import numpy as np

    num_max = float(df_fg.max()) * float(n_docs) * float(_SIG_FP)
    den_max = float(df.max()) * float(m.max())
    if num_max < 2.0**62 and den_max < 2.0**62:
        return (df_fg * n_docs * _SIG_FP) // (df * m)
    return np.array(
        [
            (int(f) * n_docs * _SIG_FP) // (int(d) * int(mm))
            for f, d, mm in zip(df_fg, df, m)
        ],
        dtype=np.int64,
    )


def significant_terms(sf_dir: str) -> "ray.data.Dataset":
    """Significant terms per OR query: terms over-represented in the
    query's match set vs the corpus, ranked by integer-exact lift
    lift_fp = (df_fg * N * FP) // (df * |M|)  — foreground document
    frequency over expected-under-independence, pure int64 floor
    division so Ray and the SQL oracle agree bit-exactly. The query's
    own terms are excluded (they are trivially lifted to N/df).

    Shuffle shape: match set ⨝ postings on doc_id (the one wide join —
    at 10^12 docs you'd sample the match set first, as Lucene's
    sampler does), grouped (query_id, term) count, then a term join
    against the dictionary for background df. Per-query match-set
    sizes are a |queries|-row driver collect (bounded by the query
    set, not the corpus). Output (query_id, rank, term, lift_fp)."""
    import json as _json

    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    from harvester_ray.functions.text import tokenize

    paths = index_for(sf_dir)
    with open(paths.stats) as f:
        n_docs = int(_json.load(f)["n_docs"])
    scored = _scored_match_set(sf_dir)
    msize_rows = (
        scored.groupby("query_id")
        .aggregate(Count(alias_name="m"))
        .take_all()  # one row per query — bounded by the query set
    )
    msize = {int(r["query_id"]): int(r["m"]) for r in msize_rows}
    max_qid = max(msize, default=0)
    m_arr = np.zeros(max_qid + 1, dtype=np.int64)
    for qid, m in msize.items():
        m_arr[qid] = m
    own_keys = pa.array(
        sorted(
            f"{qid}\x1f{t}"
            for qid, q in queries_for_mode("or")
            for t in set(tokenize(q))
        )
    )

    fg = (
        ds_join(
            scored.select_columns(["query_id", "doc_id"]),
            read_segment_postings(paths).select_columns(["term", "doc_id"]),
            on=["doc_id"],
            schemas=(
                pa.schema([("query_id", pa.int64()), ("doc_id", pa.int64())]),
                pa.schema([("term", pa.string()), ("doc_id", pa.int64())]),
            ),
        )
        .groupby(["query_id", "term"])
        .aggregate(Count(alias_name="df_fg"))
    )
    j = join_parquet_side(
        fg, paths.dictionary,
        columns=["term", "df"], on=["term"],
        left_schema=pa.schema(
            [("query_id", pa.int64()), ("term", pa.string()),
             ("df_fg", pa.int64())]
        ),
    )

    def lift(t: pa.Table) -> pa.Table:
        qid = t["query_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        df_fg = t["df_fg"].to_numpy(zero_copy_only=False).astype(np.int64)
        df = t["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = df_fg >= SIG_MIN_FG
        if len(own_keys):
            # own-term exclusion in ONE scan: (qid, term) packed into a
            # single key column vs the precomputed exclusion set (the
            # old form ran one full-column is_in per query per batch)
            key = pc.binary_join_element_wise(
                pc.cast(t["query_id"], pa.string()), t["term"], "\x1f"
            )
            keep &= ~pc.is_in(key, value_set=own_keys).to_numpy(
                zero_copy_only=False
            )
        lift_fp = np.zeros(len(qid), dtype=np.int64)
        ok = keep & (df > 0) & (m_arr[qid] > 0)
        if ok.any():
            lift_fp[ok] = _lift_fp_exact(
                df_fg[ok], df[ok], m_arr[qid[ok]], n_docs
            )
        t = t.append_column("lift_fp", pa.array(lift_fp, pa.int64()))
        return t.filter(pa.array(ok))

    return topk_per_key(
        j.map_batches(lift, batch_format="pyarrow"),
        "query_id",
        [("lift_fp", "descending"), ("term", "ascending")],
        SIG_TOP_K,
        ["term", "lift_fp"],
        rank="rank",
    )


def search_field_quantiles(sf_dir: str) -> "ray.data.Dataset":
    """Solr stats.percentiles parity, EXACT: per OR query, the
    p25/p50/p75/p95 of n_chars over the FULL match set via the
    engine's histogram rule (smallest value whose cumulative count
    reaches ceil(q*n/10^4)) — the wide work is one (query_id, n_chars)
    histogram groupby (|queries| x |distinct lengths| rows), the
    finalize is a tiny per-query scan. Output (query_id, q_r4, value)."""
    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    from harvester_ray.pipelines.relational import QUANTILES_R4

    scored = _scored_match_set(sf_dir)
    hist = (
        join_parquet_side(
            scored.select_columns(["query_id", "doc_id"]),
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "n_chars"],
            on=["doc_id"],
        )
        .groupby(["query_id", "n_chars"])
        .aggregate(Count(alias_name="c"))
    )

    def finalize(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(g, sort_keys=[("n_chars", "ascending")]))
        v = g["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        cum = np.cumsum(
            g["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        n = int(cum[-1])
        qid = int(g["query_id"][0].as_py())
        out_q, out_v = [], []
        for q_r4 in QUANTILES_R4:
            target = int(np.ceil(q_r4 * n / 10_000.0))
            i = int(np.searchsorted(cum, target, side="left"))
            out_q.append(q_r4)
            out_v.append(int(v[i]))
        return pa.table(
            {
                "query_id": pa.array(
                    np.full(len(out_q), qid, np.int64), pa.int64()
                ),
                "q_r4": pa.array(out_q, pa.int64()),
                "value": pa.array(out_v, pa.int64()),
            }
        )

    return hist.groupby("query_id").map_groups(
        finalize, batch_format="pyarrow"
    )


# ── minimum-should-match (Solr edismax mm) ──────────────────────────

MM_MIN = 2  # required optional clauses; capped at |query terms| (Solr rule)


def mm_topk(sf_dir: str) -> "ray.data.Dataset":
    """Solr edismax minimum-should-match (mm=MM_MIN) top-k: each OR
    query keeps only docs matching at least min(MM_MIN, |query terms|)
    distinct query terms (Solr caps mm at the optional-clause count),
    ranked by the unchanged BM25 score. Shuffle shape: NONE beyond the
    shared scored-match-set build — the distinct-term count (nterms)
    rides along in that set's grouped aggregate, so mm is a vectorized
    threshold filter plus the per-query top-k. Output
    (query_id, rank, doc_id). Reference analog: the Solr mm parameter
    every Calisphere multi-term search passes through."""
    import numpy as np

    from harvester_ray.functions.text import tokenize

    qterms = [
        (qid, sorted(set(tokenize(q)))) for qid, q in queries_for_mode("or")
    ]
    max_qid = max(qid for qid, _ in qterms)
    req = np.ones(max_qid + 1, dtype=np.int64)
    for qid, ts in qterms:
        req[qid] = min(MM_MIN, len(ts))

    # the scored match set carries nterms (ride-along group count in
    # _weighted_match_set_build) — no second expand/groupby/join pass
    joined = _scored_match_set(sf_dir)

    def keep(t: pa.Table) -> pa.Table:
        qid = t["query_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nt = t["nterms"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(nt >= req[qid]))

    return _doc_topk(
        joined.map_batches(keep, batch_format="pyarrow"), "score_fp"
    )


# edismax pf: fp8 weight added per exact-phrase occurrence. (Solr
# scores the phrase as its own BM25 clause; the deterministic
# weight-per-occurrence contract keeps the twin integer-exact, the
# same simplification bm25_boosted_topk makes for boost functions.)
PF_BOOST_FP = 5 * _FP8
# phrase-hit rows above this broadcast guard hash-join instead
PF_BROADCAST_ROWS = 2_000_000


def pf_topk(sf_dir: str) -> "ray.data.Dataset":
    """Solr edismax phrase-fields boost (pf) top-k — the third edismax
    knob (qf→bm25f_topk, mm→mm_topk): docs where the WHOLE multi-term
    query occurs as an exact adjacent phrase are boosted by
    PF_BOOST_FP × the overlap-exact occurrence count on top of the
    unchanged BM25 score. Shuffle shape: the shared scored-match-set
    build + ONE batch phrase-query pass over the positional tier
    (union-pruned term-bucket read); the phrase-hit table is
    query-bounded and sparse (exact adjacency), so it rides into the
    scoring map as a per-query sorted-array broadcast under
    PF_BROADCAST_ROWS — past the guard (a head query whose phrase
    matches a corpus-scale doc set) it hash-joins onto the match set
    instead. Single-term queries get no phrase leg (the Solr pf
    rule). Output (query_id, rank, doc_id). Reference analog: the
    Solr pf parameter of the request handlers the reference's search
    UI queries."""
    import numpy as np

    from harvester_ray.functions.text import tokenize
    from harvester_ray.index.positional import phrase_occurrences_multi

    phrases = [
        (qid, q)
        for qid, q in queries_for_mode("or")
        if len(tokenize(q)) >= 2
    ]
    occ = phrase_occurrences_multi(positions_for(sf_dir), phrases)
    matches = _scored_match_set(sf_dir)

    if occ.num_rows > PF_BROADCAST_ROWS:
        from harvester_ray.stages.joins import partitioned_join

        ren = occ.rename_columns(["query_id", "doc_id", "n_occ"])
        joined = partitioned_join(
            matches,
            ray.data.from_arrow(ren),
            on=["query_id", "doc_id"],
            how="left_outer",
            schemas=(
                pa.schema(
                    [
                        ("query_id", pa.int64()),
                        ("doc_id", pa.int64()),
                        ("score_fp", pa.int64()),
                        ("nterms", pa.int64()),
                    ]
                ),
                pa.schema(
                    [
                        ("query_id", pa.int64()),
                        ("doc_id", pa.int64()),
                        ("n_occ", pa.int64()),
                    ]
                ),
            ),
        )

        def add_joined(t: pa.Table) -> pa.Table:
            sc = t["score_fp"].to_numpy(zero_copy_only=False).astype(np.int64)
            n_occ = (
                t["n_occ"].fill_null(0)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            return pa.table(
                {
                    "query_id": t["query_id"].cast(pa.int64()),
                    "doc_id": t["doc_id"].cast(pa.int64()),
                    "final_fp": pa.array(
                        sc + PF_BOOST_FP * n_occ, pa.int64()
                    ),
                }
            )

        boosted = joined.map_batches(add_joined, batch_format="pyarrow")
    else:
        pid = occ["phrase_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        did = occ["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = occ["n_occurrences"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        by_q = {
            int(q): (did[pid == q], n[pid == q]) for q in np.unique(pid)
        }  # doc arrays arrive sorted per phrase_id (positional contract)
        occ_ref = ray.put(by_q)

        def boost(t: pa.Table) -> pa.Table:
            qid = t["query_id"].to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            sc = t["score_fp"].to_numpy(zero_copy_only=False).astype(np.int64)
            add = np.zeros(len(t), dtype=np.int64)
            for q, (docs, occs) in ray.get(occ_ref).items():
                if len(docs) == 0:
                    continue
                sel = qid == q
                if not sel.any():
                    continue
                pos = np.minimum(
                    np.searchsorted(docs, d[sel]), len(docs) - 1
                )
                add[sel] = np.where(docs[pos] == d[sel], occs[pos], 0)
            return pa.table(
                {
                    "query_id": pa.array(qid, pa.int64()),
                    "doc_id": pa.array(d, pa.int64()),
                    "final_fp": pa.array(sc + PF_BOOST_FP * add, pa.int64()),
                }
            )

        boosted = matches.map_batches(boost, batch_format="pyarrow")

    return _doc_topk(boosted, "final_fp")


# ── /tvrh term-vector component ─────────────────────────────────────

TV_MAX_DOC = 5  # pinned doc set: doc_id < TV_MAX_DOC (present at all sfs)


def termvectors(sf_dir: str) -> "ray.data.Dataset":
    """Solr TermVectorComponent (/tvrh) parity: for each doc in the
    pinned doc set, its full term vector — (doc_id, term, tf, df,
    tfidf_fp) with tfidf_fp = fp8((1 + ln tf) · ln((N+1)/(df+1))), the
    doc-local tf-idf weight (no length norm — term vectors are
    per-doc). Shuffle shape: a doc-filtered segment decode streams;
    each batch resolves its UNIQUE terms' df by a pruned row-group
    read of the dictionary (actor-local lookup, the positional-shard
    pattern) — no corpus shuffle, no dictionary broadcast. Logs via
    scalar math.log over unique arguments (bit-identical to DuckDB's
    ln; vectorized np.log is 1-ulp off on ~half of arguments)."""
    import json as _json
    import math

    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    paths = index_for(sf_dir)
    with open(paths.stats) as f:
        n_docs = float(_json.load(f)["n_docs"])

    post = read_segment_postings(paths).map_batches(
        lambda t: t.filter(pc.less(t["doc_id"], TV_MAX_DOC)).select(
            ["term", "doc_id", "tf"]
        ),
        batch_format="pyarrow",
    )

    dict_path = paths.dictionary

    def weigh(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "term": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                    "df": pa.array([], pa.int64()),
                    "tfidf_fp": pa.array([], pa.int64()),
                }
            )
        enc = t["term"].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = enc.dictionary.to_pylist()
        dft = pq.read_table(  # pruned read: this batch's terms only
            dict_path, columns=["term", "df"],
            filters=[("term", "in", uniq)],
        )
        df_by_term = dict(
            zip(dft["term"].to_pylist(), dft["df"].to_pylist())
        )
        df_u = np.asarray([df_by_term[tm] for tm in uniq], dtype=np.int64)
        w_u = np.asarray(
            [math.log((n_docs + 1.0) / (float(d) + 1.0)) for d in df_u]
        )
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        utf, itf = np.unique(tf, return_inverse=True)
        ltf = np.asarray([1.0 + math.log(float(x)) for x in utf])
        s_fp = np.floor(ltf[itf] * w_u[codes] * _FP8 + 0.5).astype(np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "term": t["term"].cast(pa.string()),
                "tf": pa.array(tf, pa.int64()),
                "df": pa.array(df_u[codes], pa.int64()),
                "tfidf_fp": pa.array(s_fp, pa.int64()),
            }
        )

    return post.map_batches(weigh, batch_format="pyarrow")


# ── Luke handler: index overview stats ──────────────────────────────


def index_overview(sf_dir: str) -> pa.Table:
    """Luke-handler parity (Solr admin/luke): one (metric, value) row
    per index-level statistic — n_docs, n_terms (vocab size),
    n_postings (Σ df), total_tokens (Σ cf), max_df, max/min doc_len,
    and avgdl_fp4 (total_tokens·10⁴ // n_docs, integer-exact). The
    wide work is two tiny grouped aggregates (dictionary, doc table);
    the result is 8 rows, so a driver-side table is the right shape."""
    import json as _json

    from ray.data.aggregate import Count, Max, Min, Sum

    paths = index_for(sf_dir)
    with open(paths.stats) as f:
        st = _json.load(f)
    n_docs = int(st["n_docs"])

    d = (
        ray.data.read_parquet(paths.dictionary, columns=["term", "df", "cf"])
        .aggregate(
            Count(alias_name="n_terms"),
            Sum("df", alias_name="n_postings"),
            Sum("cf", alias_name="total_tokens"),
            Max("df", alias_name="max_df"),
        )
    )
    l = (
        ray.data.read_parquet(paths.doc_table, columns=["doc_len"])
        .aggregate(
            Max("doc_len", alias_name="max_doc_len"),
            Min("doc_len", alias_name="min_doc_len"),
        )
    )
    total_tokens = int(d["total_tokens"])
    rows = [
        ("avgdl_fp4", (total_tokens * _FP4) // n_docs),
        ("max_df", int(d["max_df"])),
        ("max_doc_len", int(l["max_doc_len"])),
        ("min_doc_len", int(l["min_doc_len"])),
        ("n_docs", n_docs),
        ("n_postings", int(d["n_postings"])),
        ("n_terms", int(d["n_terms"])),
        ("total_tokens", total_tokens),
    ]
    return pa.table(
        {
            "metric": pa.array([r[0] for r in rows], pa.string()),
            "value": pa.array([r[1] for r in rows], pa.int64()),
        }
    )


# ── facet.query: arbitrary-predicate facet counts ───────────────────

# (facet label, vectorized predicate over (lang, n_chars)) — the Solr
# facet.query set; labels use Solr query syntax for recognizability
FACET_QUERY_LABELS = (
    "lang:en",
    "n_chars:[300 TO *]",
    "lang:de AND n_chars:[* TO 250]",
)


def facet_query_counts(sf_dir: str) -> "ray.data.Dataset":
    """Solr facet.query parity: for each OR query, the count of its
    FULL match set satisfying each facet sub-query (arbitrary
    predicates, unlike field faceting's value buckets). Shuffle shape:
    the cached distinct match set hash-joins the pruned documents
    columns once, each batch evaluates every predicate vectorized, one
    (query, facet) grouped count. Output (query_id, facet, n_docs)."""
    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    matches = _distinct_match_set(sf_dir)
    joined = join_parquet_side(
        matches,
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang", "n_chars"],
        on=["doc_id"],
    )

    def explode(t: pa.Table) -> pa.Table:
        lang = t["lang"]
        nch = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        en = pc.equal(lang, "en").to_numpy(zero_copy_only=False)
        de = pc.equal(lang, "de").to_numpy(zero_copy_only=False)
        masks = (en, nch >= 300, de & (nch <= 250))
        qid = t["query_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        out_q, out_f = [], []
        for label, m in zip(FACET_QUERY_LABELS, masks):
            sel = qid[m]
            out_q.append(sel)
            out_f.extend([label] * len(sel))
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "facet": pa.array(out_f, pa.string()),
            }
        )

    return (
        joined.map_batches(explode, batch_format="pyarrow")
        .groupby(["query_id", "facet"])
        .aggregate(Count(alias_name="n_docs"))
    )


# ── dictionary analytics: Zipf df histogram ─────────────────────────


def df_histogram(sf_dir: str) -> "ray.data.Dataset":
    """Dictionary Zipf profile: terms bucketed by floor(log2(df)) with
    per-bucket term and token counts — (bucket, n_terms, sum_cf). The
    exponent comes from np.frexp (exact for df < 2^53; no libm log2
    rounding at power-of-two edges), mirrored in SQL as
    length(bin(df)) - 1. Map + one tiny groupby over the dictionary —
    corpus text is never touched."""
    import numpy as np
    from ray.data.aggregate import Count, Sum

    d = ray.data.read_parquet(paths := index_for(sf_dir).dictionary,
                              columns=["df", "cf"])

    def bucketize(t: pa.Table) -> pa.Table:
        df = t["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = np.frexp(df.astype(np.float64))[1] - 1
        return pa.table(
            {
                "bucket": pa.array(bucket.astype(np.int64), pa.int64()),
                "cf": t["cf"].cast(pa.int64()),
            }
        )

    return (
        d.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(
            Count(alias_name="n_terms"), Sum("cf", alias_name="sum_cf")
        )
    )


# ── per-document keyword extraction (top-k tf-idf terms) ────────────

KW_K = 3


def doc_keywords(sf_dir: str) -> "ray.data.Dataset":
    """Per-document keyword extraction: each doc's top-KW_K terms by
    doc-local tf-idf — (doc_id, rank, term, tfidf_fp) with the same
    fp8((1 + ln tf) · ln((N+1)/(df+1))) weight as the /tvrh term
    vectors, rank by weight DESC then term ASC. The classic
    keyword/tag generator a corpus-exploration UI runs over every doc.
    Shuffle shape: postings hash-join the dictionary ONCE for df (one
    exchange — unlike termvectors' per-batch pruned reads, every batch
    here needs most of the dictionary), then a per-doc grouped top-k;
    logs are scalar math.log over unique arguments (bit-identical to
    DuckDB's ln)."""
    import json as _json
    import math

    import numpy as np

    paths = index_for(sf_dir)
    with open(paths.stats) as f:
        n_docs = float(_json.load(f)["n_docs"])

    post = read_segment_postings(paths).select_columns(
        ["term", "doc_id", "tf"]
    )
    joined = join_parquet_side(
        post, paths.dictionary, columns=["term", "df"], on=["term"],
    )

    def weigh(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "term": pa.array([], pa.string()),
                    "tfidf_fp": pa.array([], pa.int64()),
                }
            )
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        df = t["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        utf, itf = np.unique(tf, return_inverse=True)
        ltf = np.asarray([1.0 + math.log(float(x)) for x in utf])
        udf, idf_i = np.unique(df, return_inverse=True)
        w = np.asarray(
            [math.log((n_docs + 1.0) / (float(d) + 1.0)) for d in udf]
        )
        fp = np.floor(ltf[itf] * w[idf_i] * _FP8 + 0.5).astype(np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "term": t["term"].cast(pa.string()),
                "tfidf_fp": pa.array(fp, pa.int64()),
            }
        )

    return topk_per_key(
        joined.map_batches(weigh, batch_format="pyarrow"),
        "doc_id",
        [("tfidf_fp", "descending"), ("term", "ascending")],
        KW_K,
        ["term", "tfidf_fp"],
        rank="rank",
    )


EXPAND_K = 3  # expanded rows returned per kept collapse group


def expand_topk(sf_dir: str) -> "ray.data.Dataset":
    """Expand component (Solr collapse+expand parity, reference Solr
    surface: /root/reference/harvester/solr_updater.py pushes one doc
    per record into collection groups the portal collapses on): for
    each of the top-COLLAPSE_K collapsed `source` groups per OR query
    (same group ranking as collapse_topk), up to EXPAND_K ADDITIONAL
    docs from that group — the representative excluded — ranked by
    the same fixed-point BM25. Output (query_id, source, exp_rank,
    doc_id).

    Shape: the shared _scored_match_set → source hash join →
    per-(query, source) grouped top-(EXPAND_K+1) with the group's
    representative key attached → per-query group ranking. The wide
    steps are one hash join and two groupbys on keys that shrink the
    data at each step; nothing is broadcast or driver-collected."""
    import numpy as np
    import pyarrow.compute as pc

    scored = _scored_match_set(sf_dir)
    joined = join_parquet_side(
        scored,
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source"],
        on=["doc_id"],
    )

    _SORT = [("score_fp", "descending"), ("doc_id", "ascending")]

    def group_head(g: pa.Table) -> pa.Table:
        # top-(EXPAND_K+1) rows of one (query, source) group plus the
        # representative's (score, doc) key for the per-query ranking
        idx = pc.sort_indices(g, sort_keys=_SORT)[: EXPAND_K + 1]
        g = g.take(idx)
        n = len(g)
        rep_score = g["score_fp"][0].as_py()
        rep_doc = g["doc_id"][0].as_py()
        return pa.table(
            {
                "query_id": g["query_id"].cast(pa.int64()),
                "source": g["source"].cast(pa.string()),
                "doc_id": g["doc_id"].cast(pa.int64()),
                "rn": pa.array(np.arange(1, n + 1, dtype=np.int64)),
                "rep_score": pa.array(np.full(n, rep_score, np.int64)),
                "rep_doc": pa.array(np.full(n, rep_doc, np.int64)),
            }
        )

    heads = joined.groupby(["query_id", "source"]).map_groups(
        group_head, batch_format="pyarrow"
    )

    def rank_groups(g: pa.Table) -> pa.Table:
        # rank this query's groups by their representative, keep the
        # top COLLAPSE_K, then emit the non-representative rows
        reps = g.filter(pc.equal(g["rn"], 1))
        idx = pc.sort_indices(
            reps,
            sort_keys=[
                ("rep_score", "descending"), ("rep_doc", "ascending"),
            ],
        )[:COLLAPSE_K]
        kept = set(reps.take(idx)["source"].to_pylist())
        mask = pc.and_(
            pc.is_in(g["source"], pa.array(sorted(kept), pa.string())),
            pc.greater(g["rn"], 1),
        )
        g = g.filter(mask)
        idx = pc.sort_indices(
            g, sort_keys=[("source", "ascending"), ("rn", "ascending")]
        )
        g = g.take(idx)
        return pa.table(
            {
                "query_id": g["query_id"],
                "source": g["source"],
                "exp_rank": pc.subtract(g["rn"], 1).cast(pa.int64()),
                "doc_id": g["doc_id"],
            }
        )

    return heads.groupby("query_id").map_groups(
        rank_groups, batch_format="pyarrow"
    )


EXPORT_TERM = "scan"   # /export filter query: term match from the index
EXPORT_LANG = "en"     # docvalues-side filter
# distinct-sort-key ceiling for the driver-side offset cumsum: the
# offset table is one row per DISTINCT sort-key value (not per doc) —
# a dictionary-sized object like the vocab guards. Past this, the
# cumsum itself must become a prefix-scan over range partitions.
_EXPORT_OFFSET_KEYS_GUARD = 4_000_000


def export_sorted(sf_dir: str) -> "ray.data.Dataset":
    """/export handler parity (Solr's streaming full-result export,
    sorted on a docvalues field — the reference's portal exports whole
    collections this way, reference Solr surface:
    /root/reference/harvester/scripts/report_harvested_to_solr.py):
    the FULL match set of a filter query (term `EXPORT_TERM` from the
    index AND lang = EXPORT_LANG), projected to stored fields and
    given its TRUE GLOBAL rank under (n_chars DESC, doc_id ASC) — not
    a top-k, every matching row streams out.

    Global ranking without a single-process sort — two phases:
    1. per-sort-key row counts (a groupby whose result is one row per
       DISTINCT n_chars value, dictionary-sized), cumsum'd into rank
       offsets on the driver (guarded; past the guard this becomes a
       prefix-scan over range partitions);
    2. per-key grouped local rank (sort by the tiebreaker inside each
       co-located key group) + the key's offset.
    Rows never funnel through one node; the only driver object is the
    distinct-key offset table."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    paths = index_for(sf_dir)
    matched = read_segment_postings(paths, [EXPORT_TERM]).select_columns(
        ["doc_id"]
    )
    joined = join_parquet_side(
        matched,
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "lang", "n_chars"],
        filter=pads.field("lang") == EXPORT_LANG,
        on=["doc_id"],
    ).materialize()  # consumed twice (key counts + rank pass): one join

    counts_ds = joined.groupby("n_chars").count().materialize()
    if counts_ds.count() > _EXPORT_OFFSET_KEYS_GUARD:
        # range-partition prefix-scan rank path: the distinct-key
        # offset table is computed DISTRIBUTED (stages/scan.py — only
        # O(blocks) partial rows touch the driver) and rides into the
        # same key-keyed groupby as the data rows via a tagged union,
        # so the past-guard path still costs exactly ONE all-to-all.
        return _export_sorted_scan(joined, counts_ds)
    counts = counts_ds.take_all()
    # offsets[k] = number of rows ranked strictly before key k under
    # n_chars DESC (keys sorted descending, exclusive cumsum)
    keys = sorted((int(r["n_chars"]) for r in counts), reverse=True)
    by_key = {int(r["n_chars"]): int(r["count()"]) for r in counts}
    offsets, acc = {}, 0
    for k in keys:
        offsets[k] = acc
        acc += by_key[k]
    offsets_ref = ray.put(offsets)

    def rank_group(g: pa.Table) -> pa.Table:
        offs = ray.get(offsets_ref)
        idx = pc.sort_indices(g, sort_keys=[("doc_id", "ascending")])
        g = g.take(idx)
        base = offs[int(g["n_chars"][0].as_py())]
        return pa.table(
            {
                "rank": pa.array(
                    base + np.arange(1, len(g) + 1, dtype=np.int64)
                ),
                "doc_id": g["doc_id"].cast(pa.int64()),
                "source": g["source"].cast(pa.string()),
                "n_chars": g["n_chars"].cast(pa.int64()),
            }
        )

    return joined.groupby("n_chars").map_groups(
        rank_group, batch_format="pyarrow"
    )


def _export_sorted_scan(
    joined: "ray.data.Dataset", counts_ds: "ray.data.Dataset"
) -> "ray.data.Dataset":
    """export_sorted's past-guard twin: distributed prefix-scan rank.

    The (n_chars, offset) table from ``keyed_prefix_offsets`` unions
    into the SAME n_chars-keyed groupby as the data rows (offset rows
    tagged by a null doc_id), so each key group ranks locally against
    its own offset row — one all-to-all total, nothing key-sized on
    the driver. Output schema identical to the broadcast path."""
    import numpy as np
    import pyarrow.compute as pc

    from harvester_ray.stages.scan import keyed_prefix_offsets

    offsets = keyed_prefix_offsets(
        counts_ds, "n_chars", "count()", descending=True,
        offset_name="_offset",
    )

    def tag_data(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_chars": t["n_chars"].cast(pa.int64()),
                "doc_id": t["doc_id"].cast(pa.int64()),
                "source": t["source"].cast(pa.string()),
                "_offset": pa.nulls(t.num_rows, pa.int64()),
            }
        )

    def tag_offs(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_chars": t["n_chars"].cast(pa.int64()),
                "doc_id": pa.nulls(t.num_rows, pa.int64()),
                "source": pa.nulls(t.num_rows, pa.string()),
                "_offset": t["_offset"].cast(pa.int64()),
            }
        )

    unioned = joined.map_batches(tag_data, batch_format="pyarrow").union(
        offsets.map_batches(tag_offs, batch_format="pyarrow")
    )

    def rank_group(g: pa.Table) -> pa.Table:
        is_off = pc.is_valid(g["_offset"])
        base = int(pc.max(g["_offset"]).as_py())  # exactly one offset row
        data = g.filter(pc.invert(is_off))
        idx = pc.sort_indices(data, sort_keys=[("doc_id", "ascending")])
        data = data.take(idx)
        return pa.table(
            {
                "rank": pa.array(
                    base + np.arange(1, len(data) + 1, dtype=np.int64)
                ),
                "doc_id": data["doc_id"],
                "source": data["source"],
                "n_chars": data["n_chars"],
            }
        )

    return unioned.groupby("n_chars").map_groups(
        rank_group, batch_format="pyarrow"
    )


VG_CHECKPOINTS = 8  # corpus-prefix checkpoints for the growth curve


def vocab_growth(sf_dir: str) -> pa.Table:
    """Heaps-law vocabulary-growth curve: for each of VG_CHECKPOINTS
    doc-id prefixes cp_i = max_id * i // N, the number of DISTINCT
    terms whose FIRST occurrence falls at or before cp_i — the
    corpus-analytics signal behind analyzer/shard-count sizing
    (reference sizes its Solr schema once, by hand; here the curve is
    computed from the built index).

    Scale shape: ZERO shuffle — the segment files are named by term
    bucket, hash(term) % num_term_buckets, so every term's blocks live
    in one bucket's files and a per-bucket task computes its terms'
    exact first occurrences locally (the same partitioning fact the
    dictionary build exploits, index/build.py dict_bucket). A term's
    first occurrence is the least ``first_doc_id`` of its blocks, so
    no block is decoded. Each task returns an N-cell histogram; the
    driver folds ≤ num_term_buckets such arrays. max_id comes from
    parquet row-group statistics (no data read)."""
    import numpy as np
    import pyarrow.parquet as pq

    from harvester_ray.index.build import segment_files_by_bucket

    paths = index_for(sf_dir)
    meta = pq.ParquetFile(
        os.path.join(sf_dir, "documents.parquet")
    ).metadata
    col = {
        meta.schema.column(i).name: i for i in range(meta.num_columns)
    }["doc_id"]
    max_id = max(
        meta.row_group(g).column(col).statistics.max
        for g in range(meta.num_row_groups)
    )
    cps = np.array(
        [max_id * i // VG_CHECKPOINTS for i in range(1, VG_CHECKPOINTS + 1)],
        dtype=np.int64,
    )

    @ray.remote(num_cpus=1)
    def vg_bucket(files: list[str], cps_: np.ndarray) -> np.ndarray:
        t = pq.read_table(files, columns=["term_id", "first_doc_id"])
        g = t.group_by("term_id").aggregate([("first_doc_id", "min")])
        fd = g["first_doc_id_min"].to_numpy(zero_copy_only=False)
        # smallest checkpoint index holding fd (cp_N = max_id >= any fd)
        return np.bincount(
            np.searchsorted(cps_, fd), minlength=len(cps_)
        ).astype(np.int64)

    hists = ray.get(
        [
            vg_bucket.remote(files, cps)
            for files in segment_files_by_bucket(paths.segments).values()
        ]
    )
    folded = np.sum(hists, axis=0) if hists else np.zeros(len(cps), np.int64)
    new_terms = {i: int(c) for i, c in enumerate(folded)}
    acc, by_cp = 0, {}
    for i in range(VG_CHECKPOINTS):
        acc += new_terms.get(i, 0)
        # tiny corpora (max_id < N) repeat checkpoint values; the
        # oracle GROUPs BY checkpoint, so keep ONE row per distinct
        # cp — the cumulative count at its last bucket
        by_cp[int(cps[i])] = acc
    rows = sorted(by_cp.items())
    return pa.table(
        {
            "checkpoint": pa.array([r[0] for r in rows], pa.int64()),
            "vocab_size": pa.array([r[1] for r in rows], pa.int64()),
        }
    )


# fixed /get id list: even ids live in the BASE index, odd ids only in
# the uncommitted-analog DELTA segment — a correct result proves delta
# visibility without a merge
RTG_IDS = [0, 1, 2, 3, 10, 11, 101, 250, 499]


def realtime_get(sf_dir: str) -> "ray.data.Dataset":
    """Solr /get (realtime get) parity: point lookup by doc id served
    from the base + EVERY delta segment's doc table (reference: the
    portal reads freshly-pushed docs back by id before commit,
    harvester/solr_updater.py:875-962 add path) joined with the stored
    fields. Reads are row-group-pruned `doc_id IN (...)` filters — the
    /get cost is O(segments × touched row groups), never a scan; the
    join side is the same pruned point read on documents.parquet."""
    import pyarrow.dataset as pads

    from harvester_ray.index.maintenance import delta_dirs

    paths = index_for_incremental(sf_dir)
    dirs = [paths.root] + delta_dirs(paths.root)
    flt = pads.field("doc_id").isin(RTG_IDS)
    parts = [
        ray.data.read_parquet(
            IndexPaths(d).doc_table, columns=["doc_id", "doc_len"],
            filter=flt,
        )
        for d in dirs
    ]
    lens = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
    joined = join_parquet_side(
        lens,
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "n_chars"],
        filter=flt,
        on=["doc_id"],
    )
    return joined.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "doc_len": t["doc_len"].cast(pa.int64()),
                "source": t["source"].cast(pa.string()),
                "n_chars": t["n_chars"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


# fixed atomic-update set: these docs get ``text || ' updatedtok'``
# pushed through the upsert path (tombstone old version + delta add)
ATOMIC_IDS = [5, 17, 42, 101, 250]
ATOMIC_TOKEN = "updatedtok"


def index_for_atomic(sf_dir: str) -> IndexPaths:
    """Full-corpus base index, then UPSERT the ATOMIC_IDS docs with a
    token appended — the reference's `_changes` replace semantics
    (harvester/solr_updater.py:875-962): old versions tombstoned
    (scoped to sources existing then), new versions a delta segment."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from harvester_ray.index.maintenance import (
        delta_dirs,
        load_tombstones,
        upsert_docs,
    )

    key = hashlib.md5(
        f"{os.path.abspath(sf_dir)}:{ENGINE_VERSION}:atom".encode()
    ).hexdigest()[:16]
    out = os.path.join(cache_root(), f"idx_{key}")
    paths = IndexPaths(out)
    if (
        os.path.exists(paths.stats)
        and delta_dirs(out)
        and len(load_tombstones(out))
    ):
        return paths
    src = os.path.join(sf_dir, "documents.parquet")
    cols = list(DOC_COLUMNS)
    # the base is byte-identical to the shared pristine index — clone
    # it (atomically: copy to a tmp dir, rename in) instead of paying a
    # second full build; only the upsert below is this fixture's own
    import shutil

    base = index_for(sf_dir)
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(base.root, tmp)
    os.rename(tmp, out)

    def retext(t: pa.Table) -> pa.Table:
        new_text = pc.binary_join_element_wise(
            t["text"].cast(pa.string()),
            pa.array([ATOMIC_TOKEN] * len(t), pa.string()),
            " ",
        )
        return t.set_column(t.schema.get_field_index("text"), "text", new_text)

    updated = ray.data.read_parquet(
        src, columns=cols, filter=pads.field("doc_id").isin(ATOMIC_IDS)
    ).map_batches(retext, batch_format="pyarrow")
    upsert_docs(out, updated)
    return paths


def atomic_update(sf_dir: str) -> "ray.data.Dataset":
    """Post-upsert live doc stats: (doc_id, doc_len) for every LIVE doc
    — each source segment's doc table read in place with its SCOPED
    tombstone set anti-filtered (dead ids are change-log-sized, one
    ray.put per segment), unioned across segments. The updated docs
    must show their NEW length (+1 token); nothing else moves. Exact
    regardless of the Lucene-style stats caveat (doc_len/tf carry no
    corpus-stats dependence before compaction)."""
    import numpy as np

    from harvester_ray.index.maintenance import (
        deleted_for_source,
        source_dirs,
    )

    paths = index_for_atomic(sf_dir)
    parts = []
    for i, src in enumerate(source_dirs(paths.root)):
        ds = ray.data.read_parquet(
            IndexPaths(src).doc_table, columns=["doc_id", "doc_len"]
        )
        dead = deleted_for_source(paths.root, i)
        if len(dead):
            dead_ref = ray.put(dead)

            def drop(t: pa.Table, _ref=dead_ref) -> pa.Table:
                mask = ~np.isin(
                    t["doc_id"].to_numpy(zero_copy_only=False),
                    ray.get(_ref),
                )
                return t.filter(pa.array(mask))

            ds = ds.map_batches(drop, batch_format="pyarrow")
        parts.append(ds)
    out = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
    return out.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "doc_len": t["doc_len"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


# (query_id, RE2 regex) — whole-term anchored, alternation, bounded
# repetition, char class, and a no-match pattern; partial-match
# semantics identical between pc.match_substring_regex and DuckDB
# regexp_matches
REGEX_SET: list[tuple[int, str]] = [
    (0, "^sc.n$"),
    (1, "o[rw]$"),
    (2, "^(join|merge)$"),
    (3, "zz+q"),
    (4, "a.*a"),
]
REGEX_CAP = 4


def regex_search(sf_dir: str) -> "ray.data.Dataset":
    """Regexp term queries (Lucene RegexpQuery rewrite, the Solr
    /terms regex surface): expand each RE2 pattern against the
    dictionary (top-REGEX_CAP by df DESC, term ASC — the same rewrite
    cap as wildcard/prefix), then BM25-OR over the expansion."""
    from harvester_ray.index.expand import regex_expansions

    paths = index_for(sf_dir)
    exp = regex_expansions(_dict_ds(paths), REGEX_SET, REGEX_CAP)
    return _ranked_for_expansions(paths, exp)


JOINQ_K = 10  # cross-core join: top docs returned per query


def join_query_topk(sf_dir: str) -> "ray.data.Dataset":
    """Solr {!join} cross-core query parity (reference Solr surface —
    the portal joins collection registry data onto item results,
    harvester/solr_updater.py:64-134 maps both sides of that join):
    for each OR query, find the matching docs, follow from=source
    to=source, and return the top-JOINQ_K docs (n_chars DESC, doc_id
    ASC) among ALL docs whose source contains at least one match —
    the "docs related via a shared key to the matches" semantic.

    Shape: shared scored match set → source hash join (match side) →
    distinct (query_id, source) — a GROUP-DICTIONARY-sized set — →
    second hash join back onto documents by source (the fan-out
    side) → per-query grouped top-k with per-batch prune. Both joins
    pick broadcast vs key-partitioned by side size (join_parquet_side
    guard); past the guard nothing is broadcast."""
    scored = _scored_match_set(sf_dir)
    matched_srcs = (
        join_parquet_side(
            scored,
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "source"],
            on=["doc_id"],
        )
        .groupby(["query_id", "source"])
        .count()
        .select_columns(["query_id", "source"])
    )
    fanout = join_parquet_side(
        matched_srcs,
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "n_chars"],
        on=["source"],
        left_schema=pa.schema(
            [("query_id", pa.int64()), ("source", pa.string())]
        ),
    )

    return topk_per_key(
        fanout,
        "query_id",
        [("n_chars", "descending"), ("doc_id", "ascending")],
        JOINQ_K,
        ["doc_id"],
        rank="rank",
    )


# -- IR rank evaluation ---------------------------------------------------

RANK_EVAL_SENTINEL = 1 << 30  # "no hit" min-rank sentinel

# binary-relevance DCG weights, fixed-point: w(r) = round(1e6/log2(r+1)).
# Precomputed ONCE in Python and embedded verbatim in the SQL twin, so
# no cross-engine libm call ever happens; IDCG prefix sums are integer
# sums of the same integers.
import itertools as _it
import math as _math

RANK_EVAL_W_FP: tuple[int, ...] = tuple(
    int(_math.floor(10**6 / _math.log2(r + 1) + 0.5))
    for r in range(1, TOP_K + 1)
)
RANK_EVAL_IDCG_FP: tuple[int, ...] = tuple(
    _it.accumulate(RANK_EVAL_W_FP)
)


def rank_eval(sf_dir: str) -> "ray.data.Dataset":
    """Offline retrieval-quality evaluation of the engine's own BM25
    OR top-k — the relevance-eval harness a search migration runs
    before cutover (the reference's acceptance check is exactly
    "same docs come back": solr_updater sync verified by query
    spot-checks). qrels are deterministic conjunctive relevance:
    a doc is relevant to a query iff it contains ALL the query's
    terms. Output per query: (query_id, n_rel, n_hit, p10_fp6,
    recall_fp6, rr_fp6) — precision@k, recall and reciprocal rank in
    integer fixed point (nonnegative floor divisions only, so Python
    // and DuckDB // agree).

    Scale shape: retrieved is query-bounded (|Q| x TOP_K — a driver
    fold by design); the corpus-scale relevance set never materializes
    — a term-pruned segment decode expands to (query, doc) rows, ONE
    grouped count finds full-conjunction docs, and per-batch partials
    reduce to |Q| rows. MRR's first-hit rank rides the same aggregate
    as a Min over sentinel-coded ranks."""
    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Min, Sum

    from harvester_ray.functions.text import tokenize

    qterms = [
        (qid, sorted(set(tokenize(q)))) for qid, q in queries_for_mode("or")
    ]
    n_terms = {qid: len(ts) for qid, ts in qterms}
    all_terms = sorted({t for _, ts in qterms for t in ts})
    paths = index_for(sf_dir)

    # retrieved: |Q| x TOP_K rows — bounded, broadcast once
    ret_rows = bm25_topk_or(sf_dir).take_all()
    ret_by_q: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for qid in n_terms:
        rows = sorted(
            ((r["doc_id"], r["rank"]) for r in ret_rows
             if r["query_id"] == qid)
        )
        ret_by_q[qid] = (
            np.array([d for d, _ in rows], dtype=np.int64),
            np.array([rk for _, rk in rows], dtype=np.int64),
        )
    ret_ref = ray.put(ret_by_q)
    max_qid = max(n_terms)
    nt_arr = np.zeros(max_qid + 1, np.int64)
    for qid, nt in n_terms.items():
        nt_arr[qid] = nt

    post = read_segment_postings(paths, all_terms).select_columns(
        ["term", "doc_id"]
    )

    def expand(t: pa.Table) -> pa.Table:
        qids, dids = [], []
        for qid, ts in qterms:
            sel = t.filter(
                pc.is_in(t["term"], value_set=pa.array(ts, pa.string()))
            )["doc_id"].to_numpy(zero_copy_only=False)
            qids.append(np.full(len(sel), qid, dtype=np.int64))
            dids.append(sel.astype(np.int64))
        return pa.table(
            {
                "query_id": pa.array(
                    np.concatenate(qids) if qids else [], pa.int64()
                ),
                "doc_id": pa.array(
                    np.concatenate(dids) if dids else [], pa.int64()
                ),
            }
        )

    _partial_schema = pa.schema(
        [
            ("query_id", pa.int64()),
            ("n_rel", pa.int64()),
            ("n_hit", pa.int64()),
            ("min_rank", pa.int64()),
            ("dcg_fp", pa.int64()),
        ]
    )
    w_fp = np.array(RANK_EVAL_W_FP, dtype=np.int64)

    def partials(t: pa.Table) -> pa.Table:
        """(query, doc, n_matched) rows -> <= |Q| metric partials."""
        if len(t) == 0 or "_n" not in t.column_names:
            # groupby can emit schema-less empty blocks — re-emit typed
            return _partial_schema.empty_table()
        qs = t["query_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nm = t["_n"].to_numpy(zero_copy_only=False).astype(np.int64)
        ds_ = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        full = nm == nt_arr[qs]
        qs, ds_ = qs[full], ds_[full]
        lookup = ray.get(ret_ref)
        out_q, out_rel, out_hit, out_min, out_dcg = [], [], [], [], []
        for qid in np.unique(qs):
            m = qs == qid
            docs = ds_[m]
            r_docs, r_ranks = lookup[int(qid)]
            pos = np.searchsorted(r_docs, docs)
            pos = np.minimum(pos, max(len(r_docs) - 1, 0))
            hit = (
                r_docs[pos] == docs if len(r_docs) else
                np.zeros(len(docs), bool)
            )
            ranks = r_ranks[pos][hit] if len(r_docs) else np.empty(0)
            out_q.append(int(qid))
            out_rel.append(int(len(docs)))
            out_hit.append(int(hit.sum()))
            out_min.append(
                int(ranks.min()) if len(ranks) else RANK_EVAL_SENTINEL
            )
            out_dcg.append(
                int(w_fp[ranks.astype(np.int64) - 1].sum())
                if len(ranks)
                else 0
            )
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "n_rel": pa.array(out_rel, pa.int64()),
                "n_hit": pa.array(out_hit, pa.int64()),
                "min_rank": pa.array(out_min, pa.int64()),
                "dcg_fp": pa.array(out_dcg, pa.int64()),
            }
        )

    seed = ray.data.from_arrow(
        pa.table(
            {
                "query_id": pa.array(sorted(n_terms), pa.int64()),
                "n_rel": pa.array([0] * len(n_terms), pa.int64()),
                "n_hit": pa.array([0] * len(n_terms), pa.int64()),
                "min_rank": pa.array(
                    [RANK_EVAL_SENTINEL] * len(n_terms), pa.int64()
                ),
                "dcg_fp": pa.array([0] * len(n_terms), pa.int64()),
            }
        )
    )

    _final_schema = pa.schema(
        [
            ("query_id", pa.int64()),
            ("n_rel", pa.int64()),
            ("n_hit", pa.int64()),
            ("p10_fp6", pa.int64()),
            ("recall_fp6", pa.int64()),
            ("rr_fp6", pa.int64()),
            ("ndcg_fp6", pa.int64()),
        ]
    )
    idcg_fp = np.array(RANK_EVAL_IDCG_FP, dtype=np.int64)

    def finalize(t: pa.Table) -> pa.Table:
        import numpy as np

        if len(t) == 0 or "n_rel" not in t.column_names:
            return _final_schema.empty_table()
        n_rel = t["n_rel"].to_numpy(zero_copy_only=False).astype(np.int64)
        n_hit = t["n_hit"].to_numpy(zero_copy_only=False).astype(np.int64)
        minr = t["min_rank"].to_numpy(zero_copy_only=False).astype(np.int64)
        fp = np.int64(10**6)
        recall = np.where(n_rel > 0, n_hit * fp // np.maximum(n_rel, 1), 0)
        rr = np.where(
            minr < RANK_EVAL_SENTINEL, fp // np.maximum(minr, 1), 0
        )
        dcg = t["dcg_fp"].to_numpy(zero_copy_only=False).astype(np.int64)
        ideal = idcg_fp[np.minimum(np.maximum(n_rel, 1), TOP_K) - 1]
        ndcg = np.where(n_rel > 0, dcg * fp // ideal, 0)
        return pa.table(
            {
                "query_id": t["query_id"].cast(pa.int64()),
                "n_rel": pa.array(n_rel, pa.int64()),
                "n_hit": pa.array(n_hit, pa.int64()),
                "p10_fp6": pa.array(n_hit * fp // TOP_K, pa.int64()),
                "recall_fp6": pa.array(recall, pa.int64()),
                "rr_fp6": pa.array(rr, pa.int64()),
                "ndcg_fp6": pa.array(ndcg, pa.int64()),
            }
        )

    return (
        post.map_batches(expand, batch_format="pyarrow")
        .groupby(["query_id", "doc_id"])
        .aggregate(Count(alias_name="_n"))
        .map_batches(partials, batch_format="pyarrow")
        .union(seed)
        .groupby("query_id")
        .aggregate(
            Sum("n_rel", alias_name="n_rel"),
            Sum("n_hit", alias_name="n_hit"),
            Min("min_rank", alias_name="min_rank"),
            Sum("dcg_fp", alias_name="dcg_fp"),
        )
        .map_batches(finalize, batch_format="pyarrow")
    )


def percolate_matches(sf_dir: str) -> "ray.data.Dataset":
    """Percolator / reverse search (the Elasticsearch percolate query,
    Lucene MemoryIndex): the STORED queries are the small side and the
    document stream is matched against them at ingest time — the
    alerting / routing shape, structurally the inverse of every other
    entry here (no index is built or read). A stored query matches a
    doc iff the doc contains ALL the query's terms.

    Scale shape: map-only, zero shuffle — the stored-query set is
    config-sized (closure capture), each batch tokenizes once and
    folds term membership into per-doc BITMASK words (one uint64 word
    per 64 stored-query terms), then each query is one mask compare
    over the batch. Output (query_id, doc_id) for every match."""
    import numpy as np
    import pyarrow.compute as pc

    from harvester_ray.functions.text import (
        flatten_tokens,
        tokenize,
        tokenize_column,
    )

    # a stored query with no analyzer terms matches NOTHING (the SQL
    # twin emits no rows for it; an all-zero mask would match-all)
    qterms = [
        (qid, ts)
        for qid, q in queries_for_mode("or")
        if (ts := sorted(set(tokenize(q))))
    ]
    all_terms = sorted({t for _, ts in qterms for t in ts})
    bit_of = {t: i for i, t in enumerate(all_terms)}
    n_words = max(1, (len(all_terms) + 63) // 64)
    q_masks = []
    for qid, ts in qterms:
        m = np.zeros(n_words, dtype=np.uint64)
        for t in ts:
            b = bit_of[t]
            m[b // 64] |= np.uint64(1) << np.uint64(b % 64)
        q_masks.append((qid, m))
    term_arr = pa.array(all_terms, pa.string())

    def match(t: pa.Table) -> pa.Table:
        n_rows = len(t)
        masks = np.zeros((n_rows, n_words), dtype=np.uint64)
        flat, parent = flatten_tokens(tokenize_column(t["text"]))
        if len(flat):
            par = parent.to_numpy(zero_copy_only=False).astype(np.int64)
            idx = pc.fill_null(
                pc.index_in(flat, value_set=term_arr), -1
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            sel = idx >= 0
            p, b = par[sel], idx[sel]
            for w in range(n_words):
                ws = (b // 64) == w
                np.bitwise_or.at(
                    masks[:, w],
                    p[ws],
                    np.uint64(1) << (b[ws] % 64).astype(np.uint64),
                )
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        out_q, out_d = [], []
        for qid, qm in q_masks:
            hit = np.all((masks & qm) == qm, axis=1)
            if hit.any():
                out_d.append(d[hit])
                out_q.append(np.full(int(hit.sum()), qid, dtype=np.int64))
        if not out_q:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
            }
        )

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(match, batch_format="pyarrow", batch_size=2048)


def timetravel_topk(sf_dir: str) -> "ray.data.Dataset":
    """Commit-point time travel (Lucene IndexCommit / snapshot reads):
    serve the reference OR query set against the UPSERTED index fixture
    (base + stamp-1 tombstones + delta, the atomic_update state) at
    ``as_of=1`` — the snapshot just before the upsert. An LSM snapshot
    is a source prefix + stamp-scoped tombstones, so reading history
    copies nothing; the result must be rank-identical to the pristine
    corpus, which is exactly what the shared BM25_TOPK_OR oracle
    states. The as_of=n_sources+1 twin (all sources + ALL tombstones,
    including any stamped after the last source add — i.e. the live
    view even after a delete-only commit) is pinned in
    tests/test_maintenance.py."""
    paths = index_for_atomic(sf_dir)
    items = [
        {"query_id": qid, "query": q, "mode": "or"}
        for qid, q in queries_for_mode("or")
    ]
    return _query_pool(paths, items, as_of=1)


def pagerank_boosted_topk(sf_dir: str) -> "ray.data.Dataset":
    """Static-prior rank fusion — the classic web-search composition:
    BM25 relevance x link-graph authority. Rank key =
    score_fp * (rank_fp + 1) over the FULL OR match set, where rank_fp
    is the integer PageRank of weburls.pagerank_fixed (+1 so a rank
    that floors to 0 at huge N degrades to plain BM25 instead of
    zeroing the product; score_fp <~ 1e10, rank_fp + 1 <= PR_FP+1 ->
    product < 1e17, exact int64 on both engines).

    Scale shape: the prior joins onto the cached match set by ONE
    doc_id-keyed hash join (the bm25_topk_filtered shuffle shape —
    never a doc-table broadcast), then the per-block top-k pre-prune +
    grouped finalize move O(queries x K) rows.
    Output (query_id, rank, doc_id, fused_fp)."""
    import numpy as np

    from harvester_ray.pipelines.weburls import pagerank_fixed
    from harvester_ray.stages.joins import ds_join

    scored = _scored_match_set(sf_dir)
    joined = ds_join(
        scored,
        pagerank_fixed(sf_dir),
        on=["doc_id"],
        schemas=(
            pa.schema(
                [
                    ("query_id", pa.int64()),
                    ("doc_id", pa.int64()),
                    ("score_fp", pa.int64()),
                    ("nterms", pa.int64()),
                ]
            ),
            pa.schema([("doc_id", pa.int64()), ("rank_fp", pa.int64())]),
        ),
    )

    def fuse(t: pa.Table) -> pa.Table:
        sc = t["score_fp"].to_numpy(zero_copy_only=False).astype(np.int64)
        pr = t["rank_fp"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "query_id": t["query_id"].cast(pa.int64()),
                "doc_id": t["doc_id"].cast(pa.int64()),
                "fused_fp": pa.array(sc * (pr + 1), pa.int64()),
            }
        )

    return topk_per_key(
        joined.map_batches(fuse, batch_format="pyarrow"),
        "query_id",
        [("fused_fp", "descending"), ("doc_id", "ascending")],
        TOP_K,
        ["doc_id", "fused_fp"],
        rank="rank",
    )


# --- commit diff (change data capture between commit points) -----------------
# The replication primitive the backup/sync story needs: which docs an
# LSM index ADDED / UPDATED / REMOVED between two commit points, derived
# from the segments alone (doc tables + scoped tombstones), never by
# re-reading the corpus. Fixture: the atomic-update index (base commit,
# upsert commit) plus one delete-only commit removing doc_id % 97 == 3.
CDC_DELETE_MOD, CDC_DELETE_RES = 97, 3


def index_for_cdc(sf_dir: str) -> IndexPaths:
    """atomic fixture + a delete-only third commit (the CDC window)."""
    import numpy as np

    from harvester_ray.index.maintenance import (
        delete_where,
        load_tombstones_scoped,
    )

    key = hashlib.md5(
        f"{os.path.abspath(sf_dir)}:{ENGINE_VERSION}:cdc".encode()
    ).hexdigest()[:16]
    out = os.path.join(cache_root(), f"idx_{key}")
    paths = IndexPaths(out)
    if os.path.exists(paths.stats) and len(
        load_tombstones_scoped(out)
    ) >= 2:
        return paths
    import shutil

    base = index_for_atomic(sf_dir)
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(base.root, tmp)
    os.rename(tmp, out)
    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    def pred(t: pa.Table) -> pa.Array:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.array(ids % CDC_DELETE_MOD == CDC_DELETE_RES)

    delete_where(out, docs, pred)
    return paths


def commit_diff(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, change) for every doc whose live state differs between
    commit point 1 (the pristine base) and the live view — change in
    {'added', 'updated', 'removed'}; unchanged docs emit nothing.

    Scale shape: each source's doc table streams ONCE per snapshot
    side with a per-batch tombstone anti-filter (tombstones are
    bounded by the CDC window's deletes — the small side by
    construction), all sides union into ONE doc_id-keyed groupby of
    three int8 flags, and the classifier is a map. No corpus read, no
    text moves — segments only."""
    import numpy as np

    from ray.data.aggregate import Max

    from harvester_ray.index.maintenance import (
        deleted_for_source,
        source_dirs,
    )

    paths = index_for_cdc(sf_dir)
    srcs = source_dirs(paths.root)
    n = len(srcs)

    def tagger(dead: np.ndarray, in1: int, in2: int, upd: int):
        # one ray.put per stream: the dead set (CDC-window deletes,
        # ~1% of the corpus here) ships to the object store once, not
        # once per read task (the atomic_update pattern)
        dead_ref = ray.put(dead) if len(dead) else None

        def fn(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            if dead_ref is not None:
                ids = ids[~np.isin(ids, ray.get(dead_ref))]
            k = len(ids)
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "in1": pa.array(np.full(k, in1, np.int8)),
                    "in2": pa.array(np.full(k, in2, np.int8)),
                    "upd": pa.array(np.full(k, upd, np.int8)),
                }
            )

        return fn

    streams = [
        # snapshot at commit 1: base source, tombstones seq < 1 (none)
        ray.data.read_parquet(
            IndexPaths(srcs[0]).doc_table, columns=["doc_id"]
        ).map_batches(
            tagger(deleted_for_source(paths.root, 0, as_of=1), 1, 0, 0),
            batch_format="pyarrow",
        )
    ]
    for i, src in enumerate(srcs):  # live view: every source, all stones
        streams.append(
            ray.data.read_parquet(
                IndexPaths(src).doc_table, columns=["doc_id"]
            ).map_batches(
                tagger(
                    deleted_for_source(paths.root, i, as_of=n + 1),
                    0,
                    1,
                    1 if i >= 1 else 0,
                ),
                batch_format="pyarrow",
            )
        )
    unioned = streams[0]
    for s in streams[1:]:
        unioned = unioned.union(s)
    flags = unioned.groupby("doc_id").aggregate(
        Max("in1", alias_name="in1"),
        Max("in2", alias_name="in2"),
        Max("upd", alias_name="upd"),
    )

    def classify(t: pa.Table) -> pa.Table:
        in1 = t["in1"].to_numpy(zero_copy_only=False).astype(np.int8)
        in2 = t["in2"].to_numpy(zero_copy_only=False).astype(np.int8)
        upd = t["upd"].to_numpy(zero_copy_only=False).astype(np.int8)
        change = np.where(
            (in1 == 1) & (in2 == 0),
            "removed",
            np.where(
                (in1 == 0) & (in2 == 1),
                "added",
                np.where(upd == 1, "updated", ""),
            ),
        )
        keep = change != ""
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()).filter(
                    pa.array(keep)
                ),
                "change": pa.array(change[keep], pa.string()),
            }
        )

    return flags.map_batches(classify, batch_format="pyarrow")


def index_backup(sf_dir: str) -> pa.Table:
    """Rows-only gate entry for the backup surface (state/backup.py):
    snapshot the corpus index, fsck the snapshot, and return its
    manifest listing (relpath, size) — deterministic for a given
    build, idempotent across runs (same fingerprint -> same snapshot).
    A restore rank-parity check lives in tests/test_backup.py; this
    entry keeps the ops path exercised under the driver gate."""
    from harvester_ray.state.backup import backup_index, verify_backup

    paths = index_for(sf_dir)
    snaps = os.path.join(cache_root(), "backups_" + hashlib.md5(
        f"{os.path.abspath(sf_dir)}:{ENGINE_VERSION}".encode()
    ).hexdigest()[:12])
    snap = backup_index(paths.root, snaps)
    chk = verify_backup(snap)
    if not chk["ok"]:
        raise RuntimeError(f"backup failed fsck: {chk}")
    import json as _json

    with open(os.path.join(snap, "_backup.json")) as f:
        m = _json.load(f)
    files = sorted(m["files"], key=lambda e: e["rel"])
    return pa.table(
        {
            "rel": pa.array([e["rel"] for e in files], pa.string()),
            "size": pa.array(
                [int(e["size"]) for e in files], pa.int64()
            ),
        }
    )
