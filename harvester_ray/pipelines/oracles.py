"""DuckDB oracle SQL for every SQL-expressible queries() entry.

Contracts shared with the Ray pipelines (same column names, same
rounding, same ranking rules — see relational.py / fulltext.py):

- tokenizer:      regexp_extract_all(lower(text), '[a-z0-9]+')
- BM25:           idf = ln(1 + (N - df + 0.5)/(df + 0.5)); N counts ALL
                  docs; avgdl = total_tokens / N; k1 = 1.2, b = 0.75
- ranking:        ORDER BY round(score, 6) DESC, doc_id ASC
- float columns:  fixed-point at the ROW (BIGINT of value*10^4,
                  half-up), then INTEGER sums — float sums are not
                  associative and cross fixed-point boundaries at
                  scale (sum-of-fp, not fp-of-sum, on both sides)
"""

from __future__ import annotations

from harvester_ray.index.build import BM25_B as _B
from harvester_ray.index.build import BM25_K1 as _K1
from harvester_ray.pipelines.fulltext import TOP_K, queries_for_mode
from harvester_ray.pipelines.relational import (
    ANN_QUERY_VEC_ID,
    ANN_TOP_K,
    SESSION_GAP_MIN,
    STOPWORDS,
)

_TOKS = (
    "SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term "
    "FROM documents"
)

TERM_DICTIONARY = f"""
WITH toks AS ({_TOKS})
SELECT term, count(DISTINCT doc_id) AS df, count(*) AS cf
FROM toks GROUP BY term
"""

POSTINGS = f"""
WITH toks AS ({_TOKS})
SELECT term, doc_id, count(*) AS tf
FROM toks GROUP BY term, doc_id
"""

DOC_STATS = f"""
WITH toks AS ({_TOKS})
SELECT doc_id, count(*) AS doc_len
FROM toks GROUP BY doc_id
"""


# per-posting score expressions shared (as SQL) with the engine's
# scorers: bm25 <-> build.bm25_score, tfidf <-> query.tfidf_score
_SCORE_EXPRS = {
    "bm25": f"""ln(1 + ((SELECT n FROM corpus) - d.df + 0.5) / (d.df + 0.5))
              * (p.tf * {_K1 + 1.0})
              / (p.tf + {_K1} * ({1.0 - _B} + {_B} * l.dl
                                 / (SELECT avgdl FROM corpus)))""",
    "tfidf": """(1 + ln(p.tf))
              * ln(((SELECT n FROM corpus) + 1) / (d.df + 1))
              / sqrt(l.dl)""",
}


# the corpus CTE stack every BM25-shaped oracle shares — single-source
# so the scoring definition cannot drift between entries
_CORPUS_CTES = f"""toks AS ({_TOKS}),
postings AS (SELECT term, doc_id, count(*) AS tf FROM toks GROUP BY term, doc_id),
doclen AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
corpus AS (SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
                  (SELECT count(*) FROM toks)::DOUBLE
                    / (SELECT count(*) FROM documents) AS avgdl),
dict AS (SELECT term, count(*)::DOUBLE AS df FROM postings GROUP BY term)"""


# the shared fixed-point scored-match-set CTE body (sc) — identical
# text in every full-match-set oracle so the scoring rule cannot drift
_SC_CTE = f"""sc AS (
  SELECT q.query_id, p.doc_id,
         sum(CAST(floor(( {_SCORE_EXPRS["bm25"]} ) * {{fp8}} + 0.5)
             AS BIGINT)) AS score_fp
  FROM q
  JOIN postings p USING (term)
  JOIN dict d USING (term)
  JOIN doclen l USING (doc_id)
  GROUP BY q.query_id, p.doc_id
)"""


def _or_query_values() -> str:
    """(query_id, term) VALUES rows for the OR-mode reference query set
    — the expansion every full-match-set oracle starts from."""
    from harvester_ray.functions.text import tokenize

    pairs = []
    for qid, q in queries_for_mode("or"):
        pairs.extend(f"({qid}, '{t}')" for t in sorted(set(tokenize(q))))
    return ", ".join(pairs)


def _bm25_sql(mode: str, weighting: str = "bm25", page: int = 1) -> str:
    from harvester_ray.functions.text import tokenize

    pairs = []
    for qid, q in queries_for_mode(mode):
        terms = sorted(set(tokenize(q)))
        pairs.extend(f"({qid}, '{t}')" for t in terms)
    values = ", ".join(pairs)
    and_having = (
        "HAVING count(DISTINCT p.term) = "
        "(SELECT count(*) FROM q q2 WHERE q2.query_id = q.query_id)"
        if mode == "and"
        else ""
    )
    return f"""
WITH {_CORPUS_CTES},
q(query_id, term) AS (VALUES {values}),
scored AS (
  SELECT q.query_id, p.doc_id,
         sum( {_SCORE_EXPRS[weighting]} ) AS score
  FROM q
  JOIN postings p USING (term)
  JOIN dict d USING (term)
  JOIN doclen l USING (doc_id)
  GROUP BY q.query_id, p.doc_id
  {and_having}
),
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id ASC) AS rank
  FROM scored
)
{_page_tail(page)}
"""


def _page_tail(page: int) -> str:
    """Final SELECT for page ``page`` of TOP_K-sized result pages —
    page 2 gates the engine's search-after cursor path (ranks re-based
    to 1..TOP_K, matching the cursor semantics)."""
    if page == 1:
        return f"SELECT query_id, rank, doc_id FROM ranked WHERE rank <= {TOP_K}"
    off = (page - 1) * TOP_K
    return (
        f"SELECT query_id, (rank - {off}) AS rank, doc_id FROM ranked "
        f"WHERE rank > {off} AND rank <= {off + TOP_K}"
    )


BM25_TOPK_OR = _bm25_sql("or")
BM25_TOPK_AND = _bm25_sql("and")
TFIDF_TOPK = _bm25_sql("or", weighting="tfidf")
SEARCH_AFTER_PAGE2 = _bm25_sql("or", page=2)


def _expansion_sql(expanded_cte: str, extra_values: str) -> str:
    """Shared scaffold for dictionary-expansion queries: the standard
    index CTEs + a caller-provided ``q(query_id, term)`` expansion +
    the BM25 scored/ranked tail (same ranking rule as _bm25_sql)."""
    return f"""
WITH {_CORPUS_CTES},
{extra_values},
q AS ({expanded_cte}),
scored AS (
  SELECT q.query_id, p.doc_id,
         sum( {_SCORE_EXPRS["bm25"]} ) AS score
  FROM q
  JOIN postings p USING (term)
  JOIN dict d USING (term)
  JOIN doclen l USING (doc_id)
  GROUP BY q.query_id, p.doc_id
),
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id ASC) AS rank
  FROM scored
)
SELECT query_id, rank, doc_id FROM ranked WHERE rank <= {TOP_K}
"""


def _prefix_sql() -> str:
    from harvester_ray.pipelines.fulltext import PREFIX_CAP, PREFIX_SET

    values = ", ".join(f"({qid}, '{p}')" for qid, p in PREFIX_SET)
    return _expansion_sql(
        f"""SELECT query_id, term FROM (
      SELECT qp.query_id, d.term,
             row_number() OVER (PARTITION BY qp.query_id
                                ORDER BY d.df DESC, d.term ASC) AS rn
      FROM qp JOIN dict d ON d.term LIKE qp.prefix || '%'
    ) WHERE rn <= {PREFIX_CAP}""",
        f"qp(query_id, prefix) AS (VALUES {values})",
    )


def _fuzzy_sql() -> str:
    from harvester_ray.functions.text import tokenize
    from harvester_ray.pipelines.fulltext import FUZZY_SET

    pairs = []
    for qid, qs in FUZZY_SET:
        pairs.extend(
            f"({qid}, '{tok}')" for tok in sorted(set(tokenize(qs)))
        )
    values = ", ".join(pairs)
    return _expansion_sql(
        "SELECT DISTINCT qt.query_id, d.term "
        "FROM qt JOIN dict d ON levenshtein(d.term, qt.qterm) <= 1",
        f"qt(query_id, qterm) AS (VALUES {values})",
    )


def _did_you_mean_sql() -> str:
    from harvester_ray.pipelines.fulltext import SUGGEST_SET

    values = ", ".join(f"({qid}, '{t}')" for qid, t in SUGGEST_SET)
    return f"""
WITH toks AS ({_TOKS}),
dict AS (SELECT term, count(*) AS cf FROM toks GROUP BY term),
qt(query_id, qterm) AS (VALUES {values}),
cand AS (
  SELECT qt.query_id, qt.qterm, d.term AS suggestion, d.cf,
         levenshtein(d.term, qt.qterm) AS dist
  FROM qt CROSS JOIN dict d
),
best AS (
  SELECT query_id, qterm, suggestion, dist,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY dist ASC, cf DESC, suggestion ASC) AS rn
  FROM cand WHERE dist <= 2
)
SELECT query_id, qterm, suggestion, dist::BIGINT AS dist
FROM best WHERE rn = 1
"""


PREFIX_SEARCH = _prefix_sql()
FUZZY_SEARCH = _fuzzy_sql()
DID_YOU_MEAN = _did_you_mean_sql()


def _snippet_sql() -> str:
    """Best anchored snippet window per (query, BM25-top-k doc) —
    shared contract with index/positional.py snippet_windows_multi:
    1-based token positions, w consecutive tokens, anchors at query-
    term matches, max distinct terms then min start."""
    from harvester_ray.functions.text import tokenize
    from harvester_ray.pipelines.fulltext import SNIPPET_W

    qpairs = []
    all_terms = set()
    for qid, q in queries_for_mode("or"):
        terms = sorted(set(tokenize(q)))
        all_terms.update(terms)
        qpairs.extend(f"({qid}, '{t}')" for t in terms)
    values = ", ".join(qpairs)
    tpos_branches = "\nUNION ALL\n".join(
        f"SELECT doc_id, '{t}' AS term,\n"
        f"       unnest([j FOR j IN range(1, len(ts) + 1) "
        f"IF ts[j] = '{t}']) AS i\nFROM tk"
        for t in sorted(all_terms)
    )
    return f"""
WITH toks AS ({_TOKS}),
tk AS (
  SELECT doc_id, regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS ts
  FROM documents
),
postings AS (SELECT term, doc_id, count(*) AS tf FROM toks GROUP BY term, doc_id),
doclen AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
corpus AS (SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
                  (SELECT count(*) FROM toks)::DOUBLE
                    / (SELECT count(*) FROM documents) AS avgdl),
dict AS (SELECT term, count(*)::DOUBLE AS df FROM postings GROUP BY term),
q(query_id, term) AS (VALUES {values}),
scored AS (
  SELECT q.query_id, p.doc_id,
         sum( {_SCORE_EXPRS["bm25"]} ) AS score
  FROM q
  JOIN postings p USING (term)
  JOIN dict d USING (term)
  JOIN doclen l USING (doc_id)
  GROUP BY q.query_id, p.doc_id
),
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id ASC) AS rank
  FROM scored
),
tpos AS (
{tpos_branches}
),
anchors AS (
  SELECT q.query_id, p.doc_id, p.i AS s
  FROM q JOIN tpos p USING (term)
),
cand AS (
  SELECT a.query_id, a.doc_id, a.s, count(DISTINCT p2.term) AS n_terms
  FROM anchors a
  JOIN q q2 ON q2.query_id = a.query_id
  JOIN tpos p2 ON p2.term = q2.term AND p2.doc_id = a.doc_id
              AND p2.i BETWEEN a.s AND a.s + {SNIPPET_W - 1}
  GROUP BY a.query_id, a.doc_id, a.s
),
best AS (
  SELECT query_id, doc_id, s, n_terms,
         row_number() OVER (PARTITION BY query_id, doc_id
                            ORDER BY n_terms DESC, s ASC) AS rn
  FROM cand
)
SELECT r.query_id, r.doc_id, b.s AS start, b.n_terms
FROM ranked r
JOIN best b ON b.query_id = r.query_id AND b.doc_id = r.doc_id AND b.rn = 1
WHERE r.rank <= {TOP_K}
"""


SNIPPET_TOPK = _snippet_sql()


def _bm25_not_sql() -> str:
    """OR-mode BM25 with per-query exclusion: a doc containing ANY
    negative term is dropped before top-k (anti-join), matching
    query.py search(exclude=...)."""
    from harvester_ray.functions.text import tokenize
    from harvester_ray.pipelines.fulltext import NOT_SET

    pos_pairs, neg_pairs = [], []
    for qid, q, ex in NOT_SET:
        pos = sorted(set(tokenize(q)))
        neg = sorted(set(tokenize(ex)) - set(pos))
        pos_pairs.extend(f"({qid}, '{t}')" for t in pos)
        neg_pairs.extend(f"({qid}, '{t}')" for t in neg)
    return f"""
WITH {_CORPUS_CTES},
q(query_id, term) AS (VALUES {", ".join(pos_pairs)}),
nq(query_id, term) AS (VALUES {", ".join(neg_pairs)}),
excl AS (
  SELECT DISTINCT nq.query_id, p.doc_id
  FROM nq JOIN postings p USING (term)
),
scored AS (
  SELECT q.query_id, p.doc_id,
         sum( {_SCORE_EXPRS["bm25"]} ) AS score
  FROM q
  JOIN postings p USING (term)
  JOIN dict d USING (term)
  JOIN doclen l USING (doc_id)
  GROUP BY q.query_id, p.doc_id
),
kept AS (
  SELECT s.query_id, s.doc_id, s.score
  FROM scored s
  LEFT JOIN excl e ON e.query_id = s.query_id AND e.doc_id = s.doc_id
  WHERE e.doc_id IS NULL
),
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id ASC) AS rank
  FROM kept
)
SELECT query_id, rank, doc_id FROM ranked WHERE rank <= {TOP_K}
"""


BM25_TOPK_NOT = _bm25_not_sql()


def _search_facets_sql() -> str:
    values = _or_query_values()
    return f"""
WITH toks AS ({_TOKS}),
postings AS (SELECT term, doc_id FROM toks GROUP BY term, doc_id),
q(query_id, term) AS (VALUES {values}),
m AS (SELECT DISTINCT q.query_id, p.doc_id FROM q JOIN postings p USING (term))
SELECT m.query_id, d.source, count(*) AS n_docs
FROM m JOIN documents d USING (doc_id)
GROUP BY m.query_id, d.source
"""


SEARCH_FACETS = _search_facets_sql()


def _search_facets_sharded_sql() -> str:
    """Unsharded ground truth for the two-phase distributed facet
    protocol: full facet counts, then each query's top-K buckets by
    (n_docs DESC, source ASC) — the router's exact-refined merge must
    reproduce this bit for bit."""
    from harvester_ray.pipelines.fulltext import FACET_SHARDED_K

    values = _or_query_values()
    return f"""
WITH toks AS ({_TOKS}),
postings AS (SELECT term, doc_id FROM toks GROUP BY term, doc_id),
q(query_id, term) AS (VALUES {values}),
m AS (SELECT DISTINCT q.query_id, p.doc_id FROM q JOIN postings p USING (term)),
counts AS (
  SELECT m.query_id, d.source, count(*) AS n_docs
  FROM m JOIN documents d USING (doc_id)
  GROUP BY m.query_id, d.source
),
ranked AS (
  SELECT query_id, source, n_docs,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY n_docs DESC, source ASC) AS bucket_rank
  FROM counts
)
SELECT query_id, bucket_rank, source, n_docs
FROM ranked WHERE bucket_rank <= {FACET_SHARDED_K}
"""


SEARCH_FACETS_SHARDED = _search_facets_sharded_sql()


def _collapse_sql() -> str:
    """Field collapsing: per-posting BM25 fixed-pointed at 1e-8 BEFORE
    the sum (integer sums are order-independent on both engines), top-1
    doc per (query, source), top-COLLAPSE_K groups per query."""
    from harvester_ray.pipelines.fulltext import COLLAPSE_K, _FP8

    values = _or_query_values()
    return f"""
WITH {_CORPUS_CTES},
q(query_id, term) AS (VALUES {values}),
{_SC_CTE.format(fp8=_FP8)},
j AS (SELECT sc.query_id, sc.doc_id, sc.score_fp, d2.source
      FROM sc JOIN documents d2 USING (doc_id)),
reps AS (
  SELECT query_id, source, doc_id, score_fp,
         row_number() OVER (PARTITION BY query_id, source
                            ORDER BY score_fp DESC, doc_id ASC) AS rn
  FROM j
),
granked AS (
  SELECT query_id, source, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score_fp DESC, doc_id ASC) AS grp_rank
  FROM reps WHERE rn = 1
)
SELECT query_id, grp_rank, source, doc_id
FROM granked WHERE grp_rank <= {COLLAPSE_K}
"""


COLLAPSE_TOPK = _collapse_sql()


def _more_like_this_sql() -> str:
    from harvester_ray.pipelines.fulltext import MLT_SET, MLT_TERMS

    values = ", ".join(f"({qid}, {did})" for qid, did in MLT_SET)
    return f"""
WITH {_CORPUS_CTES},
src(query_id, src_doc) AS (VALUES {values}),
src_tf AS (
  SELECT s.query_id, t.term, count(*) AS tf
  FROM src s JOIN toks t ON t.doc_id = s.src_doc
  GROUP BY s.query_id, t.term
),
mlt AS (
  SELECT query_id, term,
         row_number() OVER (PARTITION BY query_id
           ORDER BY round(tf * ln(1 + ((SELECT n FROM corpus) - d.df + 0.5)
                                      / (d.df + 0.5)), 6) DESC,
                    term ASC) AS rn
  FROM src_tf JOIN dict d USING (term)
),
q AS (SELECT query_id, term FROM mlt WHERE rn <= {MLT_TERMS}),
scored AS (
  SELECT q.query_id, p.doc_id,
         sum( {_SCORE_EXPRS["bm25"]} ) AS score
  FROM q
  JOIN postings p USING (term)
  JOIN dict d USING (term)
  JOIN doclen l USING (doc_id)
  GROUP BY q.query_id, p.doc_id
),
ranked AS (
  SELECT sc.query_id, sc.doc_id,
         row_number() OVER (PARTITION BY sc.query_id
                            ORDER BY round(sc.score, 6) DESC,
                                     sc.doc_id ASC) AS rank
  FROM scored sc JOIN src USING (query_id)
  WHERE sc.doc_id != src.src_doc
)
SELECT query_id, rank, doc_id FROM ranked WHERE rank <= {TOP_K}
"""


MORE_LIKE_THIS = _more_like_this_sql()

DEDUP_EXACT = """
SELECT min(doc_id) AS doc_id FROM documents GROUP BY md5(text)
"""

_STOP_LIST = ", ".join(f"'{s}'" for s in STOPWORDS)

TEXT_STATS = f"""
SELECT doc_id,
       len(regexp_extract_all(lower(text), '[a-z0-9]+'))::BIGINT AS n_tokens,
       len(list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'),
                       x -> x IN ({_STOP_LIST})))::BIGINT AS n_stop
FROM documents
"""

LANG_SOURCE_COUNTS = """
SELECT lang, source, count(*) AS n_docs, sum(n_chars)::BIGINT AS sum_chars
FROM documents GROUP BY lang, source
"""

TOP_DOCS_BY_CHARS = """
SELECT doc_id, n_chars FROM documents
ORDER BY n_chars DESC, doc_id ASC LIMIT 20
"""

Q1_PRICING = """
SELECT l_returnflag, l_linestatus,
       SUM(CAST(floor(l_quantity * 10000 + 0.5) AS BIGINT))::BIGINT AS sum_qty,
       SUM(CAST(floor(l_extendedprice * 10000 + 0.5) AS BIGINT))::BIGINT AS sum_base,
       SUM(CAST(floor(l_extendedprice * (1 - l_discount) * 10000 + 0.5) AS BIGINT))::BIGINT AS sum_disc_price,
       count(*) AS n_rows
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-01'
GROUP BY l_returnflag, l_linestatus
"""

Q3_TOP_ORDERS = """
SELECT o_orderkey,
       SUM(CAST(floor(l_extendedprice * (1 - l_discount) * 10000 + 0.5) AS BIGINT))::BIGINT AS revenue
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
GROUP BY o_orderkey
ORDER BY revenue DESC, o_orderkey ASC
LIMIT 10
"""

REGION_CUSTOMER_STATS = """
SELECT r_name, count(*) AS n_customers, SUM(CAST(floor(c_acctbal * 10000 + 0.5) AS BIGINT))::BIGINT AS sum_acctbal
FROM customer
JOIN nation ON c_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""

ORDERS_PRIORITY_COUNT = """
SELECT o_orderpriority, count(*) AS n FROM orders GROUP BY o_orderpriority
"""

DISTINCT_SEGMENTS = """
SELECT DISTINCT c_mktsegment FROM customer
"""

PART_TYPE_STATS = """
SELECT p_type, count(*) AS n_parts, CAST(floor(SUM(CAST(floor(p_retailprice * 10000 + 0.5) AS BIGINT)) / count(*) + 0.5) AS BIGINT) AS avg_price
FROM part GROUP BY p_type
"""

EVENTS_HOURLY = """
SELECT event_type, date_trunc('hour', ts) AS hour,
       count(*) AS n, SUM(CAST(floor(value * 10000 + 0.5) AS BIGINT))::BIGINT AS sum_value
FROM events GROUP BY event_type, hour
"""

# funnel: nested min-filters ARE the greedy earliest chain (exists an
# ordered chain iff the greedy chain succeeds); the outer c > 0 filter
# mirrors the engine, which emits no row for an empty stage
def _funnel_counts_sql() -> str:
    from harvester_ray.pipelines.relational import FUNNEL_STEPS

    ctes, prev = [], None
    for i, step in enumerate(FUNNEL_STEPS, start=1):
        if prev is None:
            ctes.append(
                f"f{i} AS (SELECT user_id, min(ts) AS t FROM events "
                f"WHERE event_type = '{step}' GROUP BY user_id)"
            )
        else:
            ctes.append(
                f"f{i} AS (SELECT e.user_id, min(e.ts) AS t FROM events e "
                f"JOIN {prev} USING (user_id) "
                f"WHERE e.event_type = '{step}' AND e.ts > {prev}.t "
                "GROUP BY e.user_id)"
            )
        prev = f"f{i}"
    unions = "\nUNION ALL\n".join(
        f"SELECT {i} AS stage, '{step}' AS event_type, c AS n_users "
        f"FROM (SELECT count(*)::BIGINT AS c FROM f{i}) WHERE c > 0"
        for i, step in enumerate(FUNNEL_STEPS, start=1)
    )
    return "WITH " + ",\n".join(ctes) + "\n" + unions


FUNNEL_COUNTS = _funnel_counts_sql()

RETENTION_COHORTS = """
WITH d AS (SELECT user_id, epoch_us(ts) // 86400000000 AS day FROM events),
c AS (SELECT user_id, min(day) AS cohort_day FROM d GROUP BY user_id)
SELECT c.cohort_day, d.day - c.cohort_day AS offset_days,
       count(DISTINCT d.user_id)::BIGINT AS n_users
FROM d JOIN c USING (user_id)
GROUP BY 1, 2
"""

EVENTS_SESSIONS = f"""
WITH e AS (
  SELECT user_id, event_id, ts,
         lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_ts
  FROM events
),
s AS (
  SELECT user_id, event_id,
         sum(CASE WHEN prev_ts IS NULL
                    OR ts - prev_ts > INTERVAL {SESSION_GAP_MIN} MINUTE
                  THEN 1 ELSE 0 END)
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS UNBOUNDED PRECEDING) AS session_id
  FROM e
)
SELECT user_id, session_id::BIGINT AS session_id, count(*) AS n_events
FROM s GROUP BY user_id, session_id
"""

ANN_COSINE_TOPK = f"""
WITH qv AS (SELECT embedding::DOUBLE[] AS q FROM embeddings
            WHERE vec_id = {ANN_QUERY_VEC_ID}),
s AS (SELECT vec_id,
             list_cosine_similarity(embedding::DOUBLE[], (SELECT q FROM qv)) AS sim
      FROM embeddings),
r AS (SELECT vec_id,
             row_number() OVER (ORDER BY round(sim, 6) DESC, vec_id ASC) AS rank
      FROM s)
SELECT rank, vec_id FROM r WHERE rank <= {ANN_TOP_K}
"""


ORDERS_YEAR_COUNTS = """
SELECT year(o_orderdate)::BIGINT AS o_year, count(*) AS n_orders,
       SUM(CAST(floor(o_totalprice * 10000 + 0.5) AS BIGINT))::BIGINT AS sum_total
FROM orders GROUP BY o_year
"""

ORDERS_DECADE_FACETS = """
SELECT ((year(o_orderdate) // 10) * 10)::VARCHAR || 's' AS decade, count(*) AS n
FROM orders GROUP BY decade
"""

EVENTS_PROPS_SUM = """
SELECT event_type, count(*) AS n,
       sum(coalesce(json_extract(props, '$.k')::BIGINT, 0))::BIGINT AS sum_k
FROM events GROUP BY event_type
"""

# Mirrors functions.text.normalize_sort_text == the reference's
# normalize_sort_field (solr_updater.py:561-573): article drop is by
# FIRST WORD (a bare 'the'/'a'/'an' → empty → sentinel); whitespace
# collapses only via the article-drop rejoin; 'title unknown'
# (missing_equivalents) also maps to the sentinel.
PART_SORT_NAMES = """
WITH s1 AS (
  SELECT p_partkey,
         regexp_replace(lower(p_name), '[^0-9a-z \t\n\r]+', '', 'g') AS s
  FROM part
),
s2 AS (
  SELECT p_partkey,
         CASE WHEN regexp_matches(s, '^[ \t\n\r]*(the|a|an)([ \t\n\r]|$)')
              THEN coalesce(array_to_string(
                     list_filter(regexp_split_to_array(s, '[ \t\n\r]+'),
                                 x -> x <> '')[2:], ' '), '')
              ELSE s END AS s
  FROM s1
)
SELECT p_partkey,
       CASE WHEN s = '' OR s = 'title unknown'
            THEN '~title unknown' ELSE s END AS sort_name
FROM s2
"""


# Mirrors reference_ops.normalize_type (solr_updater.py:388-418):
# exact DCMI terms pass; 'physical'/'moving' substrings map; the rest
# pass through for facet visibility.
_DCMI_LIST = ", ".join(
    f"'{t}'"
    for t in (
        "collection", "dataset", "event", "image", "interactive resource",
        "moving image", "service", "software", "sound", "text",
        "physical object",
    )
)

PART_NORMALIZED_TYPES = f"""
SELECT p_partkey,
       CASE WHEN p_type IN ({_DCMI_LIST}) THEN p_type
            WHEN lower(p_type) LIKE '%physical%' THEN 'physical object'
            WHEN lower(p_type) LIKE '%moving%' THEN 'moving image'
            ELSE p_type END AS norm_type
FROM part
"""

LINEITEM_UNION_COUNTS = """
SELECT l_returnflag, count(*) AS n FROM (
  SELECT l_returnflag FROM lineitem WHERE l_shipdate < TIMESTAMP '1996-01-01'
  UNION ALL
  SELECT l_returnflag FROM lineitem WHERE l_shipdate >= TIMESTAMP '1996-01-01'
) GROUP BY l_returnflag
"""

EMBEDDING_NORMS = """
SELECT vec_id,
       CAST(floor((sqrt(list_sum(list_transform(embedding::DOUBLE[], x -> x * x)))) * 10000 + 0.5) AS BIGINT) AS l2_norm
FROM embeddings
"""


def _dedup_embedding_sql() -> str:
    from harvester_ray.stages.dedup import EMB_DUP_TAU

    tau_fp = int(round(EMB_DUP_TAU * 1_000_000))
    return f"""
WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
p AS (SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b,
             CAST(floor(list_dot_product(a.v, b.v) /
                  (sqrt(list_dot_product(a.v, a.v)) *
                   sqrt(list_dot_product(b.v, b.v)))
                  * 1000000 + 0.5) AS BIGINT) AS sim_r6
      FROM e a JOIN e b ON a.vec_id < b.vec_id)
SELECT vec_id_a, vec_id_b, sim_r6 FROM p WHERE sim_r6 >= {tau_fp}
"""


DEDUP_EMBEDDING = _dedup_embedding_sql()


def _quality_score_sql() -> str:
    from harvester_ray.stages.textstats import _LANG_PROFILES

    stops = ", ".join(f"'{s}'" for s in sorted(_LANG_PROFILES["en"]))
    return f"""
WITH toks AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS ts
  FROM documents
),
feat AS (
  SELECT doc_id,
         len(ts)::BIGINT AS n_tokens,
         len(list_distinct(ts))::BIGINT AS n_uniq_tokens,
         len(list_filter(ts, t -> list_contains([{stops}], t)))::BIGINT AS n_stop,
         coalesce(list_sum(list_transform(ts, t -> length(t))), 0)::BIGINT AS sum_len,
         greatest(len(ts), 1)::BIGINT AS safe
  FROM toks
)
SELECT doc_id, n_tokens, n_uniq_tokens,
       CAST(floor(n_stop / safe * 1000000 + 0.5) AS BIGINT) AS stop_ratio_r6,
       CAST(floor(sum_len / safe * 1000000 + 0.5) AS BIGINT) AS mean_token_len_r6,
       CAST(floor((least(n_tokens / 100.0, 1) * 0.4
                   + least(n_stop / safe * 5.0, 1) * 0.3
                   + least(n_uniq_tokens / safe, 1) * 0.3)
                  * 1000000 + 0.5) AS BIGINT) AS score_r6
FROM feat
"""


QUALITY_SCORE = _quality_score_sql()


def _quality_filter_reasons_sql() -> str:
    """Per-reason reject histogram twin: the same four integer-rational
    rules as stages/textstats.quality_filter_reasons (thresholds are
    exact rationals so numpy and DuckDB cannot disagree on an edge),
    every reason row materialized via a VALUES spine so zero counts
    appear on both sides."""
    from harvester_ray.stages.textstats import _LANG_PROFILES

    stops = ", ".join(f"'{s}'" for s in sorted(_LANG_PROFILES["en"]))
    return f"""
WITH toks AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS ts
  FROM documents
),
tok_rows AS (SELECT doc_id, unnest(ts) AS tok FROM toks),
top_tok AS (
  SELECT doc_id, max(c) AS top FROM (
    SELECT doc_id, tok, count(*) AS c FROM tok_rows GROUP BY doc_id, tok
  ) GROUP BY doc_id
),
feat AS (
  SELECT t.doc_id,
         len(ts)::BIGINT AS n,
         len(list_distinct(ts))::BIGINT AS u,
         len(list_filter(ts, x -> list_contains([{stops}], x)))::BIGINT AS st,
         coalesce(tt.top, 0)::BIGINT AS top
  FROM toks t LEFT JOIN top_tok tt USING (doc_id)
),
flags AS (
  SELECT doc_id,
         (n < 20)          AS too_short,
         (st * 50 < n)     AS low_stopword,
         (top * 20 > n * 3) AS high_repetition,
         (u * 20 < n * 7)  AS low_diversity
  FROM feat
),
reasons(reason) AS (VALUES ('too_short'), ('low_stopword'),
                          ('high_repetition'), ('low_diversity'), ('kept')),
hits AS (
  SELECT 'too_short' AS reason, count(*) FILTER (too_short) AS n_docs FROM flags
  UNION ALL
  SELECT 'low_stopword', count(*) FILTER (low_stopword) FROM flags
  UNION ALL
  SELECT 'high_repetition', count(*) FILTER (high_repetition) FROM flags
  UNION ALL
  SELECT 'low_diversity', count(*) FILTER (low_diversity) FROM flags
  UNION ALL
  SELECT 'kept', count(*) FILTER (NOT (too_short OR low_stopword
                                       OR high_repetition OR low_diversity))
  FROM flags
)
SELECT r.reason, coalesce(h.n_docs, 0)::BIGINT AS n_docs
FROM reasons r LEFT JOIN hits h USING (reason)
"""


QUALITY_FILTER_REASONS = _quality_filter_reasons_sql()


def _lang_id_sql() -> str:
    from harvester_ray.stages.textstats import _LANG_PROFILES

    langs = list(_LANG_PROFILES)  # insertion order = argmax tie order

    def stop_list(lang: str) -> str:
        return ", ".join(f"'{s}'" for s in sorted(_LANG_PROFILES[lang]))

    ratio_cols = ",\n         ".join(
        f"len(list_filter(ts, x -> list_contains([{stop_list(lang)}], x)))"
        f" / greatest(len(ts), 1) AS r_{lang}"
        for lang in langs
    )
    best = ", ".join(f"r_{lang}" for lang in langs)
    # first-index argmax: compare in profile order against the max
    pick = " ".join(
        f"WHEN r_{lang} = best THEN '{lang}'" for lang in langs[:-1]
    )
    return f"""
WITH t AS (
  SELECT doc_id, coalesce(text, '') AS txt,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS ts
  FROM documents
),
f AS (
  SELECT doc_id,
         len(regexp_extract_all(substr(txt, 1, 200), '[一-鿿぀-ヿ가-힯]'))::BIGINT AS cjk,
         len(ts)::BIGINT AS n_tokens,
         {ratio_cols}
  FROM t
),
g AS (SELECT *, greatest({best}) AS best FROM f)
SELECT doc_id,
       CASE WHEN cjk >= 5 THEN 'zh'
            WHEN n_tokens > 0 AND best > 0.02 THEN
              CASE {pick} ELSE '{langs[-1]}' END
            ELSE 'unknown' END AS lang_pred,
       CASE WHEN cjk >= 5
              THEN CAST(floor(least(1.0, cjk / 50.0) * 1000000 + 0.5) AS BIGINT)
            WHEN n_tokens > 0
              THEN CAST(floor(best * 1000000 + 0.5) AS BIGINT)
            ELSE 0 END AS confidence_r6
FROM g
"""


LANG_ID = _lang_id_sql()


def _token_counts_sql() -> str:
    from harvester_ray.stages.textstats import BPE_TOKEN_RE

    # DuckDB regular string literals do NOT process backslash escapes,
    # so the regex must be embedded verbatim (quote-doubling only) —
    # doubling backslashes would turn \s into a literal-backslash match
    # and silently diverge from the engine on punctuation-adjacent
    # whitespace runs.
    bpe = BPE_TOKEN_RE.replace("'", "''")
    return f"""
SELECT doc_id,
       len(regexp_extract_all(coalesce(text, ''), '\\S+'))::BIGINT AS n_ws_tokens,
       len(regexp_extract_all(coalesce(text, ''), '{bpe}'))::BIGINT AS n_bpe_tokens
FROM documents
"""


TOKEN_COUNTS = _token_counts_sql()


EVENTS_ASOF_ORDERS = """
WITH j AS (
  SELECT e.event_id, o.o_orderkey, o.o_totalprice,
         row_number() OVER (PARTITION BY e.event_id
                            ORDER BY o.o_orderdate DESC, o.o_orderkey DESC)
           AS rn
  FROM events e JOIN orders o
    ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
)
SELECT event_id, o_orderkey,
       CAST(floor(o_totalprice * 10000 + 0.5) AS BIGINT) AS price_r4
FROM j WHERE rn = 1
"""

TOP_ORDERS_PER_PRIORITY = """
WITH r AS (
  SELECT o_orderpriority, o_orderkey, o_totalprice,
         row_number() OVER (PARTITION BY o_orderpriority
                            ORDER BY o_totalprice DESC, o_orderkey ASC) AS rn
  FROM orders
)
SELECT o_orderpriority, rn AS rank, o_orderkey,
       CAST(floor(o_totalprice * 10000 + 0.5) AS BIGINT) AS price_r4
FROM r WHERE rn <= 3
"""


EVENTS_WINDOW_1H = """
SELECT event_id,
       count(*) OVER w AS n_1h,
       (SUM(CAST(floor(value * 10000 + 0.5) AS BIGINT)) OVER w)::BIGINT AS sum_1h_r4
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
"""


EVENTS_ORDERS_RANGE_JOIN = """
SELECT e.event_id,
       count(o.o_custkey)::BIGINT AS n_orders_7d,
       coalesce(SUM(CAST(floor(o.o_totalprice * 10000 + 0.5) AS BIGINT)), 0)::BIGINT
         AS sum_price_7d_r4
FROM events e
LEFT JOIN orders o
  ON o.o_custkey = e.user_id
 AND o.o_orderdate BETWEEN e.ts - INTERVAL 7 DAY AND e.ts
GROUP BY e.event_id
"""


def _sample_documents_sql() -> str:
    from harvester_ray.pipelines.relational import (
        SAMPLE_PCT,
        _SAMPLE_MOD,
        _SAMPLE_MULT,
    )

    return f"""
SELECT doc_id, lang, n_chars FROM documents
WHERE (((abs(doc_id) % {_SAMPLE_MOD}) * {_SAMPLE_MULT}) % 4294967296) % 100
      < {SAMPLE_PCT}
"""


SAMPLE_DOCUMENTS = _sample_documents_sql()


def _stratified_sample_sql() -> str:
    from harvester_ray.pipelines.relational import (
        _SAMPLE_MOD,
        _SAMPLE_MULT,
    )

    return f"""
SELECT doc_id, source FROM documents
WHERE (((abs(doc_id) % {_SAMPLE_MOD}) * {_SAMPLE_MULT}) % 4294967296) % 100
      < (CASE WHEN right(source, 1) BETWEEN '0' AND '9'
              THEN 5 + CAST(right(source, 1) AS INT) ELSE 5 END)
"""


STRATIFIED_SAMPLE = _stratified_sample_sql()

EVENTS_TYPE_USERS = """
SELECT event_type,
       count(DISTINCT user_id) AS n_users,
       count(*) AS n_events
FROM events GROUP BY event_type
"""


def _ann_batch_sql(cand_where: str = "") -> str:
    from harvester_ray.pipelines.relational import (
        ANN_BATCH_QUERY_IDS,
        ANN_BATCH_TOP_K,
    )

    ids = ", ".join(str(i) for i in ANN_BATCH_QUERY_IDS)
    return f"""
WITH q AS (SELECT vec_id AS query_vec_id, embedding::DOUBLE[] AS qv
           FROM embeddings WHERE vec_id IN ({ids})),
s AS (SELECT q.query_vec_id, e.vec_id,
             round(list_cosine_similarity(e.embedding::DOUBLE[], q.qv), 6)
               AS sim
      FROM embeddings e CROSS JOIN q {cand_where}),
r AS (SELECT query_vec_id, vec_id,
             row_number() OVER (PARTITION BY query_vec_id
                                ORDER BY sim DESC, vec_id ASC) AS rank
      FROM s)
SELECT query_vec_id, rank, vec_id FROM r WHERE rank <= {ANN_BATCH_TOP_K}
"""


ANN_COSINE_TOPK_BATCH = _ann_batch_sql()


def _ann_filtered_sql() -> str:
    """Twin of relational.ann_filtered_topk: the batched brute-force
    ranking with the label predicate on the CANDIDATE side only
    (query vectors are fetched by id, unfiltered — same as the
    engine's fetch_query_vectors)."""
    from harvester_ray.pipelines.relational import ANN_FILTER_LABELS

    labels = ", ".join(str(x) for x in ANN_FILTER_LABELS)
    return _ann_batch_sql(cand_where=f"WHERE e.label IN ({labels})")


ANN_FILTERED_TOPK = _ann_filtered_sql()


# fuzzy join: the same deterministic one-edit corruption (delete or
# overwrite-with-'x' the (key mod len)-th char, 0-based -> substr is
# 1-based so head = substr(name, 1, pos)), matched against the
# DISTINCT canonical name dictionary by exact levenshtein <= 1 — the
# engine's deletion-neighborhood blocking + ed<=1 verify must produce
# exactly this set
# exact z-score outliers: HUGEINT cross-multiplication mirrors the
# engine's |v*n - s| > isqrt(t^2*(q*n - s^2)) floor-sqrt rule (for
# integers, lhs > floor(sqrt(rhs)) <=> lhs^2 > rhs)
def _value_outliers_sql() -> str:
    from harvester_ray.pipelines.relational import Z_OUT_THRESH

    t2 = Z_OUT_THRESH * Z_OUT_THRESH
    return f"""
WITH v AS (SELECT event_id,
                  CAST(floor(value * 10000 + 0.5) AS BIGINT) AS vfp
           FROM events),
agg AS (SELECT count(*)::HUGEINT AS n,
               sum(CAST(vfp AS HUGEINT)) AS s,
               sum(CAST(vfp AS HUGEINT) * CAST(vfp AS HUGEINT)) AS q
        FROM v)
SELECT event_id, vfp AS value_r4,
       CAST(abs(CAST(vfp AS HUGEINT) * n - s) AS BIGINT) AS dev
FROM v, agg
WHERE (CAST(vfp AS HUGEINT) * n - s) * (CAST(vfp AS HUGEINT) * n - s)
      > {t2} * (q * n - s * s)
"""


VALUE_OUTLIERS = _value_outliers_sql()


FUZZY_JOIN = """
WITH dirty AS (
  SELECT p_partkey AS dirty_key,
         CASE WHEN p_partkey % 3 = 0
              THEN substr(p_name, 1, p_partkey % len(p_name))
                   || substr(p_name, p_partkey % len(p_name) + 2)
              ELSE substr(p_name, 1, p_partkey % len(p_name))
                   || 'x'
                   || substr(p_name, p_partkey % len(p_name) + 2)
         END AS dirty_name
  FROM part
),
clean AS (SELECT DISTINCT p_name AS clean_name FROM part)
SELECT d.dirty_key, c.clean_name,
       (CASE WHEN d.dirty_name = c.clean_name THEN 0 ELSE 1 END)::BIGINT
         AS dist
FROM dirty d JOIN clean c
  ON levenshtein(d.dirty_name, c.clean_name) <= 1
"""


def _quantiles_sql() -> str:
    from harvester_ray.pipelines.relational import QUANTILES_R4

    vals = ", ".join(f"({q})" for q in QUANTILES_R4)
    return f"""
WITH h AS (SELECT l_quantity AS v, count(*) AS c FROM lineitem GROUP BY v),
t AS (SELECT v, sum(c) OVER (ORDER BY v) AS cum,
             (SELECT sum(c) FROM h) AS n
      FROM h),
qs(q_r4) AS (VALUES {vals})
SELECT q_r4,
       CAST(floor(min(v) * 10000 + 0.5) AS BIGINT) AS value_r4
FROM qs JOIN t ON t.cum >= CAST(ceil(q_r4 * t.n / 10000.0) AS BIGINT)
GROUP BY q_r4
"""


LINEITEM_QUANTITY_QUANTILES = _quantiles_sql()


# Exact all-pairs n-gram (3-token shingle) set-Jaccard >= 0.5.
# Shared contract with stages/dedup.py (_shingles_flat /
# ngram_jaccard_exact / ngram_jaccard_dups):
# - shingles: 3-token windows joined per doc; a non-empty doc shorter
#   than 3 tokens contributes ONE shingle over all its tokens;
# - set semantics (list_distinct <-> sorted-unique hashes);
# - jaccard quantized half-up at 1e-6 with the same IEEE double ops
#   (floor(j*1e6 + 0.5)/1e6) on both sides, threshold applied to the
#   UNROUNDED value.
# The engine side hashes shingles (blake2b tokens + rolling poly); the
# oracle compares strings — equal modulo 2^-64 hash collisions.
NGRAM_JACCARD = """
WITH shg AS (
  SELECT doc_id,
         CASE WHEN len(ts) >= 3 THEN
                list_distinct(list_transform(
                  generate_series(1, len(ts) - 2),
                  i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]))
              WHEN len(ts) > 0 THEN [array_to_string(ts, ' ')]
              ELSE [] END AS shingles
  FROM (SELECT doc_id,
               regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
        FROM documents)
),
ex AS (SELECT doc_id, unnest(shingles) AS s FROM shg),
cnt AS (SELECT doc_id, count(*) AS c FROM ex GROUP BY doc_id),
inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i
          FROM ex a JOIN ex b ON a.s = b.s AND a.doc_id < b.doc_id
          GROUP BY 1, 2)
SELECT inter.doc_a, inter.doc_b,
       floor((i::DOUBLE / (ca.c + cb.c - i)) * 1000000 + 0.5) / 1000000
         AS jaccard
FROM inter
JOIN cnt ca ON ca.doc_id = inter.doc_a
JOIN cnt cb ON cb.doc_id = inter.doc_b
WHERE i::DOUBLE / (ca.c + cb.c - i) >= 0.5
"""


# Connected components over the exact near-dup pair graph: min reachable
# doc_id per node via a recursive transitive closure (UNION dedups, so
# it terminates on cycles). The engine side is iterative min-label
# propagation (stages/dedup.py dedup_clusters) — same fixed point.
DEDUP_CLUSTERS = f"""
WITH RECURSIVE pairs AS (
  SELECT doc_a, doc_b FROM ({NGRAM_JACCARD}) jp
),
sym AS (
  SELECT doc_a AS a, doc_b AS b FROM pairs
  UNION ALL
  SELECT doc_b AS a, doc_a AS b FROM pairs
),
walk(node, reach) AS (
  SELECT a, a FROM sym GROUP BY a
  UNION
  SELECT w.node, s.b FROM walk w JOIN sym s ON s.a = w.reach
)
SELECT node AS doc_id, min(reach) AS cluster_id FROM walk GROUP BY node
"""


# The dedup sweep's OUTPUT corpus: drop non-canonical cluster members.
DEDUP_KEEP = f"""
WITH RECURSIVE pairs AS (
  SELECT doc_a, doc_b FROM ({NGRAM_JACCARD}) jp
),
sym AS (
  SELECT doc_a AS a, doc_b AS b FROM pairs
  UNION ALL
  SELECT doc_b AS a, doc_a AS b FROM pairs
),
walk(node, reach) AS (
  SELECT a, a FROM sym GROUP BY a
  UNION
  SELECT w.node, s.b FROM walk w JOIN sym s ON s.a = w.reach
),
cc AS (SELECT node AS doc_id, min(reach) AS cluster_id FROM walk GROUP BY node)
SELECT d.doc_id
FROM documents d LEFT JOIN cc ON cc.doc_id = d.doc_id
WHERE cc.cluster_id IS NULL OR cc.cluster_id = d.doc_id
"""


# Corpus profiling: exact doc-length quantiles over the analyzed docs
# (same smallest-value-with-cum>=ceil(q*n) rule as the lineitem entry;
# docs with zero tokens have no doc_len row, matching the index).
DOC_LEN_QUANTILES = """
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
  FROM documents
),
dl AS (SELECT doc_id, count(*) AS doc_len FROM toks GROUP BY doc_id),
h AS (SELECT doc_len AS v, count(*) AS c FROM dl GROUP BY v),
t AS (SELECT v, sum(c) OVER (ORDER BY v) AS cum,
             (SELECT sum(c) FROM h) AS n
      FROM h),
qs(q_r4) AS (VALUES (2500), (5000), (7500), (9500))
SELECT q_r4, min(v)::BIGINT AS doc_len
FROM qs JOIN t ON t.cum >= CAST(ceil(q_r4 * t.n / 10000.0) AS BIGINT)
GROUP BY q_r4
"""


# Benchmark decontamination: distinct 8-token grams of non-benchmark
# docs that appear in any benchmark doc (doc_id % 13 == 5). Docs with
# < 8 tokens carry no grams. String grams here vs uint64 rolling-poly
# hashes in the engine — equal modulo 2^-64 collisions (same contract
# as NGRAM_JACCARD).
DECONTAMINATE = """
WITH tk AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
  FROM documents
),
grams AS (
  SELECT doc_id,
         list_distinct(list_transform(
           generate_series(1, len(ts) - 7),
           i -> array_to_string(ts[i:i+7], ' '))) AS gs
  FROM tk WHERE len(ts) >= 8
),
ex AS (SELECT doc_id, unnest(gs) AS g FROM grams),
bench AS (SELECT DISTINCT g FROM ex WHERE doc_id % 13 = 5)
SELECT e.doc_id, count(*) AS n_contaminated_grams
FROM ex e JOIN bench b USING (g)
WHERE e.doc_id % 13 != 5
GROUP BY e.doc_id
"""


# Exact phrase match over the positional tier (index/positional.py):
# (phrase_id, doc_id, n_occurrences) for each PHRASE_SET phrase, with
# OVERLAP-exact occurrence counts — the list comprehension checks every
# base position i, so "batch batch" in "batch batch batch" counts 2,
# matching the engine's (doc, base)-anchor groupby. Positions are
# 1-based here (DuckDB lists) vs 0-based in the engine; only counts
# and membership are compared, so the offset convention cancels.
def _phrase_sql() -> str:
    from harvester_ray.functions.text import tokenize
    from harvester_ray.pipelines.fulltext import PHRASE_SET

    branches = []
    for pid, phrase in PHRASE_SET:
        terms = tokenize(phrase)
        if not terms:
            continue
        k = len(terms)
        conds = " AND ".join(
            f"ts[i+{i}] = '{t}'" if i else f"ts[i] = '{t}'"
            for i, t in enumerate(terms)
        )
        branches.append(
            f"SELECT {pid} AS phrase_id, doc_id, n_occurrences FROM (\n"
            f"  SELECT doc_id,\n"
            f"         len([i FOR i IN range(1, greatest(len(ts) - {k} + 2, 1))\n"
            f"              IF {conds}])::BIGINT AS n_occurrences\n"
            f"  FROM toks)\n"
            f"WHERE n_occurrences > 0"
        )
    union = "\nUNION ALL\n".join(branches)
    return (
        "WITH toks AS (\n"
        "  SELECT doc_id,\n"
        "         regexp_extract_all(lower(coalesce(text, '')), "
        "'[a-z0-9]+') AS ts\n"
        "  FROM documents\n"
        ")\n" + union
    )


PHRASE_MATCH = _phrase_sql()


# Ordered-window proximity (index/positional.py proximity_occurrences):
# count, per doc, the first-term occurrences p that start an ordered
# chain p < q1 < ... < q(k-1) with q(k-1) - p <= window. The oracle
# computes the same GREEDY-MINIMAL chain (always the smallest next
# position — optimal under a span bound, so greedy == exists): qi is a
# nested list_min(list_filter(...)); a missing link propagates NULL,
# and the final NULL-checked span condition rejects it.
def _proximity_sql() -> str:
    from harvester_ray.functions.text import tokenize
    from harvester_ray.pipelines.fulltext import PROXIMITY_SET

    branches = []
    for pid, phrase, window in PROXIMITY_SET:
        terms = tokenize(phrase)
        if not terms:
            continue
        ps = [
            f"[j FOR j IN range(1, len(ts) + 1) IF ts[j] = '{t}']"
            for t in terms
        ]
        if len(terms) == 1:
            n_expr = f"len({ps[0]})::BIGINT"
        else:
            chain = "p"
            for i in range(1, len(terms)):
                chain = (
                    f"list_min(list_filter({ps[i]}, "
                    f"x{i} -> x{i} > {chain}))"
                )
            n_expr = (
                f"len([p FOR p IN {ps[0]} IF {chain} IS NOT NULL "
                f"AND {chain} - p <= {window}])::BIGINT"
            )
        branches.append(
            f"SELECT {pid} AS proximity_id, doc_id, n_matches FROM (\n"
            f"  SELECT doc_id, {n_expr} AS n_matches FROM toks)\n"
            f"WHERE n_matches > 0"
        )
    union = "\nUNION ALL\n".join(branches)
    return (
        "WITH toks AS (\n"
        "  SELECT doc_id,\n"
        "         regexp_extract_all(lower(coalesce(text, '')), "
        "'[a-z0-9]+') AS ts\n"
        "  FROM documents\n"
        ")\n" + union
    )


PROXIMITY_MATCH = _proximity_sql()


# Fixed-size token-window chunking (stages/chunking.py doc_chunks):
# chunk i of a doc covers tokens [i*stride, i*stride + chunk_size),
# starts while i*stride < n_tokens; 0-token docs yield no chunks; the
# chunk text is the space-joined token window (both sides join the
# SAME analyzer tokens, so text equality is exact).
def _doc_chunks_sql() -> str:
    from harvester_ray.stages.chunking import CHUNK_OVERLAP, CHUNK_SIZE

    c, stride = CHUNK_SIZE, CHUNK_SIZE - CHUNK_OVERLAP
    return f"""
WITH toks AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS ts
  FROM documents
)
SELECT doc_id, u.i AS chunk_id,
       least({c}, len(ts) - u.i * {stride})::BIGINT AS n_tokens,
       array_to_string(ts[u.i * {stride} + 1 : u.i * {stride} + {c}], ' ')
         AS chunk_text
FROM toks, unnest(range(0, (len(ts) + {stride} - 1) // {stride})) AS u(i)
"""


DOC_CHUNKS = _doc_chunks_sql()


# Global token-offset sharding (stages/chunking.py token_shards): the
# exclusive prefix sum of token counts in doc_id order, shard =
# offset // budget (docs never split across shards). The engine
# computes it as a two-level distributed scan; the oracle as one
# window function.
def _token_shards_sql() -> str:
    from harvester_ray.stages.chunking import SHARD_TOKEN_BUDGET

    return f"""
WITH toks AS (
  SELECT doc_id,
         len(regexp_extract_all(lower(coalesce(text, '')),
             '[a-z0-9]+'))::BIGINT AS n_tokens
  FROM documents
),
scan AS (
  SELECT doc_id, n_tokens,
         coalesce(sum(n_tokens) OVER (
           ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)::BIGINT
           AS token_offset
  FROM toks
)
SELECT doc_id, n_tokens, token_offset,
       (token_offset // {SHARD_TOKEN_BUDGET})::BIGINT AS shard_id
FROM scan
"""


TOKEN_SHARDS = _token_shards_sql()


# Passage retrieval with doc-level max-pooling (fulltext.passage_topk):
# BM25 over the CHUNK corpus (same windows as DOC_CHUNKS), each doc
# scored by its best chunk, top-10 docs per query by
# (round(score,6) DESC, doc_id) — the same ranking rule as BM25_TOPK.
def _passage_sql() -> str:
    from harvester_ray.functions.text import tokenize
    from harvester_ray.stages.chunking import CHUNK_OVERLAP, CHUNK_SIZE

    c, stride = CHUNK_SIZE, CHUNK_SIZE - CHUNK_OVERLAP
    pairs = []
    for qid, q in queries_for_mode("or"):
        for t in sorted(set(tokenize(q))):
            pairs.append(f"({qid}, '{t}')")
    values = ", ".join(pairs)
    return f"""
WITH docs_ts AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS ts
  FROM documents
),
chunks AS (
  SELECT doc_id, u.i AS chunk_id,
         ts[u.i * {stride} + 1 : u.i * {stride} + {c}] AS cts
  FROM docs_ts,
       unnest(range(0, (len(ts) + {stride} - 1) // {stride})) AS u(i)
),
ctoks AS (SELECT doc_id, chunk_id, unnest(cts) AS term FROM chunks),
postings AS (SELECT term, doc_id, chunk_id, count(*) AS tf
             FROM ctoks GROUP BY term, doc_id, chunk_id),
doclen AS (SELECT doc_id, chunk_id, count(*) AS dl
           FROM ctoks GROUP BY doc_id, chunk_id),
corpus AS (SELECT (SELECT count(*) FROM chunks)::DOUBLE AS n,
                  (SELECT count(*) FROM ctoks)::DOUBLE
                    / (SELECT count(*) FROM chunks) AS avgdl),
dict AS (SELECT term, count(*)::DOUBLE AS df FROM postings GROUP BY term),
q(query_id, term) AS (VALUES {values}),
scored AS (
  SELECT q.query_id, p.doc_id, p.chunk_id,
         sum( ln(1 + ((SELECT n FROM corpus) - d.df + 0.5) / (d.df + 0.5))
              * (p.tf * {_K1 + 1.0})
              / (p.tf + {_K1} * ({1.0 - _B} + {_B} * l.dl
                                 / (SELECT avgdl FROM corpus))) ) AS score
  FROM q
  JOIN postings p USING (term)
  JOIN dict d USING (term)
  JOIN doclen l ON l.doc_id = p.doc_id AND l.chunk_id = p.chunk_id
  GROUP BY q.query_id, p.doc_id, p.chunk_id
),
docscore AS (
  SELECT query_id, doc_id, max(score) AS score
  FROM scored GROUP BY query_id, doc_id
),
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id ASC)
           AS rank
  FROM docscore
)
SELECT query_id, rank, doc_id FROM ranked WHERE rank <= {TOP_K}
"""


PASSAGE_TOPK = _passage_sql()


# Collocation statistics (stages/textstats.py collocations): top-N
# adjacent bigrams by PMI, c_ab >= min_count. Both sides compute
#   pmi = ln((c_ab/N_bigrams) / ((c_a/N_uni) * (c_b/N_uni)))
# with the SAME IEEE double op order, emitted fixed-point
# floor(pmi*1e6 + 0.5); N_bigrams = N_uni - (#docs with >=1 token).
def _collocations_sql() -> str:
    from harvester_ray.stages.textstats import (
        COLLOC_MIN_COUNT,
        COLLOC_TOP_N,
    )

    return f"""
WITH toks AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS ts
  FROM documents
),
uni AS (SELECT unnest(ts) AS term FROM toks),
ucnt AS (SELECT term, count(*) AS c FROM uni GROUP BY term),
big AS (
  SELECT ts[u.i] AS term_a, ts[u.i + 1] AS term_b
  FROM toks, unnest(range(1, greatest(len(ts), 1))) AS u(i)
),
bcnt AS (SELECT term_a, term_b, count(*) AS c_ab
         FROM big GROUP BY term_a, term_b),
tot AS (SELECT (SELECT count(*) FROM uni)::DOUBLE AS nu,
               (SELECT count(*) FROM big)::DOUBLE AS nb)
SELECT term_a, term_b, c_ab::BIGINT AS n_ab,
       floor(ln((c_ab::DOUBLE / nb)
                / ((ca.c::DOUBLE / nu) * (cb.c::DOUBLE / nu)))
             * 1000000 + 0.5)::BIGINT AS pmi_fp
FROM bcnt
JOIN ucnt ca ON ca.term = term_a
JOIN ucnt cb ON cb.term = term_b, tot
WHERE c_ab >= {COLLOC_MIN_COUNT}
ORDER BY pmi_fp DESC, term_a, term_b
LIMIT {COLLOC_TOP_N}
"""


COLLOCATIONS = _collocations_sql()


EVENTS_LATEST_PER_USER = """
SELECT user_id, event_id,
       epoch_us(ts) AS ts_us,
       event_type,
       CAST(floor(value * 10000 + 0.5) AS BIGINT) AS value_r4
FROM (
  SELECT *, row_number() OVER (PARTITION BY user_id
                               ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
) WHERE rn = 1
"""


def _source_capped_sql() -> str:
    from harvester_ray.pipelines.relational import SOURCE_CAP

    return f"""
SELECT source, doc_id FROM (
  SELECT source, doc_id,
         row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
  FROM documents
) WHERE rn <= {SOURCE_CAP}
"""


SOURCE_CAPPED_SAMPLE = _source_capped_sql()


REPETITION_STATS = """
WITH d AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
           FROM documents),
uni AS (SELECT doc_id, unnest(ts) AS term FROM d),
tstats AS (SELECT doc_id, count(*) AS n_tokens,
                  count(DISTINCT term) AS n_distinct
           FROM uni GROUP BY doc_id),
big AS (SELECT doc_id, ts[i] AS a, ts[i + 1] AS b
        FROM d, unnest(range(1, greatest(len(ts), 1))) AS u(i)),
bc AS (SELECT doc_id, a, b, count(*) AS c FROM big GROUP BY doc_id, a, b),
bstats AS (SELECT doc_id, max(c) AS max_bigram_tf, sum(c) AS n_bigrams
           FROM bc GROUP BY doc_id)
SELECT d.doc_id,
       coalesce(t.n_tokens, 0)::BIGINT AS n_tokens,
       coalesce(t.n_distinct, 0)::BIGINT AS n_distinct,
       coalesce(b.max_bigram_tf, 0)::BIGINT AS max_bigram_tf,
       coalesce(b.n_bigrams, 0)::BIGINT AS n_bigrams
FROM d
LEFT JOIN tstats t USING (doc_id)
LEFT JOIN bstats b USING (doc_id)
"""


def _filtered_sql() -> str:
    """Filtered search (Solr fq): the fixed-point scored match set
    (same integer-at-the-row rule as _collapse_sql) restricted to docs
    with lang = FILTER_LANG, then top-TOP_K per query."""
    from harvester_ray.pipelines.fulltext import FILTER_LANG, _FP8

    values = _or_query_values()
    return f"""
WITH {_CORPUS_CTES},
q(query_id, term) AS (VALUES {values}),
{_SC_CTE.format(fp8=_FP8)},
f AS (SELECT sc.* FROM sc JOIN documents d2 USING (doc_id)
      WHERE d2.lang = '{FILTER_LANG}'),
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score_fp DESC, doc_id ASC) AS rank
  FROM f
)
SELECT query_id, rank, doc_id FROM ranked WHERE rank <= {TOP_K}
"""


BM25_TOPK_FILTERED = _filtered_sql()


def _wildcard_sql() -> str:
    from harvester_ray.pipelines.fulltext import WILDCARD_CAP, WILDCARD_SET

    values = ", ".join(f"({qid}, '{p}')" for qid, p in WILDCARD_SET)
    return _expansion_sql(
        f"""SELECT query_id, term FROM (
      SELECT qp.query_id, d.term,
             row_number() OVER (PARTITION BY qp.query_id
                                ORDER BY d.df DESC, d.term ASC) AS rn
      FROM qp JOIN dict d ON d.term LIKE qp.pattern
    ) WHERE rn <= {WILDCARD_CAP}""",
        f"qp(query_id, pattern) AS (VALUES {values})",
    )


WILDCARD_SEARCH = _wildcard_sql()


def _sort_by_field_sql() -> str:
    values = _or_query_values()
    return f"""
WITH toks AS ({_TOKS}),
q(query_id, term) AS (VALUES {values}),
matches AS (
  SELECT DISTINCT q.query_id, t.doc_id
  FROM q JOIN toks t USING (term)
),
ranked AS (
  SELECT m.query_id, m.doc_id, d.n_chars,
         row_number() OVER (PARTITION BY m.query_id
                            ORDER BY d.n_chars DESC, m.doc_id ASC) AS rank
  FROM matches m JOIN documents d USING (doc_id)
)
SELECT query_id, rank, doc_id, n_chars
FROM ranked WHERE rank <= {TOP_K}
"""


SORT_BY_FIELD_TOPK = _sort_by_field_sql()


def _ql_filter_pred(fc) -> str:
    """SQL predicate for one FieldClause — same null semantics as the
    pads expression the pipeline pushes into the parquet read (NOT of
    an equality drops NULL rows on both sides)."""
    if fc.is_range:
        lo = fc.lo if fc.is_numeric else f"'{fc.lo}'"
        hi = fc.hi if fc.is_numeric else f"'{fc.hi}'"
        pred = f"({fc.field} >= {lo} AND {fc.field} <= {hi})"
    else:
        v = fc.lo if fc.is_numeric else f"'{fc.lo}'"
        pred = f"{fc.field} = {v}"
    return f"NOT {pred}" if fc.negated else pred


def _query_language_sql() -> str:
    """Mixed boolean query strings (QL_SET), compiled to SQL with the
    SAME semantics as queryparse.search_boolean: score = BM25 sum over
    positive terms (SHOULD ∪ MUST ∪ group ∪ phrase terms) present in
    the doc, each posting's score times the term's boost (MAX over the
    words naming it); eligibility = all MUST terms AND one member of
    every must-group AND all phrases AND all field filters AND no
    MUST_NOT term."""
    from harvester_ray.functions.text import tokenize
    from harvester_ray.index.queryparse import parse_query
    from harvester_ray.pipelines.fulltext import QL_SET

    q_rows, m_rows, n_rows = [], [], []
    ph_branches, pcnt_rows = [], []
    g_rows, gcnt_rows = [], []
    f_branches = []
    for qid, qs in QL_SET:
        p = parse_query(qs)
        should = {t for w in p.should for t in tokenize(w)}
        must = {t for w in p.must for t in tokenize(w)}
        group_toks = [
            sorted({t for w in g for t in tokenize(w)})
            for g in p.must_groups
        ]
        if any(not g for g in group_toks):
            # a must-group whose words tokenize to nothing can never
            # be satisfied — the executor returns no hits (dense: gok
            # stays all-False; sparse: no present member → []); mirror
            # by emitting no rows at all for this query
            continue
        ph_terms = {t for ph in p.phrases for t in tokenize(ph)}
        pos = sorted(
            should | must | ph_terms | {t for g in group_toks for t in g}
        )
        nots = sorted(
            {t for w in p.must_not for t in tokenize(w)} - set(pos)
        )
        tboost: dict[str, float] = {}
        for w, bv in p.boosts.items():
            for t in tokenize(w):
                tboost[t] = max(tboost[t], bv) if t in tboost else bv
        q_rows.extend(
            f"({qid}, '{t}', {tboost.get(t, 1.0)!r})" for t in pos
        )
        m_rows.extend(f"({qid}, '{t}')" for t in sorted(must))
        n_rows.extend(f"({qid}, '{t}')" for t in nots)
        if group_toks:
            gcnt_rows.append(f"({qid}, {len(group_toks)})")
            for gno, g in enumerate(group_toks):
                g_rows.extend(f"({qid}, {gno}, '{t}')" for t in g)
        if p.filters:
            pred = " AND ".join(_ql_filter_pred(fc) for fc in p.filters)
            f_branches.append(
                f"SELECT {qid} AS query_id, doc_id "
                f"FROM documents WHERE {pred}"
            )
        phrases = [ph for ph in p.phrases if tokenize(ph)]
        if phrases:
            pcnt_rows.append(f"({qid}, {len(phrases)})")
            for pno, ph in enumerate(phrases):
                terms = tokenize(ph)
                k = len(terms)
                conds = " AND ".join(
                    f"ts[i+{i}] = '{t}'" if i else f"ts[i] = '{t}'"
                    for i, t in enumerate(terms)
                )
                ph_branches.append(
                    f"SELECT {qid} AS query_id, {pno} AS phrase_no, doc_id\n"
                    f"FROM tl WHERE len([i FOR i IN "
                    f"range(1, greatest(len(ts) - {k} + 2, 1)) "
                    f"IF {conds}]) > 0"
                )
    # VALUES cannot be empty: pad the never-matching query_id -1
    m_vals = ", ".join(m_rows) if m_rows else "(-1, '')"
    n_vals = ", ".join(n_rows) if n_rows else "(-1, '')"
    ph_ctes = ""
    ph_filter = ""
    if ph_branches:
        ph_ctes = f""",
phm AS ({" UNION ALL ".join(ph_branches)}),
pcnt(query_id, n) AS (VALUES {", ".join(pcnt_rows)}),
phok AS (
  SELECT phm.query_id, phm.doc_id
  FROM phm JOIN pcnt ON pcnt.query_id = phm.query_id
  GROUP BY phm.query_id, phm.doc_id
  HAVING count(DISTINCT phm.phrase_no) = max(pcnt.n)
)"""
        ph_filter = """
  LEFT JOIN pcnt pc ON pc.query_id = s.query_id
  LEFT JOIN phok ph ON ph.query_id = s.query_id AND ph.doc_id = s.doc_id"""
    g_ctes = ""
    g_filter = ""
    if g_rows:
        g_ctes = f""",
grp(query_id, gno, term) AS (VALUES {", ".join(g_rows)}),
gcnt(query_id, n) AS (VALUES {", ".join(gcnt_rows)}),
gok AS (
  SELECT grp.query_id, p.doc_id
  FROM grp JOIN postings p USING (term)
  GROUP BY grp.query_id, p.doc_id
  HAVING count(DISTINCT grp.gno)
         = (SELECT max(n) FROM gcnt WHERE gcnt.query_id = grp.query_id)
)"""
        g_filter = """
  LEFT JOIN gcnt gc ON gc.query_id = s.query_id
  LEFT JOIN gok g ON g.query_id = s.query_id AND g.doc_id = s.doc_id"""
    f_ctes = ""
    f_filter = ""
    if f_branches:
        f_ctes = f""",
fdocs AS ({" UNION ALL ".join(f_branches)}),
fqs(query_id) AS (VALUES {", ".join(f"({qid})" for qid, qs in QL_SET if parse_query(qs).filters)})"""
        f_filter = """
  LEFT JOIN fqs fq ON fq.query_id = s.query_id
  LEFT JOIN fdocs fd ON fd.query_id = s.query_id AND fd.doc_id = s.doc_id"""
    where = "e.doc_id IS NULL"
    if ph_branches:
        where += " AND (pc.query_id IS NULL OR ph.doc_id IS NOT NULL)"
    if g_rows:
        where += " AND (gc.query_id IS NULL OR g.doc_id IS NOT NULL)"
    if f_branches:
        where += " AND (fq.query_id IS NULL OR fd.doc_id IS NOT NULL)"
    return f"""
WITH toks AS ({_TOKS}),
tl AS (SELECT doc_id,
              regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS ts
       FROM documents),
postings AS (SELECT term, doc_id, count(*) AS tf FROM toks GROUP BY term, doc_id),
doclen AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
corpus AS (SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
                  (SELECT count(*) FROM toks)::DOUBLE
                    / (SELECT count(*) FROM documents) AS avgdl),
dict AS (SELECT term, count(*)::DOUBLE AS df FROM postings GROUP BY term),
q(query_id, term, boost) AS (VALUES {", ".join(q_rows)}),
m(query_id, term) AS (VALUES {m_vals}),
nt(query_id, term) AS (VALUES {n_vals}),
excl AS (SELECT DISTINCT nt.query_id, p.doc_id
         FROM nt JOIN postings p USING (term)),
scored AS (
  SELECT q.query_id, p.doc_id,
         sum( ( {_SCORE_EXPRS["bm25"]} ) * q.boost ) AS score
  FROM q
  JOIN postings p USING (term)
  JOIN dict d USING (term)
  JOIN doclen l USING (doc_id)
  LEFT JOIN m ON m.query_id = q.query_id AND m.term = p.term
  GROUP BY q.query_id, p.doc_id
  HAVING count(DISTINCT m.term)
         = (SELECT count(*) FROM m m2 WHERE m2.query_id = q.query_id)
){ph_ctes}{g_ctes}{f_ctes},
elig AS (
  SELECT s.query_id, s.doc_id, s.score
  FROM scored s
  LEFT JOIN excl e ON e.query_id = s.query_id AND e.doc_id = s.doc_id{ph_filter}{g_filter}{f_filter}
  WHERE {where}
),
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id ASC) AS rank
  FROM elig
)
SELECT query_id, rank, doc_id FROM ranked WHERE rank <= {TOP_K}
"""


QUERY_LANGUAGE = _query_language_sql()


def _match_set_cte() -> str:
    values = _or_query_values()
    return f"""
WITH toks AS ({_TOKS}),
q(query_id, term) AS (VALUES {values}),
matches AS (
  SELECT DISTINCT q.query_id, t.doc_id
  FROM q JOIN toks t USING (term)
)"""


SEARCH_NUMFOUND = (
    _match_set_cte()
    + """
SELECT query_id, count(*) AS num_found FROM matches GROUP BY query_id
"""
)


def _range_facets_sql() -> str:
    from harvester_ray.pipelines.fulltext import RANGE_FACET_WIDTH

    return (
        _match_set_cte()
        + f"""
SELECT m.query_id,
       (floor(d.n_chars::DOUBLE / {RANGE_FACET_WIDTH})
        * {RANGE_FACET_WIDTH})::BIGINT AS bucket_lo,
       count(*) AS n_docs
FROM matches m JOIN documents d USING (doc_id)
GROUP BY m.query_id, bucket_lo
"""
    )


SEARCH_RANGE_FACETS = _range_facets_sql()


UNIGRAM_LOGPROB = """
WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
              FROM documents),
dict AS (SELECT term, count(*) AS c FROM toks GROUP BY term),
tot AS (SELECT count(*)::DOUBLE AS t FROM toks),
tfp AS (SELECT term,
               CAST(floor(ln(c::DOUBLE / (SELECT t FROM tot))
                          * 100000000 + 0.5) AS BIGINT) AS fp
        FROM dict)
SELECT t.doc_id, count(*) AS n_tokens, sum(tf.fp)::BIGINT AS logprob_fp
FROM toks t JOIN tfp tf USING (term)
GROUP BY t.doc_id
"""


# Exact twin of stages/textstats.bigram_logprob: Laplace-smoothed
# order-2 LM score, fixed-pointed once per bigram TYPE (ln mirrors
# numpy's log over the identical double ratio), context counts derived
# from the bigram table (c1 = sum_v c2), V = distinct corpus unigrams.
# Docs with < 2 tokens have no bigram row and emit nothing.
BIGRAM_LOGPROB = """
WITH toks AS (SELECT doc_id,
                     regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
              FROM documents),
big AS (SELECT doc_id, ts[i] AS t1, ts[i + 1] AS t2
        FROM toks, unnest(range(1, len(ts))) AS u(i)),
c2 AS (SELECT t1, t2, count(*) AS c FROM big GROUP BY t1, t2),
c1 AS (SELECT t1, sum(c) AS cc FROM c2 GROUP BY t1),
vs AS (SELECT count(DISTINCT term)::DOUBLE AS v
       FROM (SELECT unnest(ts) AS term FROM toks)),
fp AS (SELECT c2.t1, c2.t2,
              CAST(floor(ln((c2.c + 1)::DOUBLE / (c1.cc + (SELECT v FROM vs)))
                         * 100000000 + 0.5) AS BIGINT) AS fp
       FROM c2 JOIN c1 USING (t1))
SELECT b.doc_id, count(*) AS n_bigrams, sum(f.fp)::BIGINT AS logprob2_fp
FROM big b JOIN fp f USING (t1, t2)
GROUP BY b.doc_id
"""


def _hybrid_rrf_sql() -> str:
    from harvester_ray.pipelines.fulltext import RRF_K, _RRF_FP

    values = _or_query_values()
    return f"""
WITH {_CORPUS_CTES},
q(query_id, term) AS (VALUES {values}),
sa AS (
  SELECT q.query_id, p.doc_id, sum( {_SCORE_EXPRS["bm25"]} ) AS score
  FROM q JOIN postings p USING (term) JOIN dict d USING (term)
  JOIN doclen l USING (doc_id)
  GROUP BY q.query_id, p.doc_id
),
sb AS (
  SELECT q.query_id, p.doc_id, sum( {_SCORE_EXPRS["tfidf"]} ) AS score
  FROM q JOIN postings p USING (term) JOIN dict d USING (term)
  JOIN doclen l USING (doc_id)
  GROUP BY q.query_id, p.doc_id
),
ra AS (SELECT query_id, doc_id,
              row_number() OVER (PARTITION BY query_id
                                 ORDER BY round(score, 6) DESC, doc_id ASC) AS rank
       FROM sa),
rb AS (SELECT query_id, doc_id,
              row_number() OVER (PARTITION BY query_id
                                 ORDER BY round(score, 6) DESC, doc_id ASC) AS rank
       FROM sb),
u AS (
  SELECT query_id, doc_id, {_RRF_FP} // ({RRF_K} + rank) AS rrf_fp
  FROM ra WHERE rank <= {TOP_K}
  UNION ALL
  SELECT query_id, doc_id, {_RRF_FP} // ({RRF_K} + rank) AS rrf_fp
  FROM rb WHERE rank <= {TOP_K}
),
f AS (SELECT query_id, doc_id, sum(rrf_fp)::BIGINT AS rrf_fp
      FROM u GROUP BY query_id, doc_id),
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY rrf_fp DESC, doc_id ASC) AS rank
  FROM f
)
SELECT query_id, rank, doc_id FROM ranked WHERE rank <= {TOP_K}
"""


HYBRID_RRF = _hybrid_rrf_sql()


def _prf_rerank_sql() -> str:
    from harvester_ray.pipelines.fulltext import PRF_TOP

    values = _or_query_values()
    return f"""
WITH {_CORPUS_CTES},
q(query_id, term) AS (VALUES {values}),
scored AS (
  SELECT q.query_id, p.doc_id, sum( {_SCORE_EXPRS["bm25"]} ) AS score
  FROM q JOIN postings p USING (term) JOIN dict d USING (term)
  JOIN doclen l USING (doc_id)
  GROUP BY q.query_id, p.doc_id
),
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id ASC) AS rank
  FROM scored
),
top10 AS (SELECT query_id, doc_id FROM ranked WHERE rank <= {TOP_K}),
top3 AS (SELECT query_id, doc_id FROM ranked WHERE rank <= {PRF_TOP}),
cvals AS (
  SELECT t.query_id, u.i AS dim, sum(em.embedding[u.i]::DOUBLE) AS v
  FROM top3 t
  JOIN embeddings em ON em.vec_id = t.doc_id,
       unnest(range(1, len(em.embedding) + 1)) AS u(i)
  GROUP BY t.query_id, u.i
),
cent AS (SELECT query_id, list(v ORDER BY dim) AS c FROM cvals GROUP BY query_id),
rescored AS (
  SELECT h.query_id, h.doc_id,
         round(list_cosine_similarity(em.embedding::DOUBLE[],
                                      ct.c), 6) AS sim_r
  FROM top10 h
  JOIN embeddings em ON em.vec_id = h.doc_id
  JOIN cent ct ON ct.query_id = h.query_id
),
rr AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY sim_r DESC, doc_id ASC) AS rank
  FROM rescored
)
SELECT query_id, rank, doc_id FROM rr
"""


PRF_RERANK = _prf_rerank_sql()


SEARCH_PIVOT_FACETS = (
    _match_set_cte()
    + """
SELECT m.query_id, d.source, d.lang, count(*) AS n_docs
FROM matches m JOIN documents d USING (doc_id)
GROUP BY m.query_id, d.source, d.lang
"""
)


def _synonym_sql() -> str:
    from harvester_ray.functions.text import tokenize
    from harvester_ray.pipelines.fulltext import SYNONYM_SET, SYNONYMS

    rows = []
    for qid, q in SYNONYM_SET:
        terms = set()
        for t in sorted(set(tokenize(q))):
            terms.add(t)
            terms.update(SYNONYMS.get(t, ()))
        rows.extend(f"({qid}, '{t}')" for t in sorted(terms))
    return _expansion_sql(
        "SELECT query_id, term FROM qs",
        f"qs(query_id, term) AS (VALUES {', '.join(rows)})",
    )


SYNONYM_SEARCH = _synonym_sql()


def _span_near_sql() -> str:
    """Unordered span-near: k-way self-join of per-term position lists
    with a greatest-least span bound (existence per doc)."""
    from harvester_ray.functions.text import tokenize
    from harvester_ray.pipelines.fulltext import SPAN_NEAR_SET

    branches = []
    for sid, phrase, w in SPAN_NEAR_SET:
        terms = sorted(set(tokenize(phrase)))
        if not terms:
            continue
        aliases = [chr(ord("a") + i) for i in range(len(terms))]
        # explicit JOIN ... USING (doc_id) chain over per-term position sets
        parts = []
        for i, (al, t) in enumerate(zip(aliases, terms)):
            sub = (
                f"(SELECT doc_id, i AS p FROM tl, "
                f"unnest(range(1, len(ts) + 1)) AS u(i) "
                f"WHERE ts[i] = '{t}') {al}"
            )
            parts.append(sub if i == 0 else f"JOIN {sub} USING (doc_id)")
        frm = " ".join(parts)
        cols = ", ".join(f"{al}.p" for al in aliases)
        span = (
            f"greatest({cols}) - least({cols}) <= {w}"
            if len(aliases) > 1
            else "TRUE"
        )
        branches.append(
            f"SELECT DISTINCT {sid} AS span_id, a.doc_id\n"
            f"FROM {frm}\nWHERE {span}"
        )
    return (
        "WITH tl AS (SELECT doc_id,\n"
        "  regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS ts\n"
        "  FROM documents)\n" + "\nUNION ALL\n".join(branches)
    )


SPAN_NEAR_MATCH = _span_near_sql()


def _bm25f_sql() -> str:
    """BM25F fielded-ranking twin of fulltext.bm25f_topk: the same
    deterministic title/body split (first TITLE_TOKENS analyzer tokens
    vs the rest), per-field weighted length-normalized tfs combined
    BEFORE the k1 saturation, whole-document idf, per-(query, term,
    doc) contributions fixed-pointed at the row then integer-summed —
    the expression tree is mirrored term by term with the Ray kernel."""
    from harvester_ray.pipelines.fulltext import (
        _FP8,
        BM25F_B_BODY,
        BM25F_B_TITLE,
        BM25F_W_BODY,
        BM25F_W_TITLE,
        TITLE_TOKENS,
        TOP_K,
    )

    values = _or_query_values()
    tt = TITLE_TOKENS
    omb_t = 1.0 - BM25F_B_TITLE
    omb_b = 1.0 - BM25F_B_BODY
    tfw = (
        f"(({BM25F_W_TITLE!r} * fp.tf_t) / ({omb_t!r} + {BM25F_B_TITLE!r}"
        f" * (f.len_t / (SELECT avg_t FROM corpus)))"
        f" + ({BM25F_W_BODY!r} * fp.tf_b) / ({omb_b!r} + {BM25F_B_BODY!r}"
        f" * (f.len_b / (SELECT avg_b FROM corpus))))"
    )
    return f"""
WITH toks AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
              FROM documents),
flds AS (SELECT doc_id, ts,
                least(len(ts), {tt}) AS len_t,
                len(ts) - least(len(ts), {tt}) AS len_b
         FROM toks),
corpus AS (SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
                  (SELECT sum(len_t) FROM flds)::DOUBLE
                    / (SELECT count(*) FROM documents) AS avg_t,
                  (SELECT sum(len_b) FROM flds)::DOUBLE
                    / (SELECT count(*) FROM documents) AS avg_b),
tt AS (SELECT doc_id, unnest(ts[1:{tt}]) AS term FROM flds),
bt AS (SELECT doc_id, unnest(ts[{tt + 1}:len(ts)]) AS term FROM flds),
fp AS (SELECT doc_id, term, sum(tf_t)::BIGINT AS tf_t,
              sum(tf_b)::BIGINT AS tf_b
       FROM (SELECT doc_id, term, count(*) AS tf_t, 0 AS tf_b
             FROM tt GROUP BY doc_id, term
             UNION ALL
             SELECT doc_id, term, 0 AS tf_t, count(*) AS tf_b
             FROM bt GROUP BY doc_id, term)
       GROUP BY doc_id, term),
dict AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df
         FROM (SELECT doc_id, unnest(ts) AS term FROM toks)
         GROUP BY term),
q(query_id, term) AS (VALUES {values}),
rows AS (SELECT q.query_id, fp.doc_id, d.df, {tfw} AS tfw
         FROM q
         JOIN fp USING (term)
         JOIN dict d USING (term)
         JOIN flds f ON f.doc_id = fp.doc_id),
scored AS (SELECT query_id, doc_id,
                  sum(CAST(floor((ln(1 + ((SELECT n FROM corpus) - df + 0.5)
                                   / (df + 0.5))
                                  * (tfw / ({_K1!r} + tfw)))
                                 * {_FP8} + 0.5) AS BIGINT)) AS score_fp
           FROM rows GROUP BY query_id, doc_id),
ranked AS (SELECT query_id, doc_id,
                  row_number() OVER (PARTITION BY query_id
                                     ORDER BY score_fp DESC, doc_id ASC)
                    AS rank
           FROM scored)
SELECT query_id, rank, doc_id FROM ranked WHERE rank <= {TOP_K}
"""


BM25F_TOPK = _bm25f_sql()


def _porter_doc_stats_sql() -> str:
    """Stopword-filtered doc lengths — stemming preserves token count,
    so this is the SQL-expressible projection of the porter_en build
    (doc_len == count of non-stopword tokens; zero-token docs emit no
    row on either side)."""
    from harvester_ray.functions.text import ENGLISH_STOPWORDS

    stoplist = ", ".join(f"'{w}'" for w in sorted(ENGLISH_STOPWORDS))
    return f"""
WITH toks AS ({_TOKS})
SELECT doc_id, count(*) AS doc_len
FROM toks WHERE term NOT IN ({stoplist})
GROUP BY doc_id
"""


PORTER_DOC_STATS = _porter_doc_stats_sql()


def _boosted_sql() -> str:
    """Function-query boost: rank key = score_fp * (A*FP4 integer-div
    (n_chars + B)) — both factors BIGINT, so the product is exact on
    both engines (no float multiply anywhere)."""
    from harvester_ray.pipelines.fulltext import (
        BOOST_RECIP_A,
        BOOST_RECIP_B,
        TOP_K,
        _FP4,
        _FP8,
    )

    values = _or_query_values()
    return f"""
WITH {_CORPUS_CTES},
q(query_id, term) AS (VALUES {values}),
{_SC_CTE.format(fp8=_FP8)},
b AS (
  SELECT sc.query_id, sc.doc_id,
         CAST(sc.score_fp AS BIGINT)
           * ({BOOST_RECIP_A * _FP4} // (d2.n_chars + {BOOST_RECIP_B}))
           AS boosted_fp
  FROM sc JOIN documents d2 USING (doc_id)
),
ranked AS (
  SELECT query_id, doc_id, boosted_fp,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY boosted_fp DESC, doc_id ASC) AS rank
  FROM b
)
SELECT query_id, rank, doc_id, CAST(boosted_fp AS BIGINT) AS boosted_fp
FROM ranked WHERE rank <= {TOP_K}
"""


BM25_BOOSTED_TOPK = _boosted_sql()


def _field_stats_sql() -> str:
    """Stats component: exact BIGINT n_chars stats over each OR
    query's full match set (DISTINCT doc matches, same set as sc)."""
    values = _or_query_values()
    return f"""
WITH toks AS ({_TOKS}),
q(query_id, term) AS (VALUES {values}),
matches AS (SELECT DISTINCT q.query_id, t.doc_id
            FROM q JOIN toks t USING (term))
SELECT m.query_id,
       count(*) AS n_matches,
       min(d.n_chars) AS min_chars,
       max(d.n_chars) AS max_chars,
       CAST(sum(d.n_chars) AS BIGINT) AS sum_chars
FROM matches m JOIN documents d USING (doc_id)
GROUP BY m.query_id
"""


SEARCH_FIELD_STATS = _field_stats_sql()


def _grouped_search_sql() -> str:
    """Result grouping: top-GROUP_LIMIT docs per source group, top
    GROUPS_K groups per query ranked by their head doc (score desc,
    doc_id asc — the collapse_topk group-ordering rule)."""
    from harvester_ray.pipelines.fulltext import GROUP_LIMIT, GROUPS_K, _FP8

    values = _or_query_values()
    return f"""
WITH {_CORPUS_CTES},
q(query_id, term) AS (VALUES {values}),
{_SC_CTE.format(fp8=_FP8)},
j AS (SELECT sc.query_id, sc.doc_id, sc.score_fp, d2.source
      FROM sc JOIN documents d2 USING (doc_id)),
docranked AS (
  SELECT query_id, source, doc_id, score_fp,
         row_number() OVER (PARTITION BY query_id, source
                            ORDER BY score_fp DESC, doc_id ASC) AS doc_rank
  FROM j
),
granked AS (
  SELECT query_id, source,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score_fp DESC, doc_id ASC) AS grp_rank
  FROM docranked WHERE doc_rank = 1
)
SELECT dr.query_id, g.grp_rank, dr.source, dr.doc_rank, dr.doc_id
FROM docranked dr
JOIN granked g ON g.query_id = dr.query_id AND g.source = dr.source
WHERE g.grp_rank <= {GROUPS_K} AND dr.doc_rank <= {GROUP_LIMIT}
"""


GROUPED_SEARCH_TOPK = _grouped_search_sql()


def _elevated_sql() -> str:
    """Query elevation: pinned (query, rank, doc) rows first, then the
    scored ranking (pinned ids anti-joined out) offset by each query's
    pin count, cut at TOP_K total."""
    from harvester_ray.pipelines.fulltext import ELEVATE_SET, TOP_K, _FP8

    values = _or_query_values()
    elev_rows = ", ".join(
        f"({qid}, {r + 1}, {did})"
        for qid, dids in sorted(ELEVATE_SET.items())
        for r, did in enumerate(dids)
    )
    return f"""
WITH {_CORPUS_CTES},
q(query_id, term) AS (VALUES {values}),
{_SC_CTE.format(fp8=_FP8)},
elev(query_id, e_rank, doc_id) AS (VALUES {elev_rows}),
ecount AS (SELECT query_id, count(*) AS c FROM elev GROUP BY query_id),
rest AS (
  SELECT sc.query_id, sc.doc_id,
         row_number() OVER (PARTITION BY sc.query_id
                            ORDER BY sc.score_fp DESC, sc.doc_id ASC) AS rn
  FROM sc
  WHERE NOT EXISTS (SELECT 1 FROM elev e
                    WHERE e.query_id = sc.query_id
                      AND e.doc_id = sc.doc_id)
)
SELECT query_id, e_rank AS rank, doc_id FROM elev
UNION ALL
SELECT r.query_id, r.rn + coalesce(ec.c, 0) AS rank, r.doc_id
FROM rest r LEFT JOIN ecount ec USING (query_id)
WHERE r.rn + coalesce(ec.c, 0) <= {TOP_K}
"""


ELEVATED_TOPK = _elevated_sql()


def _significant_terms_sql() -> str:
    """Significant terms: integer-exact lift over each query's full
    match set vs the corpus. The product df_fg*n_docs*FP runs in
    HUGEINT so the intermediate can't wrap (the Ray twin's Python-int
    fallback is the same arithmetic); the final lift is BIGINT-bounded
    by n_docs*FP."""
    from harvester_ray.pipelines.fulltext import (
        SIG_MIN_FG,
        SIG_TOP_K,
        _SIG_FP,
    )

    values = _or_query_values()
    return f"""
WITH toks AS ({_TOKS}),
q(query_id, term) AS (VALUES {values}),
matches AS (SELECT DISTINCT q.query_id, t.doc_id
            FROM q JOIN toks t USING (term)),
msize AS (SELECT query_id, count(*) AS m FROM matches GROUP BY query_id),
ipostings AS (SELECT term, doc_id FROM toks GROUP BY term, doc_id),
idict AS (SELECT term, count(*) AS df FROM ipostings GROUP BY term),
fg AS (SELECT m.query_id, p.term, count(*) AS df_fg
       FROM matches m JOIN ipostings p USING (doc_id)
       GROUP BY m.query_id, p.term),
scoredt AS (
  SELECT f.query_id, f.term,
         (CAST(f.df_fg AS HUGEINT) * (SELECT count(*) FROM documents)
            * {_SIG_FP}) // (CAST(d.df AS HUGEINT) * ms.m) AS lift_fp
  FROM fg f
  JOIN idict d USING (term)
  JOIN msize ms USING (query_id)
  WHERE f.df_fg >= {SIG_MIN_FG}
    AND NOT EXISTS (SELECT 1 FROM q
                    WHERE q.query_id = f.query_id AND q.term = f.term)
),
ranked AS (
  SELECT query_id, term, lift_fp,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY lift_fp DESC, term ASC) AS rank
  FROM scoredt
)
SELECT query_id, rank, term, CAST(lift_fp AS BIGINT) AS lift_fp
FROM ranked WHERE rank <= {SIG_TOP_K}
"""


SIGNIFICANT_TERMS = _significant_terms_sql()


def _field_quantiles_sql() -> str:
    """Per-query exact n_chars percentiles over the match set — the
    same histogram/cumulative rule as _quantiles_sql, partitioned by
    query."""
    from harvester_ray.pipelines.relational import QUANTILES_R4

    values = _or_query_values()
    vals = ", ".join(f"({q})" for q in QUANTILES_R4)
    return f"""
WITH toks AS ({_TOKS}),
q(query_id, term) AS (VALUES {values}),
matches AS (SELECT DISTINCT q.query_id, t.doc_id
            FROM q JOIN toks t USING (term)),
h AS (SELECT m.query_id, d.n_chars AS v, count(*) AS c
      FROM matches m JOIN documents d USING (doc_id)
      GROUP BY m.query_id, d.n_chars),
t AS (SELECT query_id, v,
             sum(c) OVER (PARTITION BY query_id ORDER BY v) AS cum,
             sum(c) OVER (PARTITION BY query_id) AS n
      FROM h),
qs(q_r4) AS (VALUES {vals})
SELECT query_id, q_r4, CAST(min(v) AS BIGINT) AS value
FROM qs JOIN t ON t.cum >= CAST(ceil(q_r4 * t.n / 10000.0) AS BIGINT)
GROUP BY query_id, q_r4
"""


SEARCH_FIELD_QUANTILES = _field_quantiles_sql()


def _terms_enum_sql() -> str:
    """Solr /terms parity: per prefix, top-K dictionary terms by
    document frequency (df desc, term asc), df >= mincount. Same
    dictionary definition (distinct docs per term) as the index."""
    from harvester_ray.pipelines.fulltext import (
        TERMS_K,
        TERMS_MINCOUNT,
        TERMS_PREFIXES,
    )

    pvals = ", ".join(f"({i}, '{p}')" for i, p in enumerate(TERMS_PREFIXES))
    return f"""
WITH toks AS ({_TOKS}),
ipostings AS (SELECT term, doc_id FROM toks GROUP BY term, doc_id),
idict AS (SELECT term, count(*) AS df FROM ipostings GROUP BY term),
p(prefix_id, prefix) AS (VALUES {pvals}),
f AS (SELECT p.prefix_id, d.term, d.df
      FROM p JOIN idict d ON starts_with(d.term, p.prefix)
      WHERE d.df >= {TERMS_MINCOUNT}),
ranked AS (SELECT prefix_id, term, df,
                  row_number() OVER (PARTITION BY prefix_id
                                     ORDER BY df DESC, term ASC) AS rank
           FROM f)
SELECT prefix_id, rank, term, df FROM ranked WHERE rank <= {TERMS_K}
"""


TERMS_ENUM = _terms_enum_sql()


def _rerank_sql() -> str:
    """Two-phase rerank: BM25 fixed-point top-RERANK_N per query
    (the shared sc CTE), rescored under the tfidf weighting (the
    shared per-posting expression, fixed-pointed at the row), final
    top-TOP_K by the phase-2 score."""
    from harvester_ray.pipelines.fulltext import RERANK_N, TOP_K, _FP8

    values = _or_query_values()
    return f"""
WITH {_CORPUS_CTES},
q(query_id, term) AS (VALUES {values}),
{_SC_CTE.format(fp8=_FP8)},
r1 AS (SELECT query_id, doc_id,
              row_number() OVER (PARTITION BY query_id
                                 ORDER BY score_fp DESC, doc_id ASC) AS rn
       FROM sc),
cand AS (SELECT query_id, doc_id FROM r1 WHERE rn <= {RERANK_N}),
sct AS (
  SELECT q.query_id, p.doc_id,
         sum(CAST(floor(( {_SCORE_EXPRS["tfidf"]} ) * {_FP8} + 0.5)
             AS BIGINT)) AS score_fp
  FROM q
  JOIN postings p USING (term)
  JOIN dict d USING (term)
  JOIN doclen l USING (doc_id)
  GROUP BY q.query_id, p.doc_id
),
j AS (SELECT s.query_id, s.doc_id, s.score_fp
      FROM sct s JOIN cand c USING (query_id, doc_id)),
ranked AS (SELECT query_id, doc_id,
                  row_number() OVER (PARTITION BY query_id
                                     ORDER BY score_fp DESC, doc_id ASC)
                    AS rank
           FROM j)
SELECT query_id, rank, doc_id FROM ranked WHERE rank <= {TOP_K}
"""


RERANK_TOPK = _rerank_sql()


def _lmdirichlet_sql() -> str:
    """Query-likelihood / Dirichlet smoothing (mu = _LM_MU): per
    matched posting fp8(ln(1 + tf/(mu*cf/C)) + ln(mu/(dl+mu))),
    summed per (query, doc). Both ln arguments are exact-integer
    ratios (< 2^53 operands), so DuckDB's BIGINT-to-DOUBLE divisions
    equal the engine's Python-int divisions bit-for-bit, and libm ln
    (math.log on the engine side) matches DuckDB's ln."""
    from harvester_ray.pipelines.fulltext import TOP_K, _FP8, _LM_MU

    values = _or_query_values()
    return f"""
WITH toks AS ({_TOKS}),
postings AS (SELECT term, doc_id, count(*) AS tf
             FROM toks GROUP BY term, doc_id),
doclen AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
cfd AS (SELECT term, count(*) AS cf FROM toks GROUP BY term),
q(query_id, term) AS (VALUES {values}),
sc AS (
  SELECT q.query_id, p.doc_id,
         sum(CAST(floor((
               ln(1 + p.tf / (({_LM_MU} * c.cf)
                              / (SELECT count(*) FROM toks)))
             + ln({_LM_MU} / (l.dl + {_LM_MU}))
           ) * {_FP8} + 0.5) AS BIGINT)) AS score_fp
  FROM q
  JOIN postings p USING (term)
  JOIN cfd c USING (term)
  JOIN doclen l USING (doc_id)
  GROUP BY q.query_id, p.doc_id
),
ranked AS (SELECT query_id, doc_id,
                  row_number() OVER (PARTITION BY query_id
                                     ORDER BY score_fp DESC, doc_id ASC)
                    AS rank
           FROM sc)
SELECT query_id, rank, doc_id FROM ranked WHERE rank <= {TOP_K}
"""


LMDIRICHLET_TOPK = _lmdirichlet_sql()


def _doc_entropy_sql() -> str:
    """Per-doc unigram Shannon entropy, nats, fp8 at the (doc, term)
    row — the engine computes the identical -(tf/dl)*ln(tf/dl) double
    (scalar libm over unique (tf, dl) pairs), so integer sums agree
    bit-for-bit."""
    from harvester_ray.stages.textstats import _ENT_FP8

    return f"""
WITH toks AS ({_TOKS}),
postings AS (SELECT term, doc_id, count(*) AS tf
             FROM toks GROUP BY term, doc_id),
doclen AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id)
SELECT p.doc_id,
       CAST(sum(CAST(floor(( -(p.tf / l.dl) * ln(p.tf / l.dl) )
                      * {_ENT_FP8} + 0.5) AS BIGINT)) AS BIGINT)
         AS entropy_fp
FROM postings p JOIN doclen l USING (doc_id)
GROUP BY p.doc_id
"""


DOC_ENTROPY = _doc_entropy_sql()


def _common_ngrams_sql() -> str:
    """Top-K corpus-wide word n-grams: the same analyzer token lists
    (regexp_extract_all of the tokenizer class), windows built per doc
    by list_transform over generate_series, counted globally."""
    from harvester_ray.stages.textstats import _GRAM_WORDS, NGRAM_TOP_K

    w = _GRAM_WORDS
    gram_expr = " || ' ' || ".join(f"ts[i+{j}]" for j in range(w))
    return f"""
WITH tl AS (SELECT regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
            FROM documents),
grams AS (SELECT unnest(list_transform(
              generate_series(1, len(ts) - {w - 1}),
              i -> {gram_expr})) AS gram
          FROM tl WHERE len(ts) >= {w}),
counts AS (SELECT gram, count(*) AS n FROM grams GROUP BY gram),
ranked AS (SELECT gram, n,
                  row_number() OVER (ORDER BY n DESC, gram ASC) AS rank
           FROM counts)
SELECT rank, gram, n FROM ranked WHERE rank <= {NGRAM_TOP_K}
"""


COMMON_NGRAMS = _common_ngrams_sql()


def _json_facet_stats_sql() -> str:
    """JSON Facet API twin: per query, top-K source buckets of the
    full match set by count, with nested sum + integer-exact fp4 avg
    (same floor division as the engine)."""
    from harvester_ray.pipelines.fulltext import JSON_FACET_K, _FP4

    values = _or_query_values()
    return f"""
WITH toks AS ({_TOKS}),
q(query_id, term) AS (VALUES {values}),
matches AS (SELECT DISTINCT q.query_id, t.doc_id
            FROM q JOIN toks t USING (term)),
j AS (SELECT m.query_id, d.source, d.n_chars
      FROM matches m JOIN documents d USING (doc_id)),
b AS (SELECT query_id, source, count(*) AS n_docs,
             CAST(sum(n_chars) AS BIGINT) AS sum_chars
      FROM j GROUP BY query_id, source),
ranked AS (SELECT *, row_number() OVER (PARTITION BY query_id
                        ORDER BY n_docs DESC, source ASC) AS bucket_rank
           FROM b)
SELECT query_id, bucket_rank, source, n_docs, sum_chars,
       (sum_chars * {_FP4}) // n_docs AS avg_chars_fp4
FROM ranked WHERE bucket_rank <= {JSON_FACET_K}
"""


JSON_FACET_STATS = _json_facet_stats_sql()


def _mm_topk_sql() -> str:
    """Minimum-should-match: the standard fp8 scored match set (sc)
    restricted to (query, doc) pairs matching at least
    least(MM_MIN, |query terms|) distinct query terms — Solr's rule
    that mm is capped at the optional-clause count."""
    from harvester_ray.pipelines.fulltext import _FP8, MM_MIN

    values = _or_query_values()
    return f"""
WITH {_CORPUS_CTES},
q(query_id, term) AS (VALUES {values}),
{_SC_CTE.format(fp8=_FP8)},
hits AS (
  SELECT q.query_id, p.doc_id
  FROM q JOIN postings p USING (term)
  GROUP BY q.query_id, p.doc_id
  HAVING count(DISTINCT p.term) >=
    least({MM_MIN}, (SELECT count(*) FROM q q2
                     WHERE q2.query_id = q.query_id))
),
ranked AS (
  SELECT sc.query_id, sc.doc_id,
         row_number() OVER (PARTITION BY sc.query_id
                            ORDER BY sc.score_fp DESC, sc.doc_id ASC)
           AS rank
  FROM sc JOIN hits USING (query_id, doc_id)
)
SELECT query_id, rank, doc_id FROM ranked WHERE rank <= {TOP_K}
"""


MM_TOPK = _mm_topk_sql()


def _pf_topk_sql() -> str:
    """Twin of fulltext.pf_topk: the standard fp8 scored match set
    plus PF_BOOST_FP per exact-phrase occurrence of the whole
    multi-term query (overlap-exact counting, the PHRASE_MATCH list
    comprehension, over ORDERED query tokens)."""
    from harvester_ray.functions.text import tokenize
    from harvester_ray.pipelines.fulltext import _FP8, PF_BOOST_FP, TOP_K

    values = _or_query_values()
    branches = []
    for qid, q in queries_for_mode("or"):
        terms = tokenize(q)
        if len(terms) < 2:
            continue
        k = len(terms)
        conds = " AND ".join(
            f"ts[i+{i}] = '{t}'" if i else f"ts[i] = '{t}'"
            for i, t in enumerate(terms)
        )
        branches.append(
            f"SELECT {qid} AS query_id, doc_id,\n"
            f"  len([i FOR i IN range(1, greatest(len(ts) - {k} + 2, 1))\n"
            f"       IF {conds}])::BIGINT AS n_occ\n"
            f"FROM tsa"
        )
    union = "\nUNION ALL\n".join(branches)
    return f"""
WITH {_CORPUS_CTES},
q(query_id, term) AS (VALUES {values}),
{_SC_CTE.format(fp8=_FP8)},
tsa AS (SELECT doc_id,
          regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS ts
        FROM documents),
ph AS ({union}),
f AS (
  SELECT sc.query_id, sc.doc_id,
         sc.score_fp + {PF_BOOST_FP} * coalesce(ph.n_occ, 0) AS final_fp
  FROM sc LEFT JOIN ph
    ON ph.query_id = sc.query_id AND ph.doc_id = sc.doc_id
),
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY final_fp DESC, doc_id ASC) AS rank
  FROM f
)
SELECT query_id, CAST(rank AS BIGINT) AS rank, doc_id
FROM ranked WHERE rank <= {TOP_K}
"""


PF_TOPK = _pf_topk_sql()


def _termvectors_sql() -> str:
    """Per-doc term vectors for the pinned doc set: tf doc-local, df
    corpus-wide, tfidf_fp = fp8((1 + ln tf) * ln((N+1)/(df+1))) — the
    identical expression tree (and BIGINT floor) as the Ray kernel."""
    from harvester_ray.pipelines.fulltext import _FP8, TV_MAX_DOC

    return f"""
WITH toks AS ({_TOKS}),
postings AS (SELECT term, doc_id, count(*) AS tf FROM toks
             GROUP BY term, doc_id),
dict AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
         GROUP BY term),
n AS (SELECT count(*)::DOUBLE AS n FROM documents)
SELECT p.doc_id, p.term, p.tf, d.df,
       CAST(floor((1 + ln(p.tf)) * ln(((SELECT n FROM n) + 1)
                                      / (d.df::DOUBLE + 1))
                  * {_FP8} + 0.5) AS BIGINT) AS tfidf_fp
FROM postings p JOIN dict d USING (term)
WHERE p.doc_id < {TV_MAX_DOC}
"""


TERMVECTORS = _termvectors_sql()


INDEX_OVERVIEW = f"""
WITH toks AS ({_TOKS}),
dict AS (SELECT term, count(DISTINCT doc_id) AS df, count(*) AS cf
         FROM toks GROUP BY term),
dl AS (SELECT doc_id, count(*) AS doc_len FROM toks GROUP BY doc_id)
SELECT 'avgdl_fp4' AS metric,
       ((SELECT sum(cf) FROM dict) * 10000
         // (SELECT count(*) FROM documents))::BIGINT AS value
UNION ALL SELECT 'max_df', (SELECT max(df) FROM dict)::BIGINT
UNION ALL SELECT 'max_doc_len', (SELECT max(doc_len) FROM dl)::BIGINT
UNION ALL SELECT 'min_doc_len', (SELECT min(doc_len) FROM dl)::BIGINT
UNION ALL SELECT 'n_docs', (SELECT count(*) FROM documents)::BIGINT
UNION ALL SELECT 'n_postings', (SELECT count(*) FROM
                                (SELECT DISTINCT term, doc_id FROM toks))::BIGINT
UNION ALL SELECT 'n_terms', (SELECT count(*) FROM dict)::BIGINT
UNION ALL SELECT 'total_tokens', (SELECT count(*) FROM toks)::BIGINT
"""


def _facet_query_sql() -> str:
    """facet.query counts: the distinct match set joined to documents,
    one UNION ALL arm per facet predicate (labels mirror
    FACET_QUERY_LABELS verbatim)."""
    values = _or_query_values()
    return f"""
WITH toks AS ({_TOKS}),
postings AS (SELECT term, doc_id, count(*) AS tf FROM toks
             GROUP BY term, doc_id),
q(query_id, term) AS (VALUES {values}),
m AS (SELECT DISTINCT q.query_id, p.doc_id
      FROM q JOIN postings p USING (term)),
j AS (SELECT m.query_id, d.lang, d.n_chars
      FROM m JOIN documents d ON d.doc_id = m.doc_id)
SELECT query_id, 'lang:en' AS facet, count(*) AS n_docs
FROM j WHERE lang = 'en' GROUP BY query_id
UNION ALL
SELECT query_id, 'n_chars:[300 TO *]', count(*)
FROM j WHERE n_chars >= 300 GROUP BY query_id
UNION ALL
SELECT query_id, 'lang:de AND n_chars:[* TO 250]', count(*)
FROM j WHERE lang = 'de' AND n_chars <= 250 GROUP BY query_id
"""


FACET_QUERY_COUNTS = _facet_query_sql()


DF_HISTOGRAM = f"""
WITH toks AS ({_TOKS}),
dict AS (SELECT term, count(DISTINCT doc_id) AS df, count(*) AS cf
         FROM toks GROUP BY term)
SELECT length(bin(df)) - 1 AS bucket,
       count(*) AS n_terms, sum(cf)::BIGINT AS sum_cf
FROM dict GROUP BY bucket
"""


def _chunk_dups_sql() -> str:
    """Cross-document repeated token-window chunks (stages/chunking.py
    chunk_dups): the DOC_CHUNKS chunking expression grouped by
    chunk_text, kept where the distinct-doc count reaches 2."""
    from harvester_ray.stages.chunking import CHUNK_OVERLAP, CHUNK_SIZE

    c, stride = CHUNK_SIZE, CHUNK_SIZE - CHUNK_OVERLAP
    return f"""
WITH toks AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS ts
  FROM documents
),
chunks AS (
  SELECT doc_id,
         array_to_string(ts[u.i * {stride} + 1 : u.i * {stride} + {c}], ' ')
           AS chunk_text
  FROM toks, unnest(range(0, (len(ts) + {stride} - 1) // {stride})) AS u(i)
)
SELECT chunk_text, count(DISTINCT doc_id)::BIGINT AS n_docs,
       count(*)::BIGINT AS n_occ
FROM chunks GROUP BY chunk_text HAVING count(DISTINCT doc_id) >= 2
"""


CHUNK_DUPS = _chunk_dups_sql()


def _dup_chunk_filter_sql() -> str:
    """Duplicated-span document filter (stages/chunking.py
    dup_chunk_filter): drop docs where DEN·n_dup > NUM·n_chunks over
    the same chunking; zero-chunk docs have no stats row and are
    kept."""
    from harvester_ray.stages.chunking import (
        CHUNK_OVERLAP,
        CHUNK_SIZE,
        DUP_FRAC_DEN,
        DUP_FRAC_NUM,
    )

    c, stride = CHUNK_SIZE, CHUNK_SIZE - CHUNK_OVERLAP
    return f"""
WITH toks AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS ts
  FROM documents
),
chunks AS (
  SELECT doc_id,
         array_to_string(ts[u.i * {stride} + 1 : u.i * {stride} + {c}], ' ')
           AS chunk_text
  FROM toks, unnest(range(0, (len(ts) + {stride} - 1) // {stride})) AS u(i)
),
dup AS (
  SELECT chunk_text FROM chunks
  GROUP BY chunk_text HAVING count(DISTINCT doc_id) >= 2
),
st AS (
  SELECT doc_id, count(*) AS n_chunks,
         count(*) FILTER (
           WHERE chunk_text IN (SELECT chunk_text FROM dup)
         ) AS n_dup
  FROM chunks GROUP BY doc_id
)
SELECT doc_id FROM documents
WHERE doc_id NOT IN (
  SELECT doc_id FROM st
  WHERE {DUP_FRAC_DEN} * n_dup > {DUP_FRAC_NUM} * n_chunks
)
"""


DUP_CHUNK_FILTER = _dup_chunk_filter_sql()


def _dsir_weights_sql() -> str:
    """DSIR importance weights (stages/textstats.py dsir_weights): the
    identical per-term expression tree — Laplace-smoothed ln ratio of
    target (lang = DSIR_TARGET_LANG) vs corpus unigram LMs over the
    shared corpus vocabulary, fixed-pointed at the term, integer-summed
    per doc."""
    from harvester_ray.stages.textstats import _DSIR_FP, DSIR_TARGET_LANG

    return f"""
WITH toks AS ({_TOKS}),
all_c AS (SELECT term, count(*) AS c_all FROM toks GROUP BY term),
tgt_c AS (
  SELECT t.term, count(*) AS c_tgt
  FROM toks t JOIN documents d USING (doc_id)
  WHERE d.lang = '{DSIR_TARGET_LANG}' GROUP BY t.term
),
consts AS (
  SELECT (SELECT sum(c_all) FROM all_c) AS t_all,
         (SELECT coalesce(sum(c_tgt), 0) FROM tgt_c) AS t_tgt,
         (SELECT count(*) FROM all_c) AS v
),
fp AS (
  SELECT a.term,
         CAST(floor((ln((coalesce(g.c_tgt, 0) + 1)::DOUBLE
                        / (c.t_tgt + c.v))
                     - ln((a.c_all + 1)::DOUBLE / (c.t_all + c.v)))
                    * {_DSIR_FP} + 0.5) AS BIGINT) AS fp
  FROM all_c a LEFT JOIN tgt_c g USING (term), consts c
),
dt AS (SELECT doc_id, term, count(*) AS n_t FROM toks
       GROUP BY doc_id, term)
SELECT dt.doc_id, sum(dt.n_t)::BIGINT AS n_tokens,
       sum(dt.n_t * fp.fp)::BIGINT AS dsir_fp
FROM dt JOIN fp USING (term) GROUP BY dt.doc_id
"""


DSIR_WEIGHTS = _dsir_weights_sql()


def _dup_span_stats_sql() -> str:
    """Repeated-substring coverage (stages/chunking.py dup_span_stats):
    stride-1 length-L token windows, duplicated = total occurrences
    >= 2 anywhere in the corpus, covered tokens = distinct positions
    under any duplicated window."""
    from harvester_ray.stages.chunking import SPAN_L

    return f"""
WITH toks AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS ts
  FROM documents
),
grams AS (
  SELECT doc_id, u.i AS pos,
         array_to_string(ts[u.i + 1 : u.i + {SPAN_L}], ' ') AS gram
  FROM toks,
       unnest(range(0, greatest(len(ts) - {SPAN_L} + 1, 0))) AS u(i)
),
dup AS (SELECT gram FROM grams GROUP BY gram HAVING count(*) >= 2),
occ AS (SELECT doc_id, pos FROM grams
        WHERE gram IN (SELECT gram FROM dup)),
cov AS (
  SELECT o.doc_id, count(DISTINCT o.pos + u.k) AS n_dup_tokens
  FROM occ o, unnest(range(0, {SPAN_L})) AS u(k)
  GROUP BY o.doc_id
),
nt AS (SELECT doc_id, len(ts) AS n_tokens FROM toks)
SELECT c.doc_id, nt.n_tokens::BIGINT AS n_tokens,
       c.n_dup_tokens::BIGINT AS n_dup_tokens
FROM cov c JOIN nt USING (doc_id)
"""


DUP_SPAN_STATS = _dup_span_stats_sql()


def _ccnet_buckets_sql() -> str:
    """CCNet terciles (stages/textstats.py ccnet_buckets): the
    UNIGRAM_LOGPROB doc table, fp4-quantized per-token average, the
    shared smallest-value-with-cum>=ceil(q·n) cutoff rule, ties share
    a bucket."""
    from harvester_ray.stages.textstats import _CCNET_KEY_DIV

    return f"""
WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
              FROM documents),
dict AS (SELECT term, count(*) AS c FROM toks GROUP BY term),
tot AS (SELECT count(*)::DOUBLE AS t FROM toks),
tfp AS (SELECT term,
               CAST(floor(ln(c::DOUBLE / (SELECT t FROM tot))
                          * 100000000 + 0.5) AS BIGINT) AS fp
        FROM dict),
doc AS (SELECT t.doc_id, count(*) AS n_tokens, sum(tf.fp)::BIGINT AS logprob_fp
        FROM toks t JOIN tfp tf USING (term) GROUP BY t.doc_id),
keyed AS (SELECT doc_id,
                 CAST(floor((logprob_fp::DOUBLE / n_tokens)
                            / {_CCNET_KEY_DIV} + 0.5) AS BIGINT) AS ppl_fp4
          FROM doc),
h AS (SELECT ppl_fp4 AS v, count(*) AS c FROM keyed GROUP BY v),
t2 AS (SELECT v, sum(c) OVER (ORDER BY v) AS cum,
              (SELECT sum(c) FROM h) AS n
       FROM h),
c1 AS (SELECT min(v) AS v FROM t2
       WHERE cum >= CAST(ceil(n / 3.0) AS BIGINT)),
c2 AS (SELECT min(v) AS v FROM t2
       WHERE cum >= CAST(ceil(2.0 * n / 3.0) AS BIGINT))
SELECT doc_id, ppl_fp4,
       CASE WHEN ppl_fp4 <= (SELECT v FROM c1) THEN 'tail'
            WHEN ppl_fp4 <= (SELECT v FROM c2) THEN 'middle'
            ELSE 'head' END AS bucket
FROM keyed
"""


CCNET_BUCKETS = _ccnet_buckets_sql()


def _doc_keywords_sql() -> str:
    """Per-doc top-k tf-idf keywords (fulltext.doc_keywords): the
    termvectors weight expression over every doc, row_number by
    (tfidf_fp DESC, term ASC)."""
    from harvester_ray.pipelines.fulltext import _FP8, KW_K

    return f"""
WITH toks AS ({_TOKS}),
postings AS (SELECT term, doc_id, count(*) AS tf FROM toks
             GROUP BY term, doc_id),
dict AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
         GROUP BY term),
n AS (SELECT count(*)::DOUBLE AS n FROM documents),
w AS (
  SELECT p.doc_id, p.term,
         CAST(floor((1 + ln(p.tf)) * ln(((SELECT n FROM n) + 1)
                                        / (d.df::DOUBLE + 1))
                    * {_FP8} + 0.5) AS BIGINT) AS tfidf_fp
  FROM postings p JOIN dict d USING (term)
),
r AS (
  SELECT doc_id, term, tfidf_fp,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY tfidf_fp DESC, term ASC) AS rank
  FROM w
)
SELECT doc_id, rank, term, tfidf_fp FROM r WHERE rank <= {KW_K}
"""


DOC_KEYWORDS = _doc_keywords_sql()


def _expand_sql() -> str:
    """Expand component: same collapse group ranking as _collapse_sql,
    then up to EXPAND_K non-representative rows per kept group."""
    from harvester_ray.pipelines.fulltext import COLLAPSE_K, EXPAND_K, _FP8

    values = _or_query_values()
    return f"""
WITH {_CORPUS_CTES},
q(query_id, term) AS (VALUES {values}),
{_SC_CTE.format(fp8=_FP8)},
j AS (SELECT sc.query_id, sc.doc_id, sc.score_fp, d2.source
      FROM sc JOIN documents d2 USING (doc_id)),
rn AS (
  SELECT query_id, source, doc_id, score_fp,
         row_number() OVER (PARTITION BY query_id, source
                            ORDER BY score_fp DESC, doc_id ASC) AS rn
  FROM j
),
granked AS (
  SELECT query_id, source,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score_fp DESC, doc_id ASC) AS grp_rank
  FROM rn WHERE rn = 1
)
SELECT r.query_id, r.source, r.rn - 1 AS exp_rank, r.doc_id
FROM rn r JOIN granked g USING (query_id, source)
WHERE g.grp_rank <= {COLLAPSE_K} AND r.rn BETWEEN 2 AND {EXPAND_K + 1}
"""


EXPAND_TOPK = _expand_sql()


def _export_sorted_sql() -> str:
    from harvester_ray.pipelines.fulltext import EXPORT_LANG, EXPORT_TERM

    return f"""
WITH toks AS ({_TOKS}),
matched AS (SELECT DISTINCT doc_id FROM toks WHERE term = '{EXPORT_TERM}')
SELECT row_number() OVER (ORDER BY d.n_chars DESC, d.doc_id ASC) AS rank,
       d.doc_id, d.source, d.n_chars
FROM matched m JOIN documents d USING (doc_id)
WHERE d.lang = '{EXPORT_LANG}'
"""


EXPORT_SORTED = _export_sorted_sql()


def _vocab_growth_sql() -> str:
    from harvester_ray.pipelines.fulltext import VG_CHECKPOINTS

    return f"""
WITH toks AS ({_TOKS}),
firsts AS (SELECT term, min(doc_id) AS fd FROM toks GROUP BY term),
cps AS (SELECT (SELECT max(doc_id) FROM documents) * i // {VG_CHECKPOINTS}
               AS checkpoint
        FROM generate_series(1, {VG_CHECKPOINTS}) AS t(i))
SELECT c.checkpoint, count(f.term) AS vocab_size
FROM cps c LEFT JOIN firsts f ON f.fd <= c.checkpoint
GROUP BY c.checkpoint
"""


VOCAB_GROWTH = _vocab_growth_sql()


def _pack_sequences_sql() -> str:
    """Greedy doc-boundary packing as a per-source recursive scan —
    the sequential rule (restart bin when a doc would cross capacity)
    is exactly the recursion; same tokenizer contract as every oracle."""
    from harvester_ray.stages.chunking import PACK_CAPACITY

    c = PACK_CAPACITY
    return f"""
WITH RECURSIVE toks AS ({_TOKS}),
cnt AS (SELECT doc_id, count(*) AS n FROM toks GROUP BY doc_id),
docs AS (
  SELECT d.source, d.doc_id, coalesce(c.n, 0) AS n,
         row_number() OVER (PARTITION BY d.source
                            ORDER BY d.doc_id) AS rn
  FROM documents d LEFT JOIN cnt c USING (doc_id)
),
pack AS (
  SELECT source, doc_id, n, rn,
         0::BIGINT AS bin_id, 0::BIGINT AS bin_offset, n AS filled
  FROM docs WHERE rn = 1
  UNION ALL
  SELECT d.source, d.doc_id, d.n, d.rn,
         CASE WHEN p.filled + d.n > {c} AND p.filled > 0
              THEN p.bin_id + 1 ELSE p.bin_id END,
         CASE WHEN p.filled + d.n > {c} AND p.filled > 0
              THEN 0 ELSE p.filled END,
         CASE WHEN p.filled + d.n > {c} AND p.filled > 0
              THEN d.n ELSE p.filled + d.n END
  FROM pack p JOIN docs d ON d.source = p.source AND d.rn = p.rn + 1
)
SELECT source, doc_id, n AS n_tokens, bin_id, bin_offset FROM pack
"""


PACK_SEQUENCES = _pack_sequences_sql()


def _realtime_get_sql() -> str:
    from harvester_ray.pipelines.fulltext import RTG_IDS

    ids = ", ".join(str(i) for i in RTG_IDS)
    return f"""
WITH toks AS ({_TOKS}),
cnt AS (SELECT doc_id, count(*) AS doc_len FROM toks GROUP BY doc_id)
SELECT d.doc_id, c.doc_len, d.source, d.n_chars
FROM documents d JOIN cnt c USING (doc_id)
WHERE d.doc_id IN ({ids})
"""


REALTIME_GET = _realtime_get_sql()


# the decode stage's payload is utf-8(text); media type round-robins
# by doc_id (stages/multimodal.py synthesize_payloads) — both exactly
# SQL-expressible, so the plumbing pipeline gets a value-hash oracle
# ((doc_id % 3) + 3) % 3 mirrors Python %, which is floored (SQL %
# takes the dividend's sign); coalesce mirrors the kernel's
# (text or '').encode() on NULL text
MULTIMODAL_META = """
SELECT doc_id,
       CASE ((doc_id % 3) + 3) % 3
            WHEN 0 THEN 'image/fake'
            WHEN 1 THEN 'audio/fake'
            ELSE 'video/fake' END AS media_type,
       coalesce(octet_length(encode(text)), 0) AS n_bytes
FROM documents
"""


def _atomic_update_sql() -> str:
    from harvester_ray.pipelines.fulltext import ATOMIC_IDS, ATOMIC_TOKEN

    ids = ", ".join(str(i) for i in ATOMIC_IDS)
    return f"""
WITH docs2 AS (
  SELECT doc_id,
         CASE WHEN doc_id IN ({ids})
              THEN text || ' {ATOMIC_TOKEN}' ELSE text END AS text
  FROM documents
),
toks AS (SELECT doc_id,
                unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
         FROM docs2)
SELECT doc_id, count(*) AS doc_len FROM toks GROUP BY doc_id
"""


ATOMIC_UPDATE = _atomic_update_sql()


def _heavy_hitters_sql() -> str:
    from harvester_ray.stages.sketches import HH_D

    return f"""
WITH toks AS ({_TOKS}),
tot AS (SELECT count(*) AS n FROM toks)
SELECT term, count(*) AS n FROM toks GROUP BY term
HAVING count(*) >= ((SELECT n FROM tot) + {HH_D - 1}) // {HH_D}
"""


HEAVY_HITTERS = _heavy_hitters_sql()


def _histogram_quantiles_sql() -> str:
    """Twin of sketches.histogram_quantiles: the same two-pass
    equal-width histogram sketch — r4 fixed point, floored divisions
    on non-negative offsets, ceil rank targets — evaluated exactly."""
    from harvester_ray.stages.sketches import HQ_CELLS, HQ_PERMILLE

    qs = ", ".join(f"({q})" for q in HQ_PERMILLE)
    return f"""
WITH v AS (SELECT CAST(floor(value * 10000 + 0.5) AS BIGINT) AS vfp
           FROM events),
mm AS (SELECT min(vfp) AS lo, max(vfp) AS hi, count(*)::BIGINT AS n
       FROM v),
w AS (SELECT lo, n, greatest(1, (hi - lo) // {HQ_CELLS} + 1) AS wd
      FROM mm),
h AS (SELECT (vfp - (SELECT lo FROM w)) // (SELECT wd FROM w) AS cell,
             count(*)::BIGINT AS c
      FROM v GROUP BY 1),
t AS (SELECT cell, sum(c) OVER (ORDER BY cell) AS cum FROM h),
qs(q_permille) AS (VALUES {qs})
SELECT CAST(q_permille AS BIGINT) AS q_permille,
       CAST((SELECT (SELECT lo FROM w)
                    + (min(cell) + 1) * (SELECT wd FROM w) - 1
             FROM t
             WHERE cum >= (q_permille * (SELECT n FROM w) + 999) // 1000)
            AS BIGINT) AS value_r4_edge
FROM qs
"""


HISTOGRAM_QUANTILES = _histogram_quantiles_sql()


def _hll_registers_sql() -> str:
    """The SAME double-quadratic Mersenne-modular hash + bucket/rank
    arithmetic as stages/sketches._hll_parts, term for term (user_id
    >= 0, so % and np.mod agree; every product of two sub-2^31 values
    fits BIGINT; ceil(log2(v+1)) is exact in float64 for v < 2^31 on
    both engines). DISTINCT commutes with hashing, so dedup-first
    keeps the oracle cheap."""
    from harvester_ray.stages.sketches import (
        HLL_M,
        _HASH_A,
        _HASH_A2,
        _HASH_B,
        _HASH_B2,
        _MERSENNE,
        _V_BITS,
    )

    return f"""
WITH xm AS (SELECT DISTINCT (user_id % {_MERSENNE}) AS x FROM events),
r1 AS (SELECT ((x * x + {_HASH_A} * x + {_HASH_B}) % {_MERSENNE}) AS r
       FROM xm),
h AS (SELECT ((r * r + {_HASH_A2} * r + {_HASH_B2}) % {_MERSENNE}) AS h
      FROM r1),
parts AS (SELECT h % {HLL_M} AS bucket, h // {HLL_M} AS v FROM h),
ranked AS (
  SELECT bucket,
         CASE WHEN v = 0 THEN {_V_BITS + 1}
              ELSE {_V_BITS + 1} - CAST(ceil(log2(v + 1)) AS BIGINT)
         END AS rank
  FROM parts
)
SELECT bucket, max(rank) AS rank FROM ranked GROUP BY bucket
"""


HLL_REGISTERS = _hll_registers_sql()


def _cms_registers_sql() -> str:
    """Twin of stages/sketches.cms_registers: the same double-quadratic
    Mersenne hash with the row-salt added BEFORE the quadratic rounds;
    registers are plain exact sums, so the whole sketch sits under the
    value hash (user_id >= 0, so % and np.mod agree)."""
    from harvester_ray.stages.sketches import (
        CMS_D,
        CMS_W,
        _CMS_SALT,
        _HASH_A,
        _HASH_A2,
        _HASH_B,
        _HASH_B2,
        _MERSENNE,
    )

    rows = ", ".join(f"({r})" for r in range(CMS_D))
    return f"""
WITH rws(r) AS (VALUES {rows}),
xm AS (SELECT r, ((user_id % {_MERSENNE}) + r * {_CMS_SALT})
              % {_MERSENNE} AS x
       FROM events CROSS JOIN rws),
r1 AS (SELECT r, ((x * x + {_HASH_A} * x + {_HASH_B}) % {_MERSENNE}) AS v
       FROM xm),
h AS (SELECT r, ((v * v + {_HASH_A2} * v + {_HASH_B2}) % {_MERSENNE}) AS h
      FROM r1)
SELECT CAST(r AS BIGINT) AS row, h % {CMS_W} AS bucket,
       count(*)::BIGINT AS total
FROM h GROUP BY 1, 2
"""


CMS_REGISTERS = _cms_registers_sql()


def _hll_registers_by_group_sql() -> str:
    """Grouped twin of HLL_REGISTERS: identical hash/bucket/rank
    arithmetic, deduped and register-maxed PER event_type. DISTINCT
    (event_type, user_id) commutes with hashing user_id, so the
    grouped oracle is the single-key oracle with event_type carried
    through every CTE."""
    from harvester_ray.stages.sketches import (
        HLL_M,
        _HASH_A,
        _HASH_A2,
        _HASH_B,
        _HASH_B2,
        _MERSENNE,
        _V_BITS,
    )

    return f"""
WITH xm AS (SELECT DISTINCT event_type, (user_id % {_MERSENNE}) AS x
            FROM events),
r1 AS (SELECT event_type,
              ((x * x + {_HASH_A} * x + {_HASH_B}) % {_MERSENNE}) AS r
       FROM xm),
h AS (SELECT event_type,
             ((r * r + {_HASH_A2} * r + {_HASH_B2}) % {_MERSENNE}) AS h
      FROM r1),
parts AS (SELECT event_type, h % {HLL_M} AS bucket, h // {HLL_M} AS v
          FROM h),
ranked AS (
  SELECT event_type, bucket,
         CASE WHEN v = 0 THEN {_V_BITS + 1}
              ELSE {_V_BITS + 1} - CAST(ceil(log2(v + 1)) AS BIGINT)
         END AS rank
  FROM parts
)
SELECT event_type, bucket, max(rank) AS rank
FROM ranked GROUP BY event_type, bucket
"""


HLL_REGISTERS_BY_GROUP = _hll_registers_by_group_sql()


def _dup_ngram_spans_sql() -> str:
    """Exact twin of stages/dedup.dup_ngram_spans: every strict
    W-token window (1-based start over the analyzer token stream)
    whose space-joined gram occurs in more than one distinct document.
    The analyzer tokenization is regexp_extract_all(lower, [a-z0-9]+)
    — the established SQL equivalent of tokenize_column (same stream
    the HEAVY_HITTERS oracle uses). DuckDB list slicing l[i:j] is
    1-based inclusive, so ts[i:i+W-1] is the W-token window at i."""
    from harvester_ray.stages.dedup import DUP_SPAN_W as W

    return f"""
WITH toks AS (SELECT doc_id,
                     regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
              FROM documents),
win AS (SELECT doc_id, i AS start,
               array_to_string(ts[i:i+{W - 1}], ' ') AS gram
        FROM toks, unnest(range(1, greatest(len(ts) - {W} + 2, 1))) AS u(i)),
dup AS (SELECT gram FROM win GROUP BY gram
        HAVING count(DISTINCT doc_id) > 1)
SELECT doc_id, start, gram FROM win
WHERE gram IN (SELECT gram FROM dup)
"""


DUP_NGRAM_SPANS = _dup_ngram_spans_sql()


def _dup_span_scrub_sql() -> str:
    """Exact twin of stages/dedup.dup_span_scrub: drop every analyzer
    token covered by a cross-doc duplicated W-window (the dup set of
    DUP_NGRAM_SPANS) and re-join the kept token stream per doc. Every
    document keeps a row; fully-covered and empty docs emit ''."""
    from harvester_ray.stages.dedup import DUP_SPAN_W as W

    return f"""
WITH toks AS (SELECT doc_id,
                     regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
              FROM documents),
win AS (SELECT doc_id, i AS start,
               array_to_string(ts[i:i+{W - 1}], ' ') AS gram
        FROM toks, unnest(range(1, greatest(len(ts) - {W} + 2, 1))) AS u(i)),
dup AS (SELECT gram FROM win GROUP BY gram
        HAVING count(DISTINCT doc_id) > 1),
cov AS (SELECT DISTINCT w.doc_id, w.start + o.off AS pos
        FROM win w, unnest(range(0, {W})) AS o(off)
        WHERE w.gram IN (SELECT gram FROM dup)),
pos AS (SELECT doc_id, u.i AS pos, ts[u.i] AS tok
        FROM toks, unnest(range(1, len(ts) + 1)) AS u(i)),
kept AS (SELECT p.doc_id, p.pos, p.tok FROM pos p
         LEFT JOIN cov c ON c.doc_id = p.doc_id AND c.pos = p.pos
         WHERE c.pos IS NULL),
agg AS (SELECT doc_id, string_agg(tok, ' ' ORDER BY pos) AS st,
               count(*) AS nk
        FROM kept GROUP BY doc_id)
SELECT t.doc_id, coalesce(a.st, '') AS scrubbed_text,
       len(t.ts) - coalesce(a.nk, 0) AS n_removed
FROM toks t LEFT JOIN agg a USING (doc_id)
"""


DUP_SPAN_SCRUB = _dup_span_scrub_sql()


def _mixture_weights_sql() -> str:
    from harvester_ray.stages.textstats import MIX_DEN, MIX_FP, MIX_NUM_UNIF

    w = MIX_DEN - MIX_NUM_UNIF
    return f"""
WITH toks AS ({_TOKS}),
tok_by_doc AS (SELECT doc_id, count(*) AS n FROM toks GROUP BY doc_id),
per AS (
  SELECT d.source, count(*) AS n_docs,
         CAST(sum(coalesce(t.n, 0)) AS BIGINT) AS n_tokens
  FROM documents d LEFT JOIN tok_by_doc t USING (doc_id)
  GROUP BY d.source
),
tot AS (SELECT CAST(sum(n_tokens) AS BIGINT) AS t, count(*) AS s FROM per)
SELECT source, n_docs, n_tokens,
       CAST(n_tokens * {MIX_FP} // (SELECT t FROM tot) AS BIGINT)
         AS share_fp,
       CAST(({MIX_NUM_UNIF} * ({MIX_FP} // (SELECT s FROM tot))
             + {w} * (n_tokens * {MIX_FP} // (SELECT t FROM tot)))
            // {MIX_DEN} AS BIGINT) AS mix_fp
FROM per
"""


MIXTURE_WEIGHTS = _mixture_weights_sql()


def _contamination_scores_sql() -> str:
    from harvester_ray.stages.dedup import (
        CONTAM_FP,
        DECON_BENCH_MOD,
        DECON_BENCH_REM,
    )

    m, r = DECON_BENCH_MOD, DECON_BENCH_REM
    return f"""
WITH tk AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
  FROM documents
),
grams AS (
  SELECT doc_id,
         list_distinct(list_transform(
           generate_series(1, len(ts) - 7),
           i -> array_to_string(ts[i:i+7], ' '))) AS gs
  FROM tk WHERE len(ts) >= 8
),
ex AS (SELECT doc_id, unnest(gs) AS g FROM grams),
bench AS (SELECT DISTINCT g FROM ex WHERE doc_id % {m} = {r}),
tot AS (SELECT doc_id, count(*) AS n_grams FROM ex
        WHERE doc_id % {m} != {r} GROUP BY doc_id),
hit AS (SELECT e.doc_id, count(*) AS n_cont
        FROM ex e JOIN bench b USING (g)
        WHERE e.doc_id % {m} != {r} GROUP BY e.doc_id)
SELECT t.doc_id, t.n_grams,
       coalesce(h.n_cont, 0) AS n_contaminated,
       CAST(coalesce(h.n_cont, 0) * {CONTAM_FP} // t.n_grams AS BIGINT)
         AS frac_fp
FROM tot t LEFT JOIN hit h USING (doc_id)
"""


CONTAMINATION_SCORES = _contamination_scores_sql()


def _regex_sql() -> str:
    from harvester_ray.pipelines.fulltext import REGEX_CAP, REGEX_SET

    values = ", ".join(f"({qid}, '{p}')" for qid, p in REGEX_SET)
    return _expansion_sql(
        f"""SELECT query_id, term FROM (
      SELECT qp.query_id, d.term,
             row_number() OVER (PARTITION BY qp.query_id
                                ORDER BY d.df DESC, d.term ASC) AS rn
      FROM qp JOIN dict d ON regexp_matches(d.term, qp.pattern)
    ) WHERE rn <= {REGEX_CAP}""",
        f"qp(query_id, pattern) AS (VALUES {values})",
    )


REGEX_SEARCH = _regex_sql()


def _join_query_sql() -> str:
    from harvester_ray.pipelines.fulltext import JOINQ_K

    values = _or_query_values()
    return f"""
WITH toks AS ({_TOKS}),
q(query_id, term) AS (VALUES {values}),
matched AS (
  SELECT DISTINCT q.query_id, d.source
  FROM q JOIN toks t USING (term) JOIN documents d USING (doc_id)
),
fanout AS (
  SELECT m.query_id, d2.doc_id, d2.n_chars
  FROM matched m JOIN documents d2 USING (source)
),
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY n_chars DESC, doc_id ASC) AS rank
  FROM fanout
)
SELECT query_id, rank, doc_id FROM ranked WHERE rank <= {JOINQ_K}
"""


JOIN_QUERY_TOPK = _join_query_sql()


def _seeded_shuffle_sql() -> str:
    from harvester_ray.pipelines.relational import (
        SHUFFLE_SEED,
        SHUFFLE_SHARDS,
    )

    from harvester_ray.pipelines.relational import (
        _SHUF_A,
        _SHUF_A2,
        _SHUF_B,
        _SHUF_B2,
        _SHUF_P,
    )

    xm = f"((abs(doc_id) + {SHUFFLE_SEED}) % {_SHUF_P})"
    return f"""
WITH r1 AS (
  SELECT doc_id,
         ({xm} * {xm} + {_SHUF_A} * {xm} + {_SHUF_B}) % {_SHUF_P} AS r
  FROM documents
),
hashed AS (
  SELECT doc_id,
         (r * r + {_SHUF_A2} * r + {_SHUF_B2}) % {_SHUF_P} AS h,
         ((r * r + {_SHUF_A2} * r + {_SHUF_B2}) % {_SHUF_P})
           % {SHUFFLE_SHARDS} AS shard
  FROM r1
)
SELECT shard,
       row_number() OVER (PARTITION BY shard
                          ORDER BY h ASC, doc_id ASC) AS pos,
       doc_id
FROM hashed
"""


SEEDED_SHUFFLE = _seeded_shuffle_sql()


def _dataset_split_sql() -> str:
    from harvester_ray.pipelines.relational import (
        SHUFFLE_SEED,
        SPLIT_TRAIN_PCT,
        SPLIT_VAL_PCT,
    )

    from harvester_ray.pipelines.relational import (
        _SHUF_A,
        _SHUF_A2,
        _SHUF_B,
        _SHUF_B2,
        _SHUF_P,
    )

    xm = f"((abs(doc_id) + {SHUFFLE_SEED}) % {_SHUF_P})"
    return f"""
WITH r1 AS (
  SELECT doc_id,
         ({xm} * {xm} + {_SHUF_A} * {xm} + {_SHUF_B}) % {_SHUF_P} AS r
  FROM documents
)
SELECT doc_id,
       CASE WHEN ((r * r + {_SHUF_A2} * r + {_SHUF_B2}) % {_SHUF_P}) % 100
                 < {SPLIT_TRAIN_PCT} THEN 'train'
            WHEN ((r * r + {_SHUF_A2} * r + {_SHUF_B2}) % {_SHUF_P}) % 100
                 < {SPLIT_VAL_PCT} THEN 'val'
            ELSE 'test' END AS split
FROM r1
"""


DATASET_SPLIT = _dataset_split_sql()


def _hashed_classifier_sql() -> str:
    """Twin of textstats.hashed_classifier_scores: the fold hash is
    list_reduce over codepoints (first element seeds the accumulator,
    matching the Python mirror), bigram hashes combine full token
    hashes positionally via the ts[i]/ts[i+1] indexing pattern, and
    the LCG weight expression is integer-exact term for term."""
    from harvester_ray.stages.textstats import (
        _QC_B,
        _QC_M,
        _QC_WA,
        _QC_WC,
        _QC_WM,
    )

    w = (
        f"((hb % {_QC_B}) * {_QC_WA} + {_QC_WC}) % {_QC_WM}"
        f" - {_QC_WM // 2}"
    )
    return f"""
WITH d AS (SELECT doc_id,
                  regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
           FROM documents),
th AS (SELECT doc_id, i,
              list_reduce(
                list_transform(string_split(ts[i], ''),
                               c -> unicode(c)::BIGINT),
                (a, c) -> (a * 31 + c) % {_QC_M}) AS h
       FROM d, unnest(range(1, len(ts) + 1)) AS u(i)),
feats AS (
  SELECT doc_id, h AS hb FROM th
  UNION ALL
  SELECT a.doc_id, (a.h * 31 + b.h) % {_QC_M} AS hb
  FROM th a JOIN th b ON a.doc_id = b.doc_id AND b.i = a.i + 1
),
s AS (SELECT doc_id, count(*) AS nf,
             CAST(sum({w}) AS BIGINT) AS sc
      FROM feats GROUP BY doc_id)
SELECT doc.doc_id,
       coalesce(s.nf, 0) AS n_feats,
       coalesce(s.sc, 0) AS score_sum,
       CASE WHEN coalesce(s.sc, 0) > 0 THEN 1 ELSE 0 END AS keep
FROM documents doc LEFT JOIN s USING (doc_id)
"""


HASHED_CLASSIFIER = _hashed_classifier_sql()


def _rank_eval_sql() -> str:
    """Twin of fulltext.rank_eval: retrieved = the standard BM25 OR
    ranked CTE (identical to BM25_TOPK_OR, so rank identity is already
    gated), qrels = full-conjunction docs, metrics in nonnegative
    integer floor divisions only (DuckDB // truncates, Python //
    floors — they agree exactly on nonnegatives, which is why no
    negative value ever reaches a division here)."""
    from harvester_ray.pipelines.fulltext import (
        RANK_EVAL_IDCG_FP,
        RANK_EVAL_W_FP,
        TOP_K,
    )

    values = _or_query_values()
    w_values = ", ".join(
        f"({r}, {w})" for r, w in enumerate(RANK_EVAL_W_FP, start=1)
    )
    idcg_values = ", ".join(
        f"({m}, {v})" for m, v in enumerate(RANK_EVAL_IDCG_FP, start=1)
    )
    return f"""
WITH {_CORPUS_CTES},
q(query_id, term) AS (VALUES {values}),
scored AS (
  SELECT q.query_id, p.doc_id,
         sum( {_SCORE_EXPRS["bm25"]} ) AS score
  FROM q
  JOIN postings p USING (term)
  JOIN dict d USING (term)
  JOIN doclen l USING (doc_id)
  GROUP BY q.query_id, p.doc_id
),
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id ASC)
           AS rank
  FROM scored
),
ret AS (SELECT query_id, doc_id, rank FROM ranked WHERE rank <= {TOP_K}),
nq AS (SELECT query_id, count(*) AS n_terms FROM q GROUP BY query_id),
rankw(rank, w_fp) AS (VALUES {w_values}),
idcg(m, idcg_fp) AS (VALUES {idcg_values}),
mc AS (SELECT q.query_id, p.doc_id, count(*) AS nm
       FROM q JOIN postings p USING (term)
       GROUP BY q.query_id, p.doc_id),
rel AS (SELECT mc.query_id, mc.doc_id
        FROM mc JOIN nq USING (query_id)
        WHERE mc.nm = nq.n_terms),
m AS (SELECT r.query_id, count(*) AS n_rel,
             count(t.rank) AS n_hit, min(t.rank) AS minr,
             CAST(coalesce(sum(w.w_fp), 0) AS BIGINT) AS dcg_fp
      FROM rel r
      LEFT JOIN ret t
        ON t.query_id = r.query_id AND t.doc_id = r.doc_id
      LEFT JOIN rankw w ON w.rank = t.rank
      GROUP BY r.query_id),
allq AS (SELECT DISTINCT query_id FROM q)
SELECT a.query_id,
       coalesce(m.n_rel, 0) AS n_rel,
       coalesce(m.n_hit, 0) AS n_hit,
       coalesce(m.n_hit, 0) * 1000000 // {TOP_K} AS p10_fp6,
       CASE WHEN coalesce(m.n_rel, 0) > 0
            THEN coalesce(m.n_hit, 0) * 1000000 // m.n_rel
            ELSE 0 END AS recall_fp6,
       CASE WHEN m.minr IS NOT NULL THEN 1000000 // m.minr
            ELSE 0 END AS rr_fp6,
       CASE WHEN coalesce(m.n_rel, 0) > 0
            THEN m.dcg_fp * 1000000
                 // (SELECT i.idcg_fp FROM idcg i
                     WHERE i.m = least(m.n_rel, {TOP_K}))
            ELSE 0 END AS ndcg_fp6
FROM allq a LEFT JOIN m USING (query_id)
"""


RANK_EVAL = _rank_eval_sql()


# --- URL-axis webtext operators (weburls.py) -------------------------------
# The messy url and its CLOSED-FORM canonical are both rebuilt from the
# same (doc_id, source) arithmetic as functions/urls.synth_urls, so the
# engine's general parser/canonicalizer is value-hash-gated end to end.
_URL_SYNTH = """
SELECT doc_id, n_chars,
  (CASE doc_id % 3 WHEN 0 THEN 'HTTP' WHEN 1 THEN 'https' ELSE 'http' END)
  || '://'
  || (CASE (doc_id // 7) % 4 WHEN 0 THEN 'www.' WHEN 2 THEN 'm.'
           WHEN 3 THEN 'blog.' ELSE '' END)
  || (CASE WHEN doc_id % 2 = 0 THEN upper(source) ELSE source END) || '.COM'
  || (CASE WHEN doc_id % 5 = 0
           THEN (CASE WHEN doc_id % 3 = 1 THEN ':443' ELSE ':80' END)
           WHEN doc_id % 7 = 0 THEN ':8080' ELSE '' END)
  || '/articles/' || (doc_id % 97)
  || (CASE WHEN doc_id % 6 = 0 THEN '/' ELSE '' END)
  || '?'
  || (CASE WHEN doc_id % 2 = 0 THEN 'utm_source=feed&' ELSE '' END)
  || (CASE WHEN doc_id % 3 = 0 THEN 'ref=home&' ELSE '' END)
  || 'id=' || (doc_id % 13)
  || (CASE WHEN doc_id % 4 = 1 THEN '#section-2' ELSE '' END)
    AS url,
  (CASE WHEN doc_id % 3 = 1 THEN 'https' ELSE 'http' END)
  || '://'
  || (CASE (doc_id // 7) % 4 WHEN 0 THEN 'www.' WHEN 2 THEN 'm.'
           WHEN 3 THEN 'blog.' ELSE '' END)
  || lower(source) || '.com'
  || (CASE WHEN doc_id % 5 = 0 THEN ''
           WHEN doc_id % 7 = 0 THEN ':8080' ELSE '' END)
  || '/articles/' || (doc_id % 97)
  || '?id=' || (doc_id % 13)
  || (CASE WHEN doc_id % 3 = 0 THEN '&ref=home' ELSE '' END)
    AS url_canon,
  (CASE (doc_id // 7) % 4 WHEN 0 THEN 'www.' WHEN 2 THEN 'm.'
       WHEN 3 THEN 'blog.' ELSE '' END)
  || lower(source) || '.com' AS host,
  lower(source) || '.com' AS domain,
  (doc_id * 2654435761) % 100000000 AS snap_ts
FROM documents
"""

URL_CANONICAL = f"""
WITH u AS ({_URL_SYNTH})
SELECT doc_id, url, url_canon FROM u
"""

URL_DEDUP_LATEST = f"""
WITH u AS ({_URL_SYNTH}),
r AS (SELECT url_canon, doc_id, snap_ts,
        row_number() OVER (PARTITION BY url_canon
                           ORDER BY snap_ts DESC, doc_id DESC) AS rn,
        count(*) OVER (PARTITION BY url_canon) AS n_snapshots
      FROM u)
SELECT url_canon, doc_id, snap_ts, n_snapshots FROM r WHERE rn = 1
"""

DOMAIN_PROFILE = f"""
WITH u AS ({_URL_SYNTH})
SELECT domain, count(DISTINCT host) AS n_hosts, count(*) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS total_chars
FROM u GROUP BY domain
"""


def _pagerank_ctes() -> tuple[list[str], str]:
    """(CTE list, final rank-CTE name) of the iteration-unrolled
    integer PageRank — shared by PAGERANK_FIXED and DOMAIN_RANK."""
    from harvester_ray.pipelines.weburls import (
        PR_EDGE_MULTS,
        PR_FP,
        PR_ITERS,
    )

    mults = ", ".join(
        f"(doc_id * {a} + {b}) % (SELECT n FROM nn)"
        for a, b in PR_EDGE_MULTS
    )
    ctes = [
        "nn AS (SELECT count(*) AS n FROM documents)",
        f"r0 AS (SELECT doc_id, {PR_FP} // (SELECT n FROM nn) AS r "
        "FROM documents)",
        f"e AS (SELECT doc_id AS src, unnest([{mults}]) AS dst "
        "FROM documents)",
    ]
    for i in range(1, PR_ITERS + 1):
        ctes.append(
            f"r{i} AS (SELECT d.doc_id, "
            f"(15 * {PR_FP}) // (100 * (SELECT n FROM nn)) "
            f"+ (85 * coalesce(s.c, 0)) // 100 AS r "
            "FROM documents d LEFT JOIN "
            f"(SELECT e.dst AS doc_id, sum(r{i-1}.r // 3) AS c "
            f"FROM e JOIN r{i-1} ON r{i-1}.doc_id = e.src "
            "GROUP BY e.dst) s ON s.doc_id = d.doc_id)"
        )
    return ctes, f"r{PR_ITERS}"


def _pagerank_sql() -> str:
    """Iteration-unrolled integer PageRank twin of
    weburls.pagerank_fixed (same floor-division fixed point, same
    synthesized 3-out-link graph)."""
    ctes, last = _pagerank_ctes()
    return (
        "WITH " + ",\n".join(ctes)
        + f"\nSELECT doc_id, CAST(r AS BIGINT) AS rank_fp FROM {last}"
    )


PAGERANK_FIXED = _pagerank_sql()


def _domain_rank_sql() -> str:
    """Twin of weburls.domain_rank: the unrolled PageRank joined to the
    synthesized url host, summed per host."""
    ctes, last = _pagerank_ctes()
    ctes.append(f"u AS ({_URL_SYNTH})")
    return (
        "WITH " + ",\n".join(ctes)
        + f"""
SELECT u.host, CAST(sum({last}.r) AS BIGINT) AS rank_fp,
       count(*)::BIGINT AS n_docs
FROM {last} JOIN u USING (doc_id) GROUP BY u.host
"""
    )


DOMAIN_RANK = _domain_rank_sql()


def _triangle_count_sql() -> str:
    """Twin of weburls.triangle_count: same synthesized affine+local
    edge family, canonical undirected edges, apex-at-lowest wedge
    join + closing-edge join, per-doc participation counts. The
    modulo is applied in a CTE AFTER the unnest — a scalar subquery
    inside the unnest list plus a downstream filter on the alias hits
    a DuckDB binder INTERNAL error on this version."""
    return f"""
WITH {_TRI_CTES}
SELECT doc_id, count(*)::BIGINT AS n_triangles FROM x GROUP BY doc_id
"""


def _tri_ctes() -> str:
    """The shared CTE stack of the triangle family: canonical edges
    (e), wedges (w), closed triangles (t), exploded members (x)."""
    from harvester_ray.pipelines.weburls import TRI_EDGE_MULTS

    mults = ", ".join(
        f"doc_id * {a} + {b}" for a, b in TRI_EDGE_MULTS
    )
    return f"""nn AS (SELECT count(*) AS n FROM documents),
e00 AS (SELECT doc_id AS s, unnest([{mults}]) AS d0 FROM documents),
e0 AS (SELECT s, d0 % (SELECT n FROM nn) AS d FROM e00),
e AS (SELECT DISTINCT least(s, d) AS u, greatest(s, d) AS v
      FROM e0 WHERE s != d),
w AS (SELECT e1.u AS a, e1.v AS b, e2.v AS c
      FROM e e1 JOIN e e2 ON e1.u = e2.u AND e1.v < e2.v),
t AS (SELECT a, b, c FROM w JOIN e ON e.u = w.b AND e.v = w.c),
x AS (SELECT unnest([a, b, c]) AS doc_id FROM t)"""


_TRI_CTES = _tri_ctes()

TRIANGLE_COUNT = _triangle_count_sql()


def _clustering_coef_sql() -> str:
    """Twin of weburls.clustering_coef: degree from the exploded
    canonical edge endpoints, triangle counts LEFT-joined, the same
    floor-division fixed point."""
    from harvester_ray.pipelines.weburls import LCC_FP

    return f"""
WITH {_TRI_CTES},
deg AS (SELECT doc_id, count(*)::BIGINT AS degree FROM (
          SELECT u AS doc_id FROM e UNION ALL SELECT v AS doc_id FROM e
        ) GROUP BY doc_id),
tc AS (SELECT doc_id, count(*)::BIGINT AS n_triangles
       FROM x GROUP BY doc_id)
SELECT deg.doc_id, deg.degree,
       coalesce(tc.n_triangles, 0)::BIGINT AS n_triangles,
       (CASE WHEN deg.degree >= 2
             THEN (2 * coalesce(tc.n_triangles, 0) * {LCC_FP})
                  // (deg.degree * (deg.degree - 1))
             ELSE 0 END)::BIGINT AS lcc_fp
FROM deg LEFT JOIN tc USING (doc_id)
"""


CLUSTERING_COEF = _clustering_coef_sql()


def _kcore_sql() -> str:
    """Round-unrolled twin of weburls.kcore_membership: same canonical
    edge CTE, same synchronous peel (degree filter then two endpoint
    semi-joins) per round."""
    from harvester_ray.pipelines.weburls import (
        KCORE_K,
        KCORE_ROUNDS,
        TRI_EDGE_MULTS,
    )

    mults = ", ".join(f"doc_id * {a} + {b}" for a, b in TRI_EDGE_MULTS)
    # every e{i} is referenced ~7x by round i+1 (directly and through
    # v{i+1}); DuckDB inlines plain CTEs, so without MATERIALIZED the
    # scan tree grows 7^rounds and exhausts file handles
    ctes = [
        "nn AS (SELECT count(*) AS n FROM documents)",
        f"e00 AS (SELECT doc_id AS s, unnest([{mults}]) AS d0 "
        "FROM documents)",
        "e01 AS (SELECT s, d0 % (SELECT n FROM nn) AS d FROM e00)",
        "e0 AS MATERIALIZED (SELECT DISTINCT least(s, d) AS u, "
        "greatest(s, d) AS v FROM e01 WHERE s != d)",
    ]
    for i in range(1, KCORE_ROUNDS + 1):
        ctes.append(
            f"v{i} AS MATERIALIZED (SELECT doc_id FROM ("
            f"SELECT u AS doc_id FROM e{i-1} "
            f"UNION ALL SELECT v AS doc_id FROM e{i-1}"
            f") GROUP BY doc_id HAVING count(*) >= {KCORE_K})"
        )
        ctes.append(
            f"e{i} AS MATERIALIZED (SELECT e{i-1}.u, e{i-1}.v FROM e{i-1} "
            f"JOIN v{i} a ON e{i-1}.u = a.doc_id "
            f"JOIN v{i} b ON e{i-1}.v = b.doc_id)"
        )
    last = f"e{KCORE_ROUNDS}"
    return (
        "WITH " + ",\n".join(ctes)
        + f"""
SELECT doc_id, count(*)::BIGINT AS core_degree FROM (
  SELECT u AS doc_id FROM {last} UNION ALL SELECT v AS doc_id FROM {last}
) GROUP BY doc_id
"""
    )


KCORE_MEMBERSHIP = _kcore_sql()


def _bfs_layers_sql() -> str:
    """Iteration-unrolled twin of weburls.bfs_layers: the same
    Bellman-Ford relaxation (self rows UNION out-neighbor rows, then
    groupby-min) per round, over the same affine+local edge family
    (post-unnest modulo — see _triangle_count_sql)."""
    from harvester_ray.pipelines.weburls import (
        BFS_ITERS,
        BFS_SEED,
        TRI_EDGE_MULTS,
    )

    mults = ", ".join(f"doc_id * {a} + {b}" for a, b in TRI_EDGE_MULTS)
    ctes = [
        "nn AS (SELECT count(*) AS n FROM documents)",
        f"e00 AS (SELECT doc_id AS s, unnest([{mults}]) AS d0 "
        "FROM documents)",
        "e AS (SELECT s, d0 % (SELECT n FROM nn) AS d FROM e00)",
        f"d0 AS (SELECT CAST({BFS_SEED} AS BIGINT) AS doc_id, "
        "CAST(0 AS BIGINT) AS dist)",
    ]
    for i in range(1, BFS_ITERS + 1):
        ctes.append(
            f"d{i} AS (SELECT doc_id, min(dist) AS dist FROM ("
            f"SELECT doc_id, dist FROM d{i-1} "
            "UNION ALL "
            f"SELECT e.d AS doc_id, d{i-1}.dist + 1 AS dist "
            f"FROM d{i-1} JOIN e ON e.s = d{i-1}.doc_id"
            ") GROUP BY doc_id)"
        )
    return (
        "WITH " + ",\n".join(ctes)
        + f"\nSELECT doc_id, CAST(dist AS BIGINT) AS dist FROM d{BFS_ITERS}"
    )


BFS_LAYERS = _bfs_layers_sql()


def _anchor_text_sql() -> str:
    """Twin of weburls.anchor_text_topk: same 3-out-link graph, anchor
    = source doc's first tokenizer token (regexp_extract returns the
    FIRST match; '' when the doc has no token, filtered like the Ray
    side's null), mode anchor per target with (count DESC, term ASC)
    tie-break."""
    from harvester_ray.pipelines.weburls import PR_EDGE_MULTS

    mults = ", ".join(
        f"(doc_id * {a} + {b}) % (SELECT n FROM nn)"
        for a, b in PR_EDGE_MULTS
    )
    return f"""
WITH nn AS (SELECT count(*) AS n FROM documents),
a AS (SELECT doc_id, regexp_extract(lower(text), '[a-z0-9]+') AS anchor
      FROM documents),
e AS (SELECT unnest([{mults}]) AS dst, anchor FROM a WHERE anchor <> ''),
c AS (SELECT dst AS doc_id, anchor, count(*) AS n FROM e GROUP BY dst, anchor),
t AS (SELECT doc_id, anchor, n,
        sum(n) OVER (PARTITION BY doc_id) AS n_inlinks,
        row_number() OVER (PARTITION BY doc_id
                           ORDER BY n DESC, anchor ASC) AS rk
      FROM c)
SELECT doc_id, CAST(n_inlinks AS BIGINT) AS n_inlinks,
       anchor AS top_anchor, CAST(n AS BIGINT) AS top_anchor_n
FROM t WHERE rk = 1
"""


ANCHOR_TEXT_TOPK = _anchor_text_sql()


CRAWL_FRONTIER = f"""
WITH u AS ({_URL_SYNTH}),
hr AS (SELECT host, row_number() OVER (ORDER BY host ASC) - 1 AS host_rank
       FROM (SELECT DISTINCT host FROM u)),
nh AS (SELECT count(*) AS n FROM hr),
w AS (SELECT doc_id, host,
        row_number() OVER (PARTITION BY host
                           ORDER BY n_chars DESC, doc_id ASC) - 1 AS wave
      FROM u)
SELECT w.doc_id, w.host, CAST(w.wave AS BIGINT) AS wave,
       CAST(w.wave * (SELECT n FROM nh) + hr.host_rank AS BIGINT) AS slot
FROM w JOIN hr USING (host)
"""


def _gopher_filter_sql() -> str:
    """Twin of textstats.gopher_filter: same token definition as
    REPETITION_STATS plus per-doc token-char sums; identical rule order
    and integer cross-multiplication thresholds."""
    from harvester_ray.stages.textstats import (
        GF_BIGRAM_DEN,
        GF_BIGRAM_NUM,
        GF_DISTINCT_DEN,
        GF_DISTINCT_NUM,
        GF_MAX_MEAN_LEN,
        GF_MAX_TOKENS,
        GF_MIN_MEAN_LEN,
        GF_MIN_TOKENS,
    )

    return f"""
WITH d AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
           FROM documents),
uni AS (SELECT doc_id, unnest(ts) AS term FROM d),
tstats AS (SELECT doc_id, count(*) AS n_tokens,
                  count(DISTINCT term) AS n_distinct,
                  sum(len(term)) AS sum_len
           FROM uni GROUP BY doc_id),
big AS (SELECT doc_id, ts[i] AS a, ts[i + 1] AS b
        FROM d, unnest(range(1, greatest(len(ts), 1))) AS u(i)),
bc AS (SELECT doc_id, a, b, count(*) AS c FROM big GROUP BY doc_id, a, b),
bstats AS (SELECT doc_id, max(c) AS max_bigram_tf, sum(c) AS n_bigrams
           FROM bc GROUP BY doc_id),
m AS (SELECT d.doc_id,
        coalesce(t.n_tokens, 0) AS n_tokens,
        coalesce(t.n_distinct, 0) AS n_distinct,
        coalesce(t.sum_len, 0) AS sum_len,
        coalesce(b.max_bigram_tf, 0) AS max_bigram_tf,
        coalesce(b.n_bigrams, 0) AS n_bigrams
      FROM d LEFT JOIN tstats t USING (doc_id)
             LEFT JOIN bstats b USING (doc_id)),
r AS (SELECT doc_id,
        CASE
          WHEN n_tokens < {GF_MIN_TOKENS} THEN 'too_short'
          WHEN n_tokens > {GF_MAX_TOKENS} THEN 'too_long'
          WHEN sum_len < {GF_MIN_MEAN_LEN} * n_tokens
            OR sum_len > {GF_MAX_MEAN_LEN} * n_tokens THEN 'word_length'
          WHEN n_distinct * {GF_DISTINCT_DEN}
               < n_tokens * {GF_DISTINCT_NUM} THEN 'low_distinct'
          WHEN max_bigram_tf * {GF_BIGRAM_DEN}
               > n_bigrams * {GF_BIGRAM_NUM} THEN 'repetitive_bigram'
          ELSE 'ok' END AS reason
      FROM m)
SELECT doc_id, CAST(CASE WHEN reason = 'ok' THEN 1 ELSE 0 END AS BIGINT)
         AS keep,
       reason
FROM r
"""


GOPHER_FILTER = _gopher_filter_sql()


def _pii_redact_sql() -> str:
    """Twin of textstats.pii_redact: the contact tail is rebuilt from
    the same doc_id arithmetic and the RE2 patterns are shared verbatim
    (both engines run RE2)."""
    from harvester_ray.stages.textstats import (
        PII_EMAIL_RE,
        PII_IP_RE,
        PII_PHONE_RE,
    )

    return f"""
WITH p AS (SELECT doc_id,
        coalesce(text, '')
        || ' contact user' || doc_id || '@mail' || (doc_id % 7)
        || '.com call ' || (100 + doc_id % 900)
        || '-555-' || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
        || ' from 10.' || (doc_id % 256)
        || '.' || ((doc_id // 7) % 256)
        || '.' || (doc_id % 100) AS txt
      FROM documents)
SELECT doc_id,
       regexp_replace(regexp_replace(regexp_replace(txt,
           '{PII_EMAIL_RE}', '<EMAIL>', 'g'),
           '{PII_PHONE_RE}', '<PHONE>', 'g'),
           '{PII_IP_RE}', '<IP>', 'g') AS redacted,
       CAST(len(regexp_extract_all(txt, '{PII_EMAIL_RE}')) AS BIGINT)
         AS n_emails,
       CAST(len(regexp_extract_all(txt, '{PII_PHONE_RE}')) AS BIGINT)
         AS n_phones,
       CAST(len(regexp_extract_all(txt, '{PII_IP_RE}')) AS BIGINT)
         AS n_ips
FROM p
"""


PII_REDACT = _pii_redact_sql()


def _hits_sql(fp: int | None = None) -> str:
    """Iteration-unrolled integer HITS twin of weburls.hits_scores:
    same graph, same L1 normalization each half-step. The default
    (None) uses HITS_FP — the scale hits_scores derives whenever the
    doc count fits under it (every gate corpus); tests pass the
    derived constant (weburls._hits_fp) for wider doc counts."""
    from harvester_ray.pipelines.weburls import (
        HITS_FP,
        HITS_ITERS,
        PR_EDGE_MULTS,
    )

    fp = HITS_FP if fp is None else fp
    mults = ", ".join(
        f"(doc_id * {a} + {b}) % (SELECT n FROM nn)"
        for a, b in PR_EDGE_MULTS
    )
    ctes = [
        "nn AS (SELECT count(*) AS n FROM documents)",
        f"e AS (SELECT doc_id AS src, unnest([{mults}]) AS dst "
        "FROM documents)",
        f"h0 AS (SELECT doc_id, {fp} // (SELECT n FROM nn) AS v "
        "FROM documents)",
    ]
    for i in range(1, HITS_ITERS + 1):
        ctes.append(
            f"a{i}r AS (SELECT d.doc_id, coalesce(s.c, 0) AS c "
            "FROM documents d LEFT JOIN "
            f"(SELECT e.dst AS doc_id, sum(h{i-1}.v) AS c "
            f"FROM e JOIN h{i-1} ON h{i-1}.doc_id = e.src "
            "GROUP BY e.dst) s ON s.doc_id = d.doc_id)"
        )
        ctes.append(
            f"a{i} AS (SELECT doc_id, "
            f"c * {fp} // (SELECT sum(c) FROM a{i}r) AS v FROM a{i}r)"
        )
        ctes.append(
            f"h{i}r AS (SELECT e.src AS doc_id, sum(a{i}.v) AS c "
            f"FROM e JOIN a{i} ON a{i}.doc_id = e.dst GROUP BY e.src)"
        )
        ctes.append(
            f"h{i} AS (SELECT doc_id, "
            f"c * {fp} // (SELECT sum(c) FROM h{i}r) AS v FROM h{i}r)"
        )
    return (
        "WITH " + ",\n".join(ctes)
        + f"\nSELECT a{HITS_ITERS}.doc_id, "
        f"CAST(a{HITS_ITERS}.v AS BIGINT) AS auth_fp, "
        f"CAST(h{HITS_ITERS}.v AS BIGINT) AS hub_fp "
        f"FROM a{HITS_ITERS} JOIN h{HITS_ITERS} USING (doc_id)"
    )


HITS_SCORES = _hits_sql()


def _percolate_sql() -> str:
    """Twin of fulltext.percolate_matches: conjunctive stored-query
    match over per-doc distinct token sets."""
    values = _or_query_values()
    return f"""
WITH q(query_id, term) AS (VALUES {values}),
nq AS (SELECT query_id, count(*) AS n FROM q GROUP BY query_id),
tk AS (SELECT doc_id,
         list_distinct(regexp_extract_all(lower(text), '[a-z0-9]+')) AS ts
       FROM documents),
e AS (SELECT doc_id, unnest(ts) AS term FROM tk),
m AS (SELECT q.query_id, e.doc_id, count(*) AS c
      FROM q JOIN e USING (term) GROUP BY q.query_id, e.doc_id)
SELECT m.query_id, m.doc_id
FROM m JOIN nq USING (query_id)
WHERE m.c = nq.n
"""


PERCOLATE_MATCHES = _percolate_sql()


def _curate_corpus_sql() -> str:
    """Twin of textstats.curate_corpus: the gopher gate, exact-dedup
    canonical rule, eval-subset exclusion and zero-contamination rule
    composed over the SAME CTEs that gate each leg individually."""
    from harvester_ray.stages.dedup import DECON_BENCH_MOD, DECON_BENCH_REM

    return f"""
WITH gf AS ({GOPHER_FILTER}),
canon AS ({DEDUP_EXACT}),
cont AS ({DECONTAMINATE})
SELECT d.doc_id, d.source, CAST(d.n_chars AS BIGINT) AS n_chars
FROM documents d
JOIN gf ON gf.doc_id = d.doc_id AND gf.keep = 1
JOIN canon ON canon.doc_id = d.doc_id
LEFT JOIN cont ON cont.doc_id = d.doc_id
WHERE cont.doc_id IS NULL
  AND d.doc_id % {DECON_BENCH_MOD} != {DECON_BENCH_REM}
"""


CURATE_CORPUS = _curate_corpus_sql()


def _frame_sample_sql() -> str:
    """Twin of multimodal.frame_sample: video payloads are the utf-8
    BYTES of text, so frames are windows over to_hex(encode(text)) —
    2 hex chars per byte gives exact byte windows regardless of text
    encoding width, and the engine fingerprints md5(hex) for the same
    reason (DuckDB md5 is VARCHAR-only). Media routing mirrors the
    floored Python modulo (((doc_id % 3) + 3) % 3)."""
    from harvester_ray.stages.multimodal import FRAME_BYTES, FRAME_STRIDE

    return f"""
WITH v AS (SELECT doc_id, to_hex(encode(coalesce(text, ''))) AS h
           FROM documents WHERE ((doc_id % 3) + 3) % 3 = 2),
f AS (SELECT doc_id, h,
        (len(h) // 2 + {FRAME_BYTES} - 1) // {FRAME_BYTES} AS n_frames
      FROM v WHERE len(h) > 0),
x AS (SELECT doc_id, n_frames, h,
        unnest(range(0, n_frames)) AS frame_idx
      FROM f)
SELECT doc_id, CAST(frame_idx AS BIGINT) AS frame_idx,
       CAST(n_frames AS BIGINT) AS n_frames,
       md5(substr(h, frame_idx * {2 * FRAME_BYTES} + 1,
                  {2 * FRAME_BYTES}))
         AS frame_md5
FROM x WHERE frame_idx % {FRAME_STRIDE} = 0
"""


FRAME_SAMPLE = _frame_sample_sql()


def _q5_sql() -> str:
    from harvester_ray.pipelines.relational import (
        Q5_DATE_HI,
        Q5_DATE_LO,
        Q5_REGION,
    )

    return f"""
SELECT n_name,
       SUM(CAST(floor(l_extendedprice * (1 - l_discount) * 10000 + 0.5)
           AS BIGINT))::BIGINT AS revenue
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
WHERE r_name = '{Q5_REGION}'
  AND c_nationkey = s_nationkey
  AND o_orderdate >= TIMESTAMP '{Q5_DATE_LO}'
  AND o_orderdate < TIMESTAMP '{Q5_DATE_HI}'
GROUP BY n_name
"""


Q5_REVENUE = _q5_sql()

EVENTS_RUNNING_TOTAL = """
SELECT event_id, user_id,
       CAST(row_number() OVER w AS BIGINT) AS running_n,
       CAST(SUM(CAST(floor(value * 10000 + 0.5) AS BIGINT)) OVER w
            AS BIGINT) AS running_value_r4
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts ASC, event_id ASC
             ROWS UNBOUNDED PRECEDING)
"""


EVENTS_INTERARRIVAL = """
SELECT event_id, user_id,
       CAST(coalesce(epoch_us(ts) - lag(epoch_us(ts)) OVER
            (PARTITION BY user_id ORDER BY ts ASC, event_id ASC), -1)
            AS BIGINT) AS gap_us
FROM events
"""

ORDERS_ROLLUP = """
SELECT coalesce(CAST(year(o_orderdate) AS VARCHAR), 'ALL') AS o_year,
       coalesce(o_orderpriority, 'ALL') AS o_orderpriority,
       count(*)::BIGINT AS n_orders
FROM orders
GROUP BY ROLLUP (year(o_orderdate), o_orderpriority)
"""


def _geo_ctes() -> str:
    """Shared coordinate-synth CTE of the geo family — mirrors
    weburls._geo_coords term for term (integer micro-degrees)."""
    from harvester_ray.pipelines.weburls import (
        GEO_LAT_ADD,
        GEO_LAT_MOD,
        GEO_LAT_MULT,
        GEO_LON_ADD,
        GEO_LON_MOD,
        GEO_LON_MULT,
    )

    return f"""geo AS (
  SELECT doc_id, n_chars,
         (doc_id * {GEO_LAT_MULT} + {GEO_LAT_ADD}) % {GEO_LAT_MOD}
             - 90000000 AS lat_u,
         (doc_id * {GEO_LON_MULT} + {GEO_LON_ADD}) % {GEO_LON_MOD}
             - 180000000 AS lon_u
  FROM documents)"""


def _geo_radius_topk_sql() -> str:
    """Twin of weburls.geo_radius_topk: same synthesized coordinates,
    same integer squared planar distance, radius predicate, and
    (dist2 ASC, doc_id ASC) rank."""
    from harvester_ray.pipelines.weburls import (
        GEO_QUERY_POINTS,
        GEO_RADIUS2,
        GEO_TOP_K,
    )

    pts = ", ".join(f"({q}, {la}, {lo})" for q, la, lo in GEO_QUERY_POINTS)
    return f"""
WITH {_geo_ctes()},
pts(query_id, qlat, qlon) AS (VALUES {pts}),
dist AS (
  SELECT p.query_id, g.doc_id,
         (g.lat_u - p.qlat) * (g.lat_u - p.qlat)
         + (g.lon_u - p.qlon) * (g.lon_u - p.qlon) AS dist2
  FROM geo g CROSS JOIN pts p),
rnk AS (
  SELECT query_id, doc_id, dist2,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY dist2 ASC, doc_id ASC) AS rank
  FROM dist WHERE dist2 <= {GEO_RADIUS2})
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank,
       doc_id::BIGINT AS doc_id, dist2::BIGINT AS dist2
FROM rnk WHERE rank <= {GEO_TOP_K}
"""


GEO_RADIUS_TOPK = _geo_radius_topk_sql()


def _geo_bbox_stats_sql() -> str:
    """Twin of weburls.geo_bbox_stats: closed-bound box membership,
    count + sum(n_chars) per box."""
    from harvester_ray.pipelines.weburls import GEO_BBOXES

    boxes = ", ".join(
        f"({q}, {a}, {b}, {c}, {d})" for q, a, b, c, d in GEO_BBOXES
    )
    return f"""
WITH {_geo_ctes()},
boxes(query_id, lat_lo, lat_hi, lon_lo, lon_hi) AS (VALUES {boxes})
SELECT b.query_id::BIGINT AS query_id,
       count(g.doc_id)::BIGINT AS n_docs,
       coalesce(sum(g.n_chars), 0)::BIGINT AS sum_chars
FROM boxes b LEFT JOIN geo g
  ON g.lat_u >= b.lat_lo AND g.lat_u <= b.lat_hi
 AND g.lon_u >= b.lon_lo AND g.lon_u <= b.lon_hi
GROUP BY b.query_id
"""


GEO_BBOX_STATS = _geo_bbox_stats_sql()


def _bpe_pick(r: int) -> str:
    """Scalar merge-pick for round r, NULL-safe: when the pair table
    dries up before BPE_ROUNDS (the engine breaks out of its loop),
    the empty b{r} must degrade to an IDENTITY replace, not
    NULL-poison the whole expression — chr(1) never occurs in
    [a-z0-9] words or marker chars, so replacing it is a no-op."""
    return f"coalesce((SELECT pair FROM b{r}), chr(1))"


def _bpe_ctes() -> str:
    """Shared training CTE stack for BPE_MERGES and BPE_TOKEN_COUNTS
    (one builder — no string-splitting coupling between the twins):
    word-count vocabulary (the shared '[a-z0-9]+' analyzer),
    adjacent-pair counts weighted by word frequency, (cnt DESC, pair
    ASC) merge pick, leftmost-non-overlapping replace with the
    per-round private-use marker. MATERIALIZED per round — each w{r}
    feeds two consumers (its pair table and the next rewrite), the
    kcore lesson."""
    from harvester_ray.stages.textstats import BPE_MARKER_BASE, BPE_ROUNDS

    parts = [
        """tok AS MATERIALIZED (
  SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS w
  FROM documents),
w0 AS MATERIALIZED (SELECT w, count(*)::BIGINT AS c FROM tok GROUP BY w)"""
    ]
    for r in range(BPE_ROUNDS):
        parts.append(
            f"""p{r} AS MATERIALIZED (
  SELECT substr(w, i, 2) AS pair, sum(c)::BIGINT AS cnt
  FROM w{r}, (SELECT unnest(range(1, length(w))) AS i)
  GROUP BY 1),
b{r} AS MATERIALIZED (
  SELECT pair, cnt FROM p{r} ORDER BY cnt DESC, pair ASC LIMIT 1),
w{r + 1} AS MATERIALIZED (
  SELECT replace(w, {_bpe_pick(r)},
                 chr({BPE_MARKER_BASE + r})) AS w, c
  FROM w{r})"""
        )
    return ",\n".join(parts)


def _bpe_merges_sql() -> str:
    """Round-unrolled twin of textstats.bpe_merges (chr semantics
    verified identical across Python / Arrow / DuckDB); rounds whose
    pair table dried up contribute zero rows, matching the engine's
    early loop exit."""
    from harvester_ray.stages.textstats import BPE_ROUNDS

    union = "\nUNION ALL\n".join(
        f"SELECT {r + 1}::BIGINT AS round, pair, cnt FROM b{r}"
        for r in range(BPE_ROUNDS)
    )
    return "WITH " + _bpe_ctes() + "\n" + union


BPE_MERGES = _bpe_merges_sql()


def _bpe_token_counts_sql() -> str:
    """Twin of textstats.bpe_token_counts: the SAME training CTE chain
    as BPE_MERGES (the b{r} picks), then the merge list replayed as a
    nested replace over each document token; post-merge token count =
    character count. Token-free docs keep a 0 row via the LEFT JOIN;
    dried-up rounds replay as identity replaces (_bpe_pick)."""
    from harvester_ray.stages.textstats import BPE_MARKER_BASE, BPE_ROUNDS

    expr = "t.w"
    for r in range(BPE_ROUNDS):
        expr = (
            f"replace({expr}, {_bpe_pick(r)},"
            f" chr({BPE_MARKER_BASE + r}))"
        )
    return f"""WITH {_bpe_ctes()},
dtok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS w
  FROM documents)
SELECT d.doc_id::BIGINT AS doc_id,
       coalesce(sum(length({expr})), 0)::BIGINT AS n_bpe_tokens
FROM documents d LEFT JOIN dtok t ON d.doc_id = t.doc_id
GROUP BY d.doc_id
"""


BPE_TOKEN_COUNTS = _bpe_token_counts_sql()


def _label_centroids_sql() -> str:
    """Twin of similarity.label_centroids: element-level fp6
    (floor(double(component) * FP) — identical IEEE ops both sides),
    integer sums, and an INTEGER floor division for the mean (DuckDB
    // truncates toward zero; the CASE branch reproduces numpy's
    floor semantics exactly for negative sums at any magnitude — no
    double division, so exact past 2^53 fp units)."""
    from harvester_ray.stages.similarity import CENTROID_FP

    return f"""
WITH ex AS (
  SELECT label,
         generate_subscripts(embedding, 1) AS dim,
         unnest(embedding) AS val
  FROM embeddings),
agg AS (
  SELECT label::BIGINT AS label, dim::BIGINT AS dim,
         count(*)::BIGINT AS n_vecs,
         sum(CAST(floor(CAST(val AS DOUBLE) * {CENTROID_FP}) AS BIGINT))
             ::BIGINT AS s
  FROM ex GROUP BY 1, 2)
SELECT label, dim, n_vecs,
       CASE WHEN s >= 0 THEN s // n_vecs
            ELSE -((-s + n_vecs - 1) // n_vecs) END AS mean_fp
FROM agg
"""


LABEL_CENTROIDS = _label_centroids_sql()


def _table_profile_sql() -> str:
    """Twin of relational.table_profile: per-column count / nulls /
    exact distinct / native-typed min+max cast to VARCHAR."""
    from harvester_ray.pipelines.relational import PROFILE_COLUMNS

    selects = [
        f"""SELECT '{c}' AS "column", count(*)::BIGINT AS n_rows,
       (count(*) - count({c}))::BIGINT AS n_null,
       count(DISTINCT {c})::BIGINT AS n_distinct,
       CAST(min({c}) AS VARCHAR) AS min_v,
       CAST(max({c}) AS VARCHAR) AS max_v
FROM documents"""
        for c in PROFILE_COLUMNS
    ]
    return "\nUNION ALL\n".join(selects)


TABLE_PROFILE = _table_profile_sql()


def _kmeans_clusters_sql() -> str:
    """Twin of similarity.kmeans_clusters: iteration-unrolled Lloyd's
    loop in fp6 integer arithmetic. The argmin tie-key dist*K+cluster
    is injective (cluster < K), so arg_min is deterministic and the
    final (cluster, dist) unpack is key%K / key//K. CTEs materialized
    — the iterative unroll's scan tree grows geometrically inline
    (the kcore_membership lesson)."""
    from harvester_ray.stages.similarity import (
        CENTROID_FP,
        KMEANS_ITERS,
        KMEANS_K,
    )

    K = KMEANS_K
    parts = [
        f"""WITH ex AS MATERIALIZED (
  SELECT vec_id::BIGINT AS vec_id,
         generate_subscripts(embedding, 1)::BIGINT AS dim,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * {CENTROID_FP})
              AS BIGINT) AS vfp
  FROM embeddings),
c0 AS MATERIALIZED (
  SELECT vec_id AS cluster, dim, vfp AS cfp FROM ex WHERE vec_id < {K})"""
    ]
    for i in range(1, KMEANS_ITERS + 1):
        parts.append(
            f"""d{i} AS MATERIALIZED (
  SELECT e.vec_id, c.cluster,
         sum((e.vfp - c.cfp) * (e.vfp - c.cfp))::BIGINT AS dist
  FROM ex e JOIN c{i - 1} c USING (dim) GROUP BY 1, 2),
a{i} AS MATERIALIZED (
  SELECT vec_id, arg_min(cluster, dist * {K} + cluster) AS cluster
  FROM d{i} GROUP BY 1),
m{i} AS MATERIALIZED (
  SELECT a.cluster, e.dim, count(*)::BIGINT AS n, sum(e.vfp)::BIGINT AS s
  FROM ex e JOIN a{i} a USING (vec_id) GROUP BY 1, 2),
c{i} AS MATERIALIZED (
  SELECT cluster, dim,
         CASE WHEN s >= 0 THEN s // n
              ELSE -((-s + n - 1) // n) END AS cfp
  FROM m{i})"""
        )
    last = KMEANS_ITERS
    parts.append(
        f"""df AS MATERIALIZED (
  SELECT e.vec_id, c.cluster,
         sum((e.vfp - c.cfp) * (e.vfp - c.cfp))::BIGINT AS dist
  FROM ex e JOIN c{last} c USING (dim) GROUP BY 1, 2)"""
    )
    return (
        ",\n".join(parts)
        + f"""
SELECT vec_id,
       (min(dist * {K} + cluster) % {K})::BIGINT AS cluster,
       (min(dist * {K} + cluster) // {K})::BIGINT AS dist
FROM df GROUP BY 1"""
    )


KMEANS_CLUSTERS = _kmeans_clusters_sql()


def _embedding_gram_sql(fp: int | None = None) -> str:
    """Twin of similarity.embedding_gram: exact integer upper-triangle
    self-join sums at the (domain-derived) fixed point. The default
    (None) uses GRAM_FP — the scale embedding_gram derives for every
    unit-scale corpus; tests pass the derived constant for wide
    domains (similarity._derive_gram_fp)."""
    from harvester_ray.stages.similarity import GRAM_FP

    fp = GRAM_FP if fp is None else fp
    return f"""
WITH ex AS MATERIALIZED (
  SELECT vec_id,
         generate_subscripts(embedding, 1)::BIGINT AS dim,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * {fp})
              AS BIGINT) AS vfp
  FROM embeddings)
SELECT a.dim AS i, b.dim AS j, sum(a.vfp * b.vfp)::BIGINT AS gram_fp
FROM ex a JOIN ex b ON a.vec_id = b.vec_id AND a.dim <= b.dim
GROUP BY 1, 2
"""


EMBEDDING_GRAM = _embedding_gram_sql()


def _pagerank_boosted_sql() -> str:
    """Twin of fulltext.pagerank_boosted_topk: BM25 match-set scores
    fused with the unrolled integer-PageRank prior — fused_fp =
    score_fp * (rank_fp + 1), both BIGINT, exact product."""
    from harvester_ray.pipelines.fulltext import TOP_K, _FP8

    values = _or_query_values()
    pr_ctes, last = _pagerank_ctes()
    return f"""
WITH {_CORPUS_CTES},
q(query_id, term) AS (VALUES {values}),
{_SC_CTE.format(fp8=_FP8)},
{",".join(pr_ctes)},
b AS (
  SELECT sc.query_id, sc.doc_id,
         CAST(sc.score_fp AS BIGINT) * (pr.r + 1) AS fused_fp
  FROM sc JOIN {last} pr USING (doc_id)
),
ranked AS (
  SELECT query_id, doc_id, fused_fp,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY fused_fp DESC, doc_id ASC) AS rank
  FROM b
)
SELECT query_id, rank, doc_id, CAST(fused_fp AS BIGINT) AS fused_fp
FROM ranked WHERE rank <= {TOP_K}
"""


PAGERANK_BOOSTED_TOPK = _pagerank_boosted_sql()


def _commit_diff_sql() -> str:
    """Twin of fulltext.commit_diff over the CDC fixture: the upserted
    ATOMIC_IDS surface as 'updated' (unless the delete-only commit
    also removed them), the modulo-predicate deletes as 'removed';
    nothing is 'added' (upserts target existing docs)."""
    from harvester_ray.pipelines.fulltext import (
        ATOMIC_IDS,
        CDC_DELETE_MOD,
        CDC_DELETE_RES,
    )

    ids = ", ".join(str(i) for i in ATOMIC_IDS)
    return f"""
SELECT doc_id::BIGINT AS doc_id, 'updated' AS change FROM documents
WHERE doc_id IN ({ids})
  AND doc_id % {CDC_DELETE_MOD} != {CDC_DELETE_RES}
UNION ALL
SELECT doc_id::BIGINT AS doc_id, 'removed' AS change FROM documents
WHERE doc_id % {CDC_DELETE_MOD} = {CDC_DELETE_RES}
"""


COMMIT_DIFF = _commit_diff_sql()


def _anchor_search_sql() -> str:
    """Twin of weburls.anchor_search_topk: the ANCHOR_TEXT edge CTEs
    joined to the OR query terms; rank key (hits DESC, doc_id ASC)."""
    from harvester_ray.pipelines.fulltext import TOP_K
    from harvester_ray.pipelines.weburls import PR_EDGE_MULTS

    values = _or_query_values()
    mults = ", ".join(
        f"(doc_id * {a} + {b}) % (SELECT n FROM nn)"
        for a, b in PR_EDGE_MULTS
    )
    return f"""
WITH nn AS (SELECT count(*) AS n FROM documents),
q(query_id, term) AS (VALUES {values}),
a AS (SELECT doc_id, regexp_extract(lower(text), '[a-z0-9]+') AS anchor
      FROM documents),
e AS (SELECT unnest([{mults}]) AS dst, anchor FROM a WHERE anchor <> ''),
h AS (SELECT q.query_id, e.dst AS doc_id, count(*) AS hits
      FROM e JOIN q ON e.anchor = q.term GROUP BY 1, 2),
ranked AS (
  SELECT query_id, doc_id, hits,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY hits DESC, doc_id ASC) AS rank
  FROM h)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank,
       doc_id::BIGINT AS doc_id, CAST(hits AS BIGINT) AS hits
FROM ranked WHERE rank <= {TOP_K}
"""


ANCHOR_SEARCH_TOPK = _anchor_search_sql()
