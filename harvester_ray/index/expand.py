"""Dictionary-expansion query operators: prefix, fuzzy (edit<=1) and
spelling suggestion.

All three are distributed scans over the index DICTIONARY parquet (the
small artifact — vocab-sized, not corpus-sized): a ``map_batches`` pass
emits per-query candidate terms, a tiny grouped reduction picks the
capped / best expansion, and the expanded term set feeds the same
QueryActor BM25 paths as a hand-written OR query. At a 10^9+ vocabulary
the dictionary scan shards exactly like term_dictionary (per-bucket
parquet parts); nothing here reads postings or documents.

Reference analog: the prefix/fuzzy rewrites the harvester delegates to
Solr's query parser (SURVEY.md §2.7 "search is delegated"); re-expressed
here as Ray Data passes + the engine's own ranking.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from harvester_ray.stages.topk import topk_per_key


def _padded_matrix(terms: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(n x L) uint8 byte matrix (zero-padded) + per-term byte lengths.

    Terms are [a-z0-9]+ (single-byte) by the analyzer contract, so byte
    positions == character positions.
    """
    n = len(terms)
    lens = np.fromiter((len(t) for t in terms), dtype=np.int64, count=n)
    L = int(lens.max()) if n else 0
    mat = np.zeros((n, L), dtype=np.uint8)
    for i, t in enumerate(terms):
        b = t.encode("ascii", "replace")
        mat[i, : len(b)] = np.frombuffer(b, dtype=np.uint8)
    return mat, lens


def _qbytes(q: str) -> np.ndarray:
    return np.frombuffer(q.encode("ascii", "replace"), dtype=np.uint8)


def within_edit1_mask(
    mat: np.ndarray, lens: np.ndarray, q: str
) -> np.ndarray:
    """Vectorized Levenshtein(term, q) <= 1 over a padded byte matrix.

    Cases (exact, matching DuckDB ``levenshtein(term, q) <= 1``):
    - equal length: <= 1 mismatching position (ed 1 on equal length is
      exactly one substitution; insert+delete costs 2)
    - length diff 1: the short string survives deleting one char from
      the long one, i.e. common_prefix + common_suffix >= len(short)
    - length diff >= 2: never
    """
    n, L = mat.shape
    qb = _qbytes(q)
    m = len(qb)
    out = np.zeros(n, dtype=bool)
    if n == 0 or m == 0:
        return out
    # equal length: count mismatches over the first m positions
    sel = np.nonzero(lens == m)[0]
    if len(sel) and L >= m:
        mism = (mat[sel, :m] != qb).sum(axis=1)
        out[sel] = mism <= 1
    # term longer by 1: term = q with one char inserted
    sel = np.nonzero(lens == m + 1)[0]
    if len(sel):
        out[sel] = _del1_rows(mat[sel, : m + 1], np.tile(qb, (len(sel), 1)))
    # term shorter by 1: q = term with one char inserted
    sel = np.nonzero(lens == m - 1)[0]
    if len(sel) and m >= 2:
        out[sel] = _del1_rows(np.tile(qb, (len(sel), 1)), mat[sel, : m - 1])
    return out


def _del1_rows(long_mat: np.ndarray, short_mat: np.ndarray) -> np.ndarray:
    """Row-wise: long (n x s+1) equals short (n x s) + one deletion."""
    s = short_mat.shape[1]
    if s == 0:  # deleting the single char of long always yields ""
        return np.ones(long_mat.shape[0], dtype=bool)
    eq_p = long_mat[:, :s] == short_mat
    pref = np.where(eq_p.all(axis=1), s, eq_p.argmin(axis=1))
    eq_s = (long_mat[:, 1 : s + 1] == short_mat)[:, ::-1]
    suf = np.where(eq_s.all(axis=1), s, eq_s.argmin(axis=1))
    return pref + suf >= s


def levenshtein_batch(
    mat: np.ndarray, lens: np.ndarray, q: str
) -> np.ndarray:
    """Full edit distance term->q for every row, vectorized over the
    batch: classic DP, O(len(q) * L) numpy column ops of width n (terms
    are short — L ~ 12 — so ~150 vector ops per batch, no per-row
    Python). Matches DuckDB ``levenshtein`` (unit costs)."""
    n, L = mat.shape
    qb = _qbytes(q)
    m = len(qb)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    prev = np.tile(np.arange(L + 1, dtype=np.int64), (n, 1))
    cur = np.empty_like(prev)
    for i in range(1, m + 1):
        cur[:, 0] = i
        qc = qb[i - 1]
        for j in range(1, L + 1):
            cost = (mat[:, j - 1] != qc).astype(np.int64)
            np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1, out=cur[:, j])
            np.minimum(cur[:, j], prev[:, j - 1] + cost, out=cur[:, j])
        prev, cur = cur, prev
    return prev[np.arange(n), lens]


# ---------------------------------------------------------------------


def _pattern_expansions(
    dict_ds: "ray.data.Dataset",
    patterns: list[tuple[int, str]],
    cap: int,
    kernel,
) -> pd.DataFrame:
    """Shared scaffold for capped pattern expansions (prefix is the
    pattern 'p%' special case of wildcard): one distributed dictionary
    pass emits all matches via ``kernel(term_column, pattern)``, a
    grouped per-query reduction ranks df DESC, term ASC and applies
    the cap. The returned frame is <= len(patterns) * cap rows
    (driver-safe by construction — the cap bounds it, not the
    vocabulary)."""

    def match(t: pa.Table) -> pa.Table:
        parts = []
        for qid, p in patterns:
            sel = t.filter(kernel(t["term"], p))
            if len(sel):
                parts.append(
                    pa.table(
                        {
                            "query_id": pa.array(
                                np.full(len(sel), qid, dtype=np.int64)
                            ),
                            "term": sel["term"],
                            "df": sel["df"].cast(pa.int64()),
                        }
                    )
                )
        if not parts:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "term": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                }
            )
        return pa.concat_tables(parts)

    capped = topk_per_key(
        dict_ds.map_batches(match, batch_format="pyarrow"),
        "query_id",
        [("df", "descending"), ("term", "ascending")],
        cap,
        ["term"],
    )
    out = capped.to_pandas()  # bounded by len(patterns) * cap
    if out.empty:
        return pd.DataFrame({"query_id": [], "term": []})
    return out


def prefix_expansions(
    dict_ds: "ray.data.Dataset",
    prefixes: list[tuple[int, str]],
    cap: int,
) -> pd.DataFrame:
    """(query_id, term) — for each (query_id, prefix), the top-``cap``
    dictionary terms with that prefix, ranked df DESC, term ASC (the
    highest-df expansions carry the most results; deterministic
    ties)."""
    return _pattern_expansions(dict_ds, prefixes, cap, pc.starts_with)


def fuzzy_expansions(
    dict_ds: "ray.data.Dataset",
    queries: list[tuple[int, str]],
) -> pd.DataFrame:
    """(query_id, term) — dictionary terms within edit distance 1 of ANY
    token of the query (union, deduplicated). Distributed dictionary
    scan with the vectorized edit-1 mask; result is per-query small
    (the edit-1 neighborhood of a few tokens)."""
    from harvester_ray.functions.text import tokenize

    qtoks = [(qid, tok) for qid, q in queries for tok in sorted(set(tokenize(q)))]

    def match(t: pa.Table) -> pa.Table:
        terms = t["term"].to_pylist()
        mat, lens = _padded_matrix(terms)
        qids, out_terms = [], []
        for qid, tok in qtoks:
            mask = within_edit1_mask(mat, lens, tok)
            hits = np.nonzero(mask)[0]
            qids.extend([qid] * len(hits))
            out_terms.extend(terms[i] for i in hits)
        return pa.table(
            {
                "query_id": pa.array(qids, pa.int64()),
                "term": pa.array(out_terms, pa.string()),
            }
        )

    matches = dict_ds.map_batches(match, batch_format="pyarrow")
    out = matches.to_pandas()  # |queries| x edit-1 neighborhood: small
    if out.empty:
        return pd.DataFrame({"query_id": [], "term": []})
    return out.drop_duplicates(["query_id", "term"])


def best_suggestions(
    dict_ds: "ray.data.Dataset",
    queries: list[tuple[int, str]],
    max_dist: int = 2,
) -> pa.Table:
    """(query_id, qterm, suggestion, dist) — for each query term, the
    dictionary term with minimal edit distance (<= max_dist), ties by
    cf DESC then term ASC; no row when nothing is within max_dist.

    Each dictionary batch emits only its LOCAL best candidate per query
    term (a combiner — constant output per batch), then a grouped
    reduction picks the global best, so the shuffle is
    |batches| x |query terms| rows regardless of vocabulary size."""

    def local_best(t: pa.Table) -> pa.Table:
        terms = t["term"].to_pylist()
        cfs = t["cf"].to_numpy(zero_copy_only=False)
        mat, lens = _padded_matrix(terms)
        rows = {"query_id": [], "qterm": [], "suggestion": [],
                "dist": [], "cf": []}
        for qid, tok in queries:
            d = levenshtein_batch(mat, lens, tok)
            ok = np.nonzero(d <= max_dist)[0]
            if len(ok) == 0:
                continue
            # local argmin under (dist asc, cf desc, term asc)
            cand = sorted(
                ((int(d[i]), -int(cfs[i]), terms[i]) for i in ok)
            )[0]
            rows["query_id"].append(qid)
            rows["qterm"].append(tok)
            rows["suggestion"].append(cand[2])
            rows["dist"].append(cand[0])
            rows["cf"].append(-cand[1])
        return pa.table(
            {
                "query_id": pa.array(rows["query_id"], pa.int64()),
                "qterm": pa.array(rows["qterm"], pa.string()),
                "suggestion": pa.array(rows["suggestion"], pa.string()),
                "dist": pa.array(rows["dist"], pa.int64()),
                "cf": pa.array(rows["cf"], pa.int64()),
            }
        )

    locals_ = dict_ds.map_batches(local_best, batch_format="pyarrow")

    # key on BOTH columns: local_best emits one row per (query_id,
    # qterm), and a multi-token query must keep one suggestion per
    # query term (ADVICE r3)
    out = topk_per_key(
        locals_,
        ["query_id", "qterm"],
        [
            ("dist", "ascending"),
            ("cf", "descending"),
            ("suggestion", "ascending"),
        ],
        1,
        ["suggestion", "dist"],
    )
    tbl = pa.Table.from_pandas(
        out.to_pandas(), preserve_index=False
    )
    if len(tbl) == 0:
        tbl = pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "qterm": pa.array([], pa.string()),
                "suggestion": pa.array([], pa.string()),
                "dist": pa.array([], pa.int64()),
            }
        )
    return tbl.select(["query_id", "qterm", "suggestion", "dist"])


def wildcard_expansions(
    dict_ds: "ray.data.Dataset",
    patterns: list[tuple[int, str]],
    cap: int,
) -> pd.DataFrame:
    """(query_id, term) — for each (query_id, LIKE pattern), the
    top-``cap`` matching dictionary terms ranked df DESC, term ASC —
    Lucene's WildcardQuery rewrite, with SQL LIKE semantics ('%'/'_')
    so the kernel (pc.match_like) and the DuckDB oracle share the
    pattern string verbatim."""
    return _pattern_expansions(dict_ds, patterns, cap, pc.match_like)


def regex_expansions(
    dict_ds: "ray.data.Dataset",
    patterns: list[tuple[int, str]],
    cap: int,
) -> pd.DataFrame:
    """(query_id, term) — Lucene RegexpQuery rewrite: top-``cap``
    dictionary terms matching each regex, df DESC, term ASC. Both
    engines run RE2 partial-match semantics (pc.match_substring_regex
    / DuckDB regexp_matches), so pattern strings are shared verbatim
    with the oracle; anchor with ^$ for whole-term matches."""
    return _pattern_expansions(
        dict_ds, patterns, cap, pc.match_substring_regex
    )
