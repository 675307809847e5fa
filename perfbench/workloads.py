"""The workloads.  Each runs in this one process with one client thread
(a closed loop: the next call starts when the previous returns) and
returns a ``Result``.

End-to-end metrics are measured with tracing off.  With ``--trace 1``
the same phases run with spans around the calls into each layer's
public functions, and the per-layer metrics are derived from them.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq

import gen
from harness import RayCluster, dir_bytes, pct, pss_mb, run_dir
from oracle import Bm25Oracle, same_ranking, url_doc_id
from spans import Tracer

perf = time.perf_counter

# serve_zipf: docs in the served index and queries in the stream; the
# loop answers at least MIN_SERVE_QUERIES
SERVE_DOCS = 70_000
SERVE_QUERIES = 2_500
MIN_SERVE_QUERIES = 2_000
# the served index is loaded this many times in set-up; the median counts
SERVE_LOADS = 3
# recrawl_pages: the base crawl is two large shards of pre-extracted text
# plus one small shard; every later shard is small and half its pages are
# HTML only, so each round extracts HTML
BASE_TEXT_SHARDS = 2
BASE_TEXT_PAGES = 12_500
SHARD_PAGES = 1_000
BURST_QUERIES = 1_000
# the delta chain folds into one source at this length; a round adds
# two deltas (new shard + rewritten shard), so a cycle is two rounds
# whose bursts see 3 sources and then the merged one
MERGE_AFTER_DELTAS = 4
ROUNDS_PER_CYCLE = MERGE_AFTER_DELTAS // 2
# a ~25 k-page index split into the default 128 term buckets is mostly
# tiny files; 8 buckets suits its size
PAGES_TERM_BUCKETS = 8
# one extraction actor per partition (two partitions run at once): on one
# core an autoscaling pool spends its time starting actor processes
EXTRACT_ACTORS = 1
# queries checked against the oracle
CHECK_QUERIES = 200


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


class Program:
    """The program's modules, imported after the set-up clock starts, and
    the public functions the traced run wraps."""

    def __init__(self):
        import ray.data

        import harvester_ray.index.build as build
        import harvester_ray.index.maintenance as maintenance
        import harvester_ray.pipelines.pages as pages
        import harvester_ray.state.partitioned as partitioned
        from harvester_ray.config import IndexConfig
        from harvester_ray.functions.text import get_analyzer
        from harvester_ray.index.query import InvertedIndex

        self.ray_data = ray.data
        self.build = build
        self.maintenance = maintenance
        self.pages = pages
        self.IndexConfig = IndexConfig
        self.InvertedIndex = InvertedIndex
        # update and build calls (driver side only: their wrappers must
        # never be shipped to Ray workers)
        self.write_targets = [
            (build, "build_index", "index.build.build_index"),
            (pages, "build_index", "index.build.build_index"),
            (pages, "extract_pages", "stages.extract.extract_pages"),
            (pages, "update_pages_index", "pipelines.pages.update_pages_index"),
            (partitioned, "run_partitioned_stage", "state.partitioned.run_partitioned_stage"),
            (maintenance, "add_docs", "index.maintenance.add_docs"),
            (maintenance, "upsert_docs", "index.maintenance.upsert_docs"),
            (maintenance, "merge_sources", "index.maintenance.merge_sources"),
        ]
        # query calls; the analyzer is also pickled into build tasks, so
        # it is wrapped only around reads
        self.read_targets = [
            (InvertedIndex, "__init__", "index.query.InvertedIndex.__init__"),
            (InvertedIndex, "search", "index.query.InvertedIndex.search"),
            (get_analyzer("default"), "tokenize", "functions.text.tokenize"),
        ]


def text_bytes(table) -> int:
    return int(pc.sum(pc.binary_length(table["text"])).as_py())


def build_layer(res: Result, index_dir: str, build_s: float) -> None:
    """index.build metrics of one build from its stages' lineage records."""
    st = {}
    for stage in ("spimi", "dictionary", "segments"):
        with open(os.path.join(index_dir, stage, "_lineage.json")) as f:
            st[stage] = float(json.load(f)["wall_sec"])
    with open(os.path.join(index_dir, "stats.json")) as f:
        stats = json.load(f)
    res.layer["build.spimi_s"] = st["spimi"]
    res.layer["build.dictionary_s"] = st["dictionary"]
    res.layer["build.segments_s"] = st["segments"]
    res.layer["build.tokens_per_s"] = stats["total_tokens"] / st["spimi"]
    res.layer["build.driver_s"] = build_s - sum(st.values())
    df = pq.read_table(os.path.join(index_dir, "dictionary"), columns=["df"])["df"]
    res.layer["build.segment_bytes_per_posting"] = (
        dir_bytes(os.path.join(index_dir, "segments")) / pc.sum(df).as_py()
    )


def postings_touched(idx, queries) -> list[int]:
    """Per query: the sum of the df of its terms present in the index."""
    d = idx.dictionary
    return [sum(d[w][1] for w in set(q.text.split()) if w in d) for q in queries]


def query_layer(res: Result, tr: Tracer, queries, lat_ms, postings) -> None:
    """index.query and functions.text metrics of a traced query phase."""
    for klass in (*gen.QUERY_CLASSES, "and", "or"):
        sel = [t for q, t in zip(queries, lat_ms) if klass in (q.klass, q.mode)]
        res.layer[f"query.search_ms.{klass}"] = pct(sel, 50) if sel else 0.0
    res.layer["query.postings_per_query"] = float(np.mean(postings))
    res.layer["query.ns_per_posting"] = sum(lat_ms) * 1e6 / max(1, sum(postings))
    tok = tr.durations("functions.text.tokenize")
    res.layer["text.query_tokenize_us"] = sum(tok) / len(tok) * 1e6 if tok else 0.0


def check_queries(res: Result, oracle: Bm25Oracle, queries, results, what: str) -> None:
    for i, got in results.items():
        q = queries[i]
        res.check(
            same_ranking(got, oracle.search(q.text, 10, q.mode)),
            f"{what}: query {q.text!r} ({q.mode}) differs from the oracle",
        )


def sample_ids(n: int) -> set[int]:
    return set(range(0, n, max(1, n // CHECK_QUERIES)))


def run_queries(idx, queries, sample: set[int]):
    """One pass, one client: returns (latencies ms, wall s, results of
    the sampled queries)."""
    lat = []
    got = {}
    t_start = perf()
    for i, q in enumerate(queries):
        t0 = perf()
        r = idx.search(q.text, 10, q.mode)
        lat.append((perf() - t0) * 1e3)
        if i in sample:
            got[i] = r
    return lat, perf() - t_start, got


# -- serve_zipf ---------------------------------------------------------


def serve_zipf(seed: int, seconds: float, tr: Tracer) -> Result:
    res = Result()
    t_setup = perf()
    ray_ = RayCluster(num_cpus=1)
    ray_.start()
    prog = Program()
    wd = run_dir("serve_zipf")
    corpus = gen.zipf_corpus(seed, SERVE_DOCS)
    table = corpus.table()
    src = gen.write_parquet_shards(table, os.path.join(wd, "docs"), 8)
    idx_dir = os.path.join(wd, "index")
    with tr.patched(prog.write_targets):
        t0 = perf()
        prog.build.build_index(prog.ray_data.read_parquet(src), idx_dir)
        build_s = perf() - t0
    ray_.stop()  # the serving path needs no cluster
    queries = gen.query_stream(seed, SERVE_QUERIES)
    terms = sorted({w for q in queries for w in q.text.split()})
    # the load is repeated and its median taken; the warm-up runs once,
    # on the last index loaded
    loads = []
    t_reps = perf()
    for _ in range(SERVE_LOADS):
        idx = None
        t0 = perf()
        idx = prog.InvertedIndex(idx_dir, preload=True)
        loads.append(perf() - t0)
    t0 = perf()
    for w in terms:  # one warm-up pass over every distinct query term
        idx.search(w, 10, "or")
    warm_s = perf() - t0
    load_s = statistics.median(loads)
    res.metrics["setup_s"] = (t_reps - t_setup) + load_s + warm_s
    res.metrics["build_docs_per_s"] = SERVE_DOCS / build_s
    res.metrics["update_docs_per_s"] = SERVE_DOCS / (build_s + load_s)
    res.metrics["index_bytes_per_input_byte"] = dir_bytes(idx_dir) / text_bytes(table)

    # timed: the closed loop cycles through the stream; the traced run
    # spends the first half untraced and the second half traced
    sample = sample_ids(len(queries))
    lat, wall, got = [], 0.0, {}
    budget = seconds / 2 if tr.enabled else seconds
    t_run = perf()
    while perf() - t_run < budget or len(lat) < MIN_SERVE_QUERIES:
        q_lat, q_wall, q_got = run_queries(idx, queries, sample)
        lat += q_lat
        wall += q_wall
        got = got or q_got
    res.metrics["pss_mb"] = pss_mb()
    res.attempted += len(lat)
    res.metrics["query_p50_ms"] = pct(lat, 50)
    res.metrics["query_p99_ms"] = pct(lat, 99)
    res.metrics["queries_per_s"] = len(lat) / wall

    if tr.enabled:
        t_lat, t_done = [], []
        with tr.patched(prog.read_targets):
            t_run = perf()
            while perf() - t_run < budget or len(t_lat) < MIN_SERVE_QUERIES:
                q_lat, _, _ = run_queries(idx, queries, set())
                t_lat += q_lat
                t_done += queries
        res.layer["tracing.overhead_ratio"] = pct(t_lat, 50) / pct(lat, 50) - 1.0
        query_layer(res, tr, t_done, t_lat, postings_touched(idx, t_done))
        res.layer["query.load_s"] = load_s
        res.layer["query.warmup_s"] = warm_s
        build_layer(res, idx_dir, build_s)

    # correctness: corpus statistics and sampled queries vs the oracle
    oracle = Bm25Oracle(corpus)
    with open(os.path.join(idx_dir, "stats.json")) as f:
        stats = json.load(f)
    res.check(stats["n_docs"] == corpus.n_docs, f"n_docs {stats['n_docs']} != {corpus.n_docs}")
    res.check(
        stats["total_tokens"] == oracle.total_tokens,
        f"total_tokens {stats['total_tokens']} != {oracle.total_tokens}",
    )
    rng = np.random.default_rng([seed, 9])
    for r in [*range(20), *rng.integers(0, gen.VOCAB, CHECK_QUERIES).tolist()]:
        meta = idx.dictionary.get(gen.term(r))
        have = meta[1] if meta else 0
        res.check(have == oracle.df(r), f"df({gen.term(r)}) {have} != {oracle.df(r)}")
    check_queries(res, oracle, queries, got, "serve_zipf")
    shutil.rmtree(wd, ignore_errors=True)
    return res


# -- recrawl_pages ------------------------------------------------------


class Crawl:
    """The crawl's truth: the latest version of every url, written as
    parquet page shards under ``root/pages``."""

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.dir = os.path.join(root, "pages")
        os.makedirs(self.dir)
        self.shards: list[gen.PageShard] = []
        self.version = 0

    def _write(self, i: int, rng, urls, langs, inline_share: float) -> str:
        self.version += 1
        ts = 1_700_000_000_000_000 + self.version * 86_400_000_000
        shard = gen.page_shard(rng, urls, langs, ts, inline_share)
        if i == len(self.shards):
            self.shards.append(shard)
        self.shards[i] = shard
        path = os.path.join(self.dir, f"shard-{i:04d}.parquet")
        pq.write_table(shard.table, path)
        return path

    def add_shard(self, n_pages: int, inline_share: float = 0.5) -> str:
        i = len(self.shards)
        urls = [f"https://site{(i * 7 + j) % 53}.example.net/{self.seed}/{i}/{j}" for j in range(n_pages)]
        return self._write(i, np.random.default_rng([self.seed, 4, i]), urls, None, inline_share)

    def rewrite_shard(self, i: int) -> str:
        """New content at the same urls (language unchanged)."""
        old = self.shards[i]
        rng = np.random.default_rng([self.seed, 5, self.version])
        return self._write(i, rng, old.urls, old.langs, 0.5)

    def n_valid(self) -> int:
        return sum(int(s.valid.sum()) for s in self.shards)

    def valid_text_bytes(self) -> int:
        return sum(int(s.text_bytes[s.valid].sum()) for s in self.shards)

    def logical_docs(self) -> gen.Corpus:
        """The valid pages, latest version of each url, as the oracle's
        corpus."""
        ids, runs = [], []
        for s in self.shards:
            d = s.doc_tokens
            for j in np.nonzero(s.valid)[0]:
                ids.append(url_doc_id(s.urls[j]))
                runs.append(d.tokens[d.offsets[j] : d.offsets[j + 1]])
        offsets = np.zeros(len(runs) + 1, dtype=np.int64)
        np.cumsum([len(r) for r in runs], out=offsets[1:])
        return gen.Corpus(np.array(ids, dtype=np.int64), np.concatenate(runs), offsets)


def lineage_keys(extracted_dir: str) -> dict[str, str]:
    out = {}
    for f in glob.glob(os.path.join(extracted_dir, "part-*", "_lineage.json")):
        with open(f) as fh:
            out[os.path.dirname(f)] = json.load(fh)["key"]
    return out


def recrawl_pages(seed: int, seconds: float, tr: Tracer) -> Result:
    res = Result()
    t_setup = perf()
    # num_cpus=4: extraction makes no progress at num_cpus <= 2 (a known
    # program defect, recorded in perfbench/README.md)
    ray_ = RayCluster(num_cpus=4)
    ray_.start()
    prog = Program()
    cfg = prog.IndexConfig(
        merge_after_deltas=MERGE_AFTER_DELTAS,
        num_term_buckets=PAGES_TERM_BUCKETS,
        extract_concurrency=EXTRACT_ACTORS,
    )
    wd = run_dir("recrawl_pages")
    crawl = Crawl(seed, wd)
    for _ in range(BASE_TEXT_SHARDS):
        crawl.add_shard(BASE_TEXT_PAGES, inline_share=1.0)
    crawl.add_shard(SHARD_PAGES)
    out = os.path.join(wd, "out")
    idx_dir = os.path.join(out, "index")
    with tr.patched(prog.write_targets):
        t0 = perf()
        prog.pages.update_pages_index(crawl.root, out, cfg)
        base_s = perf() - t0
    prog.InvertedIndex(idx_dir, preload=True)
    res.metrics["setup_s"] = perf() - t_setup
    res.metrics["build_docs_per_s"] = crawl.n_valid() / base_s
    if tr.enabled:
        build_layer(res, idx_dir, statistics.median(tr.durations("index.build.build_index")))

    # timed: whole cycles of rounds until the time is up; the traced run
    # runs one untraced cycle, then one traced cycle
    rounds = []
    t_run = perf()
    cycles = 0
    while cycles == 0 or perf() - t_run < seconds or (tr.enabled and cycles < 2):
        traced = tr.enabled and cycles % 2 == 1
        for _ in range(ROUNDS_PER_CYCLE):
            rounds.append(recrawl_round(prog, cfg, crawl, out, len(rounds), tr, traced))
        cycles += 1
    res.metrics["pss_mb"] = pss_mb()
    ray_.stop()

    plain = [r for r in rounds if not r["traced"]]
    lat = [t for r in plain for t in r["lat"]]
    res.attempted += len(rounds) + sum(len(r["lat"]) for r in rounds)
    res.metrics["update_docs_per_s"] = sum(r["landed"] for r in plain) / sum(
        r["update_s"] + r["reopen_s"] for r in plain
    )
    res.metrics["query_p50_ms"] = pct(lat, 50)
    res.metrics["query_p99_ms"] = pct(lat, 99)
    res.metrics["queries_per_s"] = len(lat) / sum(r["burst_s"] for r in plain)
    res.metrics["index_bytes_per_input_byte"] = dir_bytes(idx_dir) / crawl.valid_text_bytes()

    # correctness after the last round, which ended with the merge
    last = rounds[-1]
    logical = crawl.logical_docs()
    with open(os.path.join(idx_dir, "stats.json")) as f:
        stats = json.load(f)
    res.check(last["n_sources"] == 1, f"{last['n_sources']} sources after the merge round")
    res.check(
        stats["n_docs"] == logical.n_docs, f"n_docs {stats['n_docs']} != {logical.n_docs}"
    )
    check_queries(res, Bm25Oracle(logical), last["queries"], last["got"], "recrawl_pages")

    if tr.enabled:
        traced = [r for r in rounds if r["traced"]]

        def per_round(key):
            return float(np.mean([r[key] for r in traced]))

        res.layer["tracing.overhead_ratio"] = (
            sum(r["update_s"] + r["reopen_s"] for r in traced)
            / sum(r["update_s"] + r["reopen_s"] for r in plain)
            - 1.0
        )
        query_layer(
            res,
            tr,
            [q for r in traced for q in r["queries"]],
            [t for r in traced for t in r["lat"]],
            [p for r in traced for p in r["postings"]],
        )
        res.layer["query.reopen_ms"] = statistics.median(r["reopen_s"] for r in traced) * 1e3
        res.layer["query.n_sources"] = per_round("n_sources")
        extracted = sum(r["extracted_rows"] for r in traced)
        res.layer["extract.pages_per_s"] = extracted / sum(r["extract_s"] for r in traced)
        res.layer["extract.reject_ratio"] = sum(r["rejected_rows"] for r in traced) / extracted
        redone = sum(r["reextracted"] for r in traced)
        res.layer["lineage.partitions_reextracted"] = redone
        res.layer["lineage.partitions_changed"] = sum(r["changed"] for r in traced)
        res.layer["lineage.reextract_waste_ratio"] = sum(r["wasted"] for r in traced) / redone
        for fn in ("add_docs", "upsert_docs", "merge_sources"):
            res.layer[f"maintenance.{fn}_s"] = per_round(fn)
        res.layer["maintenance.tombstones"] = per_round("tombstones")
        res.layer["pages.update_round_self_s"] = per_round("update_self_s")
    shutil.rmtree(wd, ignore_errors=True)
    return res


def recrawl_round(prog, cfg, crawl: Crawl, out: str, n: int, tr: Tracer, traced: bool) -> dict:
    """One round: a new shard, a rewritten shard, the update, a reopen
    and a burst of queries against the reopened index."""
    from harvester_ray.state.partitioned import partition_key

    extracted = os.path.join(out, "extracted")
    idx_dir = os.path.join(out, "index")
    # recrawl the shard the previous round added (the small base shard
    # in the first round)
    target = len(crawl.shards) - 1
    written = [crawl.add_shard(SHARD_PAGES), crawl.rewrite_shard(target)]
    before = lineage_keys(extracted)
    first_span = len(tr.spans)
    with tr.patched(prog.write_targets if traced else ()):
        t0 = perf()
        prog.pages.update_pages_index(crawl.root, out, cfg)
        t1 = perf()
    # OR over in-vocabulary terms: an AND with a missing term and an OOV
    # term return before any postings are read, so neither reaches the
    # multi-source decode path this burst is for
    queries = gen.query_stream(crawl.seed, BURST_QUERIES, 1 + n, oov_share=0.0, and_share=0.0)
    with tr.patched(prog.read_targets if traced else ()):
        t2 = perf()
        idx = prog.InvertedIndex(idx_dir, preload=True)
        t3 = perf()
        lat, burst_s, got = run_queries(idx, queries, sample_ids(len(queries)))
    r = {
        "traced": traced,
        "landed": 2 * SHARD_PAGES,
        "update_s": t1 - t0,
        "reopen_s": t3 - t2,
        "lat": lat,
        "burst_s": burst_s,
        "queries": queries,
        "got": got,
        "n_sources": idx.n_sources,
    }
    if traced:
        update = "pipelines.pages.update_pages_index"
        redone = [p for p, k in lineage_keys(extracted).items() if before.get(p) != k]
        changed = {os.path.join(extracted, f"part-{partition_key(p)}") for p in written}
        rows = rejected = 0
        for p in redone:
            t = pq.read_table(p, columns=["reject_reason"])
            rows += len(t)
            rejected += len(t) - t["reject_reason"].null_count
        i = next(i for i in range(first_span, len(tr.spans)) if tr.spans[i][0] == update)
        r.update(
            reextracted=len(redone),
            changed=len(changed),
            wasted=len(set(redone) - changed),
            extracted_rows=rows,
            rejected_rows=rejected,
            extract_s=sum(tr.durations("state.partitioned.run_partitioned_stage", update, first_span)),
            tombstones=len(prog.maintenance.load_tombstones(idx_dir)),
            postings=postings_touched(idx, queries),
            update_self_s=tr.self_times()[i],
            **{
                fn: sum(tr.durations(f"index.maintenance.{fn}", update, first_span))
                for fn in ("add_docs", "upsert_docs", "merge_sources")
            },
        )
    return r
