"""Benchmark harness (driver contract).

Headline: the full inverted-index build (tokenize → SPIMI → dictionary
→ term-bucket shuffle → varint/block-max segments) over a deterministic
Zipf-vocabulary corpus (``corpus.generate_zipf_docs``: 50 k-term Zipf
vocabulary, lognormal doc lengths — the realistic web-text shape), plus
warm BM25 top-10 latency over a fixed head/mid/tail/OOV query set.

The driver `documents` table (31-term vocabulary) is kept as a
SECONDARY metric (``index_build_smallvocab``) for round-over-round
continuity: its degenerate vocabulary caps term-bucket parallelism at
31 and is adversarially un-web-like (BASELINE.md §3-4).

Prints ONE JSON line:
  {"metric": "...", "value": build_sec, "unit": "sec",
   "queries": {...per-pipeline secs...}, "sf": ..., "num_cpus": N,
   "docs_per_sec": ..., "n_docs": ...}

``--scaling``: runs the same Zipf build in fresh processes at two CPU
levels on the same input (the sandbox proxy for N vs 4N nodes) and
prints both throughputs + scaling efficiency. Default levels 4 and 16:
this VM's 32 vCPUs are hypervisor-shared, and 32 busy processes only
deliver ~0.75-0.82x of 4x the aggregate compute of 8 (measured spin
ceiling) — steal that a real 4N-node cluster (4x physical cores) does
not exhibit. At 4→16 at most half the box is busy and the measured
ceiling is ~0.93-0.98, so the proxy isolates the JOB's scaling from the
hypervisor's. Override with SCALING_LO / SCALING_HI (e.g. 8 / 32); the
spin ceiling for the chosen levels is measured and reported either way.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_DOCS = int(os.environ.get("BENCH_DOCS", "600000"))
# headline build repeats (min reported): this VM's host throttles
# invisibly (0% guest steal, yet the measured spin ceiling swings ~2x
# between sessions), so a single sample is not meaningful
BENCH_REPEATS = int(os.environ.get("BENCH_REPEATS", "2"))
ZIPF_DOCS = int(os.environ.get("ZIPF_DOCS", "2000000"))
ZIPF_VOCAB = int(os.environ.get("ZIPF_VOCAB", "50000"))
ZIPF_MEAN_LEN = int(os.environ.get("ZIPF_MEAN_LEN", "100"))

# fixed Zipf-corpus query set: head / mid / tail / OOV, OR + AND
ZIPF_QUERY_SET = [
    (0, "w0 w1", "or"),
    (1, "w3 w7 w12", "or"),
    (2, "w500 w1200", "or"),
    (3, "w2000 w777 w1500 w42", "or"),
    (4, "w30000 w41000", "or"),
    (5, "zzzq w5", "or"),
    (6, "w17 w171 w1717", "or"),
    (7, "w9 w99 w999 w9999", "or"),
    (8, "w0 w1", "and"),
    (9, "w500 w1200", "and"),
    (10, "w2000 w777 w1500", "and"),
    (11, "w30000 w41000", "and"),
    (12, "zzzq w5", "and"),
    (13, "w12 w120 w1200", "and"),
]


def _scratch_root() -> str:
    """tmpfs when available: bench numbers should measure compute and
    shuffle, not this VM's (noisy, shared) disk."""
    shm = "/dev/shm"
    try:
        if os.path.isdir(shm):
            st = os.statvfs(shm)
            if st.f_bavail * st.f_frsize > 20 * 1024**3:
                return os.path.join(shm, "harvester_ray_bench")
    except OSError:
        pass
    return "/tmp/harvester_ray_bench"


SCRATCH = _scratch_root()


def _zipf_corpus(n_docs: int) -> str:
    """Deterministic sharded Zipf corpus, generated in parallel with
    Ray tasks (per-shard seeds — layout identical at any parallelism),
    cached on disk across bench runs and CPU levels."""
    import ray

    out_dir = os.path.join(
        SCRATCH, f"zipf_{n_docs}_{ZIPF_VOCAB}_{ZIPF_MEAN_LEN}"
    )
    marker = os.path.join(out_dir, "_DONE")
    if os.path.exists(marker):
        return out_dir
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    n_files = 32
    per = (n_docs + n_files - 1) // n_files

    @ray.remote(num_cpus=1)
    def gen(i: int) -> int:
        import pyarrow.parquet as pq

        from harvester_ray.corpus import SEED, generate_zipf_docs

        lo = i * per
        cnt = min(per, n_docs - lo)
        if cnt <= 0:
            return 0
        tbl = generate_zipf_docs(
            cnt, ZIPF_VOCAB, ZIPF_MEAN_LEN, SEED * 7919 + i, doc_id_offset=lo
        )
        pq.write_table(tbl, os.path.join(out_dir, f"zipf-{i:05d}.parquet"))
        return cnt

    total = sum(ray.get([gen.remote(i) for i in range(n_files)]))
    with open(marker, "w") as f:
        f.write(str(total))
    return out_dir


def _replicated_corpus(sf_dir: str, target_docs: int) -> str:
    """Replicate documents.parquet to ~target_docs rows with distinct
    doc_ids (deterministic), cached on disk across bench runs."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    src = os.path.join(sf_dir, "documents.parquet")
    base = pq.read_table(src, columns=["doc_id", "text"])
    factor = max(1, target_docs // len(base))
    out_dir = os.path.join(
        SCRATCH, f"corpus_{os.path.basename(os.path.abspath(sf_dir))}_{factor}x"
    )
    marker = os.path.join(out_dir, "_DONE")
    if os.path.exists(marker):
        return out_dir
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    # 32 files so every CPU has read parallelism at both bench levels
    n_files = 32
    per_file = max(1, factor // n_files)
    k = 0
    for fi in range(n_files):
        parts = []
        for _ in range(per_file):
            shifted = pc.add(base["doc_id"], pa.scalar((k + 1) * 10_000_000, pa.int64()))
            parts.append(pa.table({"doc_id": shifted, "text": base["text"]}))
            k += 1
        pq.write_table(
            pa.concat_tables(parts), os.path.join(out_dir, f"part-{fi:05d}.parquet")
        )
    with open(marker, "w") as f:
        f.write(str(k * len(base)))
    return out_dir


def _install_worker_log_config():
    """Ship a Ray Data logging config that drops the cosmetic
    'Failed to hash the schemas' WARNING from WORKER consoles too (the
    driver-side filter below can't reach worker-forwarded lines).
    pyarrow cannot hash a schema carrying the testdata writer's pandas
    metadata, so Ray's block-schema dedup warns inside every read task
    of those files before falling back to a full unify — upstream
    cosmetics, not our stages. Must run BEFORE ray.init so workers
    inherit the env var."""
    import json

    from ray.data._internal.logging import DEFAULT_CONFIG

    if os.environ.get("RAY_DATA_LOGGING_CONFIG"):
        return
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    cfg["loggers"]["ray.data._internal.arrow_ops.transform_pyarrow"] = {
        "level": "ERROR",
        "handlers": ["file"],
        "propagate": False,
    }
    path = os.path.join("/tmp", f"ray_data_logging_{os.getpid()}.yaml")
    with open(path, "w") as f:
        json.dump(cfg, f)  # dictConfig YAML is a JSON superset
    os.environ["RAY_DATA_LOGGING_CONFIG"] = path


def _init_ray():
    import ray

    if not ray.is_initialized():
        _install_worker_log_config()
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    # Ray Data's aggregate shuffle emits one cosmetic "RefBundle with a
    # different schema" WARNING per empty shuffle partition even for a
    # bare read_parquet -> groupby -> aggregate (reproduced upstream,
    # not caused by our stages) — drop just that message so the bench
    # output stays a clean single JSON line.
    import logging

    class _DropRefBundleSchemaWarn(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:
            return "RefBundle with a different schema" not in record.getMessage()

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_DropRefBundleSchemaWarn())

    # "Failed to hash the schemas (for deduplication)" — pyarrow cannot
    # hash a schema carrying the testdata writer's pandas metadata, so
    # Ray's block-schema dedup logs this cosmetic warning on every
    # parquet read of those files (the dedup just falls back to a full
    # unify). The files are read-only and read_parquet(schema=) is
    # incompatible with columns= pruning in this Ray version, so the
    # clean-tail fix is local to the bench logger.
    class _DropSchemaHashWarn(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:
            return "Failed to hash the schemas" not in record.getMessage()

    logging.getLogger(
        "ray.data._internal.arrow_ops.transform_pyarrow"
    ).addFilter(_DropSchemaHashWarn())


def _warm_workers():
    import ray

    @ray.remote(num_cpus=1)
    def _warm(i: int) -> int:
        import numpy  # noqa: F401
        import pyarrow  # noqa: F401

        import harvester_ray.index.build  # noqa: F401

        return i

    ray.get([_warm.remote(i) for i in range(NUM_CPUS)])


def _timed_build(corpus_dir: str, n_docs: int, tag: str, cfg=None) -> dict:
    """One timed build over a warmed corpus; returns metrics + paths."""
    import ray.data

    from harvester_ray.config import IndexConfig
    from harvester_ray.index.build import build_index

    # warm-up (untimed): OS page cache, so the timed section measures
    # steady-state compute+shuffle (a long-lived cluster is always warm)
    ray.data.read_parquet(corpus_dir).count()
    out_dir = os.path.join(SCRATCH, f"idx_{tag}_{NUM_CPUS}_{os.getpid()}")
    shutil.rmtree(out_dir, ignore_errors=True)
    docs = ray.data.read_parquet(corpus_dir)
    t0 = time.time()
    cfg = cfg or IndexConfig()
    paths = build_index(docs, out_dir, cfg, n_docs=n_docs)
    build_sec = time.time() - t0
    return {"sec": build_sec, "paths": paths, "out_dir": out_dir}


def _query_latencies(paths, query_set) -> dict:
    from harvester_ray.index.query import InvertedIndex

    t0 = time.time()
    idx = InvertedIndex(paths.root, preload=True)
    load_sec = time.time() - t0
    # cold pass (first per-term posting decode) timed separately —
    # the warm p50/p95 is the bench contract (a serving tier is warm)
    cold = []
    for _qid, q, mode in query_set:
        t0 = time.time()
        idx.search(q, k=10, mode=mode)
        cold.append(time.time() - t0)
    lat = []
    for _rep in range(3):
        for _qid, q, mode in query_set:
            t0 = time.time()
            idx.search(q, k=10, mode=mode)
            lat.append(time.time() - t0)
    lat.sort()
    return {
        "load_sec": load_sec,
        "p50": statistics.median(lat),
        "p95": lat[int(0.95 * len(lat)) - 1],
        "cold_max": max(cold),
    }


def run_bench(scaling_child: bool = False) -> dict:
    _init_ray()
    _warm_workers()

    # headline: Zipf-vocabulary corpus build + warm BM25 latency.
    # min of BENCH_REPEATS builds: the host throttles this VM invisibly
    # (0% guest steal, ~2x spin-ceiling swings between sessions), so
    # min-of-N is the only meaningful wall-clock estimator here.
    zipf_dir = _zipf_corpus(ZIPF_DOCS)
    zb = _timed_build(zipf_dir, ZIPF_DOCS, "zipf")
    build_secs = [zb["sec"]]
    for _rep in range(1, BENCH_REPEATS):
        shutil.rmtree(zb["out_dir"], ignore_errors=True)
        zb = _timed_build(zipf_dir, ZIPF_DOCS, "zipf")
        build_secs.append(zb["sec"])
    zb["sec"] = min(build_secs)
    ql = _query_latencies(zb["paths"], ZIPF_QUERY_SET)
    seg_bytes = sum(
        os.path.getsize(os.path.join(zb["paths"].segments, f))
        for f in os.listdir(zb["paths"].segments)
        if f.endswith(".parquet")
    )
    # every file the build leaves: segments, dictionary, doc table,
    # lineage records and stats
    index_bytes = sum(
        os.path.getsize(os.path.join(d, f))
        for d, _dirs, files in os.walk(zb["paths"].root)
        for f in files
    )
    shutil.rmtree(zb["out_dir"], ignore_errors=True)
    result = {
        "metric": (
            "index-build wall time (Zipf-vocab corpus) + BM25 top-10 latency"
        ),
        "value": round(zb["sec"], 3),
        "unit": "sec",
        "queries": {
            "index_build": round(zb["sec"], 3),
            "index_load": round(ql["load_sec"], 3),
            "bm25_p50": round(ql["p50"], 6),
            "bm25_p95": round(ql["p95"], 6),
            "bm25_cold_max": round(ql["cold_max"], 6),
        },
        "sf": os.path.basename(os.path.abspath(SF_DIR)),
        "num_cpus": NUM_CPUS,
        "n_docs": int(ZIPF_DOCS),
        "docs_per_sec": round(ZIPF_DOCS / zb["sec"], 1),
        "build_samples_sec": [round(s, 3) for s in build_secs],
        "segment_bytes": int(seg_bytes),
        "index_bytes": int(index_bytes),
        "segment_bytes_per_doc": round(seg_bytes / max(1, ZIPF_DOCS), 1),
        # measured machine speed (M spin-iters/s aggregate at NUM_CPUS
        # procs): divides out the host's invisible throttling when
        # comparing across sessions/rounds (BASELINE.md §3)
        "spin_mips": _spin_mips(NUM_CPUS),
    }
    # machine-normalized throughput (round-2 verdict #7): docs/s per
    # spin-MIPS lets rounds assert non-regression mechanically even
    # when one bench lands in a hypervisor-throttle trough
    result["docs_per_sec_per_mips"] = round(
        result["docs_per_sec"] / max(1, result["spin_mips"]), 2
    )
    if scaling_child:
        return result

    # secondary: the round-1 replicated driver-documents corpus
    # (degenerate 31-term vocabulary; round-over-round continuity)
    small_dir = _replicated_corpus(SF_DIR, BENCH_DOCS)
    import ray.data

    n_small = ray.data.read_parquet(small_dir).count()
    sb = _timed_build(small_dir, n_small, "smallvocab")
    shutil.rmtree(sb["out_dir"], ignore_errors=True)
    result["queries"]["index_build_smallvocab"] = round(sb["sec"], 3)
    result["queries"]["smallvocab_docs_per_sec"] = round(n_small / sb["sec"], 1)
    result["queries"]["smallvocab_docs_per_sec_per_mips"] = round(
        (n_small / sb["sec"]) / max(1, result["spin_mips"]), 2
    )

    # a couple of secondary pipeline timings at the raw sf dir
    from harvester_ray.pipelines import relational

    t0 = time.time()
    relational.q1_pricing(SF_DIR).to_pandas()
    result["queries"]["q1_pricing"] = round(time.time() - t0, 3)
    t0 = time.time()
    relational.dedup_exact(SF_DIR).count()
    result["queries"]["dedup_exact"] = round(time.time() - t0, 3)
    return result


def _spin(_: float) -> int:
    import time as _t

    t0 = _t.time()
    x = 0
    while _t.time() - t0 < 2.0:
        x += 1
    return x


def _membw(sec: float) -> float:
    """Bytes moved by LLC-busting 64 MB copies for ``sec`` seconds —
    the memory-bandwidth twin of _spin."""
    import numpy as np

    a = np.empty(64_000_000, dtype=np.uint8)
    a[:] = 1  # touch every page: np.zeros maps the shared zero page
    # and reads would come from cache, not RAM
    b = np.empty_like(a)
    b[:] = 0
    t0 = time.perf_counter()
    n = 0
    while time.perf_counter() - t0 < sec:
        np.copyto(b, a)
        n += 1
    return float(n * len(a) * 2)


def _spin_mips(procs: int) -> int:
    """Aggregate M spin-iters/s over ``procs`` OS processes — the
    machine-speed yardstick reported next to every wall-clock number."""
    import multiprocessing as mp

    with mp.Pool(procs) as pool:
        t0 = time.perf_counter()
        total = sum(pool.map(_spin, [2.0] * procs))
        wall = time.perf_counter() - t0
    return int(total / 1e6 / wall)


def run_scaling() -> dict:
    """Same Zipf build, fresh processes, SCALING_LO vs SCALING_HI CPUs
    on the same input. Interleaved (hi, lo, hi, lo) so both levels
    sample the same hypervisor states; min per level is the standard
    noise-robust wall-clock estimator on a shared VM."""

    def one(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            BENCH_SCALING_CHILD="1",
            # one build per child: the interleaved-pairs min already
            # de-noises; child-level repeats would double the runtime
            BENCH_REPEATS="1",
            # scaling corpus: 1.5 M docs — long enough that the fixed
            # term is <2% of the 4-CPU wall, short enough that a run
            # fits inside this VM's quiet windows between steal bursts
            ZIPF_DOCS=os.environ.get(
                "SCALING_DOCS", os.environ.get("ZIPF_DOCS", "1500000")
            ),
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    def hardware_ceiling(lo: int, hi: int) -> tuple[float, float]:
        """The VM's vCPUs are hypervisor-shared: measure the actual
        aggregate ratio between `hi` and `lo` busy processes for BOTH
        machine resources a build consumes — registers (spin) and
        memory bandwidth (LLC-busting copies). Returns (spin_ceiling,
        membw_ceiling). A host can deliver near-linear spin scaling
        while its memory subsystem is flat (measured on this sandbox:
        spin 0.91 vs membw 0.32 at 4→16) — a real 4N-node cluster
        multiplies BOTH, so the binding single-box ceiling is whichever
        resource the job leans on."""
        import multiprocessing as mp

        def agg_spin(procs: int) -> float:
            with mp.Pool(procs) as p:
                return sum(p.map(_spin, [0.0] * procs))

        def agg_membw(procs: int) -> float:
            with mp.Pool(procs) as p:
                t0 = time.perf_counter()
                tot = sum(p.map(_membw, [2.0] * procs))
                return tot / (time.perf_counter() - t0)

        agg_spin(lo)  # warm the pool machinery
        spin = (agg_spin(hi) / agg_spin(lo)) / (hi / lo)
        membw = (agg_membw(hi) / agg_membw(lo)) / (hi / lo)
        return spin, membw

    lo = int(os.environ.get("SCALING_LO", "4"))
    hi = int(os.environ.get("SCALING_HI", "16"))
    pairs = int(os.environ.get("SCALING_PAIRS", "3"))
    spin_ceiling, membw_ceiling = hardware_ceiling(lo, hi)
    ceiling = spin_ceiling
    # interleaved pairs; min per level. The VM suffers minute-scale
    # steal bursts (identical runs vary ~2x), so 3 pairs materially
    # improve the odds that each level samples a quiet window.
    runs = []
    for _ in range(pairs):
        runs.append(one(hi))
        runs.append(one(lo))
    r_hi = min((r for r in runs if r["num_cpus"] == hi), key=lambda r: r["value"])
    r_lo = min((r for r in runs if r["num_cpus"] == lo), key=lambda r: r["value"])
    tp_lo = r_lo["docs_per_sec"]
    tp_hi = r_hi["docs_per_sec"]
    eff = (tp_hi / tp_lo) / (hi / lo)
    return {
        "metric": (
            f"scaling efficiency (docs/sec at {lo} vs {hi} CPUs, "
            "fresh processes, Zipf corpus)"
        ),
        "value": round(eff, 3),
        "unit": "efficiency",
        "cpus_lo": lo,
        "cpus_hi": hi,
        "sec_lo": r_lo["value"],
        "sec_hi": r_hi["value"],
        "docs_per_sec_lo": tp_lo,
        "docs_per_sec_hi": tp_hi,
        "n_docs": r_lo["n_docs"],
        "scaling_efficiency": round(eff, 3),
        # what a perfectly-scaling job could reach on THIS machine
        "hardware_ceiling_efficiency": round(ceiling, 3),
        # the memory subsystem's own hi/lo scaling — on a
        # bandwidth-capped host this binds long before the spin
        # ceiling (a real 4N-node cluster multiplies membw too)
        "membw_ceiling_efficiency": round(membw_ceiling, 3),
        "normalized_efficiency": round(min(1.0, eff / ceiling), 3),
        "all_runs": [
            {"num_cpus": r["num_cpus"], "sec": r["value"]} for r in runs
        ],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        result = run_bench(
            scaling_child=os.environ.get("BENCH_SCALING_CHILD") == "1"
        )
        print(json.dumps(result))
        import ray

        ray.shutdown()
