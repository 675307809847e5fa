"""Pipeline configuration.

Replaces the reference's registry-API Collection lookup + akara.ini env
config (harvester/collection_registry_client.py:86-169,
harvester/config.py:25-78) with a plain dataclass of the settings a
caller sets; fixed values are constants of the modules that use them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


def cache_root() -> str:
    """Root directory of the pipelines' cached artifacts (generated
    corpora, built indexes, ANN layouts, backups): the
    ``HARVESTER_RAY_CACHE`` environment path, else
    /tmp/harvester_ray_cache. Read at each call, so a process (or a
    test) that sets the variable moves every artifact it builds after."""
    return os.environ.get("HARVESTER_RAY_CACHE") or "/tmp/harvester_ray_cache"


@dataclass(frozen=True)
class IndexConfig:
    """Knobs for the index build.

    The build has one path (index/build.py): SPIMI writes postings
    hive-partitioned by hash(term_id) % ``num_term_buckets`` — the
    partitioned write IS the shuffle (the classic MapReduce index
    shape) — then one independent task per bucket builds its
    dictionary part and one per (bucket, doc chunk) encodes its
    segment blocks (read → numpy lexsort → run encode). The block
    layout is fully deterministic.

    Scale notes (sized for a 256-node cluster streaming ~100 TB):

    - ``block_size``: postings per compressed block; 128 is the classic
      Block-Max WAND granularity.
    - ``segment_doc_chunks``: head-term skew control — each bucket's
      encode splits into this many contiguous doc_id ranges, so no task
      holds a hot term's whole posting list (SURVEY.md §4 skew row).

    Only settings some caller sets are fields. The BM25 parameters, the
    SPIMI and extraction batch sizes and the build's read columns are
    module constants (``build.BM25_K1``/``BM25_B``,
    ``build.SPIMI_BATCH_ROWS``, ``extract.EXTRACT_BATCH_ROWS``,
    ``build.DOC_COLUMNS``); posting blocks are always LEB128 varint.
    """

    block_size: int = 128
    # 128 (was 32): encode tasks = buckets × chunks, and with buckets
    # == CPUs the stage ran as ONE wave whose wall time was its most
    # skewed bucket (head terms concentrate postings).
    # 4 waves per 32 CPUs let the scheduler balance skew: measured
    # interleaved at sf0.1/2M docs the segments stage fell 38-42 s →
    # 7.4 s (5×) and the whole build 64-82 s → 34 s. At cluster scale
    # buckets should stay a few × total cores for the same reason.
    num_term_buckets: int = 128
    # per-bucket doc_id-range fan-out: encode tasks = buckets x
    # chunks, so a hot term cannot pin one task's memory/runtime;
    # per-term runs from different chunks are disjoint ordered doc
    # ranges and merge at query load. Chunk membership is a contiguous
    # signed doc_id range and the SPIMI bucket files are doc_id-sorted
    # with sized row groups, so each chunk task's range filter prunes
    # its read to ~1/chunks of the bucket by row-group statistics —
    # no read amplification. Doc-sharded serving requires
    # segment_doc_chunks == n_shards (power of two).
    segment_doc_chunks: int = 1
    # cap on concurrent extraction tasks (each fused with its parquet
    # write); None leaves it to Ray Data
    extract_concurrency: int | None = None
    # injectable analyzer (SURVEY.md §2.10): resolved via
    # functions.text.get_analyzer at use sites; the NAME (not the
    # callable) travels through config/params/stats so resume keys and
    # serialized stats stay stable
    analyzer_name: str = "default"
    # auto-compaction policy for the incremental pages loop: fold the
    # delta chain into one source (maintenance.merge_sources) once it
    # reaches this length — bounds per-query multi-source overhead
    merge_after_deltas: int = 8


DEFAULT_INDEX_CONFIG = IndexConfig()


def cluster_cpus(default: int = 8) -> int:
    """Cluster CPU count (or ``default`` before ray.init)."""
    try:
        import ray

        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", 0)) or default
    except Exception:
        pass
    return default


def shuffle_partitions(mult: int = 2, lo: int = 8) -> int:
    """Partition count for hash-partitioned grouped stages and joins —
    derived from cluster size, never hard-coded. Used to turn
    "groupby(key) with millions of tiny groups" into "groupby(part)
    with O(cluster) composite groups processed vectorized"."""
    return max(lo, cluster_cpus() * mult)
