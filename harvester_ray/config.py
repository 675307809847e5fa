"""Pipeline configuration.

Replaces the reference's registry-API Collection lookup + akara.ini env
config (harvester/collection_registry_client.py:86-169,
harvester/config.py:25-78) with a plain dataclass; every knob that
matters at 100 TB scale is explicit here.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BM25Params:
    k1: float = 1.2
    b: float = 0.75


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
    - ``extract_batch_size``: rows per HTML-extraction batch. HTML rows
      can be MBs, keep small (FIXTURES/SURVEY hard part (f)).
    """

    bm25: BM25Params = field(default_factory=BM25Params)
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
    # SPIMI batch: the per-batch fixed cost is the side writes (one
    # file per term bucket per batch), so batches are large; ~32k docs
    # x ~1KB text ≈ 32 MB in flight per task. Lower it for wide rows
    # (multi-MB html).
    spimi_batch_size: int = 32768
    extract_batch_size: int = 128
    # cap on concurrent extraction tasks (each fused with its parquet
    # write); None leaves it to Ray Data
    extract_concurrency: int | None = None
    # columns pruned at the read for the build (prune-at-the-read rule)
    doc_columns: tuple[str, ...] = ("doc_id", "text")
    # injectable analyzer (SURVEY.md §2.10): resolved via
    # functions.text.get_analyzer at use sites; the NAME (not the
    # callable) travels through config/params/stats so resume keys and
    # serialized stats stay stable
    analyzer_name: str = "default"
    # posting-block codec: "varint" (LEB128, fastest encode/bulk
    # decode — default), "for" (FOR bit-packing: tighter uniform
    # blocks, slower per-block encode) or "pfor" (PForDelta with
    # patched exceptions: smallest segments, outlier-immune)
    codec: str = "varint"
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
