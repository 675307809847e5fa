"""20 M-doc doc-sharded serving soak (BASELINE.md §5b).

Builds the Zipf soak corpus index with segment_doc_chunks=8 (data-
derived chunk bounds) and measures warm scatter-gather latency over
the bench query set through ShardedIndex (index/serving.py) at
8 doc shards — the serving grid a 20 M-doc-per-node corpus actually
uses. Owns its Ray session.
"""
import json, os, statistics, sys, time
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import ray, ray.data
ray.init(address="local", num_cpus=32, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from harvester_ray.config import IndexConfig
from harvester_ray.index.build import build_index
from harvester_ray.index.serving import ShardedIndex
from bench import ZIPF_QUERY_SET

corpus = "/dev/shm/harvester_ray_bench/zipf_20000000_50000_100"
out = "/dev/shm/harvester_ray_bench/idx_zipf20m_chunks8"
docs = ray.data.read_parquet(corpus, columns=["doc_id", "text"])
cfg = IndexConfig(segment_doc_chunks=8)
t0 = time.time()
paths = build_index(docs, out, cfg)
build_sec = time.time() - t0

t0 = time.time()
tier = ShardedIndex(paths.root, n_doc_shards=8)
tier.search("w0", k=10)  # block until every cell has loaded
load_sec = time.time() - t0

for qid, q, mode in ZIPF_QUERY_SET:
    tier.search(q, k=10, mode=mode)  # cold pass
lat = []
for _ in range(3):
    for qid, q, mode in ZIPF_QUERY_SET:
        t = time.time()
        tier.search(q, k=10, mode=mode)
        lat.append(time.time() - t)
lat.sort()
print(json.dumps({
    "n_docs": 20000000, "n_shards": 8,
    "build_sec": round(build_sec, 1),
    "shard_load_sec": round(load_sec, 1),
    "p50_ms": round(1000 * lat[len(lat)//2], 1),
    "p95_ms": round(1000 * lat[int(len(lat)*0.95)], 1),
    "max_ms": round(1000 * lat[-1], 1),
}))
tier.shutdown()
ray.shutdown()
