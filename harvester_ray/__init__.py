"""harvester_ray — a Ray-Data-native inverted-index build + BM25 query engine.

A from-scratch re-expression of the capabilities of ucldc/harvester
(fetch → transform/validate → index → query/sync; see SURVEY.md) as a
Ray Data pipeline over Arrow batches:

- ``corpus``            deterministic synthetic web-page corpus (FIXTURES.md)
- ``stages.extract``    HTML→text extraction tasks (the reference's
                        record→document transform, harvester/solr_updater.py:688)
- ``stages.tokenize``   normalize/tokenize/doc-stats (harvester/solr_updater.py:561)
- ``index.build``       SPIMI postings hive-partitioned by term bucket →
                        per-bucket dictionary ∥ varint/block-max segments
- ``index.query``       BM25 top-k (exhaustive + Block-Max WAND), query actors
- ``stages.dedup``      exact / MinHash-LSH / SimHash / n-gram-Jaccard dedup
- ``stages.textstats``  language-ID, quality scoring, token counts, fingerprints
- ``stages.similarity`` brute-force + LSH-bucketed cosine top-k over embeddings
- ``pipelines``         relational pipelines over the TPC-H-ish test tables
- ``state.lineage``     per-partition lineage + resumable stage runner
"""

from harvester_ray import _compat  # noqa: F401  (fsspec-http import shim)

__version__ = "0.1.0"
