"""harvester_ray benchmark: one command, two workloads.

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run (spans are also written to
``.pb/trace-<workload>-<seed>.json``).  Exits 1 when any correctness
check fails, 2 when the program is not there to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from harness import ROOT, WORK, spin_mips, stop_ray

# name -> unit, in the order of BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "build_docs_per_s": "1/s",
    "update_docs_per_s": "1/s",
    "index_bytes_per_input_byte": "ratio",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "queries_per_s": "1/s",
    "pss_mb": "MB",
}
LAYERS = ("functions.text", "index.build", "index.query", "index.maintenance",
          "stages.extract", "state.partitioned", "pipelines.pages")
PER_LAYER = {
    "text.query_tokenize_us": "us",
    "build.tokens_per_s": "1/s",
    "build.spimi_s": "s",
    "build.dictionary_s": "s",
    "build.segments_s": "s",
    "build.driver_s": "s",
    "build.segment_bytes_per_posting": "B",
    **{f"query.search_ms.{c}": "ms" for c in ("head", "mid", "tail", "oov", "and", "or")},
    "query.postings_per_query": "count",
    "query.ns_per_posting": "ns",
    "query.load_s": "s",
    "query.warmup_s": "s",
    "query.reopen_ms": "ms",
    "query.n_sources": "count",
    "extract.pages_per_s": "1/s",
    "extract.reject_ratio": "ratio",
    "lineage.partitions_reextracted": "count",
    "lineage.partitions_changed": "count",
    "lineage.reextract_waste_ratio": "ratio",
    "maintenance.add_docs_s": "s",
    "maintenance.upsert_docs_s": "s",
    "maintenance.merge_sources_s": "s",
    "maintenance.tombstones": "count",
    "pages.update_round_self_s": "s",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "host.spin_mips": "M/s",
    "tracing.overhead_ratio": "ratio",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["serve_zipf", "recrawl_pages"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "harvester_ray", "__init__.py")):
        print(f"no harvester_ray package under {ROOT}: run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, ROOT)

    import workloads
    from spans import Tracer

    tr = Tracer(bool(args.trace), f"{args.workload}-{args.seed}-{os.getpid()}")
    spin = spin_mips()
    try:
        res = getattr(workloads, args.workload)(args.seed, args.seconds, tr)
    finally:
        stop_ray()

    if args.trace:
        res.layer["host.spin_mips"] = spin
        for layer, t in tr.self_by_layer().items():
            if layer in LAYERS:
                res.layer[f"self_s.{layer}"] = t
        os.makedirs(WORK, exist_ok=True)
        tr.dump(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"))
        values, units = res.layer, PER_LAYER
        # a layer this workload does not exercise reads 0
        values = {k: values.get(k, 0.0) for k in units}
    else:
        values, units = res.metrics, END_TO_END
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}

    for what in res.failures:
        print(f"CHECK FAILED: {what}", file=sys.stderr)
    for k, m in metrics.items():
        print(f"{args.workload} {k} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_ratio = {res.failed / res.attempted:.6g} "
          f"({res.failed} of {res.attempted} operations)")
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}), flush=True)
    return 0 if res.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
