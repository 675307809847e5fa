"""Job driver CLI — the ``ray job submit`` entrypoint of the north rule.

On a real cluster:

    ray job submit -- python -m harvester_ray.cli build \
        --input s3://bucket/docs/ --out s3://bucket/index/

Locally the same commands run against a local session. The CLI owns
the Ray session (guarded init + shutdown); library code never does.

Subcommands:
    build         index a (doc_id, text) parquet table
    build-pages   full flagship: pages parquet → extract → index
    update-pages  incremental pages loop: extract only new/changed
                  shards, delta-add/upsert them into the live index
    add           incrementally add new docs as a delta source
    upsert        replace-or-add docs (tombstone old version + delta)
    delete        tombstone doc_ids
    merge         compact base+deltas+tombstones into one fresh index
                  (no retokenize; maintenance.merge_sources)
    query         one interactive query against a built index
    query-batch   evaluate a parquet query table through the actor pool
    snapshot      back up an index commit point (hardlink-incremental)
    snapshots     list snapshots under a backups root
    restore       restore a snapshot (or the latest) into a fresh dir
    verify-backup fsck a snapshot (content hashes; exit 1 on damage)
    prune-backups retention sweep: keep only the newest N snapshots
                  (the reference's post-ingest cleanup step,
                  run_ingest.py:151 dashboard_cleanup)
    curate        run a config-listed named-stage curation chain
                  (the reference's per-collection enrichment list,
                  collection_registry_client.py:123-140)
"""

from __future__ import annotations

import argparse
import json
import sys


_OWNS_SESSION = False


def _ray_session():
    global _OWNS_SESSION
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
        _OWNS_SESSION = True
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def _maybe_shutdown(ray) -> None:
    """Shut down only a session this CLI opened — never a caller's
    (tests drive main() under a shared session-scoped fixture)."""
    global _OWNS_SESSION
    if _OWNS_SESSION:
        ray.shutdown()
        _OWNS_SESSION = False


def _cfg(args) -> "IndexConfig":
    from harvester_ray.config import IndexConfig

    kw = {}
    if getattr(args, "buckets", None):
        kw["num_term_buckets"] = args.buckets
    return IndexConfig(**kw)


def _rows_written(out_dir: str, pre_existing: "set[str]") -> int:
    """Row count of THIS run's output: parquet metadata of files that
    were not in ``out_dir`` before the write (Ray's write_parquet
    appends uniquely-named files into an existing dir, so a plain
    directory sum would count a previous run's files too)."""
    import os

    import pyarrow.parquet as pq

    return sum(
        pq.ParquetFile(os.path.join(out_dir, f)).metadata.num_rows
        for f in os.listdir(out_dir)
        if f.endswith(".parquet") and f not in pre_existing
    )


def cmd_build(args) -> int:
    ray = _ray_session()
    import ray.data

    from harvester_ray.index.build import build_index
    from harvester_ray.state.lineage import dir_fingerprint

    docs = ray.data.read_parquet(args.input, columns=["doc_id", "text"])
    paths = build_index(
        docs, args.out, _cfg(args), input_fingerprint=dir_fingerprint(args.input)
    )
    with open(paths.stats) as f:
        print(json.dumps({"index": paths.root, **json.load(f)}))
    _maybe_shutdown(ray)
    return 0


def cmd_build_pages(args) -> int:
    ray = _ray_session()
    from harvester_ray.pipelines.pages import build_pages_index

    paths = build_pages_index(args.pages, args.out, _cfg(args))
    with open(paths.stats) as f:
        print(json.dumps({"index": paths.root, **json.load(f)}))
    _maybe_shutdown(ray)
    return 0


def cmd_update_pages(args) -> int:
    ray = _ray_session()
    from harvester_ray.pipelines.pages import update_pages_index

    paths = update_pages_index(args.pages, args.out, _cfg(args))
    with open(paths.stats) as f:
        print(json.dumps({"index": paths.root, **json.load(f)}))
    _maybe_shutdown(ray)
    return 0


def cmd_add(args) -> int:
    ray = _ray_session()
    import ray.data

    from harvester_ray.index.maintenance import add_docs, upsert_docs

    docs = ray.data.read_parquet(args.input, columns=["doc_id", "text"])
    fn = upsert_docs if args.upsert else add_docs
    paths = fn(args.index, docs)
    with open(paths.stats) as f:
        print(json.dumps({"delta": paths.root, **json.load(f)}))
    _maybe_shutdown(ray)
    return 0


def cmd_delete(args) -> int:
    from harvester_ray.index.maintenance import delete_docs

    ids = [int(x) for x in args.ids.split(",") if x]
    n = delete_docs(args.index, ids)
    print(json.dumps({"tombstoned": n}))
    return 0


def cmd_merge(args) -> int:
    ray = _ray_session()
    from harvester_ray.index.maintenance import merge_sources

    paths = merge_sources(args.index, args.out)
    with open(paths.stats) as f:
        print(json.dumps({"index": paths.root, **json.load(f)}))
    _maybe_shutdown(ray)
    return 0


def cmd_fsck(args) -> int:
    from harvester_ray.index.maintenance import verify_index

    report = verify_index(args.index, max_terms=args.max_terms)
    print(json.dumps(report))
    return 0 if report["ok"] else 1


def cmd_query(args) -> int:
    from harvester_ray.index.query import InvertedIndex

    idx = InvertedIndex(args.index, preload=not args.lazy)
    if args.parse:
        # boolean grammar: +must -not bare (phrases need the positional
        # store — use the query_language pipeline for phrase clauses)
        from harvester_ray.index.queryparse import (
            parse_query,
            search_boolean,
        )

        if args.mode != "or":
            print(
                json.dumps(
                    {
                        "error": "--parse owns the clause semantics; "
                        "use +term clauses for conjunction, not --mode"
                    }
                )
            )
            return 2
        try:
            parsed = parse_query(args.query)
        except ValueError as e:
            print(json.dumps({"error": str(e)}))
            return 2
        if parsed.phrases:
            print(
                json.dumps(
                    {"error": "phrase clauses need the positional store"}
                )
            )
            return 2
        if parsed.filters:
            print(
                json.dumps(
                    {
                        "error": "field filters need the documents "
                        "table; use the query_language pipeline"
                    }
                )
            )
            return 2
        hits = search_boolean(idx, parsed, k=args.k)
    else:
        hits = idx.search(
            args.query, k=args.k, mode=args.mode, algorithm=args.algorithm
        )
    for rank, (doc_id, score) in enumerate(hits, start=1):
        print(json.dumps({"rank": rank, "doc_id": doc_id, "score": round(score, 6)}))
    return 0


def cmd_query_batch(args) -> int:
    ray = _ray_session()
    import ray.data

    from harvester_ray.index.query import QueryActor

    qs = ray.data.read_parquet(args.queries)
    out = qs.map_batches(
        QueryActor,
        fn_constructor_args=(args.index,),
        fn_constructor_kwargs={"k": args.k},
        batch_format="pyarrow",
        concurrency=args.concurrency,
    )
    import os

    pre = set(os.listdir(args.out)) if os.path.isdir(args.out) else set()
    out.write_parquet(args.out)
    # this run's written files only — out.count() would re-run the
    # whole actor-pool evaluation a second time
    print(
        json.dumps(
            {"results": args.out, "rows": _rows_written(args.out, pre)}
        )
    )
    _maybe_shutdown(ray)
    return 0


def cmd_snapshot(args) -> int:
    ray = _ray_session()
    import os

    from harvester_ray.state.backup import BACKUP_MANIFEST, backup_index

    snap = backup_index(args.index, args.backups)
    with open(os.path.join(snap, BACKUP_MANIFEST)) as f:
        m = json.load(f)
    print(
        json.dumps(
            {
                "snapshot": snap,
                "n_files": m["n_files"],
                "n_hardlinked": m["n_hardlinked"],
                "fingerprint": m["fingerprint"],
            }
        )
    )
    _maybe_shutdown(ray)
    return 0


def cmd_snapshots(args) -> int:
    import os

    from harvester_ray.state.backup import list_snapshots

    snaps = list_snapshots(args.backups)
    for p, m in snaps:
        print(
            json.dumps(
                {
                    "snapshot": os.path.basename(p),
                    "taken_at": m["taken_at"],
                    "n_files": m["n_files"],
                    "source": m["source"],
                }
            )
        )
    print(json.dumps({"n_snapshots": len(snaps)}))
    return 0


def cmd_restore(args) -> int:
    ray = _ray_session()
    from harvester_ray.state.backup import _latest_snapshot, restore_index

    snap = args.snapshot or _latest_snapshot(args.backups or "")
    if not snap:
        print(json.dumps({"error": "no snapshot given and none found"}))
        return 2
    dest = restore_index(snap, args.dest)
    print(json.dumps({"restored": dest, "snapshot": snap}))
    _maybe_shutdown(ray)
    return 0


def cmd_verify_backup(args) -> int:
    ray = _ray_session()
    from harvester_ray.state.backup import verify_backup

    report = verify_backup(args.snapshot, deep=not args.shallow)
    print(json.dumps(report))
    _maybe_shutdown(ray)
    return 0 if report["ok"] else 1


def cmd_prune_backups(args) -> int:
    from harvester_ray.state.backup import prune_snapshots

    removed = prune_snapshots(args.backups, args.keep)
    print(json.dumps({"removed": removed, "kept_last": args.keep}))
    return 0


def cmd_curate(args) -> int:
    ray = _ray_session()
    from harvester_ray.pipelines.chains import (
        CURATE_CHAIN,
        compose_chain,
        load_chain_config,
    )

    import os

    chain = load_chain_config(args.chain) if args.chain else CURATE_CHAIN
    out = compose_chain(args.sf_dir, chain)
    pre = set(os.listdir(args.out)) if os.path.isdir(args.out) else set()
    out.write_parquet(args.out)
    # this run's written files only — out.count() would re-execute the
    # whole lazy join chain a second time
    print(
        json.dumps(
            {
                "out": args.out,
                "rows": _rows_written(args.out, pre),
                "chain": [
                    c if isinstance(c, str) else c.get("stage")
                    for c in chain
                ],
            }
        )
    )
    _maybe_shutdown(ray)
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="harvester_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="index a (doc_id, text) parquet table")
    b.add_argument("--input", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--buckets", type=int)
    b.set_defaults(fn=cmd_build)

    bp = sub.add_parser("build-pages", help="pages parquet → extract → index")
    bp.add_argument("--pages", required=True)
    bp.add_argument("--out", required=True)
    bp.add_argument("--buckets", type=int)
    bp.set_defaults(fn=cmd_build_pages)

    up_p = sub.add_parser(
        "update-pages",
        help="incremental pages loop: new/changed shards only",
    )
    up_p.add_argument("--pages", required=True)
    up_p.add_argument("--out", required=True)
    up_p.add_argument("--buckets", type=int)
    up_p.set_defaults(fn=cmd_update_pages)

    for name, up in (("add", False), ("upsert", True)):
        a = sub.add_parser(
            name,
            help=(
                "incrementally add a (doc_id, text) parquet table as a "
                "delta source" + (" (replace-or-add)" if up else "")
            ),
        )
        a.add_argument("--index", required=True)
        a.add_argument("--input", required=True)
        a.set_defaults(fn=cmd_add, upsert=up)

    m = sub.add_parser(
        "merge",
        help="compact base+deltas+tombstones into one fresh index dir",
    )
    m.add_argument("--index", required=True)
    m.add_argument("--out", required=True)
    m.set_defaults(fn=cmd_merge)

    d = sub.add_parser("delete", help="tombstone doc_ids")
    d.add_argument("--index", required=True)
    d.add_argument("--ids", required=True, help="comma-separated doc_ids")
    d.set_defaults(fn=cmd_delete)

    f = sub.add_parser("fsck", help="index integrity check (exit 1 on violation)")
    f.add_argument("--index", required=True)
    f.add_argument("--max-terms", type=int, default=None,
                   help="sample only the first N dictionary terms")
    f.set_defaults(fn=cmd_fsck)

    q = sub.add_parser("query", help="one query against a built index")
    q.add_argument("--index", required=True)
    q.add_argument("--query", required=True)
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--mode", choices=["or", "and"], default="or")
    q.add_argument(
        "--algorithm", choices=["auto", "exhaustive", "wand"], default="auto"
    )
    q.add_argument("--lazy", action="store_true",
                   help="segment blocks fetched per term (no preload)")
    q.add_argument("--parse", action="store_true",
                   help="boolean grammar: '+must -not bare' clauses")
    q.set_defaults(fn=cmd_query)

    qb = sub.add_parser("query-batch", help="evaluate a parquet query table")
    qb.add_argument("--index", required=True)
    qb.add_argument("--queries", required=True)
    qb.add_argument("--out", required=True)
    qb.add_argument("--k", type=int, default=10)
    qb.add_argument("--concurrency", type=int, default=2)
    qb.set_defaults(fn=cmd_query_batch)

    s = sub.add_parser(
        "snapshot", help="back up an index commit point (incremental)"
    )
    s.add_argument("--index", required=True)
    s.add_argument("--backups", required=True)
    s.set_defaults(fn=cmd_snapshot)

    sl = sub.add_parser("snapshots", help="list snapshots under a root")
    sl.add_argument("--backups", required=True)
    sl.set_defaults(fn=cmd_snapshots)

    r = sub.add_parser(
        "restore", help="restore a snapshot (default: latest) into dest"
    )
    r.add_argument("--snapshot", default=None)
    r.add_argument("--backups", default=None,
                   help="backups root (picks the latest snapshot)")
    r.add_argument("--dest", required=True)
    r.set_defaults(fn=cmd_restore)

    vb = sub.add_parser(
        "verify-backup",
        help="fsck a snapshot (content hashes; exit 1 on damage)",
    )
    vb.add_argument("--snapshot", required=True)
    vb.add_argument("--shallow", action="store_true",
                    help="metadata-only walk (skip content re-hash)")
    vb.set_defaults(fn=cmd_verify_backup)

    pb = sub.add_parser(
        "prune-backups",
        help="retention sweep: keep only the newest N snapshots",
    )
    pb.add_argument("--backups", required=True)
    pb.add_argument("--keep", type=int, required=True)
    pb.set_defaults(fn=cmd_prune_backups)

    c = sub.add_parser(
        "curate",
        help="run a config-listed named-stage curation chain",
    )
    c.add_argument("--sf-dir", required=True, dest="sf_dir")
    c.add_argument("--out", required=True)
    c.add_argument("--chain", default=None,
                   help="JSON chain config (default: the curate sweep)")
    c.set_defaults(fn=cmd_curate)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
