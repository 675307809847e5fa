"""Per-stage lineage + resumable checkpointing.

The Ray-Data analog of the reference's resume machinery: the S3-persisted
``last_seq`` cursor (``CouchdbLastSeq_S3``, harvester/solr_updater.py:
776-791,956-957), the keyset resume of ``couchdb_pager``
(harvester/couchdb_pager.py:24-39) and the deterministic staging paths
(harvester/fetcher/controller.py:76-77,144-145) — re-expressed for a
batch pipeline (SURVEY.md §2.9, §4 "checkpoint/resume" row):

- every stage writes its Parquet output ATOMICALLY (tmp dir + rename)
- next to it sits ``_lineage.json``: input fingerprint, stage params,
  rows/bytes out, wall time, engine version (the run-metrics contract,
  the analog of the reference's ingestion doc,
  harvester/fetcher/controller.py:159-212)
- on re-run, a stage whose fingerprint matches is SKIPPED — an
  interrupted build resumes without re-extracting

Fingerprints hash the (relpath, size, mtime_ns) listing of the input
directory plus a params string — content-addressed enough for
immutable parquet stage outputs, cheap at any scale (metadata only).
mtime_ns guards against same-size content rewrites (fixed-width
parquet edits), which a (relpath, size)-only fingerprint would miss.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import time
from collections.abc import Callable

LINEAGE_FILE = "_lineage.json"
ENGINE_VERSION = 2


def _stat_sig(fp: str) -> str:
    st = os.stat(fp)
    return f"{st.st_size}:{st.st_mtime_ns}"


def dir_fingerprint(path: str) -> str:
    """Metadata fingerprint of a directory tree (or file)."""
    h = hashlib.md5()
    if os.path.isfile(path):
        h.update(f"{os.path.basename(path)}:{_stat_sig(path)}".encode())
        return h.hexdigest()
    for root, _dirs, files in sorted(os.walk(path)):
        for f in sorted(files):
            if f == LINEAGE_FILE:
                continue
            fp = os.path.join(root, f)
            rel = os.path.relpath(fp, path)
            h.update(f"{rel}:{_stat_sig(fp)}".encode())
    return h.hexdigest()


def _dir_stats(path: str) -> tuple[int, int]:
    """(rows, bytes) of a parquet directory via file metadata only.
    Footer reads are threaded (pyarrow releases the GIL): a bucketed
    stage output holds O(batches x buckets) files and a serial walk
    was a measured ~2 s of driver fixed time per build."""
    import concurrent.futures

    import pyarrow.parquet as pq

    nbytes = 0
    parquet_files = []
    for root, _dirs, files in os.walk(path):
        for f in files:
            fp = os.path.join(root, f)
            nbytes += os.path.getsize(fp)
            if f.endswith(".parquet"):
                parquet_files.append(fp)

    def nrows(fp: str) -> int:
        return pq.ParquetFile(fp).metadata.num_rows

    if len(parquet_files) > 8:
        with concurrent.futures.ThreadPoolExecutor(max_workers=16) as pool:
            rows = sum(pool.map(nrows, parquet_files))
    else:
        rows = sum(nrows(fp) for fp in parquet_files)
    return rows, nbytes


def stage_key(input_fingerprint: str, params: str = "") -> str:
    """The lineage key ``run_stage`` records for a stage run on
    (fingerprint, params) at this engine version."""
    return hashlib.md5(
        f"{input_fingerprint}|{params}|v{ENGINE_VERSION}".encode()
    ).hexdigest()


def stage_is_current(
    out_dir: str, input_fingerprint: str, params: str = ""
) -> bool:
    """Whether ``run_stage`` would skip this stage: ``out_dir`` holds
    committed output for the same (fingerprint, params)."""
    rec = read_lineage(out_dir)
    return rec is not None and rec.get("key") == stage_key(
        input_fingerprint, params
    )


def run_stage(
    name: str,
    out_dir: str,
    input_fingerprint: str,
    fn: Callable[[str], None],
    params: str = "",
) -> dict:
    """Run ``fn(tmp_out_dir)`` unless ``out_dir`` already holds output
    for the same (fingerprint, params, engine version). Returns the
    lineage record; record["skipped"] tells whether it resumed."""
    key = stage_key(input_fingerprint, params)
    # clean ALL stale tmps (any pid) up front — even when the stage
    # itself skips: a crashed run leaves '{out_dir}.tmp-<deadpid>'
    # behind, which must never be globbed as output by downstream
    # consumers
    for stale in glob.glob(f"{glob.escape(out_dir)}.tmp-*"):
        shutil.rmtree(stale, ignore_errors=True)
    lineage_path = os.path.join(out_dir, LINEAGE_FILE)
    if os.path.exists(lineage_path):
        with open(lineage_path) as f:
            rec = json.load(f)
        if rec.get("key") == key:
            rec["skipped"] = True
            return rec
        shutil.rmtree(out_dir)  # stale output for different input/params
    tmp = f"{out_dir}.tmp-{os.getpid()}"
    t0 = time.time()
    fn(tmp)
    rows, nbytes = _dir_stats(tmp)
    rec = {
        "stage": name,
        "key": key,
        "input_fingerprint": input_fingerprint,
        "params": params,
        "rows_out": rows,
        "bytes_out": nbytes,
        "wall_sec": round(time.time() - t0, 3),
        "engine_version": ENGINE_VERSION,
        "skipped": False,
    }
    with open(os.path.join(tmp, LINEAGE_FILE), "w") as f:
        json.dump(rec, f)
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.rename(tmp, out_dir)
    # test-only fault injection: crash the PROCESS right after this
    # stage commits, so kill/restart resume is testable deterministically
    if os.environ.get("HARVESTER_RAY_FAIL_AFTER") == name:
        os._exit(17)
    return rec


def read_lineage(out_dir: str) -> dict | None:
    p = os.path.join(out_dir, LINEAGE_FILE)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)
