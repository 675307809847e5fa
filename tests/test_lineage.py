"""Resume semantics: interrupted builds skip finished stages and
produce byte-identical final segments (SURVEY.md §7 step 7)."""

import glob
import hashlib
import os
import shutil

import pyarrow.parquet as pq
import pytest
import ray.data

from harvester_ray.index.build import build_index
import harvester_ray.state.lineage as lineage_mod
from harvester_ray.state.lineage import dir_fingerprint, read_lineage, run_stage

DOCS = "/root/testdata/sf0.001/documents.parquet"


def _index_digest(index_dir: str) -> str:
    """Digest of the *decoded* index: dictionary, stats and per-term
    postings (doc_ids, tfs, doc_lens, df)."""
    from harvester_ray.index.query import InvertedIndex

    idx = InvertedIndex(index_dir, preload=True)
    h = hashlib.md5()
    h.update(repr((idx.n_docs, idx.avgdl, idx.k1, idx.b)).encode())
    for term in sorted(idx.dictionary):
        p = idx.postings(term)
        h.update(term.encode())
        h.update(p.doc_ids.tobytes())
        h.update(p.tfs.tobytes())
        h.update(p.doc_lens.tobytes())
        h.update(str(p.df).encode())
    return h.hexdigest()


def _block_rows_digest(seg_dir: str) -> str:
    """Exact block-row digest over every segment column (the bucket
    strategy's physical layout is fully deterministic). A term's runs
    from different doc chunks are ordered by first_doc_id."""
    tbls = []
    for f in sorted(glob.glob(os.path.join(seg_dir, "*.parquet"))):
        tbls.append(pq.read_table(f))
    import pyarrow as pa

    t = pa.concat_tables(tbls).sort_by(
        [("term_id", "ascending"), ("first_doc_id", "ascending")]
    )
    h = hashlib.md5()
    for col in sorted(t.column_names):
        h.update(str(t[col].to_pylist()).encode())
    return h.hexdigest()


def _tree(index_dir: str) -> dict:
    """{relpath: (bytes, mtime_ns)} of every file under index_dir."""
    out = {}
    for root, _dirs, files in os.walk(index_dir):
        for f in files:
            fp = os.path.join(root, f)
            with open(fp, "rb") as fh:
                out[os.path.relpath(fp, index_dir)] = (
                    fh.read(), os.stat(fp).st_mtime_ns,
                )
    return out


def test_run_stage_skip_and_invalidate(tmp_path):
    out = str(tmp_path / "stage_out")
    calls = []

    def fn(tmp):
        os.makedirs(tmp, exist_ok=True)
        with open(os.path.join(tmp, "data.parquet"), "wb") as f:
            import pyarrow as pa

            pq.write_table(pa.table({"x": [1, 2, 3]}), f)
        calls.append(1)

    r1 = run_stage("s", out, "fp1", fn)
    assert not r1["skipped"] and r1["rows_out"] == 3 and len(calls) == 1
    r2 = run_stage("s", out, "fp1", fn)
    assert r2["skipped"] and len(calls) == 1          # resume: skipped
    r3 = run_stage("s", out, "fp2", fn)
    assert not r3["skipped"] and len(calls) == 2      # new input: re-run
    r4 = run_stage("s", out, "fp2", fn, params="p2")
    assert not r4["skipped"] and len(calls) == 3      # new params: re-run


def test_build_resume_is_noop_and_identical(tmp_path, ray_session):
    out = str(tmp_path / "idx")
    fp = dir_fingerprint(DOCS)

    def docs():
        return ray.data.read_parquet(DOCS, columns=["doc_id", "text"])

    build_index(docs(), out, input_fingerprint=fp)
    digest1 = _index_digest(out)
    lin1 = {
        s: read_lineage(os.path.join(out, s))
        for s in ("spimi", "dictionary", "segments")
    }
    # the SPIMI postings are scratch: gone once the segments commit
    assert not os.path.exists(os.path.join(out, "spimi", "postings"))
    tree1 = _tree(out)

    # full re-run: every stage must skip, although the scratch the
    # dictionary and segments were built from is gone — no stage
    # output is rewritten, and stats.json is rewritten byte-identical
    build_index(docs(), out, input_fingerprint=fp)
    tree2 = _tree(out)
    assert tree2.keys() == tree1.keys()
    for rel, (data, mtime) in tree1.items():
        assert tree2[rel][0] == data, rel
        if rel != "stats.json":
            assert tree2[rel][1] == mtime, rel
    assert _index_digest(out) == digest1

    # interrupted run: segments lost, earlier stages intact; the
    # segments need the deleted scratch, so the SPIMI pass re-runs
    # under the same key and the segments come back identical
    shutil.rmtree(os.path.join(out, "segments"))
    build_index(docs(), out, input_fingerprint=fp)
    for s in ("spimi", "dictionary", "segments"):
        assert read_lineage(os.path.join(out, s))["key"] == lin1[s]["key"]
    assert not os.path.exists(os.path.join(out, "spimi", "postings"))
    assert _index_digest(out) == digest1


def test_bucket_strategy_block_layout_deterministic(tmp_path, ray_session):
    """The segments stage re-encodes byte-identical block rows after an
    interrupted run, across doc chunks (deterministic physical
    layout)."""
    from harvester_ray.config import IndexConfig

    cfg = IndexConfig(segment_doc_chunks=2)
    out = str(tmp_path / "sidx")
    fp = dir_fingerprint(DOCS)

    def docs():
        return ray.data.read_parquet(DOCS, columns=["doc_id", "text"])

    build_index(docs(), out, cfg, input_fingerprint=fp)
    seg_files = os.listdir(os.path.join(out, "segments"))
    assert any(f.endswith("c00.parquet") for f in seg_files)
    assert any(f.endswith("c01.parquet") for f in seg_files)
    d1 = _block_rows_digest(os.path.join(out, "segments"))
    shutil.rmtree(os.path.join(out, "segments"))
    build_index(docs(), out, cfg, input_fingerprint=fp)
    assert _block_rows_digest(os.path.join(out, "segments")) == d1


def test_lineage_metrics_recorded(tmp_path, ray_session):
    out = str(tmp_path / "idx2")
    build_index(
        ray.data.read_parquet(DOCS, columns=["doc_id", "text"]),
        out,
        input_fingerprint=dir_fingerprint(DOCS),
    )
    for s in ("spimi", "dictionary", "segments"):
        rec = read_lineage(os.path.join(out, s))
        assert rec["rows_out"] > 0
        assert rec["bytes_out"] > 0
        assert rec["wall_sec"] >= 0
        assert rec["engine_version"] == lineage_mod.ENGINE_VERSION


def test_dir_fingerprint_detects_same_size_rewrite(tmp_path):
    from harvester_ray.state.lineage import dir_fingerprint

    d = tmp_path / "in"
    d.mkdir()
    f = d / "data.bin"
    f.write_bytes(b"AAAA")
    fp1 = dir_fingerprint(str(d))
    # same-size content change must change the fingerprint (mtime_ns)
    os.utime(f, ns=(1, 1))
    f.write_bytes(b"BBBB")
    assert dir_fingerprint(str(d)) != fp1


def test_run_stage_cleans_stale_tmp_dirs(tmp_path):
    from harvester_ray.state.lineage import run_stage

    out = str(tmp_path / "stage_out")
    stale = f"{out}.tmp-99999"
    os.makedirs(stale)
    with open(os.path.join(stale, "partial.parquet"), "wb") as fh:
        fh.write(b"junk")

    def fn(tmp):
        os.makedirs(tmp, exist_ok=True)
        with open(os.path.join(tmp, "ok.txt"), "w") as fh:
            fh.write("done")

    run_stage("s", out, "fp0", fn)
    assert not os.path.exists(stale)
    assert os.path.exists(os.path.join(out, "ok.txt"))
