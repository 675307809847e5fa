"""Kill-and-restart resume (SURVEY.md §5 / north-rule requirement):
a build whose process dies right after a stage commits must, on
restart, skip the finished stages and produce a logically identical
index to an uninterrupted build."""

import os
import subprocess
import sys

import pytest

BUILD_SCRIPT = """
import sys
import ray, ray.data
ray.init(address="local", num_cpus=4, include_dashboard=False,
         ignore_reinit_error=True, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from harvester_ray.index.build import build_index
from harvester_ray.state.lineage import dir_fingerprint
src = "/root/testdata/sf0.001/documents.parquet"
docs = ray.data.read_parquet(src, columns=["doc_id", "text"])
build_index(docs, sys.argv[1], input_fingerprint=dir_fingerprint(src))
ray.shutdown()
print("BUILD_COMPLETE")
"""


def _run(out_dir: str, fail_after: str | None = None):
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    if fail_after:
        env["HARVESTER_RAY_FAIL_AFTER"] = fail_after
    else:
        env.pop("HARVESTER_RAY_FAIL_AFTER", None)
    return subprocess.run(
        [sys.executable, "-c", BUILD_SCRIPT, out_dir],
        env=env,
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        timeout=420,
    )


@pytest.fixture(scope="module")
def clean_digest(tmp_path_factory):
    """Digest of an uninterrupted reference build."""
    from tests.test_lineage import _index_digest

    clean = str(tmp_path_factory.mktemp("clean") / "idx")
    r = _run(clean)
    assert r.returncode == 0, r.stderr[-2000:]
    assert not os.path.exists(os.path.join(clean, "spimi", "postings"))
    return _index_digest(clean)


def test_crash_after_spimi_then_resume(tmp_path, clean_digest):
    from harvester_ray.state.lineage import read_lineage

    crashed = str(tmp_path / "crashed")

    # run 1: process dies (exit 17) right after the spimi stage commits
    r1 = _run(crashed, fail_after="spimi")
    assert r1.returncode == 17, r1.stderr[-2000:]
    assert "BUILD_COMPLETE" not in r1.stdout
    assert read_lineage(os.path.join(crashed, "spimi")) is not None
    assert read_lineage(os.path.join(crashed, "segments")) is None

    # run 2: restart resumes — spimi skipped, remaining stages complete
    r2 = _run(crashed)
    assert r2.returncode == 0, r2.stderr[-2000:]
    assert "BUILD_COMPLETE" in r2.stdout
    spimi_rec = read_lineage(os.path.join(crashed, "spimi"))
    assert spimi_rec is not None  # untouched by run 2 (same key)

    from tests.test_lineage import _index_digest

    assert _index_digest(crashed) == clean_digest


def test_crash_after_segments_then_resume(tmp_path, clean_digest):
    """The process dies after the segments commit and before the SPIMI
    scratch is deleted: the restart skips all three stages, deletes the
    leftover scratch and leaves the same index."""
    from harvester_ray.state.lineage import read_lineage

    crashed = str(tmp_path / "crashed")
    r1 = _run(crashed, fail_after="segments")
    assert r1.returncode == 17, r1.stderr[-2000:]
    assert os.path.isdir(os.path.join(crashed, "spimi", "postings"))
    recs = {
        s: read_lineage(os.path.join(crashed, s))
        for s in ("spimi", "dictionary", "segments")
    }
    assert all(recs.values())

    r2 = _run(crashed)
    assert r2.returncode == 0, r2.stderr[-2000:]
    assert "BUILD_COMPLETE" in r2.stdout
    for s, rec in recs.items():
        assert read_lineage(os.path.join(crashed, s)) == rec, s
    assert not os.path.exists(os.path.join(crashed, "spimi", "postings"))

    from tests.test_lineage import _index_digest

    assert _index_digest(crashed) == clean_digest
