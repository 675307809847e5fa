"""The incremental pages loop makes progress on a one-CPU Ray cluster.

The shared test session runs 4 CPUs, so a stage that holds a CPU for
its whole life (an actor pool) and starves the tasks that feed it only
shows on a smaller cluster. This test runs the loop in a subprocess
with its own ``ray.init(num_cpus=1)`` under a hard timeout: a base
build, a new shard of HTML-only rows (delta add), then a rewrite of an
existing shard (upsert, which folds the delta chain). After each step
the index must match a fresh ``build_index`` over the logical page set.
"""

import os
import signal
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 180

SCRIPT = r"""
import os
import sys
from dataclasses import replace

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from harvester_ray.config import DEFAULT_INDEX_CONFIG
from harvester_ray.corpus import generate_pages
from harvester_ray.index.build import build_index
from harvester_ray.index.query import InvertedIndex
from harvester_ray.pipelines.pages import update_pages_index
from harvester_ray.stages.extract import extract_batch

work = sys.argv[1]
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
cfg = replace(DEFAULT_INDEX_CONFIG, merge_after_deltas=2, num_term_buckets=8)
shards = os.path.join(work, "input", "pages")
os.makedirs(shards)
out = os.path.join(work, "out")
pages, _ = generate_pages(240, seed=7)


def write(name, t):
    pq.write_table(t, os.path.join(shards, name))


def check(step):
    idx = InvertedIndex(os.path.join(out, "index"), preload=True)
    logical = pa.concat_tables(
        pq.read_table(os.path.join(shards, f)) for f in sorted(os.listdir(shards))
    )
    ext = extract_batch(logical)
    valid = ext.filter(pc.is_null(ext["reject_reason"])).select(["doc_id", "text"])
    fresh = InvertedIndex(
        build_index(ray.data.from_arrow(valid), os.path.join(work, f"fresh-{step}"), cfg).root,
        preload=True,
    )
    assert idx.n_docs == fresh.n_docs == valid.num_rows, (step, idx.n_docs, fresh.n_docs)
    for q in ("w0 w1", "w2 w17 w120", "page 7", "recrawl update", "w3"):
        assert idx.search(q, k=10) == fresh.search(q, k=10), (step, q)
    return idx.n_sources


write("shard-000.parquet", pages.slice(0, 120))
update_pages_index(os.path.join(work, "input"), out, cfg)
assert check("base") == 1

html_only = pages.slice(120, 120)
html_only = html_only.set_column(
    html_only.schema.get_field_index("text"), "text", pa.nulls(len(html_only), pa.string())
)
write("shard-001.parquet", html_only)
update_pages_index(os.path.join(work, "input"), out, cfg)
assert check("add") == 2

old = pages.slice(0, 120)
html = pa.array(
    [(h or b"").replace(b"</body>", b"<p>recrawl update</p></body>") for h in old["html"].to_pylist()],
    pa.binary(),
)
rewritten = old.set_column(old.schema.get_field_index("html"), "html", html).set_column(
    old.schema.get_field_index("text"), "text", pa.nulls(len(old), pa.string())
)
write("shard-000.parquet", rewritten)
update_pages_index(os.path.join(work, "input"), out, cfg)
assert check("upsert") == 1
ray.shutdown()
print("ONE_CPU_OK")
"""


def test_update_pages_index_progresses_on_one_cpu(tmp_path):
    env = dict(os.environ, PYTHONPATH=REPO)
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        output, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        output, _ = proc.communicate()
        pytest.fail(f"no progress at num_cpus=1 within {TIMEOUT_S} s:\n{output[-3000:]}")
    assert proc.returncode == 0 and "ONE_CPU_OK" in output, output[-3000:]
