"""Pipelines make progress on a one-CPU Ray cluster.

The shared test session runs 4 CPUs, so a stage that holds a CPU for
its whole life (an actor pool) and starves the tasks that feed it only
shows on a smaller cluster. Each test runs in a subprocess with its
own ``ray.init(num_cpus=1)`` under a hard timeout.

- The incremental pages loop: a base build, a new shard of HTML-only
  rows (delta add), then a rewrite of an existing shard (upsert, which
  folds the delta chain). After each step the index must match a fresh
  ``build_index`` over the logical page set.
- The per-batch stages that once ran as actor pools fed by a read task
  (language ID, frame sampling, the decoders, embedding LSH dedup) and
  the pages flagship's query set: each entry's rows must equal the same
  call in the 4-CPU test session.
"""

import importlib
import os
import signal
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tests.conftest import SF_SMOKE as SF

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 180


def _run_one_cpu(script: str, *args: str) -> str:
    """Run ``script`` in a fresh process group; kill the group and fail
    on timeout, else return its combined output."""
    env = dict(os.environ, PYTHONPATH=REPO)
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *args],
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
    return output

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
    _run_one_cpu(SCRIPT, str(tmp_path))


# (name, module, function, kwargs): the same call in both sessions
STAGE_CALLS = [
    ("lang_id", "harvester_ray.stages.textstats", "lang_id", {"sf_dir": SF}),
    ("frame_sample", "harvester_ray.stages.multimodal", "frame_sample", {"sf_dir": SF}),
    (
        "multimodal_features",
        "harvester_ray.stages.multimodal",
        "multimodal_features",
        {"sf_dir": SF},
    ),
    ("png_image_stats", "harvester_ray.stages.multimodal", "png_image_stats", {"sf_dir": SF}),
    (
        "embedding_lsh_dups",
        "harvester_ray.stages.dedup",
        "embedding_lsh_dups",
        {"sf_dir": SF},
    ),
    ("pages_flagship", "harvester_ray.pipelines.pages", "pages_flagship", {"n_pages": 200}),
]

STAGE_SCRIPT = r"""
import importlib
import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

work = sys.argv[1]
os.environ["HARVESTER_RAY_CACHE"] = os.path.join(work, "cache")
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
for name, mod, fn, kwargs in %r:
    df = getattr(importlib.import_module(mod), fn)(**kwargs).to_pandas()
    pq.write_table(
        pa.Table.from_pandas(df, preserve_index=False),
        os.path.join(work, name + ".parquet"),
    )
    print("done", name, flush=True)
ray.shutdown()
print("ONE_CPU_OK")
""" % (STAGE_CALLS,)


def _sorted_rows(t: pa.Table) -> list:
    return sorted(t.to_pylist(), key=repr)


def test_stateless_stages_and_pages_queries_progress_on_one_cpu(
    tmp_path, monkeypatch, ray_session
):
    _run_one_cpu(STAGE_SCRIPT, str(tmp_path))
    monkeypatch.setenv("HARVESTER_RAY_CACHE", str(tmp_path / "cache4"))
    for name, mod, fn, kwargs in STAGE_CALLS:
        df = getattr(importlib.import_module(mod), fn)(**kwargs).to_pandas()
        want = pa.Table.from_pandas(df, preserve_index=False)
        got = pq.read_table(str(tmp_path / f"{name}.parquet"))
        assert got.num_rows > 0, name
        assert _sorted_rows(got) == _sorted_rows(want), name
