"""HARVESTER_RAY_CACHE moves every cached artifact of the pipelines."""

import os

import harvester_ray
from harvester_ray.pipelines import fulltext, pages
from harvester_ray.stages import dedup, similarity

DEFAULT = "/tmp/harvester_ray_cache"


def test_cache_override_moves_every_artifact(
    tmp_path, monkeypatch, ray_session, sf_dir
):
    root = str(tmp_path / "cache")
    monkeypatch.setenv("HARVESTER_RAY_CACHE", root)
    # one producer of each module that caches
    made = [
        pages.pages_corpus(n_pages=30, seed=3),
        fulltext.index_for(sf_dir).root,
        similarity.bucketed_layout(sf_dir),
        dedup._emb_block_layout(sf_dir, 2),
    ]
    for path in made:
        assert os.path.commonpath([root, path]) == root, path
        assert os.listdir(path), path
    # no module keeps a root of its own: the default path is named once
    pkg = os.path.dirname(harvester_ray.__file__)
    named = []
    for d, _dirs, files in os.walk(pkg):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(d, f)) as fh:
                    if DEFAULT in fh.read():
                        named.append(os.path.relpath(os.path.join(d, f), pkg))
    assert named == ["config.py"]
