"""CLI surface (harvester_ray.cli): the ops subcommands a user drives
without writing code — build/query plus the round-5 completions
(snapshot / snapshots / restore / verify-backup / curate). Each test
drives main(argv) in-process under the shared Ray session (the CLI
only shuts down sessions it opened)."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from harvester_ray import cli

SF = "/root/testdata/sf0.001"


def _lines(capsys):
    return [
        json.loads(line)
        for line in capsys.readouterr().out.strip().splitlines()
        if line.strip()
    ]


@pytest.fixture(scope="module")
def built_index(tmp_path_factory, ray_session):
    root = tmp_path_factory.mktemp("cli_idx")
    rc = cli.main(
        [
            "build",
            "--input", os.path.join(SF, "documents.parquet"),
            "--out", str(root / "idx"),
        ]
    )
    assert rc == 0
    return str(root / "idx")


def test_build_and_query(built_index, capsys, ray_session):
    rc = cli.main(
        ["query", "--index", built_index, "--query", "scan join", "--k", "3"]
    )
    assert rc == 0
    rows = _lines(capsys)
    assert [r["rank"] for r in rows[-3:]] == [1, 2, 3]


def test_snapshot_restore_cycle(built_index, tmp_path, capsys, ray_session):
    backups = str(tmp_path / "backups")
    assert cli.main(
        ["snapshot", "--index", built_index, "--backups", backups]
    ) == 0
    snap_info = _lines(capsys)[-1]
    assert snap_info["n_files"] > 0

    assert cli.main(["snapshots", "--backups", backups]) == 0
    rows = _lines(capsys)
    assert rows[-1]["n_snapshots"] == 1
    assert rows[0]["snapshot"] == os.path.basename(snap_info["snapshot"])

    assert cli.main(
        ["verify-backup", "--snapshot", snap_info["snapshot"]]
    ) == 0
    assert _lines(capsys)[-1]["ok"] is True

    dest = str(tmp_path / "restored")
    assert cli.main(
        ["restore", "--backups", backups, "--dest", dest]
    ) == 0
    assert _lines(capsys)[-1]["restored"] == dest
    # restored index answers queries identically to the original
    from harvester_ray.index.query import InvertedIndex

    a = InvertedIndex(built_index, preload=True).search("scan join", k=5)
    b = InvertedIndex(dest, preload=True).search("scan join", k=5)
    assert a == b


def test_query_batch_matches_search(built_index, tmp_path, capsys, ray_session):
    """query-batch streams a query table through the QueryActor pool;
    the written rows equal InvertedIndex.search per query (rank,
    doc_id, score to 1e-9), for OR and AND queries and a query with no
    hits."""
    from harvester_ray.index.query import InvertedIndex

    queries = [
        (0, "scan join", "or"),
        (1, "scan join", "and"),
        (2, "dup", "or"),
        (3, "zzzoovterm", "or"),
        (4, "join the scan of a dup", "or"),
    ]
    qpath = str(tmp_path / "queries.parquet")
    pq.write_table(
        pa.table(
            {
                "query_id": pa.array([q[0] for q in queries], pa.int64()),
                "query": [q[1] for q in queries],
                "mode": [q[2] for q in queries],
            }
        ),
        qpath,
    )
    out = str(tmp_path / "results")
    assert cli.main(
        [
            "query-batch", "--index", built_index, "--queries", qpath,
            "--out", out, "--k", "5",
        ]
    ) == 0
    info = _lines(capsys)[-1]
    got = pq.read_table(out).sort_by([("query_id", "ascending"), ("rank", "ascending")])
    idx = InvertedIndex(built_index, preload=True)
    want = [
        (qid, rank, doc_id, score)
        for qid, q, mode in queries
        for rank, (doc_id, score) in enumerate(idx.search(q, k=5, mode=mode), start=1)
    ]
    assert len(want) > 5
    assert info["rows"] == got.num_rows == len(want)
    assert list(
        zip(
            got["query_id"].to_pylist(),
            got["rank"].to_pylist(),
            got["doc_id"].to_pylist(),
        )
    ) == [w[:3] for w in want]
    np.testing.assert_allclose(
        got["score"].to_numpy(), [w[3] for w in want], rtol=0, atol=1e-9
    )


def test_verify_backup_exit_code_on_damage(
    built_index, tmp_path, capsys, ray_session
):
    backups = str(tmp_path / "backups")
    cli.main(["snapshot", "--index", built_index, "--backups", backups])
    snap = _lines(capsys)[-1]["snapshot"]
    m = json.load(open(os.path.join(snap, "_backup.json")))
    victim = os.path.join(snap, m["files"][0]["rel"])
    blob = bytearray(open(victim, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    open(victim, "wb").write(bytes(blob))
    assert cli.main(["verify-backup", "--snapshot", snap]) == 1
    report = _lines(capsys)[-1]
    assert report["hash_mismatch"]
    # the metadata-only walk stays green, by design
    assert cli.main(
        ["verify-backup", "--snapshot", snap, "--shallow"]
    ) == 0


def test_curate_default_chain(tmp_path, capsys, ray_session):
    out = str(tmp_path / "curated")
    assert cli.main(["curate", "--sf-dir", SF, "--out", out]) == 0
    info = _lines(capsys)[-1]
    assert info["chain"] == [
        "gopher_filter", "dedup_exact", "eval_holdout", "decontaminate",
    ]
    from harvester_ray.stages.textstats import curate_corpus

    want = curate_corpus(SF).to_pandas().sort_values("doc_id")
    got = (
        pq.read_table(out).to_pandas().sort_values("doc_id")
    )
    assert info["rows"] == len(want) == len(got)
    assert got.reset_index(drop=True).equals(want.reset_index(drop=True))


def test_curate_config_file_chain(tmp_path, capsys, ray_session):
    """A config-listed chain with params — the non-programmer edit
    path: JSON in, different corpus out."""
    cfg = tmp_path / "chain.json"
    cfg.write_text(
        json.dumps(
            {
                "chain": [
                    {"stage": "min_chars", "n": 200},
                    "dedup_exact",
                ]
            }
        )
    )
    out = str(tmp_path / "curated")
    assert cli.main(
        ["curate", "--sf-dir", SF, "--out", out, "--chain", str(cfg)]
    ) == 0
    got = pq.read_table(out).to_pandas()
    assert len(got) > 0
    assert (got["n_chars"] >= 200).all()


def test_curate_unknown_stage_is_typed_error(tmp_path, ray_session):
    from harvester_ray.pipelines.chains import compose_chain

    with pytest.raises(KeyError, match="registered"):
        compose_chain(SF, ["no_such_stage"])


def test_chain_equals_hand_composed(ray_session):
    """The VERDICT-7 contract: a 3-stage config chain's output equals
    the hand-composed pipeline of the same legs."""
    from harvester_ray.pipelines.chains import compose_chain
    from harvester_ray.pipelines.relational import dedup_exact
    from harvester_ray.stages.dedup import anti_join_doc_ids, decontaminate
    from harvester_ray.stages.joins import ds_join, join_parquet_side

    chain = ["dedup_exact", "eval_holdout", "decontaminate"]
    got = (
        compose_chain(SF, chain)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    id_schema = pa.schema([("doc_id", pa.int64())])
    import ray.data

    from harvester_ray.stages.dedup import DECON_BENCH_MOD, DECON_BENCH_REM

    def ids(ds):
        return ds.map_batches(
            lambda t: pa.table({"doc_id": t["doc_id"].cast(pa.int64())}),
            batch_format="pyarrow",
        )

    kept = ids(
        ray.data.read_parquet(
            os.path.join(SF, "documents.parquet"), columns=["doc_id"]
        )
    )
    kept = ds_join(
        kept, ids(dedup_exact(SF)), on=("doc_id",),
        schemas=(id_schema, id_schema),
    )

    def drop_bench(t):
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(
                    d[d % DECON_BENCH_MOD != DECON_BENCH_REM], pa.int64()
                )
            }
        )

    kept = kept.map_batches(drop_bench, batch_format="pyarrow")
    kept = anti_join_doc_ids(kept, ids(decontaminate(SF)))
    want = (
        join_parquet_side(
            kept,
            os.path.join(SF, "documents.parquet"),
            ["doc_id", "source", "n_chars"],
            on=("doc_id",),
            left_schema=id_schema,
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(got) > 0
    assert got.equals(want)


def test_prune_backups_cli(built_index, tmp_path, capsys, ray_session):
    backups = str(tmp_path / "backups")
    cli.main(["snapshot", "--index", built_index, "--backups", backups])
    _lines(capsys)
    assert cli.main(
        ["prune-backups", "--backups", backups, "--keep", "1"]
    ) == 0
    info = _lines(capsys)[-1]
    assert info["removed"] == [] and info["kept_last"] == 1
