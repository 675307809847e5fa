"""Index backup / restore (state/backup.py): snapshot consistency,
hardlink-incremental second snapshots, restore rank parity, fsck."""

import json
import os

import ray.data

from harvester_ray.index.maintenance import delete_docs
from harvester_ray.index.query import InvertedIndex
from harvester_ray.state.backup import (
    BACKUP_MANIFEST,
    backup_index,
    restore_index,
    verify_backup,
)

DOCS = "/root/testdata/sf0.001/documents.parquet"


def _fresh_index(tmp_path):
    from harvester_ray.index.build import build_index

    docs = ray.data.read_parquet(DOCS, columns=["doc_id", "text"])
    return build_index(docs, str(tmp_path / "idx"))


def test_backup_restore_rank_parity(tmp_path, ray_session):
    paths = _fresh_index(tmp_path)
    before = InvertedIndex(paths.root, preload=True).search(
        "scan join", k=10
    )
    snaps = str(tmp_path / "backups")
    snap = backup_index(paths.root, snaps)
    assert verify_backup(snap)["ok"]
    # idempotent: same commit point -> same snapshot dir
    assert backup_index(paths.root, snaps) == snap

    # mutate the ORIGINAL after the snapshot
    delete_docs(paths.root, [before[0][0]])
    mutated = InvertedIndex(paths.root, preload=True).search(
        "scan join", k=10
    )
    assert mutated != before

    dest = str(tmp_path / "restored")
    restore_index(snap, dest)
    restored = InvertedIndex(dest, preload=True).search("scan join", k=10)
    assert restored == before


def test_backup_incremental_hardlinks(tmp_path, ray_session):
    paths = _fresh_index(tmp_path)
    snaps = str(tmp_path / "backups")
    s1 = backup_index(paths.root, snaps)
    # a delete adds a tombstone file; segments are untouched
    top = InvertedIndex(paths.root, preload=True).search("scan", k=1)
    delete_docs(paths.root, [top[0][0]])
    s2 = backup_index(paths.root, snaps)
    assert s2 != s1
    m2 = json.load(open(os.path.join(s2, BACKUP_MANIFEST)))
    # nearly everything rode the hardlink path
    assert m2["n_hardlinked"] >= m2["n_files"] - 3
    # hardlinked files genuinely share an inode with snapshot 1
    rel = m2["files"][0]["rel"]
    assert os.stat(os.path.join(s2, rel)).st_ino == os.stat(
        os.path.join(s1, rel)
    ).st_ino
    assert verify_backup(s2)["ok"]


def test_verify_catches_corruption(tmp_path, ray_session):
    paths = _fresh_index(tmp_path)
    snap = backup_index(paths.root, str(tmp_path / "backups"))
    m = json.load(open(os.path.join(snap, BACKUP_MANIFEST)))
    victim = os.path.join(snap, m["files"][0]["rel"])
    os.remove(victim)
    chk = verify_backup(snap)
    assert not chk["ok"] and chk["missing"]
    try:
        restore_index(snap, str(tmp_path / "nope"))
        raise AssertionError("restore should refuse a broken snapshot")
    except RuntimeError:
        pass
    assert not os.path.exists(str(tmp_path / "nope"))


def test_verify_catches_same_size_corruption(tmp_path, ray_session):
    """Size-only fsck misses bit flips; the manifest's per-file content
    md5 must catch a same-length overwrite (round-4 ADVICE)."""
    paths = _fresh_index(tmp_path)
    snap = backup_index(paths.root, str(tmp_path / "backups"))
    m = json.load(open(os.path.join(snap, BACKUP_MANIFEST)))
    assert all(e.get("md5") for e in m["files"])
    victim = os.path.join(snap, m["files"][0]["rel"])
    blob = bytearray(open(victim, "rb").read())
    blob[len(blob) // 2] ^= 0xFF  # same size, different content
    open(victim, "wb").write(bytes(blob))
    chk = verify_backup(snap)
    assert not chk["ok"]
    assert chk["hash_mismatch"] == [m["files"][0]["rel"]]
    assert not chk["size_mismatch"]
    # the metadata-only walk stays blind to it, by design
    assert verify_backup(snap, deep=False)["ok"]
    try:
        restore_index(snap, str(tmp_path / "nope"))
        raise AssertionError("restore should refuse a corrupt snapshot")
    except RuntimeError:
        pass


def test_incremental_snapshot_inherits_hashes(tmp_path, ray_session):
    """Hardlinked files must carry the previous snapshot's content md5
    (no re-hash of unchanged segments) and still deep-fsck green."""
    paths = _fresh_index(tmp_path)
    snaps = str(tmp_path / "backups")
    s1 = backup_index(paths.root, snaps)
    m1 = json.load(open(os.path.join(s1, BACKUP_MANIFEST)))
    top = InvertedIndex(paths.root, preload=True).search("scan", k=1)
    delete_docs(paths.root, [top[0][0]])
    s2 = backup_index(paths.root, snaps)
    m2 = json.load(open(os.path.join(s2, BACKUP_MANIFEST)))
    h1 = {e["rel"]: e["md5"] for e in m1["files"]}
    shared = [e for e in m2["files"] if e["rel"] in h1]
    assert shared and all(e["md5"] == h1[e["rel"]] for e in shared)
    assert verify_backup(s2)["ok"]


def test_no_tmp_staging_left_behind(tmp_path, ray_session):
    """backup_index stages into a unique tmp dir and renames into
    place; nothing *.tmp-* survives, and _latest_snapshot never
    returns one."""
    from harvester_ray.state.backup import _latest_snapshot

    paths = _fresh_index(tmp_path)
    snaps = str(tmp_path / "backups")
    snap = backup_index(paths.root, snaps)
    leftovers = [d for d in os.listdir(snaps) if ".tmp-" in d]
    assert leftovers == []
    assert _latest_snapshot(snaps) == snap


def test_prune_snapshots_retention(tmp_path, ray_session):
    """Keep-last-N retention: oldest snapshots and crashed staging
    dirs go; survivors (which hardlink into the pruned ones) still
    deep-fsck green and restore rank-identically."""
    from harvester_ray.state.backup import prune_snapshots

    paths = _fresh_index(tmp_path)
    snaps = str(tmp_path / "backups")
    s1 = backup_index(paths.root, snaps)
    top = InvertedIndex(paths.root, preload=True).search("scan", k=2)
    delete_docs(paths.root, [top[0][0]])
    s2 = backup_index(paths.root, snaps)
    delete_docs(paths.root, [top[1][0]])
    s3 = backup_index(paths.root, snaps)
    # one CRASHED staging dir (old mtime) and one LIVE one (fresh):
    # the sweep must remove only the stale dir — a fresh .tmp- may be
    # a concurrent backup mid-copy
    dead = os.path.join(snaps, "snap-dead.tmp-xyz")
    live = os.path.join(snaps, "snap-live.tmp-abc")
    os.makedirs(dead)
    os.makedirs(live)
    os.utime(dead, (1, 1))  # ancient

    removed = prune_snapshots(snaps, keep_last=2)
    assert removed == [s1]
    assert not os.path.exists(dead)
    assert os.path.exists(live)
    left = sorted(
        d
        for d in os.listdir(snaps)
        if d.startswith("snap-") and ".tmp-" not in d
    )
    assert left == sorted(
        [os.path.basename(s2), os.path.basename(s3)]
    )
    # survivors hardlinked into s1 still verify and restore
    assert verify_backup(s2)["ok"] and verify_backup(s3)["ok"]
    dest = str(tmp_path / "restored")
    restore_index(s3, dest)
    assert InvertedIndex(dest, preload=True).search("scan", k=2)


def test_snapshot_readers_skip_concurrently_pruned(
    tmp_path, ray_session, monkeypatch, capsys
):
    """A concurrent prune-backups can delete a snapshot after the
    directory listing and before its manifest is read. The latest-
    snapshot lookup, the retention sweep and the CLI listing must skip
    that snapshot instead of raising FileNotFoundError."""
    import builtins
    import shutil

    from harvester_ray import cli
    from harvester_ray.state import backup as backup_mod

    paths = _fresh_index(tmp_path)
    snaps = str(tmp_path / "backups")
    s1 = backup_index(paths.root, snaps)
    top = InvertedIndex(paths.root, preload=True).search("scan", k=1)
    delete_docs(paths.root, [top[0][0]])

    def race(victim):
        """open() that deletes ``victim`` just before reading its
        manifest — the prune landing between listdir and open."""

        def racing_open(path, *args, **kwargs):
            if os.fspath(path) == os.path.join(victim, BACKUP_MANIFEST):
                shutil.rmtree(victim, ignore_errors=True)
            return builtins.open(path, *args, **kwargs)

        return racing_open

    readers = [
        (lambda: backup_mod._latest_snapshot(snaps), s1),
        (lambda: backup_mod.prune_snapshots(snaps, 1), []),
        (lambda: cli.main(["snapshots", "--backups", snaps]), 0),
    ]
    for read, want in readers:
        s2 = backup_index(paths.root, snaps)  # (re)create the victim
        with monkeypatch.context() as m:
            for module in (backup_mod, cli):
                m.setattr(module, "open", race(s2), raising=False)
            assert read() == want
        assert not os.path.exists(s2)
    rows = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert rows[-1] == {"n_snapshots": 1}
    assert rows[-2]["snapshot"] == os.path.basename(s1)
