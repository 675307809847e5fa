"""Index backup / restore — the Solr replication-handler analog.

The reference delegates index durability to its Solr tier (snapshots /
replication of the Lucene commit point); here the index root IS a
directory tree of immutable parquet segments (sources, deltas,
tombstones, stats), so a consistent snapshot is a file-level copy of
one commit point:

- ``backup_index(index_dir, backups_root)`` — copy the tree into a
  tmp dir and atomically rename to ``snap-<fingerprint>`` with a
  ``_backup.json`` manifest (file listing + sizes, engine version,
  source fingerprint). Segments are immutable, so a file already
  present in the PREVIOUS snapshot with the same (size, mtime_ns) is
  HARDLINKED instead of copied — Lucene-style incremental backup:
  cost ∝ new segments, not index size.
- ``restore_index(snap_dir, dest)`` — verify the manifest against the
  snapshot's files, copy out to tmp, atomic-rename into place.
- ``verify_backup(snap_dir)`` — fsck for snapshots: every manifest
  entry present with the recorded size AND content hash (same-size
  corruption — bit flips, truncate+pad, wrong-content hardlinks — is
  caught, not just length drift), no stray files. Hashing fans out as
  Ray tasks; ``deep=False`` keeps the metadata-only walk.

Scale shape: the driver only LISTS files (metadata walk); the byte
copies fan out as Ray tasks over per-file work items (the same
shared-filesystem assumption the hive index layout itself makes).
Snapshots are point-in-time: a backup taken mid-upsert sees the last
committed sources (stage writes are atomic tmp+rename, lineage.py).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time

import ray

BACKUP_MANIFEST = "_backup.json"
_COPY_BATCH = 64  # files per copy task


def _file_md5(path: str) -> str:
    h = hashlib.md5()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@ray.remote(num_cpus=0.5)
def _hash_batch(root: str, rels: list[str]) -> list[tuple[str, str]]:
    return [(rel, _file_md5(os.path.join(root, rel))) for rel in rels]


def _walk_files(root: str) -> list[tuple[str, int, int]]:
    """(relpath, size, mtime_ns) for every file under root."""
    out = []
    for r, _d, files in sorted(os.walk(root)):
        for f in sorted(files):
            fp = os.path.join(r, f)
            st = os.stat(fp)
            out.append(
                (os.path.relpath(fp, root), st.st_size, st.st_mtime_ns)
            )
    return out


@ray.remote(num_cpus=0.5)
def _copy_batch(src_root: str, dst_root: str, items: list) -> list:
    """Copy/hardlink a batch of files; returns (rel, md5 | None) per
    file — None for hardlinked files (their content hash is inherited
    from the previous snapshot's manifest, so incremental cost stays
    ∝ new segments)."""
    out = []
    for rel, link_src in items:
        dst = os.path.join(dst_root, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        if link_src is not None:
            try:
                os.link(link_src, dst)
                out.append((rel, None))
                continue
            except OSError:
                pass  # cross-device / fs without hardlinks: fall through
        shutil.copy2(os.path.join(src_root, rel), dst)
        out.append((rel, _file_md5(dst)))
    return out


def list_snapshots(backups_root: str) -> list[tuple[str, dict]]:
    """(path, manifest) of every committed snapshot under
    ``backups_root``, oldest first by manifest ``taken_at`` (which
    increases monotonically). In-flight ``.tmp-`` staging dirs are not
    snapshots; a snapshot whose manifest is absent — uncommitted, or
    deleted by a concurrent ``prune-backups`` between the listing and
    the read — is skipped."""
    if not os.path.isdir(backups_root):
        return []
    snaps = []
    for d in os.listdir(backups_root):
        if not d.startswith("snap-") or ".tmp-" in d:
            continue
        p = os.path.join(backups_root, d)
        try:
            with open(os.path.join(p, BACKUP_MANIFEST)) as f:
                snaps.append((p, json.load(f)))
        except OSError:
            continue
    snaps.sort(key=lambda pm: (float(pm[1]["taken_at"]), pm[0]))
    return snaps


def _latest_snapshot(backups_root: str) -> str | None:
    snaps = list_snapshots(backups_root)
    return snaps[-1][0] if snaps else None


def backup_index(index_dir: str, backups_root: str) -> str:
    """Snapshot ``index_dir`` under ``backups_root``; returns the
    snapshot path. Idempotent: an existing snapshot of the same
    fingerprint is returned as-is."""
    from harvester_ray.state.lineage import ENGINE_VERSION, dir_fingerprint

    fp = dir_fingerprint(index_dir)
    snap = os.path.join(backups_root, f"snap-{fp}")
    if os.path.isfile(os.path.join(snap, BACKUP_MANIFEST)):
        return snap

    files = _walk_files(index_dir)
    prev = _latest_snapshot(backups_root)
    prev_files: dict[str, tuple[int, int]] = {}
    prev_md5: dict[str, str] = {}
    prev_taken = 0.0
    if prev:
        with open(os.path.join(prev, BACKUP_MANIFEST)) as f:
            pm = json.load(f)
        prev_taken = float(pm.get("taken_at", 0.0))
        for e in pm["files"]:
            prev_files[e["rel"]] = (e["size"], e["mtime_ns"])
            if e.get("md5"):
                prev_md5[e["rel"]] = e["md5"]

    os.makedirs(backups_root, exist_ok=True)
    # unique staging dir: two concurrent backup_index calls for the
    # same fingerprint each stage privately; the loser of the final
    # rename discards its staging and returns the winner's snapshot.
    # mkdtemp creates 0700 and rename preserves it — give the final
    # snapshot dir the index root's own mode instead (no os.umask
    # round-trip: flipping the process-global umask is unsafe under
    # the multithreaded Ray driver).
    tmp = tempfile.mkdtemp(prefix=f"snap-{fp}.tmp-", dir=backups_root)
    os.chmod(tmp, os.stat(index_dir).st_mode & 0o7777)

    items = []
    linked = 0
    for rel, size, mt in files:
        link_src = None
        if prev and prev_files.get(rel) == (size, mt):
            link_src = os.path.join(prev, rel)
            linked += 1
        items.append((rel, link_src))
    refs = [
        _copy_batch.remote(index_dir, tmp, items[i : i + _COPY_BATCH])
        for i in range(0, len(items), _COPY_BATCH)
    ]
    md5s: dict[str, str | None] = {}
    for batch in ray.get(refs):
        md5s.update(dict(batch))
    assert len(md5s) == len(files)
    # hardlinked files inherit the previous snapshot's content hash
    # (immutability invariant); hash in-place only for legacy prev
    # manifests that predate content hashes
    legacy = [r for r, h in md5s.items() if h is None and r not in prev_md5]
    for batch in ray.get(
        [
            _hash_batch.remote(tmp, legacy[i : i + _COPY_BATCH])
            for i in range(0, len(legacy), _COPY_BATCH)
        ]
    ):
        md5s.update(dict(batch))
    for rel, h in md5s.items():
        if h is None:
            md5s[rel] = prev_md5[rel]

    manifest = {
        "fingerprint": fp,
        "engine_version": ENGINE_VERSION,
        # monotonic past the previous snapshot even if the wall clock
        # stepped backwards (ordering key for _latest_snapshot)
        "taken_at": max(time.time(), prev_taken + 1e-6),
        "source": os.path.abspath(index_dir),
        "n_files": len(files),
        "n_hardlinked": linked,
        "files": [
            {"rel": r, "size": s, "mtime_ns": m, "md5": md5s[r]}
            for r, s, m in files
        ],
    }
    with open(os.path.join(tmp, BACKUP_MANIFEST), "w") as f:
        json.dump(manifest, f)
    try:
        os.rename(tmp, snap)
    except OSError:
        # a concurrent backup of the same fingerprint won the rename:
        # keep its (complete, manifest-bearing) snapshot, drop ours
        if not os.path.isfile(os.path.join(snap, BACKUP_MANIFEST)):
            raise
        shutil.rmtree(tmp, ignore_errors=True)
    return snap


def verify_backup(snap_dir: str, deep: bool = True) -> dict:
    """fsck a snapshot: returns {'ok': bool, 'missing': [...],
    'size_mismatch': [...], 'hash_mismatch': [...], 'stray': [...]}.

    ``deep=True`` re-hashes every file against the manifest's recorded
    content md5 (fanned out as Ray tasks), so same-size corruption —
    bit flips, truncate+pad, a wrong-content hardlink — fails fsck
    instead of slipping through a size-only check. ``deep=False`` is
    the metadata-only walk (size + presence)."""
    with open(os.path.join(snap_dir, BACKUP_MANIFEST)) as f:
        manifest = json.load(f)
    want = {e["rel"]: e["size"] for e in manifest["files"]}
    want_md5 = {
        e["rel"]: e["md5"] for e in manifest["files"] if e.get("md5")
    }
    have = {
        rel: size
        for rel, size, _mt in _walk_files(snap_dir)
        if rel != BACKUP_MANIFEST
    }
    missing = sorted(set(want) - set(have))
    stray = sorted(set(have) - set(want))
    mismatch = sorted(
        r for r in set(want) & set(have) if want[r] != have[r]
    )
    hash_mismatch: list[str] = []
    if deep:
        to_hash = sorted(
            r for r in set(want_md5) & set(have) if r not in mismatch
        )
        got: dict[str, str] = {}
        for batch in ray.get(
            [
                _hash_batch.remote(snap_dir, to_hash[i : i + _COPY_BATCH])
                for i in range(0, len(to_hash), _COPY_BATCH)
            ]
        ):
            got.update(dict(batch))
        hash_mismatch = sorted(
            r for r in to_hash if got[r] != want_md5[r]
        )
    return {
        "ok": not (missing or stray or mismatch or hash_mismatch),
        "missing": missing,
        "size_mismatch": mismatch,
        "hash_mismatch": hash_mismatch,
        "stray": stray,
    }


def restore_index(snap_dir: str, dest: str) -> str:
    """Restore a snapshot into ``dest`` (must not exist). Verifies the
    manifest first; copy fans out as Ray tasks; the final rename is
    atomic so a crashed restore never leaves a half-index at dest."""
    if os.path.exists(dest):
        raise FileExistsError(dest)
    chk = verify_backup(snap_dir)
    if not chk["ok"]:
        raise RuntimeError(f"snapshot failed verification: {chk}")
    with open(os.path.join(snap_dir, BACKUP_MANIFEST)) as f:
        manifest = json.load(f)
    tmp = dest + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    items = [(e["rel"], None) for e in manifest["files"]]
    refs = [
        _copy_batch.remote(snap_dir, tmp, items[i : i + _COPY_BATCH])
        for i in range(0, len(items), _COPY_BATCH)
    ]
    ray.get(refs)
    os.rename(tmp, dest)
    return dest


def prune_snapshots(
    backups_root: str,
    keep_last: int,
    stale_tmp_age_s: float = 24 * 3600.0,
) -> list[str]:
    """Retention sweep: delete all but the newest ``keep_last``
    snapshots (by manifest ``taken_at``); returns the removed paths.
    The reference runs the same post-ingest cleanup step
    (harvester/run_ingest.py:151 dashboard_cleanup; cleanup_dir.py).

    Safe under hardlink-incremental snapshots: hardlinked files share
    inodes, so deleting an OLD snapshot never damages a newer one —
    the shared blocks stay referenced by the survivors. ``.tmp-``
    staging dirs are swept only past ``stale_tmp_age_s`` (by mtime):
    a CONCURRENT backup_index may legitimately be mid-copy in a fresh
    staging dir, and pruning it would destroy that backup."""
    if keep_last < 1:
        raise ValueError("keep_last must be >= 1")
    if not os.path.isdir(backups_root):
        return []
    now = time.time()
    for d in os.listdir(backups_root):
        p = os.path.join(backups_root, d)
        if d.startswith("snap-") and ".tmp-" in d:
            try:
                age = now - os.stat(p).st_mtime
            except OSError:
                continue  # racer finished (renamed) or cleaned up
            if age > stale_tmp_age_s:  # crashed staging, not in-flight
                shutil.rmtree(p, ignore_errors=True)
    snaps = list_snapshots(backups_root)
    removed = []
    for p, _m in snaps[: max(0, len(snaps) - keep_last)]:
        shutil.rmtree(p, ignore_errors=True)
        removed.append(p)
    return removed
