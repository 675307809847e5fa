"""Multimodal column plumbing.

The reference never stores binary media on the record — images are
fetched, md5-keyed and stashed to S3 with only (object md5, dimensions)
written back (harvester/image_harvest.py:106-165,222-232). This module
reproduces that shape for a training-data pipeline: media as an opaque
``binary`` column + typed metadata, processed by a stateless decode /
feature-extract task stage with small batches (binary rows are large).

``pil_decode_batch`` decodes images through PIL when it is importable
(optional dependency); without it ``default_decoder()`` auto-selects
``stdlib_png_decode_batch`` (real baseline-PNG pixel decoding, byte
statistics for everything else), and ``fake_decode_batch`` is the
byte-statistics "decoder" sharing the exact output schema. The
Ray-side plumbing — schema, batch sizing, batch-function signature,
output layout — is identical for all three.
"""

from __future__ import annotations

import hashlib
import io
import os

import numpy as np
import pyarrow as pa
import ray.data

try:  # optional dependency: real image decode path
    from PIL import Image as _PILImage
except ImportError:  # pragma: no cover - absent in this container
    _PILImage = None


def synthesize_payloads(sf_dir: str) -> "ray.data.Dataset":
    """Derive a deterministic opaque binary payload column from the
    documents table (no external data): payload = utf-8 bytes of text;
    media_type round-robins by doc_id."""
    types = ("image/fake", "audio/fake", "video/fake")

    def make(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        payloads = [(s or "").encode("utf-8") for s in t["text"].to_pylist()]
        mt = [types[int(i) % 3] for i in ids]
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "media_type": pa.array(mt, pa.string()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(make, batch_format="pyarrow")


def _byte_features(payload: bytes, dim: int) -> tuple[int, int, int, list]:
    """Deterministic byte-statistics fallback: (payload_hash, width,
    height, features) derived from the raw bytes alone."""
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    h = int.from_bytes(digest, "big")
    arr = np.frombuffer(payload, dtype=np.uint8)
    if len(arr) == 0:
        arr = np.zeros(1, dtype=np.uint8)
    chunks = np.array_split(arr, dim)
    feats = [round(float(c.mean()), 6) if len(c) else 0.0 for c in chunks]
    return h - (1 << 63), 64 + h % 512, 64 + (h >> 16) % 512, feats


def _decode_rows(batch: pa.Table, decode_one, feature_dim: int) -> pa.Table:
    """The shared decode-stage body: ``decode_one(media_type, payload,
    feature_dim) -> (payload_hash, width, height, features)`` per row,
    one fixed output schema for every decoder."""
    dims_w, dims_h, feats, hashes, sizes = [], [], [], [], []
    for mt, payload in zip(
        batch["media_type"].to_pylist(), batch["payload"].to_pylist()
    ):
        payload = payload or b""
        h, w, ht, f = decode_one(mt or "", payload, feature_dim)
        hashes.append(h)
        dims_w.append(w)
        dims_h.append(ht)
        feats.append(f)
        sizes.append(len(payload))
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "media_type": batch["media_type"],
            "n_bytes": pa.array(sizes, pa.int64()),
            "payload_hash": pa.array(hashes, pa.int64()),
            "width": pa.array(dims_w, pa.int64()),
            "height": pa.array(dims_h, pa.int64()),
            "features": pa.array(feats, pa.list_(pa.float64())),
        }
    )


def fake_decode_batch(batch: pa.Table, feature_dim: int = 8) -> pa.Table:
    """Deterministic stand-in decoder: emits byte-statistics 'features'
    with the same output schema the real decoders produce."""
    return _decode_rows(
        batch, lambda mt, payload, dim: _byte_features(payload, dim), feature_dim
    )


# --- stdlib baseline-PNG codec (zlib + scanline filters) ------------------
# Real pixel decoding without PIL, so the sandbox exercises an actual
# image decode under the gate (reference analog: image_harvest.py
# content-probes the fetched image and records its dimensions,
# harvester/image_harvest.py:106-165). Baseline subset: 8-bit
# greyscale (color type 0) and 8-bit RGB (2), no interlace, all five
# scanline filters (None/Sub/Up/Average/Paeth).

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _png_chunk(ctype: bytes, data: bytes) -> bytes:
    import struct
    import zlib as _zlib

    return (
        struct.pack(">I", len(data))
        + ctype
        + data
        + struct.pack(">I", _zlib.crc32(ctype + data) & 0xFFFFFFFF)
    )


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Paeth predictor, vectorized over a scanline (int16 math)."""
    p = a.astype(np.int16) + b.astype(np.int16) - c.astype(np.int16)
    pa_ = np.abs(p - a)
    pb = np.abs(p - b)
    pc = np.abs(p - c)
    out = np.where(
        (pa_ <= pb) & (pa_ <= pc), a, np.where(pb <= pc, b, c)
    )
    return out.astype(np.uint8)


def png_encode(pixels: np.ndarray) -> bytes:
    """Minimal baseline PNG writer: uint8 array of shape (h, w)
    (greyscale) or (h, w, 3) (RGB). Scanline filters cycle 0..4 by
    row so a round-trip exercises every unfilter branch."""
    import struct
    import zlib as _zlib

    px = np.ascontiguousarray(pixels, dtype=np.uint8)
    if px.ndim == 2:
        px = px[:, :, None]
    h, w, ch = px.shape
    assert ch in (1, 3), ch
    color_type = 0 if ch == 1 else 2
    bpp = ch
    raw = bytearray()
    prev = np.zeros(w * ch, dtype=np.uint8)
    for y in range(h):
        line = px[y].reshape(-1)
        ft = y % 5
        left = np.concatenate(
            [np.zeros(bpp, np.uint8), line[:-bpp]]
        ) if w * ch > bpp else np.zeros_like(line)
        upleft = np.concatenate(
            [np.zeros(bpp, np.uint8), prev[:-bpp]]
        ) if w * ch > bpp else np.zeros_like(prev)
        if ft == 0:
            filt = line
        elif ft == 1:  # Sub
            filt = (line.astype(np.int16) - left).astype(np.uint8)
        elif ft == 2:  # Up
            filt = (line.astype(np.int16) - prev).astype(np.uint8)
        elif ft == 3:  # Average
            filt = (
                line.astype(np.int16)
                - ((left.astype(np.int16) + prev.astype(np.int16)) // 2)
            ).astype(np.uint8)
        else:  # Paeth
            filt = (
                line.astype(np.int16) - _paeth(left, prev, upleft)
            ).astype(np.uint8)
        raw.append(ft)
        raw.extend(filt.tobytes())
        prev = line
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return (
        _PNG_SIG
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", _zlib.compress(bytes(raw), 6))
        + _png_chunk(b"IEND", b"")
    )


def png_decode(data: bytes) -> tuple[int, int, np.ndarray]:
    """Baseline PNG reader (stdlib only): returns (width, height,
    uint8 pixels of shape (h, w, channels)). Supports the subset
    png_encode writes — 8-bit grey / RGB, non-interlaced — with full
    scanline unfiltering; anything else raises ValueError.

    None/Up/Sub rows unfilter vectorized; Average/Paeth rows are
    inherently sequential in x and run a per-pixel Python loop — fine
    for gate-scale synthetic images, a real high-volume PNG workload
    should run under PIL (pil_decode_batch), which default_decoder()
    prefers whenever importable."""
    import struct
    import zlib as _zlib

    if data[:8] != _PNG_SIG:
        raise ValueError("not a PNG signature")
    pos = 8
    w = h = None
    color_type = None
    idat = bytearray()
    while pos + 8 <= len(data):
        (ln,) = struct.unpack(">I", data[pos : pos + 4])
        ctype = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + ln]
        if len(body) != ln:
            raise ValueError("truncated chunk")
        crc = struct.unpack(">I", data[pos + 8 + ln : pos + 12 + ln])[0]
        if crc != (_zlib.crc32(ctype + body) & 0xFFFFFFFF):
            raise ValueError(f"bad CRC in {ctype!r}")
        if ctype == b"IHDR":
            w, h, depth, color_type, comp, filt, interlace = (
                struct.unpack(">IIBBBBB", body)
            )
            if depth != 8 or color_type not in (0, 2) or interlace:
                raise ValueError(
                    "unsupported PNG variant (baseline 8-bit "
                    "grey/RGB only)"
                )
        elif ctype == b"IDAT":
            idat.extend(body)
        elif ctype == b"IEND":
            break
        pos += 12 + ln
    if w is None or not idat:
        raise ValueError("missing IHDR/IDAT")
    ch = 1 if color_type == 0 else 3
    bpp = ch
    stride = w * ch
    raw = _zlib.decompress(bytes(idat))
    if len(raw) != h * (stride + 1):
        raise ValueError("IDAT length mismatch")
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(h):
        ft = raw[y * (stride + 1)]
        line = np.frombuffer(
            raw, np.uint8, stride, y * (stride + 1) + 1
        ).copy()
        if ft == 0:
            cur = line
        elif ft == 2:  # Up
            cur = (line.astype(np.int16) + prev).astype(np.uint8)
        elif ft == 1:  # Sub: per-channel mod-256 prefix sum, vectorized
            cur = np.empty(stride, dtype=np.uint8)
            for off in range(bpp):
                cur[off::bpp] = np.cumsum(
                    line[off::bpp], dtype=np.uint64
                ).astype(np.uint8)
        elif ft in (3, 4):  # Average / Paeth: inherently sequential in x
            cur = np.zeros(stride, dtype=np.uint8)
            for x in range(stride):
                a = int(cur[x - bpp]) if x >= bpp else 0
                b = int(prev[x])
                c = int(prev[x - bpp]) if x >= bpp else 0
                if ft == 3:
                    pred = (a + b) // 2
                else:
                    p = a + b - c
                    pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = (
                        a if pa_ <= pb and pa_ <= pc
                        else (b if pb <= pc else c)
                    )
                cur[x] = (int(line[x]) + pred) & 0xFF
        else:
            raise ValueError(f"bad filter type {ft}")
        out[y] = cur
        prev = cur
    return int(w), int(h), out.reshape(h, w, ch)


def _png_one(media_type: str, payload: bytes, dim: int):
    if not media_type.startswith("image/"):
        return _byte_features(payload, dim)
    try:
        w, h, px = png_decode(payload)
    except Exception:
        return _byte_features(payload, dim)
    gray = px.astype(np.float64).mean(axis=2).reshape(-1)
    chunks = np.array_split(gray, dim)
    feats = [
        round(float(c.mean()) / 255.0, 6) if len(c) else 0.0 for c in chunks
    ]
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    ph = int.from_bytes(digest, "big") - (1 << 63)
    return ph, int(w), int(h), feats


def stdlib_png_decode_batch(batch: pa.Table, feature_dim: int = 8) -> pa.Table:
    """The decode stage without PIL: actual pixel decoding for baseline
    PNGs via the stdlib codec above (width, height, grid-mean features
    over the greyscale flatten); non-image media and undecodable
    payloads fall back to byte statistics so the output schema never
    changes."""
    return _decode_rows(batch, _png_one, feature_dim)


def _pil_one(media_type: str, payload: bytes, dim: int):
    if not media_type.startswith("image/"):
        return _byte_features(payload, dim)
    try:
        img = _PILImage.open(io.BytesIO(payload))
        w, h = img.size
        gray = np.asarray(
            img.convert("L").resize((dim, 1)), dtype=np.float64
        ).reshape(-1)
    except Exception:
        return _byte_features(payload, dim)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    ph = int.from_bytes(digest, "big") - (1 << 63)
    feats = [round(float(v) / 255.0, 6) for v in gray]
    return ph, int(w), int(h), feats


def pil_decode_batch(batch: pa.Table, feature_dim: int = 8) -> pa.Table:
    """The production decode stage: images decode through PIL (width,
    height, grayscale grid-mean features); non-image media and
    undecodable payloads fall back to the byte-statistics features so
    the output schema never changes. Requires the optional PIL
    dependency — ``default_decoder()`` auto-selects."""
    if _PILImage is None:
        raise NotImplementedError(
            "PIL is not available in this environment; "
            "default_decoder() falls back to stdlib_png_decode_batch"
        )
    return _decode_rows(batch, _pil_one, feature_dim)


def default_decoder():
    """pil_decode_batch when PIL is importable, the stdlib PNG decoder
    otherwise — same signature and output schema either way (non-PNG
    payloads take the byte-statistics fallback)."""
    return stdlib_png_decode_batch if _PILImage is None else pil_decode_batch


def multimodal_features(sf_dir: str) -> "ray.data.Dataset":
    """The end-to-end multimodal plumbing pipeline: synthesize payloads
    → stateless decode tasks (small batches: binary rows are wide) →
    feature rows. Rows-only correctness (no SQL analog)."""
    payloads = synthesize_payloads(sf_dir)
    return payloads.map_batches(
        default_decoder(),
        batch_format="pyarrow",
        batch_size=64,       # wide binary rows -> small batches
    )


def multimodal_meta(sf_dir: str) -> "ray.data.Dataset":
    """The DuckDB-oracled twin of ``multimodal_features``: the SAME
    synthesize → decode-task pipeline, projected to the columns
    with an exact SQL analog (media type routing + payload byte size —
    the (md5, dimensions) metadata shape image_harvest.py writes back,
    harvester/image_harvest.py:106-165). Proves the decode plumbing
    (batch size, schema) under the value-hash gate;
    the hash/feature columns stay rows-only in multimodal_features."""
    return multimodal_features(sf_dir).map_batches(
        lambda t: t.select(["doc_id", "media_type", "n_bytes"]),
        batch_format="pyarrow",
    )


def synthesize_png_payloads(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic VALID baseline PNGs derived from the documents
    table alone: per doc, dimensions from doc_id, pixels from an LCG
    seeded by doc_id, greyscale/RGB alternating — encoded with the
    row-cycling scanline filters so every unfilter branch runs."""

    def make(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        payloads = []
        for did in ids:
            d = int(did) & 0x7FFFFFFF
            w = 4 + d % 13
            h = 3 + (d >> 3) % 11
            ch = 1 if d % 2 == 0 else 3
            # 32-bit LCG stream, one byte per pixel component
            n = w * h * ch
            x = np.empty(n, dtype=np.uint64)
            s = np.uint64(d * 2654435761 % (1 << 32) or 1)
            a, c, m = (
                np.uint64(1664525),
                np.uint64(1013904223),
                np.uint64(1 << 32),
            )
            for i in range(n):
                s = (a * s + c) % m
                x[i] = s >> np.uint64(16)
            px = (x & np.uint64(0xFF)).astype(np.uint8)
            px = px.reshape((h, w) if ch == 1 else (h, w, 3))
            payloads.append(png_encode(px))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "media_type": pa.array(
                    ["image/png"] * len(ids), pa.string()
                ),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(make, batch_format="pyarrow")


def png_stats_batch(batch: pa.Table) -> pa.Table:
    """Stateless task: (doc_id, width, height, px_sum, n_px) per
    decoded PNG payload."""
    ws, hs, sums, ns = [], [], [], []
    for payload in batch["payload"].to_pylist():
        w, h, px = png_decode(payload)
        ws.append(w)
        hs.append(h)
        sums.append(int(px.astype(np.int64).sum()))
        ns.append(int(px.size))
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "width": pa.array(ws, pa.int64()),
            "height": pa.array(hs, pa.int64()),
            "px_sum": pa.array(sums, pa.int64()),
            "n_px": pa.array(ns, pa.int64()),
        }
    )


def png_image_stats(sf_dir: str) -> "ray.data.Dataset":
    """REAL image decoding under the gate (rows-only; golden pytest in
    tests/test_multimodal_png.py): synthesize valid PNGs → stateless
    stdlib decode (zlib inflate + full scanline unfiltering) →
    (doc_id, width, height, px_sum, n_px) with px_sum the exact
    integer sum of every decoded component — any pixel error anywhere
    changes the row. Reference analog: image_harvest.py fetches,
    content-probes and records image dimensions
    (harvester/image_harvest.py:106-165)."""
    return synthesize_png_payloads(sf_dir).map_batches(
        png_stats_batch,
        batch_format="pyarrow",
        batch_size=64,       # wide binary rows -> small batches
    )


# video frame-sampling parameters: FRAME_BYTES bytes per synthetic
# frame, keep every FRAME_STRIDE-th frame (fps downsample)
FRAME_BYTES = 32
FRAME_STRIDE = 3


def frame_sample_batch(
    batch: pa.Table, frame_bytes: int = FRAME_BYTES, stride: int = FRAME_STRIDE
) -> pa.Table:
    """Frame-sampling task for video payloads: split the opaque payload
    into fixed-size frames, keep every ``stride``-th one, emit one row
    per sampled frame — the 1→N explode a video pipeline runs before
    per-frame feature extraction. The "decode" is the deterministic
    fixed-window rule (no video libs in this container) but the
    plumbing — small wide-row batches, explode output layout — is the
    production shape.
    """
    ids, idxs, totals, md5s = [], [], [], []
    fb = frame_bytes
    for did, mt, payload in zip(
        batch["doc_id"].to_pylist(),
        batch["media_type"].to_pylist(),
        batch["payload"].to_pylist(),
    ):
        if not (mt or "").startswith("video/") or not payload:
            continue
        n_frames = (len(payload) + fb - 1) // fb
        for i in range(0, n_frames, stride):
            ids.append(did)
            idxs.append(i)
            totals.append(n_frames)
            # fingerprint = md5 of the frame's UPPERCASE HEX: hex is
            # injective, so this pins the exact frame BYTES while
            # staying SQL-expressible for any payload (DuckDB md5 takes
            # VARCHAR only — raw-blob md5 would silently force an
            # ascii-text assumption on the twin)
            md5s.append(
                hashlib.md5(
                    payload[i * fb:(i + 1) * fb].hex().upper().encode()
                ).hexdigest()
            )
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "frame_idx": pa.array(idxs, pa.int64()),
            "n_frames": pa.array(totals, pa.int64()),
            "frame_md5": pa.array(md5s, pa.string()),
        }
    )


def frame_sample(sf_dir: str) -> "ray.data.Dataset":
    """Sampled-frame rows for every video-typed payload:
    (doc_id, frame_idx, n_frames, frame_md5). Stateless-task explode with
    small batches (wide binary rows); frame content is pinned by
    md5-of-hex so the window/stride arithmetic AND the sliced bytes sit
    under the value-hash gate for ANY payload bytes (the SQL twin
    slices to_hex(encode(text)) — exact byte windows even when a frame
    boundary splits a multi-byte character)."""
    return synthesize_payloads(sf_dir).map_batches(
        frame_sample_batch, batch_format="pyarrow", batch_size=64
    )
