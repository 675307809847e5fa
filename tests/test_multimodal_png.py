"""Stdlib baseline-PNG codec + the png_image_stats gate entry: real
pixel decoding (zlib inflate + all five scanline unfilters) without
PIL. The decoder is pinned three ways: an encoder-independent
hand-built PNG, full round-trips over adversarial shapes, and an
independent recompute of the pipeline's exact integer pixel sums."""

import struct
import zlib

import numpy as np
import pyarrow as pa
import pytest

from harvester_ray.stages.multimodal import (
    png_decode,
    png_encode,
    stdlib_png_decode_batch,
    synthesize_png_payloads,
)


def _hand_png(px: np.ndarray) -> bytes:
    """Independent minimal writer (filter 0 only) — shares NO code
    with png_encode, so decode(hand) pins the decoder itself."""
    if px.ndim == 2:
        px = px[:, :, None]
    h, w, ch = px.shape
    raw = b"".join(b"\x00" + px[y].tobytes() for y in range(h))

    def chunk(t, d):
        return (
            struct.pack(">I", len(d))
            + t
            + d
            + struct.pack(">I", zlib.crc32(t + d) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0 if ch == 1 else 2, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw))
        + chunk(b"IEND", b"")
    )


def test_decode_hand_built_png():
    rng = np.random.RandomState(1)
    for shape in [(5, 7), (5, 7, 3), (1, 1), (3, 1, 3)]:
        px = rng.randint(0, 256, size=shape, dtype=np.uint8)
        w, h, got = png_decode(_hand_png(px))
        assert (w, h) == (shape[1], shape[0])
        want = px if px.ndim == 3 else px[:, :, None]
        assert np.array_equal(got, want)


def test_round_trip_exercises_every_filter():
    """png_encode cycles filters 0..4 by row, so h >= 5 runs every
    unfilter branch; adversarial shapes include single-pixel rows and
    gradient rows where Sub/Paeth predictions are nontrivial."""
    rng = np.random.RandomState(2)
    shapes = [(6, 9), (6, 9, 3), (5, 1), (5, 1, 3), (7, 2), (12, 4, 3)]
    for shape in shapes:
        px = rng.randint(0, 256, size=shape, dtype=np.uint8)
        w, h, got = png_decode(png_encode(px))
        want = px if px.ndim == 3 else px[:, :, None]
        assert (w, h) == (shape[1], shape[0])
        assert np.array_equal(got, want), shape
    # smooth gradient: filters actually compress (sanity the path is
    # not a no-op filter 0 everywhere)
    grad = np.add.outer(
        np.arange(16, dtype=np.uint8) * 3, np.arange(24, dtype=np.uint8)
    ).astype(np.uint8)
    w, h, got = png_decode(png_encode(grad))
    assert np.array_equal(got[:, :, 0], grad)


def test_decoder_rejects_corruption_and_unsupported():
    px = np.arange(25, dtype=np.uint8).reshape(5, 5)
    blob = bytearray(png_encode(px))
    blob[40] ^= 0xFF  # flip a byte inside IHDR/IDAT territory
    with pytest.raises(ValueError):
        png_decode(bytes(blob))
    with pytest.raises(ValueError):
        png_decode(b"not a png at all")
    # 16-bit depth is out of the baseline subset: patch IHDR + its CRC
    deep = bytearray(png_encode(px))
    deep[24] = 16  # bit-depth byte inside IHDR
    body = bytes(deep[12:12 + 4 + 13])
    deep[29:33] = struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF)
    with pytest.raises(ValueError):
        png_decode(bytes(deep))


def test_stdlib_decoder_stage_schema_and_fallback():
    """stdlib_png_decode_batch: PNG payloads get REAL (width, height) and
    pixel-derived features; non-image payloads keep the byte-stats
    schema — one batch, both paths."""
    px = np.arange(48, dtype=np.uint8).reshape(4, 12)
    batch = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "media_type": pa.array(["image/png", "audio/fake"]),
            "payload": pa.array(
                [png_encode(px), b"raw-bytes"], pa.binary()
            ),
        }
    )
    out = stdlib_png_decode_batch(batch)
    assert out.column_names == [
        "doc_id", "media_type", "n_bytes", "payload_hash",
        "width", "height", "features",
    ]
    assert out["width"][0].as_py() == 12
    assert out["height"][0].as_py() == 4
    feats = out["features"][0].as_py()
    assert len(feats) == 8
    # greyscale mean of the known gradient, band 0 = mean of px[0,:6]/255
    assert feats[0] == round(float(px.reshape(-1)[:6].mean()) / 255.0, 6)


def _lcg_pixels(doc_id: int):
    """Independent replica of synthesize_png_payloads' pixel rule."""
    d = int(doc_id) & 0x7FFFFFFF
    w = 4 + d % 13
    h = 3 + (d >> 3) % 11
    ch = 1 if d % 2 == 0 else 3
    n = w * h * ch
    s = (d * 2654435761) % (1 << 32) or 1
    out = np.empty(n, dtype=np.uint8)
    for i in range(n):
        s = (1664525 * s + 1013904223) % (1 << 32)
        out[i] = (s >> 16) & 0xFF
    return w, h, out.reshape((h, w) if ch == 1 else (h, w, 3))


def test_png_image_stats_matches_independent_recompute(ray_session):
    """The gate entry end to end at sf0.001: every (width, height,
    px_sum, n_px) row equals the from-scratch LCG recompute — the
    decode path cannot silently drift anywhere in 500 images."""
    from tests.conftest import SF_SMOKE

    from harvester_ray.stages.multimodal import png_image_stats

    got = (
        png_image_stats(SF_SMOKE)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(got) == 500
    rng = np.random.RandomState(0)
    sample = rng.choice(len(got), size=40, replace=False)
    for i in sample:
        row = got.iloc[i]
        w, h, px = _lcg_pixels(row["doc_id"])
        assert row["width"] == w and row["height"] == h
        assert row["n_px"] == px.size
        assert row["px_sum"] == int(px.astype(np.int64).sum())


def test_synthesized_pngs_are_valid_and_multiform(ray_session):
    """The synthesized corpus mixes greyscale and RGB and every blob
    decodes (no silent byte-stats fallback in png_image_stats)."""
    from tests.conftest import SF_SMOKE

    rows = (
        synthesize_png_payloads(SF_SMOKE).limit(20).take_all()
    )
    chans = set()
    for r in rows:
        w, h, px = png_decode(r["payload"])
        chans.add(px.shape[2])
        assert w >= 4 and h >= 3
    assert chans == {1, 3}
