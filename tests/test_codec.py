import numpy as np
import pytest

from harvester_ray.functions.codec import varint_decode, varint_encode


def test_roundtrip_small():
    vals = np.array([0, 1, 127, 128, 129, 300, 2**14 - 1, 2**14, 2**21], np.uint64)
    assert list(varint_decode(varint_encode(vals))) == list(vals)


def test_roundtrip_empty():
    assert varint_encode(np.empty(0, np.uint64)) == b""
    assert len(varint_decode(b"")) == 0


def test_roundtrip_u64_extremes():
    vals = np.array([2**63, 2**64 - 1, 0, 2**32, 2**63 - 1], np.uint64)
    assert list(varint_decode(varint_encode(vals))) == list(vals)


def test_roundtrip_random():
    rng = np.random.default_rng(42)
    for scale in (1 << 7, 1 << 20, 1 << 40, 1 << 63):
        vals = rng.integers(0, scale, size=5000, dtype=np.uint64)
        out = varint_decode(varint_encode(vals))
        np.testing.assert_array_equal(out, vals)


def test_known_encoding():
    # LEB128: 300 = 0b100101100 -> AC 02
    assert varint_encode(np.array([300], np.uint64)) == b"\xac\x02"
    assert varint_encode(np.array([1], np.uint64)) == b"\x01"


def test_signed_deltas_roundtrip_via_view():
    ids = np.sort(np.random.default_rng(7).integers(-(2**62), 2**62, 100, np.int64))
    gaps = np.empty(len(ids), np.uint64)
    gaps[0] = 0
    np.subtract(ids[1:], ids[:-1], out=gaps[1:], casting="unsafe")
    back = varint_decode(varint_encode(gaps)).view(np.int64).cumsum() + ids[0]
    np.testing.assert_array_equal(back, ids)


def test_codec_property_roundtrips():
    """Hypothesis: arbitrary uint64 arrays round-trip through varint,
    and varint offsets slice-decode consistently."""
    import numpy as np
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from harvester_ray.functions.codec import (
        varint_decode,
        varint_encode_offsets,
    )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**64 - 1), max_size=300
        )
    )
    def check(vals):
        v = np.array(vals, dtype=np.uint64)
        buf, ends = varint_encode_offsets(v)
        assert np.array_equal(varint_decode(buf), v)
        if len(v):
            assert int(ends[-1]) == len(buf)
            # any prefix slices out the prefix values
            k = len(v) // 2
            if k:
                assert np.array_equal(
                    varint_decode(buf[: ends[k - 1]]), v[:k]
                )

    check()


def test_corrupt_block_stream_raises_value_error():
    """decode_all checks the bytes it read from disk with an explicit
    error, not an assert that ``python -O`` strips: one block whose gap
    stream carries an extra zero gap (two block starts for one block)
    is rejected."""
    from harvester_ray.index.query import _TermBlocks

    def col(values):
        buf = varint_encode(np.array(values, np.uint64))
        return memoryview(buf), np.array([0, len(buf)], np.int64)

    tb = _TermBlocks(
        np.array([10], np.int64), np.array([13], np.int64),
        np.array([1.0]), 1.0,
        col([0, 0, 3]), col([1, 1, 1]), col([5, 5, 5]),
    )
    with pytest.raises(ValueError, match="corrupt block stream"):
        tb.decode_all()
    ok = _TermBlocks(
        np.array([10], np.int64), np.array([13], np.int64),
        np.array([1.0]), 1.0,
        col([0, 1, 2]), col([1, 2, 1]), col([5, 6, 5]),
    )
    ids, tf, dl = ok.decode_all()
    assert ids.tolist() == [10, 11, 13]
    assert tf.tolist() == [1, 2, 1] and dl.tolist() == [5, 6, 5]


def test_non_varint_source_is_rejected(tmp_path, ray_session):
    """A source whose stats.json names another block codec is refused by
    every open (preload, lazy, reopen, a serving cell) and by
    merge_sources, which raises before it touches its out dir; reading
    the varint bytes with another decoder would serve wrong postings."""
    import json
    import os

    import ray.data

    from harvester_ray.corpus import generate_zipf_docs
    from harvester_ray.index.build import build_index
    from harvester_ray.index.maintenance import merge_sources
    from harvester_ray.index.query import InvertedIndex

    docs = generate_zipf_docs(200, vocab_size=300, mean_len=30, seed=5)
    idx_dir = str(tmp_path / "idx")
    paths = build_index(ray.data.from_arrow(docs), idx_dir, n_docs=len(docs))
    with open(paths.stats) as f:
        stats = json.load(f)
    assert stats["codec"] == "varint"
    live = InvertedIndex(idx_dir)
    assert live.search("w0 w1", k=5)

    stats["codec"] = "for"
    with open(paths.stats, "w") as f:
        json.dump(stats, f)
    for kwargs in ({"preload": True}, {"preload": False},
                   {"term_shard": (0, 2)}):
        with pytest.raises(ValueError, match="'for'"):
            InvertedIndex(idx_dir, **kwargs)
    with pytest.raises(ValueError, match="'for'"):
        live.reopen()

    out_dir = tmp_path / "merged"
    out_dir.mkdir()
    (out_dir / "keep.bin").write_bytes(b"previous contents")

    def snapshot():
        return {
            os.path.relpath(os.path.join(r, f), out_dir):
                open(os.path.join(r, f), "rb").read()
            for r, _, fs in os.walk(out_dir) for f in fs
        }

    before = snapshot()
    with pytest.raises(ValueError, match="'for'"):
        merge_sources(idx_dir, str(out_dir))
    assert snapshot() == before
