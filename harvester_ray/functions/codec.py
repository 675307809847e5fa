"""Vectorized varint (LEB128) codec for posting blocks.

The segment format (FIXTURES.md §3) stores per-block ``doc_id_deltas``,
``tfs`` and ``doc_lens`` as unsigned-varint byte strings. Both encode
and decode are numpy-vectorized: the only Python-level loop is over the
byte *width* (≤ 10 for uint64), never over values — this is the hot
path of segment encode (build) and posting decode (query).

Encoding: standard LEB128 — 7 value bits per byte, high bit = continue.
"""

from __future__ import annotations

import numpy as np

_U7 = np.uint64(7)
_U127 = np.uint64(0x7F)


def varint_encode_offsets(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Encode a uint64-castable ndarray as concatenated LEB128 varints.

    Returns ``(buffer, ends)`` where ``ends[i]`` is the byte offset just
    past value ``i`` — callers can slice the buffer into sub-ranges
    (e.g. per posting block) without re-encoding.
    """
    v = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(v)
    if n == 0:
        return b"", np.empty(0, dtype=np.int64)
    # bytes needed per value: one comparison pass per byte width, up to
    # the actual maximum (vmax check short-circuits; ≤ 10 for uint64)
    nb = np.ones(n, dtype=np.int64)
    vmax = int(v.max())
    thresh = 1 << 7
    while vmax >= thresh and thresh < (1 << 63):
        nb += v >= np.uint64(thresh)
        thresh <<= 7
    if vmax >= (1 << 63):
        nb += v >= np.uint64(1 << 63)
    max_w = int(nb.max())
    # (n, max_w) byte matrix built with one shift pass per width, then
    # compressed by the per-value width mask — C-order ravel keeps each
    # value's bytes consecutive. ~3 passes over n*max_w bytes total vs
    # ~15 masked full-uint64 passes for the scatter formulation
    # (measured 5-8x faster at realistic gap/tf widths).
    m = np.empty((n, max_w), dtype=np.uint8)
    shifted = v
    for k in range(max_w):
        np.bitwise_and(shifted, _U127, out=m[:, k], casting="unsafe")
        if k + 1 < max_w:
            shifted = shifted >> _U7
    cols = np.arange(max_w, dtype=np.int64)
    m |= (cols[None, :] < (nb - 1)[:, None]).view(np.uint8) << 7
    out = m[cols[None, :] < nb[:, None]]
    ends = np.cumsum(nb)
    return out.tobytes(), ends


def varint_encode(values: np.ndarray) -> bytes:
    """Encode a uint64-castable ndarray as concatenated LEB128 varints."""
    return varint_encode_offsets(values)[0]


def varint_decode(buf: bytes) -> np.ndarray:
    """Decode concatenated LEB128 varints -> uint64 ndarray."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    ends = np.nonzero((b & 0x80) == 0)[0]
    starts = np.empty(len(ends), dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    vals = np.zeros(len(ends), dtype=np.uint64)
    for k in range(int(lengths.max())):
        m = lengths > k
        vals[m] |= (b[starts[m] + k].astype(np.uint64) & _U127) << np.uint64(7 * k)
    return vals
