"""Per-key top-k: for every key, the first k rows under a total order.

The one ranking primitive behind the pipelines' grouped top-k
queries (per-query result lists, per-prefix term lists, per-source
caps, ...). Every call runs the same two steps:

  1. a per-block pre-prune — sort the block by key + order and keep
     the rows whose segmented rank within their key is below k, so the
     shuffle carries at most k rows per (block, key): O(keys x k x
     blocks), never the input;
  2. ``groupby(key).map_groups`` with one finalizer — sort the group,
     take k, and emit the key column(s), an optional int64 rank 1..k
     and the requested columns.

Columns a caller derives from the ranked rows (fixed-point rounding,
rank offsets) are one small ``map_batches`` before or after the call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

if TYPE_CHECKING:  # pragma: no cover
    import ray.data


def _prune_block(keys: list[str], order: list[tuple[str, str]], k: int):
    def prune(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or t.num_rows == 0:  # empty shuffle block
            return t
        t = t.sort_by([(c, "ascending") for c in keys] + order)
        change = np.zeros(t.num_rows, dtype=bool)
        change[0] = True
        for c in keys:
            v = t[c].to_numpy(zero_copy_only=False)
            change[1:] |= v[1:] != v[:-1]
        starts = np.flatnonzero(change)
        seg = np.cumsum(change) - 1
        pos = np.arange(t.num_rows) - starts[seg]
        return t.filter(pa.array(pos < k))

    return prune


def _finalize(
    keys: list[str],
    order: list[tuple[str, str]],
    k: int,
    rank: str | None,
    columns: list[str],
):
    def finalize(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(g, sort_keys=order)[:k])
        out = {c: g[c] for c in keys}
        if rank is not None:
            out[rank] = pa.array(
                np.arange(1, g.num_rows + 1, dtype=np.int64), pa.int64()
            )
        out.update((c, g[c]) for c in columns)
        return pa.table(out)

    return finalize


def topk_per_key(
    ds: "ray.data.Dataset",
    key: str | list[str],
    order: list[tuple[str, str]],
    k: int,
    columns: list[str],
    rank: str | None = None,
) -> "ray.data.Dataset":
    """Per distinct ``key``, the first ``k`` rows under ``order`` (a
    pyarrow sort-key list of ``(column, "ascending"|"descending")``).

    Output columns, in this order: the key column(s); ``rank`` (int64,
    1..k within the key) when named; then ``columns``. Column types
    are the input's.

    The per-block pre-prune is exact only when ``order`` is a total
    order within each key, i.e. its last column is unique per key
    (``doc_id`` within a query, ``term`` within a prefix, ...): then
    every row of a key's global top k is in its block's top k."""
    keys = [key] if isinstance(key, str) else list(key)
    return (
        ds.map_batches(_prune_block(keys, order, k), batch_format="pyarrow")
        .groupby(key)
        .map_groups(
            _finalize(keys, order, k, rank, columns),
            batch_format="pyarrow",
        )
    )
