"""topk_per_key against a pandas brute force on seeded random data."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from harvester_ray.stages.topk import _prune_block, topk_per_key

# ties in the leading order column (3 values), broken by the unique id
ORDER = [("s", "descending"), ("id", "ascending")]


def _blocks(seed: int, n_blocks: int = 5, rows: int = 60) -> list[pa.Table]:
    rng = np.random.default_rng(seed)
    out, next_id = [], 0
    for _ in range(n_blocks):
        ids = np.arange(next_id, next_id + rows, dtype=np.int64)
        rng.shuffle(ids)
        next_id += rows
        out.append(
            pa.table(
                {
                    "a": pa.array(rng.integers(0, 4, rows), pa.int64()),
                    "b": pa.array(rng.choice(["x", "y", "z"], rows)),
                    "s": pa.array(rng.integers(0, 3, rows), pa.int64()),
                    "id": pa.array(ids),
                    "p": pa.array(rng.random(rows)),
                }
            )
        )
    return out


def _brute(df: pd.DataFrame, keys, k: int, rank, columns) -> pd.DataFrame:
    df = df.sort_values(
        keys + [c for c, _ in ORDER],
        ascending=[True] * len(keys) + [d == "ascending" for _, d in ORDER],
    )
    top = df.groupby(keys, sort=False).head(k).copy()
    if rank is not None:
        top[rank] = top.groupby(keys, sort=False).cumcount() + 1
    return top[keys + ([rank] if rank else []) + columns]


@pytest.mark.parametrize(
    "key, k, rank",
    [
        ("a", 3, "rank"),
        (["a", "b"], 1, "rank"),
        ("a", 10_000, "pos"),    # k larger than every group
        ("b", 7, None),          # no rank column
    ],
)
def test_topk_per_key_matches_brute_force(ray_session, key, k, rank):
    blocks = _blocks(seed=k)
    keys = [key] if isinstance(key, str) else key
    columns = ["id", "s", "p"]
    ds = ray.data.from_arrow(blocks + [pa.table({})])
    got = topk_per_key(ds, key, ORDER, k, columns, rank=rank).to_pandas()
    want = _brute(
        pa.concat_tables(blocks).to_pandas(), keys, k, rank, columns
    )

    assert list(got.columns) == list(want.columns)
    if rank is not None:
        assert got[rank].dtype == np.int64
    by = keys + ["id"]
    pd.testing.assert_frame_equal(
        got.sort_values(by).reset_index(drop=True),
        want.sort_values(by).reset_index(drop=True),
        check_dtype=False,
    )


def test_prune_block_keeps_k_per_key_and_passes_empty_blocks():
    prune = _prune_block(["a"], ORDER, 2)
    empty = pa.table({})
    assert prune(empty) is empty  # 0-column shuffle block

    t = _blocks(seed=1, n_blocks=1)[0]
    got = prune(t).to_pandas()
    want = _brute(t.to_pandas(), ["a"], 2, None, ["s", "id", "b", "p"])
    assert got["a"].value_counts().max() <= 2
    assert sorted(got["id"]) == sorted(want["id"])
