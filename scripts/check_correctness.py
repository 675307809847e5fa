"""Local replica of the driver's correctness gate.

Runs every __ray_entry__.queries() entry at the given sf_dir, runs the
matching oracle_sql() in DuckDB over the same parquet views, and
compares row count, schema (column names) and an order-insensitive
value hash (values rounded-stringified, rows sorted).

Usage: python scripts/check_correctness.py [sf_dir] [name ...]

Per-entry time budget: the external driver records only what fits its
window, so a single slow entry is a coverage regression even when
correct. Entries over GATE_SOFT_BUDGET seconds are flagged in the log;
any entry over GATE_HARD_BUDGET fails the gate (tunable via the
HR_GATE_SOFT_BUDGET / HR_GATE_HARD_BUDGET env vars).

Exit status: 0 when every entry passes, 1 when any entry raised or
returned wrong values, EXIT_BUDGET_ONLY (2) when every failure is a
correct entry that only exceeded the hard time budget.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()

# seconds per entry: soft = flagged in the log, hard = gate failure.
# The slowest healthy entry in the round-4 judge run was 2.7 s at
# sf0.01/8cpu; 10 s of headroom separates noise from regression.
GATE_SOFT_BUDGET = float(os.environ.get("HR_GATE_SOFT_BUDGET", "10"))
GATE_HARD_BUDGET = float(os.environ.get("HR_GATE_HARD_BUDGET", "45"))
EXIT_BUDGET_ONLY = 2


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> str:
    import hashlib

    parts = []
    for c in df.columns:
        col = df[c]
        if col.dtype.kind == "f":
            parts.append(col.round(6).astype(str))
        else:
            parts.append(col.astype(str))
    blob = "\x1f".join("\x1e".join(p) for p in parts)
    return hashlib.md5(blob.encode()).hexdigest()


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    try:  # worker-side twin of the driver filters below (bench.py)
        from bench import _install_worker_log_config

        _install_worker_log_config()
    except Exception:
        pass  # cosmetic only — never block the gate on it

    ray.init(
        address="local", num_cpus=8, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    # Same cosmetic-warning filters as bench.py: Ray's aggregate
    # shuffle warns once per EMPTY shuffle partition ("RefBundle with a
    # different schema") and pyarrow cannot hash the testdata writer's
    # pandas schema metadata ("Failed to hash the schemas") — both are
    # upstream cosmetics, dropped so the committed gate log stays
    # readable.
    import logging

    class _DropCosmeticWarns(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:
            msg = record.getMessage()
            return (
                "RefBundle with a different schema" not in msg
                and "Failed to hash the schemas" not in msg
            )

    for name in (
        "ray.data._internal.execution.streaming_executor_state",
        "ray.data._internal.arrow_ops.transform_pyarrow",
    ):
        logging.getLogger(name).addFilter(_DropCosmeticWarns())

    import __ray_entry__ as entry

    qs = entry.queries()
    sqls = entry.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{p}'")

    n_pass = n_fail = n_over_hard = 0
    over_soft: list[tuple[str, float]] = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL {name}: ray pipeline raised: {type(e).__name__}: {e}")
            n_fail += 1
            continue
        dt = time.time() - t0
        over_hard = dt > GATE_HARD_BUDGET
        if over_hard:
            print(
                f"FAIL {name}: {dt:.1f}s exceeds the hard per-entry "
                f"budget ({GATE_HARD_BUDGET:.0f}s) — would starve the "
                "driver's window"
            )
        elif dt > GATE_SOFT_BUDGET:
            over_soft.append((name, dt))
            print(
                f"SLOW {name}: {dt:.1f}s over the soft budget "
                f"({GATE_SOFT_BUDGET:.0f}s)"
            )
        if name not in sqls:
            print(f"ok   {name}: rows-only ({len(mine)} rows, {dt:.1f}s)")
            n_over_hard += over_hard
            n_pass += not over_hard
            continue
        oracle = canon(con.execute(sqls[name]).fetchdf())
        problems = []
        if len(mine) != len(oracle):
            problems.append(f"rows {len(mine)} != {len(oracle)}")
        if list(mine.columns) != list(oracle.columns):
            problems.append(f"cols {list(mine.columns)} != {list(oracle.columns)}")
        elif value_hash(mine) != value_hash(oracle):
            problems.append("value hash mismatch")
            diff = (mine.astype(str) != oracle.astype(str)) if len(mine) == len(oracle) else None
            if diff is not None and diff.values.any():
                i = diff.any(axis=1).idxmax()
                problems.append(f"first diff row {i}: mine={mine.loc[i].tolist()} oracle={oracle.loc[i].tolist()}")
        if problems:
            print(f"FAIL {name}: {'; '.join(problems)}")
            n_fail += 1
        elif over_hard:
            print(f"ok   {name}: values match, over the hard budget")
            n_over_hard += 1
        else:
            print(f"PASS {name} ({len(mine)} rows, {dt:.1f}s)")
            n_pass += 1
    if over_soft:
        worst = ", ".join(f"{n}={t:.1f}s" for n, t in over_soft)
        print(f"\nbudget: {len(over_soft)} over soft {GATE_SOFT_BUDGET:.0f}s "
              f"(hard {GATE_HARD_BUDGET:.0f}s): {worst}")
    else:
        print(f"\nbudget: all entries under the soft "
              f"{GATE_SOFT_BUDGET:.0f}s per-entry budget")
    print(f"{n_pass} pass, {n_fail + n_over_hard} fail")
    if n_over_hard:
        print(f"({n_over_hard} of the failures only exceeded the hard budget)")
    ray.shutdown()
    sys.exit(1 if n_fail else EXIT_BUDGET_ONLY if n_over_hard else 0)


if __name__ == "__main__":
    main()
