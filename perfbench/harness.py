"""Process, Ray and measurement helpers shared by the workloads."""

from __future__ import annotations

import logging
import os
import shutil
import signal
import time

import numpy as np

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
# Everything a run writes lives here (inputs, program outputs, Ray's
# session dir, span dumps).  Kept short: Ray puts unix sockets under it
# and AF_UNIX paths are capped at 107 bytes.
WORK = os.path.join(ROOT, ".pb")


def run_dir(tag: str) -> str:
    d = os.path.join(WORK, f"{tag}-{os.getpid()}")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


def _ray_temp_dir() -> str | None:
    """The run's Ray temp dir inside the checkout, or None (Ray's
    default) when the checkout path is too long for Ray's sockets."""
    probe = os.path.join(
        WORK, f"session_2000-01-01_00-00-00_000000_{os.getpid()}.9", "sockets", "plasma_store"
    )
    return WORK if len(probe.encode()) <= 107 else None


class RayCluster:
    """A local Ray cluster owned by this process: ``start`` it, ``stop``
    it, and every process it spawned has exited when ``stop`` returns."""

    def __init__(self, num_cpus: int):
        self.num_cpus = num_cpus
        self.session_dir: str | None = None

    def start(self) -> None:
        import ray
        import ray.data

        os.makedirs(WORK, exist_ok=True)
        # Ray workers import the program from the checkout
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
        )
        os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
        ray.init(
            num_cpus=self.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=512 * 1024**2,
            _temp_dir=_ray_temp_dir(),
        )
        ray.data.DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        self.session_dir = ray._private.worker._global_node.get_session_dir_path()

    def stop(self) -> None:
        stop_ray()
        if self.session_dir and self.session_dir.startswith(WORK + os.sep):
            shutil.rmtree(self.session_dir, ignore_errors=True)
        self.session_dir = None


def stop_ray(timeout: float = 60.0) -> None:
    """Shut down this process's Ray session, if any, and wait for every
    child process to end."""
    import sys

    if "ray" in sys.modules and sys.modules["ray"].is_initialized():
        sys.modules["ray"].shutdown()
    wait_children(timeout)


def _ppid_map() -> dict[int, int]:
    out = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as f:
                    stat = f.read()
            except OSError:
                continue
            out[int(name)] = int(stat.rsplit(")", 1)[1].split()[1])
    return out


def descendants(pid: int | None = None) -> list[int]:
    pid = pid or os.getpid()
    parent = _ppid_map()
    out = []
    for p in parent:
        q = parent.get(p)
        while q and q != 1:
            if q == pid:
                out.append(p)
                break
            q = parent.get(q)
    return out


def wait_children(timeout: float) -> None:
    """Wait until every descendant process has exited; kill what is
    left after ``timeout`` seconds and reap it."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        left = descendants()
        if not left:
            return
        if time.monotonic() > deadline:
            for p in left:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 10.0
        time.sleep(0.05)


def pss_mb() -> float:
    """Proportional set size of this process and all its descendants."""
    kb = 0
    for p in [os.getpid(), *descendants()]:
        try:
            with open(f"/proc/{p}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return kb / 1024.0


def spin_mips(seconds: float = 0.3) -> float:
    """Millions of interpreter loop iterations per second: the host's
    speed at the time of the run."""
    n = 0
    t0 = time.perf_counter()
    end = t0 + seconds
    while time.perf_counter() < end:
        for _ in range(1000):
            pass
        n += 1000
    return n / (time.perf_counter() - t0) / 1e6


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total
