"""Result bookkeeping shared by every workload: percentiles, failures,
memory, the environment record and the result line."""

from __future__ import annotations

import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "tail_percentile",
    "median",
    "Outcomes",
    "reset_peak_rss",
    "peak_rss_mb",
    "worker_peak_rss_mb",
    "adopt_orphans",
    "stop_children",
    "environment",
    "result_line",
]

#: The tail percentile reported when the sample allows it.
TAIL = 90
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def _quantile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(position)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo))


def tail_percentile(values: list[float], want: int = TAIL) -> tuple[int, float]:
    """The highest percentile up to ``want`` with at least ten samples beyond it.

    Returns ``(percentile, value)``.  With ``n`` samples, a percentile ``p``
    has ``n * (1 - p/100)`` samples beyond it, so the highest admissible
    whole percentile is ``floor(100 * (1 - 10/n))``.  It never drops below
    the median: with fewer than 20 samples there is no tail to report and
    the median is returned, labelled 50.
    """
    if not values:
        raise ValueError("no samples")
    n = len(values)
    admissible = math.floor(100 * (1 - MIN_BEYOND / n)) if n > MIN_BEYOND else 0
    pct = max(50, min(want, admissible))
    return pct, _quantile(values, pct)


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("no samples")
    return float(statistics.median(values))


@dataclass
class Outcomes:
    """Operation accounting behind ``attempted``, ``failed`` and ``failed_frac``.

    An operation fails when it raised, was rejected or retried, or returned
    a result that differs from its reference.  Each failed operation counts
    once, whatever the number of reasons; the reasons are kept for the
    summary.
    """

    attempted: int = 0
    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def record(self, *problems: str) -> bool:
        """Count one operation; ``problems`` lists what went wrong with it."""
        self.attempted += 1
        problems = tuple(p for p in problems if p)
        if problems:
            self.failed += 1
            for problem in problems:
                self.reasons[problem] = self.reasons.get(problem, 0) + 1
        return not problems

    def merge(self, other: "Outcomes") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for reason, count in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + count

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _vm_hwm_mb(pid: int | str) -> float:
    """Peak resident set size (``VmHWM``, MiB) of a process; 0 if unreadable."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def reset_peak_rss() -> None:
    """Lower this process's peak RSS to its current RSS (Linux 4.0+).

    Called before a measured phase, so that :func:`peak_rss_mb` read after
    it leaves out what the untimed reference computation touched.
    """
    Path("/proc/self/clear_refs").write_text("5")


def peak_rss_mb() -> float:
    """Peak resident set size of this process (MiB) since :func:`reset_peak_rss`."""
    return _vm_hwm_mb("self")


def _child_pids(pid: int) -> list[int]:
    pids: list[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return pids
    for task in tasks:
        try:
            pids.extend(int(p) for p in (task / "children").read_text().split())
        except (OSError, ValueError):
            continue
    return pids


def worker_peak_rss_mb() -> float:
    """Largest peak RSS (``VmHWM``, MiB) among this process's live children.

    Call it while the worker farm is still up.  Returns 0 where there are
    no children or ``/proc`` does not expose them.
    """
    return max((_vm_hwm_mb(pid) for pid in _child_pids(os.getpid())), default=0.0)


#: ``prctl`` option that makes orphaned descendants this process's children.
_PR_SET_CHILD_SUBREAPER = 36
#: Seconds a child may take to end before it is killed.
STOP_GRACE_S = 10.0


def adopt_orphans() -> bool:
    """Make this process the parent of every orphaned descendant (Linux).

    A child that exits before its own children (a set-up probe before
    its resource tracker, say) leaves them to this process, so that
    :func:`stop_children` can wait for them too.  False where unsupported.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def stop_children() -> None:
    """Stop multiprocessing's resource tracker, then wait until every child
    has ended; children still alive after ``STOP_GRACE_S`` are killed."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + STOP_GRACE_S
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left
        if pid:
            continue
        now = time.monotonic()
        if now > deadline + STOP_GRACE_S:
            log(f"perfbench: child processes {_child_pids(os.getpid())} would not end")
            return
        if now > deadline:
            for child in _child_pids(os.getpid()):
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else "unknown"


def environment(root: Path, *, n_workers: int) -> dict:
    """What a number needs next to it before it is compared with another."""
    import numpy
    import scipy

    from repro.parallel.base import default_mp_context

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "n_workers": n_workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mp_start_method": default_mp_context().get_start_method(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
    }


def result_line(*, correct: bool, outcomes: Outcomes, metrics: dict[str, tuple[float, str]]) -> str:
    """The benchmark's last line: exactly the four keys the contract names."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(outcomes.attempted),
            "failed": int(outcomes.failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def log(message: str) -> None:
    """Progress notes go to stderr; stdout ends with the result line."""
    print(message, file=sys.stderr, flush=True)
