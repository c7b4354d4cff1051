"""The few ``/proc`` reads the harness needs (Linux only)."""

from __future__ import annotations

import os

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def proc_table() -> list[tuple[int, str, int, int]]:
    """``(pid, state, ppid, sid)`` of every process in ``/proc``."""
    table: list[tuple[int, str, int, int]] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="latin-1") as handle:
                stat = handle.read()
        except OSError:  # exited between listdir and open
            continue
        # comm may hold spaces and parentheses: fields resume after the last ')'
        fields = stat[stat.rfind(")") + 2:].split()
        table.append((int(entry), fields[0], int(fields[1]), int(fields[3])))
    return table


def session_pids(sids: set[int]) -> list[tuple[int, str]]:
    """``(pid, state)`` of every process whose session id is in ``sids``."""
    return [(pid, state) for pid, state, _, sid in proc_table() if sid in sids]


def cpu_seconds(pid: int) -> float:
    """User + system CPU time ``pid`` has consumed (all its threads)."""
    with open(f"/proc/{pid}/stat", encoding="latin-1") as handle:
        stat = handle.read()
    fields = stat[stat.rfind(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_S


def rss_mb(pids: list[int]) -> float:
    """Sum of ``VmRSS`` over ``pids``, in MB (zombies hold none)."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="latin-1") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def shard_worker_pids(server_pid: int) -> list[int]:
    """The server's ``multiprocessing`` workers (not its resource tracker)."""
    workers = []
    for pid, _, ppid, _ in proc_table():
        if ppid != server_pid:
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        if b"spawn_main" in cmdline:
            workers.append(pid)
    return sorted(workers)
