"""The system under test as real subprocesses, and the leak audit.

Every daemon, shard and router is a *direct* child of the harness
(shards are started here and handed to ``route --shards``; ``--spawn``
would make grandchildren that outlive a killed router).  Their stdout
and stderr go to files, never to pipes nobody drains.  ``Fleet.stop``
is safe to call from ``finally``, a signal handler's unwinding and the
watchdog alike: SIGTERM, wait, SIGKILL, wait.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

_CLK_TCK = os.sysconf("SC_CLK_TCK")
SHM_DIR = Path("/dev/shm")


class SutError(RuntimeError):
    """A SUT process did not start, or died."""


class SutProcess:
    """One ``python -m repro.service <args>`` child, logs in files."""

    def __init__(self, name: str, args: list[str], log_dir: Path) -> None:
        self.name = name
        self.out_path = log_dir / f"{name}.out"
        self.err_path = log_dir / f"{name}.err"
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", *args],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
        self.pid = self.proc.pid

    def wait_ready(self, timeout_s: float = 30.0) -> int:
        """Block until the ``... on HOST:PORT`` line appears; returns PORT."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise SutError(
                    f"{self.name} exited {self.proc.returncode} before ready: "
                    f"{self.err_path.read_text(errors='replace')[-500:]}"
                )
            line = self.out_path.read_text(errors="replace").partition("\n")
            if line[1] and " on " in line[0]:
                return int(line[0].rsplit(":", 1)[1])
            time.sleep(0.005)
        raise SutError(f"{self.name} not ready after {timeout_s}s")


class Fleet:
    """The SUT processes of one set-up cycle, stopped together."""

    def __init__(self, log_dir: Path) -> None:
        self.log_dir = log_dir
        self.members: list[SutProcess] = []

    def spawn(self, name: str, args: list[str]) -> SutProcess:
        member = SutProcess(name, args, self.log_dir)
        self.members.append(member)
        return member

    def pids(self, prefix: str = "") -> list[int]:
        return [m.pid for m in self.members if m.name.startswith(prefix)]

    def check_alive(self) -> None:
        for m in self.members:
            if m.proc.poll() is not None:
                raise SutError(f"{m.name} died with {m.proc.returncode}")

    def stop(self, grace_s: float = 10.0) -> None:
        """SIGTERM (front-end first) -> wait -> SIGKILL -> wait.  Idempotent."""
        members, self.members = self.members[::-1], []
        for m in members:
            if m.proc.poll() is None:
                m.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + grace_s
        for m in members:
            try:
                m.proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                m.proc.kill()
                m.proc.wait()


# -- procfs ------------------------------------------------------------------


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/pid/stat`` fields after the command name (index 0 = state)."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rindex(")") + 2:].split()


def cpu_seconds(pid: int) -> float:
    """user+sys CPU of a live process (0 if it is gone)."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def host_jiffies() -> tuple[int, int]:
    """(all CPU time, stolen CPU time) of the host so far, in ticks.

    On a shared VM the hypervisor's steal is the one noise source a run
    can see directly; every result prints its share of the window.
    """
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    ticks = [int(f) for f in fields]
    return sum(ticks[:8]), ticks[7] if len(ticks) > 7 else 0


def vm_hwm_mib(pid: int) -> float:
    """Peak resident set of a live process, MiB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def reset_own_peak_rss() -> None:
    """Restart this process's VmHWM, so that a run's peak is its own and
    not that of a workload the same harness ran before it."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # kernel without the knob: the peak then spans the process


def fd_count(pid: int) -> int:
    """Open sockets, files and mappings of a process; pipes excluded.

    A daemon starts a ``multiprocessing`` resource tracker of its own the
    first time two executor threads attach segments at once (one pipe,
    once, at an arbitrary moment of the run): that is a finding about
    ``repro.parallel.shm`` (README, "Findings"), not fd growth.
    """
    count = 0
    try:
        for fd in os.listdir(f"/proc/{pid}/fd"):
            try:
                count += not os.readlink(f"/proc/{pid}/fd/{fd}").startswith("pipe:")
            except OSError:
                pass  # closed while we looked
    except OSError:
        pass
    return count


def session_members(sid: int) -> dict[int, str]:
    """{pid: cmdline} of live, non-zombie processes in session ``sid``."""
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is None or fields[0] == "Z" or int(fields[3]) != sid:
            continue
        try:
            cmd = Path(f"/proc/{entry}/cmdline").read_bytes()
        except OSError:
            continue
        found[int(entry)] = cmd.replace(b"\0", b" ").decode(errors="replace")
    return found


def shm_snapshot() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def kill_and_reap(pids: list[int], grace_s: float = 2.0) -> None:
    """SIGTERM then SIGKILL processes that are not our waitable children."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            if not any(_stat_fields(p) for p in pids):
                return
            time.sleep(0.02)


def audit_leaks(shm_before: set[str], own_pid: int) -> dict[str, int]:
    """Kill and count what should not exist once clients and SUT are closed.

    Processes: anything left in the harness's session except the harness
    and the ``multiprocessing`` resource tracker its shm client spawned
    (that one exits with the harness; ``run.py`` waits for it).
    Segments: names in /dev/shm that were not there at start; stale ones
    from earlier crashes on this host are in the snapshot, not counted.
    """
    def scan() -> dict[int, str]:
        return {
            pid: cmd for pid, cmd in session_members(os.getsid(0)).items()
            if pid != own_pid
            and "multiprocessing.resource_tracker" not in cmd
        }

    # A stopped daemon's own tracker, or a process caught mid-exit (empty
    # command line), is gone within milliseconds; a leak is what stays.
    deadline = time.monotonic() + 2.0
    while (strays := scan()) and time.monotonic() < deadline:
        time.sleep(0.05)
    if strays:
        kill_and_reap(list(strays))
    segments = sorted(shm_snapshot() - shm_before)
    for name in segments:
        try:
            os.unlink(SHM_DIR / name)
        except OSError:
            pass
    for pid, cmd in strays.items():
        print(f"LEAK process {pid}: {cmd}", file=sys.stderr)
    for name in segments:
        print(f"LEAK shm segment {name}", file=sys.stderr)
    return {"procs": len(strays), "shm_segments": len(segments)}
