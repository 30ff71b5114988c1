#!/usr/bin/env python3
"""End-to-end benchmark: library -> daemon -> routed session.

    run.py --workload W --seed N --seconds S --trace 0|1   one run; the last
                                                           stdout line is JSON
    run.py [--seed N] [--seconds S] [--repeat N] [--out F] every workload,
                                                           untraced + traced
    run.py --quick                                         ~30 s smoke, never
                                                           used for claims
    run.py --selftest                                      the checker can fail
    run.py compare A.json B.json                           noise-aware verdicts
    run.py --write-contract                                BENCHMARK.json from
                                                           the catalogue

This file is a thin supervisor.  The load generator (``harness.py``)
runs in its own session, and this process returns only once that whole
session is gone — daemons, shards, router and the ``multiprocessing``
resource tracker the shm client spawns — killing what is left on a
signal, on a deadline, or after the harness exits.  See README.md.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import paths  # noqa: E402
import sut  # noqa: E402

#: The driver allows a run 180 s; leave room for our own teardown.
SINGLE_RUN_DEADLINE_S = 165.0
#: After the harness exits, how long its session may take to empty by
#: itself (the resource tracker notices its pipe closing).
DRAIN_S = 5.0


def _compare(args: list[str]) -> int:
    import stats

    if len(args) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    base, new = (json.loads(Path(a).read_text())["runs"] for a in args)
    rows = stats.compare(base, new)
    print(stats.format_compare(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


def _write_contract() -> int:
    from catalog import benchmark_json

    seconds = 20
    if paths.CONTRACT_FILE.exists():
        seconds = json.loads(paths.CONTRACT_FILE.read_text())["run_seconds"]
    paths.CONTRACT_FILE.write_text(
        json.dumps(benchmark_json(seconds), indent=2) + "\n"
    )
    print(f"wrote {paths.CONTRACT_FILE}")
    return 0


def _stop_session(sid: int, first_signal: int) -> int:
    """Signal every process of the session until none is left; returns how
    many had to be SIGKILLed."""
    killed = 0
    for sig, grace in ((first_signal, 15.0), (signal.SIGKILL, 5.0)):
        members = sut.session_members(sid)
        if not members:
            return killed
        if sig == signal.SIGKILL:
            killed = len(members)
        for pid in members:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace
        while sut.session_members(sid) and time.monotonic() < deadline:
            time.sleep(0.05)
    return killed


def supervise(argv: list[str]) -> int:
    if not (paths.SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"error: {paths.SRC_DIR}/repro not found — run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    for d in (paths.RESULTS_DIR, paths.KERNEL_CACHE, paths.TMP_DIR):
        d.mkdir(parents=True, exist_ok=True)
    single = "--workload" in argv
    result_file = paths.TMP_DIR / f"result-{os.getpid()}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(paths.SRC_DIR), *filter(None, [env.get("PYTHONPATH")])]
    )
    # A bench-owned kernel cache, handed to the harness and through it to
    # every daemon: built once per checkout, never timed, never in $HOME.
    env["REPRO_KERNEL_CACHE"] = str(paths.KERNEL_CACHE)
    env["TMPDIR"] = str(paths.TMP_DIR)
    cmd = [sys.executable, "-u", str(paths.BENCH_DIR / "harness.py"), *argv]
    if single:
        cmd += ["--result-file", str(result_file)]

    shm_before = sut.shm_snapshot()
    pending: list[int] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda signum, _frame: pending.append(signum))
    harness = subprocess.Popen(cmd, env=env, start_new_session=True,
                               stdin=subprocess.DEVNULL)
    sid = harness.pid  # session leader
    deadline = time.monotonic() + SINGLE_RUN_DEADLINE_S if single else None
    forced = 0
    while harness.poll() is None:
        if pending or (deadline and time.monotonic() > deadline):
            why = f"signal {pending[0]}" if pending else "deadline"
            print(f"run.py: {why}: stopping the harness session",
                  file=sys.stderr)
            forced = 128 + (pending[0] if pending else signal.SIGALRM)
            # the harness tears its children down itself on SIGTERM
            harness.send_signal(signal.SIGTERM)
            try:
                harness.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                pass
            break
        time.sleep(0.05)

    # The harness is gone (or stuck): nothing of its session may outlive us.
    drain = time.monotonic() + DRAIN_S
    while sut.session_members(sid) and time.monotonic() < drain \
            and harness.poll() is not None:
        time.sleep(0.05)
    leftovers = sut.session_members(sid)
    killed = _stop_session(sid, signal.SIGTERM) if leftovers else 0
    harness.wait()
    segments = sorted(sut.shm_snapshot() - shm_before)
    for name in segments:
        try:
            os.unlink(sut.SHM_DIR / name)
        except OSError:
            pass
    for pid, cmdline in leftovers.items():
        print(f"run.py: LEAK process {pid} outlived the harness: {cmdline}",
              file=sys.stderr)
    for name in segments:
        print(f"run.py: LEAK shm segment {name}", file=sys.stderr)

    code = forced or harness.returncode
    if (leftovers or segments or killed) and code == 0:
        code = 3
    if single and code == 0:
        print(result_file.read_text())
    result_file.unlink(missing_ok=True)
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return _compare(argv[1:])
    if argv == ["--write-contract"]:
        return _write_contract()
    return supervise(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
