"""Cold-start budget per process role: the imports a fresh interpreter
pays before it can run its role, plus native-library load and the first
call per codec.

Run as a script::

    python benchmarks/bench_coldstart.py               # this checkout
    python benchmarks/bench_coldstart.py --src OTHER   # another checkout's src/

Roles:

* ``library`` — ``import repro.compressors``, what every in-situ rank pays;
* ``package`` — ``import repro``;
* ``daemon`` — ``python -m repro.service serve --port 0 --quiet`` up to
  its ``serving on`` line (the native tier is loaded before the bind).

Each role runs ``--repeat`` times under ``python -X importtime``; the
table is the median self time per package (``numpy``, ``scipy``,
``repro.<subpackage>``, other third-party packages by name; see
:func:`charge`) plus the median wall time to ready, measured in a
separate run without ``-X importtime``.  The last table is the native
library load and each codec's first call against its second on a 1 MiB
float32 field, in ms and in minor page faults.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The library roles: the module each imports.
IMPORTS = {"library": "repro.compressors", "package": "repro"}
SERVE = ["-m", "repro.service", "serve", "--port", "0", "--quiet"]
ROLES = (*IMPORTS, "daemon")

_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|( *)(\S+)")

# Wall time of the role's own imports, numpy excluded (numpy is every
# role's floor and not ours to cut).
_WALL = (
    "import time, numpy; t = time.perf_counter(); import {mod}; "
    "print(time.perf_counter() - t)"
)

_FIRST_CALL = """
import json, resource, time
import numpy as np
from repro.compressors import get_compressor
from repro.kernels import native
t = time.perf_counter()
native.probe()
out = {"native_load_ms": (time.perf_counter() - t) * 1e3}
x = np.linspace(0, 6, 64)
field = (np.sin(x)[:, None, None] * np.cos(x)[None, :, None] * x[None, None, :]
         + np.random.default_rng(1).normal(0, 0.01, (64, 64, 64))).astype(np.float32)
for name, kw in (("sz", {"mode": "abs", "error_bound": 1e-3}),
                 ("zfp", {"mode": "fixed_rate", "rate": 8.0})):
    codec = get_compressor(name)
    for op in ("compress", "decompress"):
        for run in ("first", "second"):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t = time.perf_counter()
            if op == "compress":
                buf = codec.compress(field, **kw)
            else:
                codec.decompress(buf)
            out[f"{name}.{op}.{run}_ms"] = (time.perf_counter() - t) * 1e3
            out[f"{name}.{op}.{run}_faults"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
print(json.dumps(out))
"""


def _package(module: str) -> str | None:
    """``repro.<sub>`` or a third-party top-level name; None for stdlib."""
    top = module.split(".")[0]
    if top == "repro":
        return ".".join(module.split(".")[:2])
    if top in sys.stdlib_module_names or top.startswith("_"):
        return None
    return top


def charge(importtime_log: str) -> tuple[Counter, int]:
    """Self ms per package of one ``-X importtime`` log, and its module
    count.  A repro module is charged to its subpackage.  A module that a
    repro module imported is charged to its own package if third-party,
    else to the importer's subpackage; any other module to its importer's
    charge (so numpy modules first loaded by scipy count as scipy).  The
    log lists a module after everything it imported, one step deeper than
    its importer: read backwards, each line's importers are on the stack.
    """
    lines = [((len(m.group(2)) - 3) // 2, m.group(3), int(m.group(1)))
             for m in _LINE.finditer(importtime_log)]
    ms: Counter = Counter()
    stack: list[tuple[bool, str]] = []  # (importer is repro, its charge)
    for depth, module, self_us in reversed(lines):
        del stack[depth:]
        own = _package(module)
        if own is None or not own.startswith("repro"):
            if not stack:
                own = own or "stdlib"
            elif stack[-1][0]:
                own = own or stack[-1][1]
            else:
                own = stack[-1][1]
        stack.append((module.startswith("repro"), own))
        ms[own] += self_us / 1e3
    return ms, len(lines)


def _env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for knob in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"):
        env.pop(knob, None)
    return env


def _python(args: list[str], src: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=_env(src),
                          capture_output=True, text=True, check=True)


def _serve(src: Path, *flags: str) -> tuple[str, float]:
    """Start a daemon and stop it once bound: (stderr, seconds to bind)."""
    t = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *flags, *SERVE], env=_env(src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t
    proc.send_signal(signal.SIGTERM)
    _, err = proc.communicate(timeout=30)
    if not line.startswith("serving on"):
        raise RuntimeError(f"daemon did not start: {line!r} {err[-500:]}")
    return err, ready


def importtime_log(role: str, src: Path) -> str:
    if role == "daemon":
        return _serve(src, "-X", "importtime")[0]
    return _python(["-X", "importtime", "-c", f"import {IMPORTS[role]}"], src).stderr


def ready_s(role: str, src: Path) -> float:
    if role == "daemon":
        return _serve(src)[1]
    return float(_python(["-c", _WALL.format(mod=IMPORTS[role])], src).stdout)


def budget(src: Path, repeat: int) -> dict[str, dict]:
    """Per role: median self ms per package, module count, ready wall ms."""
    result = {}
    for role in ROLES:
        runs, counts, walls = [], [], []
        for _ in range(repeat):
            agg, n = charge(importtime_log(role, src))
            runs.append(agg)
            counts.append(n)
            walls.append(ready_s(role, src) * 1e3)
        packages = sorted({p for agg in runs for p in agg})
        med = {p: statistics.median(agg.get(p, 0.0) for agg in runs) for p in packages}
        result[role] = {
            "packages_ms": dict(sorted(med.items(), key=lambda kv: -kv[1])),
            "modules": statistics.median(counts),
            "ready_ms": statistics.median(walls),
        }
    return result


def first_calls(src: Path, repeat: int) -> dict[str, float]:
    runs = [json.loads(_python(["-c", _FIRST_CALL], src).stdout)
            for _ in range(repeat)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=REPO_ROOT / "src",
                    help="the src/ directory to measure (default: this checkout's)")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--json", action="store_true", help="print the raw medians as JSON")
    args = ap.parse_args(argv)

    roles = budget(args.src.resolve(), args.repeat)
    calls = first_calls(args.src.resolve(), args.repeat)
    if args.json:
        print(json.dumps({"roles": roles, "first_calls": calls}, indent=1))
        return 0
    for role, r in roles.items():
        total = sum(r["packages_ms"].values())
        print(f"{role}: {r['modules']:.0f} modules, importtime self sum "
              f"{total:.1f} ms, ready {r['ready_ms']:.1f} ms "
              f"({'numpy excluded' if role != 'daemon' else 'spawn to bind'})")
        for pkg, ms in r["packages_ms"].items():
            if ms >= 0.5:
                print(f"  {pkg:28s} {ms:8.1f} ms")
    print("native load and first call (median ms)")
    for key, ms in calls.items():
        print(f"  {key:28s} {ms:8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
