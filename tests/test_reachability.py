"""Reachability ratchet: every ``src/repro`` module earns a caller.

The import graph is built from the source text alone (``ast``; nothing
scanned is imported and no process starts), rooted at the programs the
project ships: the ``repro.service``, ``repro.experiments``,
``repro.foresight`` and ``repro.telemetry`` CLIs, the in-situ driver and
every file of the end-to-end benchmark (``benchmarks/e2e``).

Edges:

* ``import`` and ``from ... import`` statements, relative ones resolved;
  importing a module also runs its parent packages' ``__init__``;
* ``"repro.x"`` and ``"repro.x:fn"`` string constants (the kernel
  tables in ``repro.kernels.defs``, ``-m repro.service`` argv);
* a name imported from a package goes to the submodule that defines it,
  following the package's re-exports (eager or ``lazy_exports``).

A package ``__init__`` that only re-exports a name of its own submodule
(the name is not used in its body) adds no edge: ``repro.analysis``
exporting ``fit_rd_line`` does not make ``rd_model`` reached.  An
``__init__`` whose body uses the name (``repro.kernels``) does.

The modules no root reaches must equal :data:`UNREACHED`, one reason
each: a new caller-less module fails the test, and so does a listed one
that gains a caller or is deleted (then drop its entry).
"""

from __future__ import annotations

import ast
import re
from collections import deque
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
E2E = REPO / "benchmarks" / "e2e"

ROOTS = (
    "repro.service.__main__",
    "repro.experiments.__main__",
    "repro.experiments.insitu",
    "repro.foresight.__main__",
    "repro.foresight.cli",
    "repro.telemetry.__main__",
)

#: Modules no shipped program imports, each with its caller and the
#: ROADMAP item that gives it one in ``repro.experiments`` or drops it.
UNREACHED = {
    "repro.foresight.imaging":
        "Fig 1 PGM slices from bench_fig1_psd.py (items 1(d), 5(f))",
    "repro.analysis.decimation_study":
        "§I decimation row, bench_ablation_decimation.py (item 5(f))",
    "repro.analysis.autotune":
        "bound search under decimation_study; the rate-quality model (item 3)",
    "repro.analysis.rd_model":
        "§V-A 6.02 dB/bit row; the rate-quality model (item 3)",
    "repro.gpu.node":
        "§I node-overhead row, bench_node_overhead.py (item 5(f))",
    "repro.lossless.fpc":
        "§II-A lossless row, bench_lossless_baseline.py (item 5(f))",
    "repro.metrics.distribution":
        "§IV-A-1 error-distribution row, bench_error_distribution.py (item 5(f))",
    "repro.parallel.decomposition":
        "§III distributed-FoF row, bench_distributed_fof.py (item 5(f))",
    "repro.parallel.fof":
        "§III distributed-FoF row, bench_distributed_fof.py (item 5(f))",
    "repro.cosmo.pm":
        "PM solver of examples/insitu_simulation_loop.py (item 1(d))",
    "repro.parallel.compression":
        "per-rank codec of examples/parallel_halo_pipeline.py (item 1(d))",
}

_MODULE_STRING = re.compile(r"repro(?:\.\w+)+(?::\w+)?")


def _source_modules() -> dict[str, Path]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


class _Scan:
    """One file's references: ``(module, name)`` pairs, where ``name``
    is ``None`` for the module itself; a package also gets its pure
    re-exports, ``name -> (module, name)``."""

    def __init__(self, path: Path, name: str | None):
        tree = ast.parse(path.read_text(), filename=str(path))
        is_package = path.name == "__init__.py"
        package = name if is_package else (name or "").rpartition(".")[0]
        self.refs: list[tuple[str, str | None]] = []
        self.exports: dict[str, tuple[str, str]] = {}
        used = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        lazy_tables = set()
        for node in ast.walk(tree):
            if (is_package and isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "lazy_exports"):
                # A comprehension table maps names to same-named
                # submodules, which ``resolve`` finds without it.
                for table in node.args[1:]:
                    for key, value in zip(getattr(table, "keys", ()),
                                          getattr(table, "values", ())):
                        self.exports[key.value] = (value.value, key.value)
                        lazy_tables.add(id(value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                self.refs += [(a.name, None) for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if node.level:
                    base = package.split(".")[: len(package.split(".")) - node.level + 1]
                    source = ".".join(base + ([node.module] if node.module else []))
                own = is_package and (source + ".").startswith(name + ".")
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if own and bound not in used:
                        self.exports[bound] = (source, alias.name)
                    else:
                        self.refs.append((source, alias.name))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in lazy_tables
                    and _MODULE_STRING.fullmatch(node.value)):
                self.refs.append((node.value.partition(":")[0], None))


def _unreached(extra: dict[str, Path] | None = None) -> set[str]:
    modules = {**_source_modules(), **(extra or {})}
    scans = {name: _Scan(path, name) for name, path in modules.items()}

    def owner(module: str) -> str | None:
        """The longest prefix of ``module`` that is a source module."""
        while module and module not in modules:
            module = module.rpartition(".")[0]
        return module or None

    def resolve(module: str, name: str | None) -> set[str]:
        """``module`` and, for a name, the submodule that defines it."""
        target = owner(module)
        if target is None:
            return set()
        if name is None:
            return {target}
        if f"{target}.{name}" in modules:
            return {target, f"{target}.{name}"}
        export = scans[target].exports.get(name)
        return {target} | (resolve(*export) if export else set())

    def edges(scan: _Scan) -> set[str]:
        return set().union(*(resolve(m, n) for m, n in scan.refs))

    graph = {name: edges(scan) for name, scan in scans.items()}
    for name in modules:
        if "." in name:
            graph[name].add(name.rpartition(".")[0])
    start = set(ROOTS)
    for path in sorted(E2E.glob("*.py")):
        start |= edges(_Scan(path, None))
    reached, todo = set(start), deque(start)
    while todo:
        for nxt in graph[todo.popleft()] - reached:
            reached.add(nxt)
            todo.append(nxt)
    return set(modules) - reached


def test_unreached_modules_match_the_allow_list():
    unreached = _unreached()
    assert sorted(unreached - set(UNREACHED)) == [], "new caller-less modules"
    assert sorted(set(UNREACHED) - unreached) == [], (
        "allow-listed modules now reached or deleted: drop their entries")


def test_a_dropped_module_is_caught(tmp_path):
    stray = tmp_path / "scratch.py"
    stray.write_text('"""A module nothing imports."""\n')
    assert "repro.scratch" in _unreached({"repro.scratch": stray})
