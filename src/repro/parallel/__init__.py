"""Simulated distributed-memory substrate.

HACC writes its snapshots from an MPI domain decomposition (the paper's
dataset comes from 8x8x4 ranks — the origin of the 1-D->3-D partition
sizes in Section IV-B-4), compresses *per rank*, and finds halos with a
parallel FoF.  This package reproduces those parallel algorithms
in-process:

* :mod:`repro.parallel.decomposition` — Cartesian box decomposition,
  particle-to-rank assignment, ghost-layer exchange with communication
  accounting.
* :mod:`repro.parallel.compression` — per-rank independent compression
  (exactly how the paper's dataset was produced) with global error-bound
  validation.
* :mod:`repro.parallel.executor` — the shared process-pool executor
  (chunked ``process_map``, ``REPRO_WORKERS`` knob) behind CBench
  sweeps, the experiment runner, and per-rank compression.
* :mod:`repro.parallel.fof` — distributed Friends-of-Friends: local FoF
  per rank over owned+ghost particles, then a global union of group
  fragments through shared ghost particles.  Verified against the serial
  finder.
* :mod:`repro.parallel.shm` — zero-copy shared-memory field transport
  for the parallel sweeps: publish once, attach by name in workers,
  ``REPRO_NO_SHM=1`` for the pickling fallback.
"""

from repro.util.lazy import lazy_exports

# Every export is resolved on first access: the daemon imports
# ``repro.parallel.shm`` alone and must not load the FoF stack with it.
__getattr__, __dir__ = lazy_exports(__name__, {
    "DistributedCompressionResult": "repro.parallel.compression",
    "compress_distributed": "repro.parallel.compression",
    "CartesianDecomposition": "repro.parallel.decomposition",
    "GhostExchange": "repro.parallel.decomposition",
    "RankParticles": "repro.parallel.decomposition",
    "process_map": "repro.parallel.executor",
    "resolve_workers": "repro.parallel.executor",
    "distributed_fof": "repro.parallel.fof",
    "ShmDescriptor": "repro.parallel.shm",
    "SharedArray": "repro.parallel.shm",
    "attach_cached": "repro.parallel.shm",
    "detach_all": "repro.parallel.shm",
    "shm_enabled": "repro.parallel.shm",
})

__all__ = [
    "CartesianDecomposition",
    "RankParticles",
    "GhostExchange",
    "compress_distributed",
    "DistributedCompressionResult",
    "distributed_fof",
    "process_map",
    "resolve_workers",
    "ShmDescriptor",
    "SharedArray",
    "attach_cached",
    "detach_all",
    "shm_enabled",
]
