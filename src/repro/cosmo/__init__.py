"""Cosmology substrate: synthetic HACC/Nyx data and domain analyses.

The paper's evaluation data (a 1.07e9-particle HACC snapshot and a 512^3
Nyx snapshot) is proprietary-scale; this package generates *synthetic
equivalents* with the same layout, value ranges (Table II), and — most
importantly — the same statistical structure the domain metrics probe:
clustered matter with a cosmological power spectrum, so that power-spectrum
ratios and FoF halo populations respond to compression error the way the
paper's data does.
"""

from repro.cosmo.datasets import (
    FieldSpec,
    HACC_TABLE_II,
    NYX_TABLE_II,
    ParticleDataset,
    GridDataset,
)
from repro.cosmo.fof import FOFResult, friends_of_friends
from repro.cosmo.grf import gaussian_random_field
from repro.cosmo.hacc import make_hacc_dataset
from repro.cosmo.halos import HaloCatalog, halo_mass_function
from repro.cosmo.nyx import make_nyx_dataset
from repro.cosmo.power_spectrum import (
    particle_power_spectrum,
    power_spectrum,
    power_spectrum_ratio,
)
from repro.cosmo.pm import (
    ParticleMeshSolver,
    PMState,
    zeldovich_initial_conditions,
)
from repro.cosmo.spectra import CosmoPowerSpectrum
from repro.cosmo.timeseries import SnapshotSeries, make_nyx_series

__all__ = [
    "FieldSpec",
    "HACC_TABLE_II",
    "NYX_TABLE_II",
    "ParticleDataset",
    "GridDataset",
    "FOFResult",
    "friends_of_friends",
    "gaussian_random_field",
    "make_hacc_dataset",
    "HaloCatalog",
    "halo_mass_function",
    "make_nyx_dataset",
    "power_spectrum",
    "particle_power_spectrum",
    "power_spectrum_ratio",
    "CosmoPowerSpectrum",
    "SnapshotSeries",
    "make_nyx_series",
    "ParticleMeshSolver",
    "PMState",
    "zeldovich_initial_conditions",
]
