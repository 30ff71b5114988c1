"""Friends-of-Friends group finder (Davis et al. 1985) — the paper's halo
definition (Section III, Metric 3a).

Particles closer than a *linking length* are "friends"; transitive closure
of friendship defines groups (halos).  The implementation hashes particles
into a periodic cell grid no finer than the linking length, generates
candidate pairs from the 27-cell neighborhoods with fully vectorized
searchsorted/repeat index arithmetic, filters them by periodic minimum-
image distance, and labels connected components with scipy's union-find.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DataError
from repro.util.validation import check_positive

#: Half of the 26 neighbor offsets (strictly "positive" lexicographically)
#: — with the self cell, every unordered cell pair is visited exactly once.
_HALF_OFFSETS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) > (0, 0, 0)
]


@dataclass
class FOFResult:
    """Group labels plus the friendship graph edges.

    ``labels[i]`` is the group id of particle ``i`` (0..n_groups-1);
    ``edges`` is an ``(m, 2)`` array of friend pairs — kept because the
    Most Connected Particle definition needs friend degrees.
    """

    labels: np.ndarray
    n_groups: int
    edges: np.ndarray
    linking_length: float

    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_groups)

    def degrees(self) -> np.ndarray:
        """Number of friends of each particle."""
        deg = np.zeros(self.labels.size, dtype=np.int64)
        if self.edges.size:
            deg += np.bincount(self.edges[:, 0], minlength=self.labels.size)
            deg += np.bincount(self.edges[:, 1], minlength=self.labels.size)
        return deg


def _candidate_pairs(
    sorted_cid: np.ndarray,
    order: np.ndarray,
    query_cid: np.ndarray,
    self_cell: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j) where j lives in the queried cell of particle i."""
    n = query_cid.size
    start = np.searchsorted(sorted_cid, query_cid, side="left")
    end = np.searchsorted(sorted_cid, query_cid, side="right")
    counts = end - start
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    a = np.repeat(np.arange(n, dtype=np.int64), counts)
    offsets = np.repeat(start, counts) + (
        np.arange(total, dtype=np.int64)
        - np.repeat(np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    )
    b = order[offsets]
    if self_cell:
        keep = b > a  # dedupe unordered pairs and drop self-pairs
        a, b = a[keep], b[keep]
    return a, b


def edge_components(ea: np.ndarray, eb: np.ndarray, n: int) -> tuple[int, np.ndarray]:
    """Connected components of the undirected graph on ``n`` nodes with
    edges ``(ea[k], eb[k])``: ``(n_groups, labels)``.

    scipy is imported here, not at module level, so that only halo
    finding pays for loading it.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    graph = coo_matrix((np.ones(ea.size, dtype=np.int8), (ea, eb)), shape=(n, n))
    return connected_components(graph, directed=False)


def friends_of_friends(
    positions: np.ndarray,
    box_size: float,
    linking_length: float,
    periodic: bool = True,
) -> FOFResult:
    """Run FoF over ``(N, 3)`` positions in a (periodic) cubic box."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise DataError("positions must have shape (N, 3)")
    check_positive(box_size, "box_size")
    check_positive(linking_length, "linking_length")
    if linking_length >= box_size / 3:
        raise DataError("linking length must be < box_size / 3")
    n = positions.shape[0]

    ncell = max(3, int(box_size // linking_length))
    pos = np.mod(positions, box_size) if periodic else positions
    cell = np.clip((pos / box_size * ncell).astype(np.int64), 0, ncell - 1)

    def ravel(c: np.ndarray) -> np.ndarray:
        return (c[:, 0] * ncell + c[:, 1]) * ncell + c[:, 2]

    cid = ravel(cell)
    order = np.argsort(cid, kind="stable")
    sorted_cid = cid[order]

    ll2 = linking_length**2
    edge_a: list[np.ndarray] = []
    edge_b: list[np.ndarray] = []

    def accept(a: np.ndarray, b: np.ndarray) -> None:
        if a.size == 0:
            return
        d = pos[a] - pos[b]
        if periodic:
            d -= box_size * np.rint(d / box_size)
        keep = np.einsum("ij,ij->i", d, d) <= ll2
        if keep.any():
            edge_a.append(a[keep])
            edge_b.append(b[keep])

    # Same-cell pairs.
    accept(*_candidate_pairs(sorted_cid, order, cid, self_cell=True))
    # Neighbor-cell pairs (each unordered cell pair once).
    for off in _HALF_OFFSETS:
        neighbor = cell + np.array(off, dtype=np.int64)
        if periodic:
            neighbor %= ncell
            query = ravel(neighbor)
        else:
            ok = np.all((neighbor >= 0) & (neighbor < ncell), axis=1)
            query = np.where(ok, ravel(np.clip(neighbor, 0, ncell - 1)), -1)
        accept(*_candidate_pairs(sorted_cid, order, query, self_cell=False))

    if edge_a:
        ea = np.concatenate(edge_a)
        eb = np.concatenate(edge_b)
    else:
        ea = eb = np.zeros(0, dtype=np.int64)

    n_groups, labels = edge_components(ea, eb, n)
    return FOFResult(
        labels=labels.astype(np.int64),
        n_groups=int(n_groups),
        edges=np.stack([ea, eb], axis=1) if ea.size else np.zeros((0, 2), dtype=np.int64),
        linking_length=linking_length,
    )
