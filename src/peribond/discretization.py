"""Uniform lattice discretization and horizon bond networks.

A body is sampled at the cell centers of a uniform grid with spacing h; each
point carries the full cell volume h**dim (midpoint quadrature). Bonds connect
every unordered pair of points whose reference separation satisfies
0 < |xi| <= delta, stored once, with an optional linear partial-volume taper
for cells that straddle the horizon boundary. Periodic axes use minimum-image
separations.
"""

from dataclasses import dataclass
from functools import cached_property
import math
import warnings

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.spatial import cKDTree

from .errors import ConfigError, SingularConfigurationError
from .kernels import SUPPORT_SLACK, in_support, lengths

PARTIAL_VOLUME_MODES = ("linear", "none")


@dataclass(frozen=True)
class PointCloud:
    """Reference configuration: positions, per-point volumes, mass density."""

    positions: np.ndarray  # (N, dim) cell centers
    volumes: np.ndarray    # (N,) cell volumes
    density: float         # mass density rho > 0
    spacing: float         # grid spacing h
    box: np.ndarray        # (dim,) box edge lengths
    periodic: np.ndarray   # (dim,) bool, per-axis wrap flags

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class HorizonConfig:
    """Horizon radius and quadrature options for bond construction."""

    delta: float
    partial_volume: str = "linear"

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ConfigError(f"horizon delta must be positive, got {self.delta}")
        if self.partial_volume not in PARTIAL_VOLUME_MODES:
            raise ConfigError(
                f"partial_volume must be one of {PARTIAL_VOLUME_MODES}, "
                f"got {self.partial_volume!r}"
            )


@dataclass(frozen=True)
class BondNetwork:
    """Bond pairs sorted by (source, neighbor), each unordered pair stored once.

    Every pair has source < neighbors and xi = x_neighbor - x_source. A
    central bond force is antisymmetric, so one evaluation per pair acts
    with weight w_ij = V_j taper on the source and, negated, with
    w_ji = V_i taper on the neighbor (Newton's third law). scatter is the
    sparse CSR operator that does both; its rows list their entries in pair
    order, so scatter @ f sums each point's terms in pair order and
    scatter[points] @ f re-sums those rows bitwise as the full product does.
    The fields are fixed; the mu array holds the mutable per-pair intactness
    factor in [0, 1]. accum, the graded-breakage accumulator that only the
    theta-eps breaker reads, is made (zero) on first use and is kept, like
    mu, for the network's life.
    """

    source: np.ndarray           # (M,) lower point index per pair
    neighbors: np.ndarray        # (M,) higher point index per pair
    xi: np.ndarray               # (M, dim) reference separations (minimum image)
    xi_norm: np.ndarray          # (M,) |xi|
    weights: np.ndarray          # (M,) weight onto source = V_neighbor * partial volume factor
    reverse_weights: np.ndarray  # (M,) weight onto neighbor = V_source * partial volume factor
    mu: np.ndarray               # (M,) bond intactness, starts at 1
    n_points: int
    scatter: csr_matrix          # (n_points, M): w_ij at source, -w_ji at neighbor

    @cached_property
    def accum(self) -> np.ndarray:
        """(M,) graded-breakage accumulator, starts at 0."""
        return np.zeros(self.n_bonds)

    @property
    def n_bonds(self) -> int:
        """Number of bond pairs; each point sees twice as many bond ends."""
        return self.source.shape[0]

    def per_point(self, at_source, at_neighbor):
        """Per-point sums of per-pair values, one value for each end of a pair
        (for sums outside the time loop; the force uses scatter)."""
        n = self.n_points
        return (np.bincount(self.source, weights=at_source, minlength=n)
                + np.bincount(self.neighbors, weights=at_neighbor, minlength=n))

    def degrees(self) -> np.ndarray:
        return self.per_point(None, None)

    def damage(self) -> np.ndarray:
        """Per-point damage 1 - sum(mu w)/sum(w); zero for empty horizons."""
        wsum = self.per_point(self.weights, self.reverse_weights)
        intact = self.per_point(self.mu * self.weights, self.mu * self.reverse_weights)
        with np.errstate(invalid="ignore", divide="ignore"):
            phi = 1.0 - intact / wsum
        return np.where(wsum > 0.0, phi, 0.0)

    def bonds_of(self, point):
        """The bonds of one point as seen from it, ordered by the other end.

        Returns (rows, others, xi, weights): the pair rows, the other point
        of each, the separation from `point` to it (the stored xi, negated
        where `point` is the neighbors end) and the weight onto `point`. A
        point outside 0 .. n_points - 1 raises IndexError.
        """
        if not 0 <= point < self.n_points:
            raise IndexError(f"point {point} is not one of the {self.n_points} points "
                             f"0 .. {self.n_points - 1}")
        rows = self.scatter[point].indices.astype(np.int64)
        at_source = self.source[rows] == point
        return (
            rows,
            np.where(at_source, self.neighbors[rows], self.source[rows]),
            np.where(at_source[:, None], self.xi[rows], -self.xi[rows]),
            np.where(at_source, self.weights[rows], self.reverse_weights[rows]),
        )


def build_grid(box, spacing, density, periodic=None) -> PointCloud:
    """Sample a box with a uniform cell-center lattice.

    box: per-axis edge lengths (determines the dimension, 1-3).
    Every edge length must be an integer multiple of the spacing (relative
    tolerance 1e-9); otherwise the box cannot be tiled and a ConfigError is
    raised naming the axis. Points are ordered lexicographically by grid
    index with the last axis fastest.
    """
    box = np.atleast_1d(np.asarray(box, dtype=float))
    dim = box.shape[0]
    if dim not in (1, 2, 3):
        raise ConfigError(f"dimension must be 1, 2, or 3, got {dim}")
    if not spacing > 0.0:
        raise ConfigError(f"grid spacing must be positive, got {spacing}")
    if not density > 0.0:
        raise ConfigError(f"density must be positive, got {density}")
    if np.any(box <= 0.0):
        raise ConfigError(f"box edge lengths must be positive, got {box.tolist()}")
    if periodic is None:
        periodic = np.ones(dim, dtype=bool)
    periodic = np.atleast_1d(np.asarray(periodic, dtype=bool))
    if periodic.shape != (dim,):
        raise ConfigError(
            f"periodic flags must have one entry per axis ({dim}), "
            f"got {periodic.shape[0]}"
        )

    counts = grid_counts(box, spacing)
    try:
        positions = np.ascontiguousarray(
            (np.indices(counts).reshape(dim, -1).T + 0.5) * spacing)
        volumes = np.full(positions.shape[0], spacing**dim)
    except MemoryError:
        raise ConfigError(f"[domain] h: the {' x '.join(map(str, counts))} grid at "
                          f"spacing {spacing} does not fit in memory") from None
    return PointCloud(
        positions=positions,
        volumes=volumes,
        density=float(density),
        spacing=float(spacing),
        box=box,
        periodic=periodic,
    )


def grid_counts(box, spacing):
    """Cells per axis of a box tiled by cells of edge spacing, or a
    ConfigError naming the first axis whose edge is not an integer multiple
    of the spacing (relative tolerance 1e-9), or one for a grid whose
    (points, dim) float array numpy cannot index."""
    counts = []
    for axis, edge in enumerate(box):
        ratio = edge / spacing
        n = round(ratio) if math.isfinite(ratio) else 0
        if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
            raise ConfigError(
                f"box edge {edge} on axis {axis} is not an integer "
                f"multiple of spacing {spacing}"
            )
        counts.append(n)
    if math.prod(counts) * len(counts) * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"spacing {spacing} gives more grid points than one "
                          "array can index")
    return tuple(counts)


def check_minimum_image(delta, box, periodic):
    """A ConfigError naming the first periodic axis whose half edge delta
    exceeds: past it a point's horizon reaches two images of one neighbor."""
    for axis in np.flatnonzero(periodic):
        if delta > 0.5 * box[axis]:
            raise ConfigError(
                f"horizon delta {delta} exceeds half the periodic box "
                f"edge {box[axis]} on axis {axis} (minimum image invalid)"
            )


def partial_volume_factor(r, spacing, delta):
    """Linear coverage fraction of a neighbor cell at reference distance r.

    Full weight inside delta - h/2, tapering linearly to zero at delta + h/2
    (a bond at exactly delta + h/2 is dropped entirely). Vectorized in r.
    """
    r = np.asarray(r, dtype=float)
    if not spacing > 0.0:
        raise ConfigError(f"spacing must be positive, got {spacing}")
    if not delta > 0.0:
        raise ConfigError(f"delta must be positive, got {delta}")
    if np.any(r <= 0.0):
        raise ConfigError("partial volume factor requires positive distances")
    factor = np.subtract(delta + 0.5 * spacing, r, out=np.empty_like(r))  # the one array
    factor /= spacing
    np.clip(factor, 0.0, 1.0, out=factor)
    return factor if factor.ndim else float(factor)


def minimum_image(diff, box, periodic):
    """Wrap separation vectors, a float array of shape (..., dim), into the
    closest periodic image in place, and return that same array. Each
    periodic column is wrapped through one scratch column."""
    scratch = np.empty(diff.shape[:-1]) if np.any(periodic) else None
    for axis in range(diff.shape[-1]):
        if periodic[axis]:
            column, length = diff[..., axis], box[axis]
            np.rint(np.divide(column, length, out=scratch), out=scratch)
            scratch *= length
            column -= scratch
    return diff


def neighbor_pairs(positions, delta, box, periodic):
    """All unordered pairs with minimum-image distance 0 <= d <= delta.

    Returns (pairs, diff, dist): pairs is (P, 2) int64 with i < j, diff is
    the minimum-image separation positions[j] - positions[i]. Backed by an
    unbalanced k-d tree (faster to build and query here than a balanced one)
    with toroidal topology on the periodic axes; results are re-filtered on
    exact distances so the stored network depends only on this module's
    arithmetic, not on the tree's shape. The pairs come in (i, j) order: the
    unique keys (i << b) | j, with b = (N - 1).bit_length(), are sorted, so
    any sort algorithm gives the same order, and unpacked back into i and j
    in the tree's own pair array. Past 2^31 points a key would need more
    than 63 bits, and a ValueError naming the point count is raised.

    The acceptance test is kernels.in_support, with its 1e-9 relative slack:
    on a lattice, pairs at exactly delta round a few ulps either way
    depending on where the points sit, and cutting some of them would break
    translation invariance. The partial-volume taper makes the marginal
    weight continuous there, so the slack perturbs weights by O(1e-9) at most.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    bits = (n - 1).bit_length()
    if 2 * bits > 63:
        raise ValueError(f"neighbor_pairs: {n} points need {2 * bits}-bit pair keys, "
                         "past the 63 bits of an int64")
    periodic = np.asarray(periodic, dtype=bool)
    check_minimum_image(delta, box, periodic)
    boxsize = np.where(periodic, box, 0.0)
    wrapped = positions.copy()
    for axis in np.flatnonzero(periodic):
        column = wrapped[:, axis]
        np.mod(column, boxsize[axis], out=column)
        # a coordinate a hair below 0 wraps to L itself, which the tree refuses
        column[column == boxsize[axis]] = 0.0
    tree = cKDTree(wrapped, boxsize=boxsize if boxsize.any() else None,
                   balanced_tree=False)
    pairs = tree.query_pairs(delta * SUPPORT_SLACK + 1e-300, output_type="ndarray")
    pairs = pairs.astype(np.int64, copy=False)
    keys = pairs[:, 0] << bits
    keys |= pairs[:, 1]
    keys.sort()
    # unpacked into the tree's own array: one (P, 2) array and one key column
    np.right_shift(keys, bits, out=pairs[:, 0])
    np.bitwise_and(keys, (1 << bits) - 1, out=pairs[:, 1])
    diff = np.take(positions, pairs[:, 1], axis=0)
    diff -= np.take(positions, pairs[:, 0], axis=0)
    minimum_image(diff, box, periodic)
    dist = lengths(diff)
    keep = in_support(dist, delta)
    if keep.all():
        return pairs, diff, dist
    return pairs[keep], diff[keep], dist[keep]


class PairBuffers:
    """Per-pair columns that one caller reuses from search to search.

    Holds int_columns int64 and float_columns float columns of one capacity.
    reserve(m) returns the first m entries of every column, as an
    (int_columns, m) and a (float_columns, m) view with contiguous rows. It
    reallocates only when m exceeds the capacity, and then to a quarter more
    than m, so a steady pair count allocates nothing. Earlier views keep
    their memory, but the next user of the buffers overwrites it. A reserve
    within the capacity reallocates nothing, so a search and a force share one.

    search is None or (key, xi, dist) of the last directed_pairs call made
    with these buffers, whose source and neighbors are int columns 0 and 1.
    The key is the exact bits of the call's positions, delta, box and
    periodic flags. A directed_pairs call with another key drops it before
    searching, and so does a reserve that reallocates, since the index
    columns are about to go.
    """

    def __init__(self, int_columns, float_columns):
        self._ints = np.empty((int_columns, 0), dtype=np.int64)
        self._floats = np.empty((float_columns, 0))
        self.search = None

    def reserve(self, m):
        if m > self._floats.shape[1]:
            self.search = None
            capacity = m + m // 4
            self._ints = np.empty((self._ints.shape[0], capacity), dtype=np.int64)
            self._floats = np.empty((self._floats.shape[0], capacity))
        return self._ints[:, :m], self._floats[:, :m]


def directed_pairs(positions, delta, box, periodic, buffers=None):
    """Both directions of every in-horizon pair, each point's neighbors ascending.

    Returns (source, neighbors, xi, dist) for bonds with 0 <= d <= delta,
    coincident pairs included — callers decide whether coincidence is an
    error. The zero-memory fluid force searches the current shape with it.
    source and neighbors hold the P pairs of neighbor_pairs twice, in their
    (i, j) order: rows 0 .. P - 1 reversed (source j, neighbor i), then rows
    P .. 2P - 1 as found (source i, neighbor j). So each point's rows list
    its neighbors in ascending order, those below it first, as a sort by
    (source, neighbor) would, and a per-point bincount adds the same terms
    in the same order. xi ((P, dim), row-major) and dist are the search's
    own diff and dist, one row per pair as found: row k is directed row
    P + k, and directed row k has -xi[k] and dist[k]. A caller whose per-row
    value is odd under xi -> -xi evaluates the P pairs and negates them for
    the reversed half, as fluid_force does. source and neighbors are int
    columns 0 and 1 of buffers, a PairBuffers with 2 int columns (fresh ones
    when none are given), valid until its next use.

    buffers hold their last search (PairBuffers.search). A call whose
    positions, delta, box and periodic flags are bitwise those of the held
    search returns it without searching: the same xi and dist arrays, which
    callers only read, and the index columns as they stand. -0.0 and 0.0 are
    different bits, so they are different keys.
    """
    positions = np.asarray(positions, dtype=float)
    buffers = PairBuffers(2, 0) if buffers is None else buffers
    key = (positions.shape, positions.tobytes(), np.float64(delta).tobytes(),
           np.asarray(box, dtype=float).tobytes(), np.asarray(periodic, dtype=bool).tobytes())
    if buffers.search is None or buffers.search[0] != key:
        buffers.search = None  # so the old search never lives beside the new one
        pairs, diff, dist = neighbor_pairs(positions, delta, box, periodic)
        p = dist.size
        (source, neighbors), _ = buffers.reserve(2 * p)
        source[:p], source[p:] = pairs[:, 1], pairs[:, 0]
        neighbors[:p], neighbors[p:] = pairs[:, 0], pairs[:, 1]
        buffers.search = key, diff, dist
    _, xi, dist = buffers.search
    (source, neighbors), _ = buffers.reserve(2 * dist.size)
    return source, neighbors, xi, dist


def _scatter_operator(source, neighbors, weights, reverse_weights, n_points):
    """BondNetwork.scatter: formed with one column per pair, in pair order and
    with no sort, then converted to CSR, whose rows keep that order."""
    m = source.shape[0]
    rows = np.empty(2 * m, dtype=np.int32)
    rows[0::2], rows[1::2] = source, neighbors
    data = np.empty(2 * m)
    data[0::2], data[1::2] = weights, -reverse_weights
    indptr = np.arange(0, 2 * m + 1, 2, dtype=np.int32)
    return csc_matrix((data, rows, indptr), shape=(n_points, m)).tocsr()


def pair_network(cloud: PointCloud, horizon: HorizonConfig, positions) -> BondNetwork:
    """Bond pairs of the points of a cloud placed at `positions`.

    Pairs satisfy 0 < |xi| <= delta with minimum-image separations on
    periodic axes; each carries the volume of its other end times the
    partial-volume factor (when enabled) as the weight onto either end.
    Coincident points raise SingularConfigurationError. The reference
    network and the remembered-shape networks of memory runs both come
    from here.
    """
    delta = horizon.delta
    pairs, xi, xi_norm = neighbor_pairs(positions, delta, cloud.box, cloud.periodic)
    source, neighbors = pairs[:, 0].copy(), pairs[:, 1].copy()
    if np.any(xi_norm == 0.0):
        k = int(np.flatnonzero(xi_norm == 0.0)[0])
        raise SingularConfigurationError(
            f"points {int(source[k])} and {int(neighbors[k])} coincide"
        )
    weights = cloud.volumes[neighbors]
    reverse_weights = cloud.volumes[source]
    if horizon.partial_volume == "linear" and xi_norm.size:
        taper = partial_volume_factor(xi_norm, cloud.spacing, delta)
        weights *= taper
        reverse_weights *= taper
    return BondNetwork(
        source=source,
        neighbors=neighbors,
        xi=xi,
        xi_norm=xi_norm,
        weights=weights,
        reverse_weights=reverse_weights,
        mu=np.ones(source.shape[0]),
        n_points=cloud.n_points,
        scatter=_scatter_operator(source, neighbors, weights, reverse_weights,
                                  cloud.n_points),
    )


def build_bonds(cloud: PointCloud, horizon: HorizonConfig) -> BondNetwork:
    """Construct the reference bond network of a point cloud.

    Coincident reference points are a ConfigError. Horizons that fail to
    reach the nearest neighbor produce a warning, not an error.
    """
    delta = horizon.delta
    if delta < cloud.spacing:
        warnings.warn(
            f"horizon delta {delta} is below the grid spacing {cloud.spacing}; "
            "neighbor lists may be empty",
            stacklevel=2,
        )
    try:
        bonds = pair_network(cloud, horizon, cloud.positions)
    except SingularConfigurationError as exc:
        raise ConfigError(f"coincident reference points: {exc}") from None
    empty = int(np.count_nonzero(bonds.degrees() == 0))
    if empty:
        warnings.warn(
            f"{empty} point(s) have empty horizons "
            f"(delta = {delta}, spacing = {cloud.spacing})",
            stacklevel=2,
        )
    return bonds
