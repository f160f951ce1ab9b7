"""Uniform lattice discretization and horizon bond networks.

A body is sampled at the cell centers of a uniform grid with spacing h; each
point carries the full cell volume h**dim (midpoint quadrature). Bonds connect
every unordered pair of points whose reference separation satisfies
0 < |xi| <= delta, stored once, with an optional linear partial-volume taper
for cells that straddle the horizon boundary. Periodic axes use minimum-image
separations.
"""

from dataclasses import dataclass
import warnings

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.spatial import cKDTree

from .errors import ConfigError, SingularConfigurationError
from .kernels import lengths

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
    The fields are fixed; the mu and accum arrays hold the mutable per-pair
    damage state (intactness factor in [0, 1] and the graded-breakage
    accumulator).
    """

    source: np.ndarray           # (M,) lower point index per pair
    neighbors: np.ndarray        # (M,) higher point index per pair
    xi: np.ndarray               # (M, dim) reference separations (minimum image)
    xi_norm: np.ndarray          # (M,) |xi|
    weights: np.ndarray          # (M,) weight onto source = V_neighbor * partial volume factor
    reverse_weights: np.ndarray  # (M,) weight onto neighbor = V_source * partial volume factor
    mu: np.ndarray               # (M,) bond intactness, starts at 1
    accum: np.ndarray            # (M,) graded-breakage accumulator, starts at 0
    n_points: int
    scatter: csr_matrix          # (n_points, M): w_ij at source, -w_ji at neighbor

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
        where `point` is the neighbors end) and the weight onto `point`.
        """
        below = np.flatnonzero(self.neighbors == point)
        above = np.flatnonzero(self.source == point)
        return (
            np.concatenate([below, above]),
            np.concatenate([self.source[below], self.neighbors[above]]),
            np.concatenate([-self.xi[below], self.xi[above]]),
            np.concatenate([self.reverse_weights[below], self.weights[above]]),
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

    counts = np.empty(dim, dtype=np.int64)
    for axis in range(dim):
        ratio = box[axis] / spacing
        n = int(round(ratio))
        if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
            raise ConfigError(
                f"box edge {box[axis]} on axis {axis} is not an integer "
                f"multiple of spacing {spacing}"
            )
        counts[axis] = n

    positions = np.ascontiguousarray(
        (np.indices(counts).reshape(dim, -1).T + 0.5) * spacing)
    volumes = np.full(positions.shape[0], spacing**dim)
    return PointCloud(
        positions=positions,
        volumes=volumes,
        density=float(density),
        spacing=float(spacing),
        box=box,
        periodic=periodic,
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
    taper = (delta + 0.5 * spacing - r) / spacing
    factor = np.clip(taper, 0.0, 1.0)
    return factor if factor.ndim else float(factor)


def minimum_image(diff, box, periodic):
    """Wrap separation vectors, a float array of shape (..., dim), into the
    closest periodic image in place, and return that same array."""
    for axis in range(diff.shape[-1]):
        if periodic[axis]:
            length = box[axis]
            diff[..., axis] -= length * np.round(diff[..., axis] / length)
    return diff


def neighbor_pairs(positions, delta, box, periodic):
    """All unordered pairs with minimum-image distance 0 <= d <= delta.

    Returns (pairs, diff, dist): pairs is (P, 2) int64 with i < j, diff is
    the minimum-image separation positions[j] - positions[i]. Backed by a k-d
    tree with toroidal topology on the periodic axes; results are re-filtered
    on exact distances so the stored network depends only on this module's
    arithmetic, in (i, j) order: sorted by the unique key i*N + j, so any
    sort algorithm gives the same order.

    The acceptance test carries a 1e-9 relative slack: on a lattice, pairs at
    exactly delta round a few ulps either way depending on where the points
    sit, and cutting some of them would break translation invariance. The
    partial-volume taper makes the marginal weight continuous there, so the
    slack perturbs weights by O(1e-9) at most.
    """
    positions = np.asarray(positions, dtype=float)
    n, dim = positions.shape
    boxsize = np.zeros(dim)
    wrapped = positions
    for axis in range(dim):
        if periodic[axis]:
            length = box[axis]
            if delta > 0.5 * length:
                raise ConfigError(
                    f"horizon delta {delta} exceeds half the periodic box "
                    f"edge {length} on axis {axis} (minimum image invalid)"
                )
            boxsize[axis] = length
            if np.any(wrapped[:, axis] < 0) or np.any(wrapped[:, axis] >= length):
                wrapped = np.array(wrapped, copy=True)
                wrapped[:, axis] = np.mod(wrapped[:, axis], length)
    tree = cKDTree(wrapped, boxsize=boxsize if boxsize.any() else None)
    raw = tree.query_pairs(delta * (1.0 + 1e-9) + 1e-300, output_type="ndarray")
    raw = raw.astype(np.int64, copy=False)
    pairs = np.take(raw, np.argsort(raw[:, 0] * n + raw[:, 1]), axis=0)
    diff = minimum_image(np.take(positions, pairs[:, 1], axis=0)
                         - np.take(positions, pairs[:, 0], axis=0), box, periodic)
    dist = lengths(diff)
    keep = dist <= delta * (1.0 + 1e-9)
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
    their memory, but the next user of the buffers overwrites it.
    """

    def __init__(self, int_columns, float_columns):
        self._ints = np.empty((int_columns, 0), dtype=np.int64)
        self._floats = np.empty((float_columns, 0))

    def reserve(self, m):
        if m > self._floats.shape[1]:
            capacity = m + m // 4
            self._ints = np.empty((self._ints.shape[0], capacity), dtype=np.int64)
            self._floats = np.empty((self._floats.shape[0], capacity))
        return self._ints[:, :m], self._floats[:, :m]


def directed_pairs(positions, delta, box, periodic, buffers=None):
    """Both directions of every in-horizon pair, sorted by (source, neighbor).

    Returns (source, neighbors, xi, dist) for bonds with 0 <= d <= delta,
    coincident pairs included — callers decide whether coincidence is an
    error. The zero-memory fluid force searches the current shape with it.
    Sorted by the unique key source*N + neighbor, so by any sort algorithm.
    xi is (M, dim) with one contiguous column per axis.

    The arrays are views into buffers, a PairBuffers of 3 int and dim + 2
    float columns (fresh ones when none are given), valid until its next
    reserve: source and neighbors are int columns 0 and 1, xi float columns
    0 to dim - 1 and dist float column dim. Int column 2 and float column
    dim + 1 are scratch.
    """
    pairs, diff, dist = neighbor_pairs(positions, delta, box, periodic)
    p, dim = diff.shape
    ints, floats = (PairBuffers(3, dim + 2) if buffers is None else buffers).reserve(2 * p)
    source, neighbors, key = ints[:3]
    spare = floats[dim + 1]
    lo, hi = pairs[:, 0], pairs[:, 1]
    np.multiply(lo, len(positions), out=key[:p])
    key[:p] += hi
    np.multiply(hi, len(positions), out=key[p:])
    key[p:] += lo
    order = np.argsort(key)
    # each column is gathered from both halves laid out in a scratch column;
    # order is in range, so mode "clip" only spares numpy a copy of out
    key[:p], key[p:] = lo, hi
    np.take(key, order, out=source, mode="clip")
    key[:p], key[p:] = hi, lo
    np.take(key, order, out=neighbors, mode="clip")
    for diff_k, xi_k in zip(diff.T, floats):
        spare[:p] = diff_k
        np.negative(diff_k, out=spare[p:])
        np.take(spare, order, out=xi_k, mode="clip")
    spare[:p], spare[p:] = dist, dist
    np.take(spare, order, out=floats[dim], mode="clip")
    return source, neighbors, floats[:dim].T, floats[dim]


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
        accum=np.zeros(source.shape[0]),
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
