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
import warnings

import numpy as np
from scipy.sparse import csc_matrix
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


@dataclass
class BondNetwork:
    """Bond pairs sorted by (source, neighbor), each unordered pair stored once.

    Every pair has source < neighbors and xi = x_neighbor - x_source. A
    central bond force is antisymmetric, so one evaluation per pair acts
    with weight w_ij = V_j taper on the source and, negated, with
    w_ji = V_i taper on the neighbor (Newton's third law). The mu and accum
    arrays hold mutable per-pair damage state (intactness factor in [0, 1]
    and the graded-breakage accumulator).
    """

    source: np.ndarray           # (M,) lower point index per pair
    neighbors: np.ndarray        # (M,) higher point index per pair
    xi: np.ndarray               # (M, dim) reference separations (minimum image)
    xi_norm: np.ndarray          # (M,) |xi|
    weights: np.ndarray          # (M,) weight onto source = V_neighbor * partial volume factor
    reverse_weights: np.ndarray  # (M,) weight onto neighbor = V_source * partial volume factor
    mu: np.ndarray               # (M,) bond intactness, starts at 1
    accum: np.ndarray            # (M,) graded-breakage accumulator, starts at 0
    delta: float
    spacing: float
    n_points: int

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

    @cached_property
    def scatter(self):
        """Sparse (n_points, n_bonds) operator spreading per-pair values onto
        both ends: column k holds w_ij at row source[k] and -w_ji at row
        neighbors[k], so scatter @ f sums each point's terms in pair order.
        Built on first use from the pair order, with no sort, as a CSC
        matrix; prepare_rows turns it into CSR."""
        m = self.n_bonds
        rows = np.empty(2 * m, dtype=np.int32)
        rows[0::2], rows[1::2] = self.source, self.neighbors
        data = np.empty(2 * m)
        data[0::2], data[1::2] = self.weights, -self.reverse_weights
        indptr = np.arange(0, 2 * m + 1, 2, dtype=np.int32)
        return csc_matrix((data, rows, indptr), shape=(self.n_points, m))

    def prepare_rows(self):
        """Replace scatter by its CSR form, for networks that re-sum a few
        rows: its rows list their entries in pair order, so scatter[points]
        @ f re-sums those rows bitwise as the full product does, and slicing
        them is cheap. A network used for one product (a remembered shape)
        keeps the CSC form and never pays for the conversion."""
        self.scatter = self.scatter.tocsr()

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
    """Wrap separation vectors into the closest periodic image, in place-safe."""
    diff = np.array(diff, dtype=float, copy=True)
    flat = diff.ndim == 1
    if flat:
        diff = diff[None, :]
    for axis in range(diff.shape[1]):
        if periodic[axis]:
            length = box[axis]
            diff[:, axis] -= length * np.round(diff[:, axis] / length)
    return diff[0] if flat else diff


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


def directed_pairs(positions, delta, box, periodic):
    """Both directions of every in-horizon pair, sorted by (source, neighbor).

    Returns (source, neighbors, xi, dist) for bonds with 0 <= d <= delta,
    coincident pairs included — callers decide whether coincidence is an
    error. The zero-memory fluid force searches the current shape with it.
    Sorted by the unique key source*N + neighbor, so by any sort algorithm.
    """
    pairs, diff, dist = neighbor_pairs(positions, delta, box, periodic)
    source = np.concatenate([pairs[:, 0], pairs[:, 1]])
    neighbors = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.argsort(source * len(positions) + neighbors)
    return (np.take(source, order), np.take(neighbors, order),
            np.take(np.concatenate([diff, -diff]), order, axis=0),
            np.take(np.concatenate([dist, dist]), order))


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
        delta=float(delta),
        spacing=cloud.spacing,
        n_points=cloud.n_points,
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
