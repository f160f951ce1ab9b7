"""Independent reference forces, written from the bond formulas.

Nothing here imports peribond. Neighbors, quadrature weights, the PMB bond
force f = c(r) s mu w n and the linear fluid force f = coeff (dv . n) n w are
recomputed from their definitions, so a change to the library's neighbor
search, bond storage, kernels or scatter is compared against arithmetic it
does not share. Only the per-pair damage state mu is read from the library,
keyed by unordered pair so that any bond storage layout maps onto it.
"""

import numpy as np
from scipy.spatial import cKDTree

# Horizon membership slack the library documents for lattice bonds that sit
# exactly at delta (a few ulps either side depending on the endpoints).
SLACK = 1.0 + 1e-9


def _norm(z):
    return np.sqrt((z * z).sum(axis=1))


def pairs_within(positions, delta, box, periodic):
    """Unordered pairs i < j with minimum-image distance 0 < d <= delta.

    Returns (i, j, d) with d = x_j - x_i wrapped to the nearest image on the
    periodic axes. The k-d tree only proposes candidates; membership is
    decided on the distances computed here.
    """
    pos = np.asarray(positions, dtype=float)
    box = np.asarray(box, dtype=float)
    periodic = np.asarray(periodic, dtype=bool)
    wrapped = pos.copy()
    wrapped[:, periodic] = np.mod(pos[:, periodic], box[periodic])
    boxsize = np.where(periodic, box, 0.0) if periodic.any() else None
    tree = cKDTree(wrapped, boxsize=boxsize)
    cand = tree.query_pairs(delta * SLACK * (1.0 + 1e-6), output_type="ndarray")
    i = np.minimum(cand[:, 0], cand[:, 1]).astype(np.int64)
    j = np.maximum(cand[:, 0], cand[:, 1]).astype(np.int64)
    d = pos[j] - pos[i]
    for axis in np.flatnonzero(periodic):
        d[:, axis] -= box[axis] * np.round(d[:, axis] / box[axis])
    dist = _norm(d)
    if np.any(dist == 0.0):
        raise ValueError("coincident points in the reference neighbor search")
    keep = dist <= delta * SLACK
    order = np.lexsort((j[keep], i[keep]))
    return i[keep][order], j[keep][order], d[keep][order]


def taper(dist, spacing, delta):
    """Linear partial-volume coverage: 1 inside delta - h/2, 0 at delta + h/2."""
    return np.clip((delta + 0.5 * spacing - dist) / spacing, 0.0, 1.0)


def pair_mu(source, neighbors, mu, n_points):
    """Lookup (i, j) -> mu of the unordered pair, from any bond storage.

    A pair stored in both directions takes the smaller of its two entries,
    so a one-sided break shows up as a force mismatch instead of hiding.
    """
    lo = np.minimum(source, neighbors).astype(np.int64)
    hi = np.maximum(source, neighbors).astype(np.int64)
    keys = lo * n_points + hi
    order = np.argsort(keys, kind="stable")
    keys, mu = keys[order], np.asarray(mu, dtype=float)[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    uniq = keys[starts]
    mu_min = np.minimum.reduceat(mu, starts) if starts.size else mu

    def lookup(i, j):
        want = i * n_points + j
        at = np.searchsorted(uniq, want)
        found = (at < uniq.size) & (uniq[np.minimum(at, uniq.size - 1)] == want)
        if not np.all(found) or uniq.size != want.size:
            raise ValueError(
                f"bond network holds {uniq.size} pairs, the reference search "
                f"{want.size}; {int(np.count_nonzero(~found))} reference pairs missing"
            )
        return mu_min[at]

    return lookup


def _scatter(i, j, f, w_ij, w_ji, n_points, dim):
    """Force density at every point: +f w_ij onto i, -f w_ji onto j."""
    out = np.zeros((n_points, dim))
    np.add.at(out, i, f * w_ij[:, None])
    np.add.at(out, j, -f * w_ji[:, None])
    return out


def pmb_force(positions, u, volumes, spacing, box, periodic, delta, c0, mu_of):
    """PMB internal force density with a cylindrical micro-modulus c(r) = c0.

    f_ij = c0 s mu (z / q) with z = xi + eta, q = |z|, s = (q - r)/r, summed
    with weight V_j taper(r) onto i and its negation with V_i taper(r) onto j.
    """
    n_points, dim = np.shape(positions)
    i, j, xi = pairs_within(positions, delta, box, periodic)
    r = _norm(xi)
    z = xi + (u[j] - u[i])
    q = _norm(z)
    if np.any(q == 0.0):
        raise ValueError("deformed bond of zero length")
    s = (q - r) / r
    f = (c0 * s * mu_of(i, j) / q)[:, None] * z
    t = taper(r, spacing, delta)
    return _scatter(i, j, f, volumes[j] * t, volumes[i] * t, n_points, dim)


def linear_fluid_force(positions, velocities, volumes, spacing, box, periodic,
                       delta, coefficient):
    """Zero-memory fluid force density over current-shape neighbors.

    f_ij = coeff ((v_j - v_i) . n) n with n the unit separation in the
    current shape, weighted by V_j taper(d) onto i and V_i taper(d) onto j.
    """
    n_points, dim = np.shape(positions)
    i, j, d = pairs_within(positions, delta, box, periodic)
    dist = _norm(d)
    n = d / dist[:, None]
    dv = velocities[j] - velocities[i]
    f = (coefficient * (dv * n).sum(axis=1))[:, None] * n
    t = taper(dist, spacing, delta)
    return _scatter(i, j, f, volumes[j] * t, volumes[i] * t, n_points, dim)


def rel_err(got, want):
    """Largest absolute difference over the largest reference magnitude."""
    scale = float(np.max(np.abs(want))) if np.size(want) else 0.0
    diff = float(np.max(np.abs(np.asarray(got) - want))) if np.size(want) else 0.0
    if scale == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / scale
