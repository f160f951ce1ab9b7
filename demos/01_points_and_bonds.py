"""Tour of the discretization layer: grids, horizons, and bond networks.

A simulation starts from a cloud of material points, each owning a volume,
and a bond network connecting every point to its neighbors inside a chosen
horizon radius. This script builds a few clouds, shows how the horizon and
the partial-volume rule shape the network, and prints the quantities the
rest of the library consumes.

Run it directly:  python3 demos/01_points_and_bonds.py
"""

import numpy as np

from peribond import HorizonConfig, build_bonds, build_grid


def banner(text):
    print()
    print(text)
    print("-" * len(text))


banner("A one-dimensional bar, 8 points")
cloud = build_grid(box=(1.0,), spacing=0.125, density=1.0, periodic=(False,))
print(f"points: {cloud.n_points}, dim: {cloud.dim}")
print("positions:", np.round(cloud.positions[:, 0], 4))
print("volumes:  ", cloud.volumes)

# horizon = 3 spacings is the common choice: wide enough for a smooth
# nonlocal stencil, narrow enough to stay cheap
horizon = HorizonConfig(delta=0.375)
bonds = build_bonds(cloud, horizon)
print(f"\nhorizon delta = {horizon.delta} -> {bonds.n_bonds} bond pairs")
print("bonds per point:", bonds.degrees())
print("interior points see 6 neighbors; ends see fewer (free surface).")

banner("Partial volumes smooth the horizon edge")
# a neighbor whose cell straddles the horizon sphere only counts the
# slice that lies inside; the weight tapers linearly across one spacing
# each pair is stored once; bonds_of(i) shows point i's side of its pairs
rows, others, xi, w = bonds.bonds_of(3)
for j, rr, ww in zip(others, bonds.xi_norm[rows], w):
    print(f"  bond 3-{j}  length {rr:.3f}  weight {ww:.4f}"
          + ("   <- tapered" if ww < 0.1249 else ""))

banner("Periodic wrap")
ring = build_grid(box=(1.0,), spacing=0.125, density=1.0, periodic=(True,))
ring_bonds = build_bonds(ring, horizon)
print("bonds per point:", ring_bonds.degrees())
print("every point is interior on a ring; the end effects are gone.")

banner("A 2D plate and its damage field")
plate = build_grid(box=(1.0, 1.0), spacing=0.0625, density=1.0,
                   periodic=(False, False))
plate_bonds = build_bonds(plate, HorizonConfig(delta=0.1875))
print(f"points: {plate.n_points}, bond pairs: {plate_bonds.n_bonds}")
damage = plate_bonds.damage()
print(f"damage field before anything breaks: min {damage.min()}, "
      f"max {damage.max()} (all bonds intact)")

# break the bonds crossing a horizontal seam by hand to see damage respond
y = plate.positions[:, 1]
src_y = y[plate_bonds.source]
ngb_y = y[plate_bonds.neighbors]
crossing = (src_y - 0.5) * (ngb_y - 0.5) < 0.0
plate_bonds.mu[crossing] = 0.0
damage = plate_bonds.damage()
print(f"after cutting a seam: max damage {damage.max():.3f} on "
      f"{np.sum(damage > 0)} points hugging the cut")

banner("Three dimensions, same API")
cube = build_grid(box=(0.5, 0.5, 0.5), spacing=0.125, density=2.0)
cube_bonds = build_bonds(cube, HorizonConfig(delta=0.25))
print(f"points: {cube.n_points}, bond pairs: {cube_bonds.n_bonds}")
print("volumes carry the mass: density * h^3 =",
      cube.density * 0.125**3, "per point")
