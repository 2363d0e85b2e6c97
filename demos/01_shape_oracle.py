"""Demo: the voxel-based shape oracle on analytic bundles.

Builds three single-streamline bundles with known geometry and prints the
ten shape measures, showing where the closed forms land:

* a straight line has curl exactly 1;
* a semicircle of radius R has length piR and span 2R, so curl = pi/2;
* a filled cylinder's volume, diameter and elongation match the usual
  pir^2L formulas up to voxelization error.

Run: python3 demos/01_shape_oracle.py
"""

import numpy as np

from bundleshape.io import Bundle
from bundleshape.shapes import MEASURE_NAMES, compute_measures


def show(title, bundle, voxel_size):
    m = compute_measures(bundle, voxel_size).as_array()
    print(f"\n{title} (voxel size {voxel_size})")
    for name, value in zip(MEASURE_NAMES, m):
        print(f"  {name:26s} {value:10.4f}")
    return m


def straight_line():
    t = np.linspace(0.0, 80.0, 200)
    s = np.stack([t, np.zeros_like(t), np.zeros_like(t)], axis=1)
    return Bundle.from_streamlines((s,))


def semicircle(radius=50.0):
    theta = np.linspace(0.0, np.pi, 400)
    s = np.stack(
        [radius * np.cos(theta), radius * np.sin(theta), np.zeros_like(theta)], axis=1
    )
    return Bundle.from_streamlines((s,))


def cylinder(radius=4.0, length=80.0, n=300, pps=81):
    # Sunflower layout: near-uniform disc coverage with few streamlines.
    i = np.arange(n)
    r = radius * np.sqrt((i + 0.5) / n)
    ang = i * np.pi * (3.0 - np.sqrt(5.0))
    z = np.linspace(0.0, length, pps)
    x = r * np.cos(ang)
    y = r * np.sin(ang)
    pts = np.stack(
        [
            np.broadcast_to(x[:, None], (n, pps)),
            np.broadcast_to(y[:, None], (n, pps)),
            np.broadcast_to(z[None, :], (n, pps)),
        ],
        axis=2,
    ).copy()
    rng = np.random.Generator(np.random.Philox(key=[7, 0]))
    pts += rng.normal(0.0, 0.06, size=pts.shape)
    return Bundle.from_streamlines(tuple(pts))


def main():
    m = show("Straight line, L=80", straight_line(), 1.0)
    print(f"  -> curl - 1 = {m[2] - 1.0:.2e} (exactly 1 in theory)")

    m = show("Semicircle, R=50", semicircle(), 1.0)
    print(f"  -> span/2 = {m[1] / 2:.3f} (theory R = 50)")
    print(f"  -> curl   = {m[2]:.5f} (theory pi/2 = {np.pi / 2:.5f})")

    m = show("Cylinder, r=4 L=80, 300 streamlines", cylinder(), 0.5)
    print(f"  -> volume     = {m[5]:.1f} (pi r^2 L = {np.pi * 16 * 80:.1f})")
    print(f"  -> diameter   = {m[4]:.3f} (theory 8)")
    print(f"  -> elongation = {m[3]:.3f} (theory 10)")


if __name__ == "__main__":
    main()
