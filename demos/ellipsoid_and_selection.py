"""The geometry behind the grouping stage, on points you can see.

An origin-centered minimum-volume enclosing ellipsoid touches only a few
of the points it contains; those boundary ("active") points are the
candidate cluster representatives.  When there are more candidates than
clusters, successive projection thins them to a well-spread subset.
"""

import numpy as np

from ellispec import solve_mvee, spa_select

rng = np.random.default_rng(0)

print("Three extreme directions plus interior clutter")
print("----------------------------------------------")
extremes = np.array([[3.0, 0.0, -2.0],
                     [0.0, 2.5, -2.0],
                     [0.0, 0.0, 1.5]])
clutter = extremes @ (rng.dirichlet([1, 1, 1], size=40).T * 0.8)
P = np.column_stack([extremes, clutter])
ellipsoid = solve_mvee(P)
print(f"columns: {P.shape[1]}  (3 extremes + 40 interior combinations)")
print(f"active (boundary) columns: {[int(i) for i in ellipsoid.active]}")
print(f"certificate slack achieved: {ellipsoid.epsilon_achieved:.2e}")

vals = np.einsum("ij,ji->i", P.T @ ellipsoid.X, P)
print(f"p'Xp on the extremes:  {np.round(vals[:3], 6)}")
print(f"p'Xp max on clutter:   {vals[3:].max():.6f}")

print()
print("Thinning an oversized candidate set")
print("-----------------------------------")
# corners and edge midpoints of a square: the ellipsoid touches the four
# corners, yet only two directions are genuinely independent
square = np.array([[1, -1, 1, -1, 1, -1, 0, 0],
                   [1, 1, -1, -1, 0, 0, 1, -1]], dtype=float)
e = solve_mvee(square)
print(f"active columns of the square: {[int(i) for i in e.active]}")
picked = spa_select(square, e.active, 2)
print(f"successive projection keeps:  {picked}")
