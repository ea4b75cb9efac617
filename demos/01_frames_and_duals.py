"""Frames in R^N: bounds, analysis/synthesis, Gramians, canonical duals.

The Mercedes-Benz frame (three unit vectors at 120 degrees) is the
smallest interesting tight frame: its frame operator is 1.5 * I, so both
optimal bounds equal 1.5 and reconstruction only needs a global rescale.
"""
import numpy as np

import framemeasures as fm

mb = fm.mercedes_benz_frame()
print("Mercedes-Benz frame vectors:")
print(mb.vectors)
print(f"bounds: alpha = {mb.lower_bound:.12f}, beta = {mb.upper_bound:.12f}")
print(f"tight: {mb.is_tight()}, Parseval: {mb.is_parseval()}")

x = np.array([0.3, -1.2])
coeffs = fm.analysis(mb, x)
print(f"\nanalysis of {x}: {coeffs}")
print(f"coefficient energy {coeffs @ coeffs:.6f} vs 1.5*||x||^2 = {1.5 * (x @ x):.6f}")

# overcompleteness: synthesis is not injective, the all-ones sequence dies
print("\nsynthesis of (1, 1, 1):", fm.synthesis(mb, [1.0, 1.0, 1.0]))

g = fm.gram(mb)
print("\nGramian:")
print(g.entries)
print("Gramian eigenvalues:", np.round(g.spectrum, 12))
minors = [np.linalg.det(g.entries[:k, :k]) for k in range(1, len(g.entries) + 1)]
print("leading principal minors:", np.round(minors, 12))

# canonical dual: S^{-1} phi_n; for a tight frame just phi_n / beta
dual = fm.dual_frame(mb)
print("\ndual vectors (= (2/3) * originals):")
print(dual.vectors)
recon = fm.synthesis(mb, fm.analysis(dual, x))
print(f"reconstruction through the dual: {recon}, error {np.linalg.norm(recon - x):.2e}")

# the upper Riesz estimate c^T G c <= beta ||c||^2
rng = np.random.default_rng(0)
c = rng.normal(size=3)
check = fm.verify_riesz_upper(mb, c)
print(f"\nRiesz upper estimate: {check.lhs:.6f} <= {check.bound:.6f} ({check.ok})")

# a spanning failure is representable but refuses dual construction
bad = fm.build_frame([[1.0, 0.0], [2.0, 0.0]])
print(f"\nrank-deficient family: alpha = {bad.lower_bound}, is_frame = {bad.is_frame()}")
try:
    fm.dual_frame(bad)
except fm.errors.NotAFrame as exc:
    print("dual_frame refused:", exc)
