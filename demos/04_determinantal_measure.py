"""Determinantal measure of a frame Gramian.

Principal minors of a Gramian are nonnegative; after dividing by the
upper frame bound the spectrum sits in [0, 1] and det(K_S) becomes the
probability that the random configuration contains S. The exact sampler
(spectral method) is cross-checked against full subset enumeration.
"""
import numpy as np

import framemeasures as fm

mb = fm.mercedes_benz_frame()
kernel = fm.kernel_from_frame(mb)
print("kernel K = G / beta:")
print(kernel.matrix)
print("spectrum:", np.round(kernel.eigenvalues, 12))
print("-> a rank-2 projection kernel: every draw has exactly 2 of the 3 points")

for subset in [(), (0,), (0, 1), (0, 1, 2)]:
    p = fm.inclusion_probability(kernel, subset)
    print(f"P(Phi contains {subset}) = {p:.6f}")

table = fm.subset_distribution_bruteforce(kernel)
print("\nexact subset distribution (bitmask order):", np.round(table, 6))
print("P(empty) vs det(I - K):", table[0], fm.empty_probability(kernel))

masks = fm.sample_masks(kernel, 200_000, seed=5)
emp = fm.empirical_subset_distribution(masks)
print("\nempirical distribution:   ", np.round(emp, 6))
print(f"total variation distance = {fm.total_variation(emp, table):.5f}")
trace = np.trace(kernel.matrix)
print(f"mean cardinality = {masks.sum(axis=1).mean():.4f} vs trace = {trace:.4f}")

# a generic kernel with interior spectrum mixes cardinalities
rng = np.random.default_rng(7)
a = rng.normal(size=(4, 4))
g = a @ a.T
generic = fm.kernel_from_matrix(g / np.linalg.eigvalsh(g)[-1] * 0.8)
masks = fm.sample_masks(generic, 200_000, seed=6)
emp = fm.empirical_subset_distribution(masks)
table = fm.subset_distribution_bruteforce(generic)
print(f"\ngeneric 4x4 kernel: TV(sampler, enumeration) = {fm.total_variation(emp, table):.5f}")
print("cardinality histogram:", np.bincount(masks.sum(axis=1), minlength=5) / len(masks))
