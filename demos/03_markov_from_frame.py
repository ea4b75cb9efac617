"""A frame turns into a Markov chain: p(x, y) = <x, y>^2 / c(x).

Against the frame family the weights form stochastic rows, the index
chain is reversible with respect to the normalizers c, and every entry
obeys p <= ||y||^2 / alpha. Path probabilities are exact products, so
sampled paths carry probabilities that recompute bit for bit.
"""
import numpy as np

import framemeasures as fm

mb = fm.mercedes_benz_frame()
chain = fm.build_chain(mb)
print("transition matrix (diagonal 2/3, off-diagonal 1/6):")
print(chain.transition_matrix)
print("normalizers c(phi_j):", chain.normalizers)

p = chain.transition_matrix
c = chain.normalizers
print("\nrow sums:", p.sum(axis=1))
print("reversibility max |c_j P_jk - c_k P_kj|:",
      np.abs(c[:, None] * p - (c[:, None] * p).T).max())

x = mb.vectors[0]
print("\nstart distribution from phi_0:", fm.start_distribution(chain, x))
print("P(path 0 -> 1) =", fm.path_probability(chain, x, [0, 1]), "(exact 1/9)")

# sample paths; the seeded stream makes this reproducible run to run
idx, _ = fm.sample_path_indices(chain, x, k=2, m=100_000, seed=42)
paths, counts = np.unique(idx, axis=0, return_counts=True)
print("\nempirical vs exact probabilities over all length-2 paths:")
for path, count in zip(paths.tolist(), counts):
    exact = fm.path_probability(chain, x, path)
    print(f"  {tuple(path)}: {count / len(idx):.4f} vs {exact:.4f}")

# an orthonormal basis freezes the walk: orthogonality kills every move
onb = fm.orthonormal_basis_frame(3)
frozen = fm.build_chain(onb)
print("\nONB chain is the identity: every path stays where it starts")
print(frozen.transition_matrix)
