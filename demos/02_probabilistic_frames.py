"""Probabilistic frames: weighted atoms, optimal bounds, W2 distance.

A probability measure with atoms y_i and weights w_i is a probabilistic
frame iff its weighted atoms sqrt(w_i) y_i are a frame: both have the
frame operator S = sum w_i y_i y_i^T, whose extreme eigenvalues are the
optimal bounds. The 2-Wasserstein metric compares two such measures
through an exact transport plan.

Also shown: the coordinate decay sequence f(n) = integral <b_n, y>^2 dmu.
At any finite truncation it sums to the second moment, but it vanishes
beyond the ambient dimension, so no single positive constant can sit
below it for all n. That is the finite-dimensional shadow of the fact
that infinite-dimensional frame measures cannot live on the Hilbert
space itself and need a genuinely larger carrier space.
"""
import numpy as np

import framemeasures as fm

# uniform measure on the Mercedes-Benz directions is a tight probabilistic frame
mb = fm.mercedes_benz_frame()
mu = fm.DiscreteMeasure.uniform(mb.vectors)
weighted = fm.weighted_frame(mu)
s = weighted.frame_operator
print("S_mu for the uniform MB measure:")
print(s)
print(f"bounds: A = {weighted.lower_bound:.6f}, B = {weighted.upper_bound:.6f}, "
      f"tight = {weighted.is_tight()}")
print(f"second moment = {fm.second_moment(mu):.6f} (= trace of S_mu)")

# a point mass spans nothing: not a probabilistic frame
delta = fm.DiscreteMeasure.point_mass([1.0, 0.0])
spike = fm.weighted_frame(delta)
print(f"\npoint mass bounds: A = {spike.lower_bound}, B = {spike.upper_bound}, "
      f"frame = {spike.is_frame()}")

# exact optimal transport between two small measures
nu = fm.DiscreteMeasure.uniform([[0.0, 0.0], [1.0, 0.0]])
rho = fm.DiscreteMeasure.uniform([[0.0, 0.0], [2.0, 0.0]])
dist, plan = fm.wasserstein2(nu, rho)
print(f"\nW2(nu, rho) = {dist:.6f}  (W2^2 = {dist**2:.6f})")
print("optimal plan (rows = nu atoms, cols = rho atoms):")
print(plan.matrix)

# analysis/synthesis against the measure
x = np.array([1.0, 1.0])
table = fm.prob_analysis(mu, x)
print(f"\nanalysis table of {x} over the atoms: {table}")
print("synthesis of that table:", fm.prob_synthesis(mu, table), "= S_mu x =", s @ x)

# coordinate decay: energies die beyond the ambient dimension
rng = np.random.default_rng(1)
wild = fm.DiscreteMeasure.normalized(rng.normal(size=(5, 3)), rng.random(5) + 0.2)
seq = fm.lower_bound_decay(wild, 10)
print("\ndecay sequence f(1..10):", np.round(seq, 4))
print(f"sum = {seq.sum():.12f} vs M2^2 = {fm.second_moment(wild):.12f}")
print("every f(n) with n > 3 is exactly 0 -> no uniform positive lower bound exists")
