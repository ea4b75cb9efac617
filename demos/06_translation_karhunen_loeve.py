"""Translated Gaussian measures and the Karhunen-Loeve expansion.

Shifting white noise by a vector x stays absolutely continuous with
density exp(<x, w> - ||x||^2/2). The density's cocycle is exact pointwise
algebra; its integrals against test functions reproduce closed forms.
For a Parseval frame the analysis function expands over i.i.d. N(0,1)
coordinates, preserving the energy ||x||^2.
"""
import numpy as np

import framemeasures as fm
from framemeasures import streams

ens = fm.WhiteNoiseEnsemble(16, 400_000, 77)
rng = np.random.default_rng(11)

x = rng.normal(size=16)
x /= np.linalg.norm(x)
y = rng.normal(size=16)
y /= np.linalg.norm(y)
pf = fm.parseval_rescale(fm.mercedes_benz_frame())
x2d = np.array([0.6, -0.8])

# every ensemble mean below, in one pass over the regenerated samples
POWERS = (1, 2)
rn_mean, second, *shifts, kl = ens.reduce([
    fm.rn_mean(x),
    fm.translated_moment(x, y),
    *(fm.translation_consistency(x, y, power) for power in POWERS),
    fm.kl_variance(pf, x2d),
])

# the first five samples of the ensemble, read from its stream; the
# density at sample 0, and its ensemble mean (must be 1)
head = streams.normal_rows(ens.seed, 0, 5, ens.truncation_dim, streams.STREAM_WHITENOISE)
w = head[0]
print(f"rn_density(x, omega_0) = {fm.rn_density(x, w):.6f}")
print(f"ensemble mean of the density: {rn_mean.value:.6f} "
      f"(target 1, z {rn_mean.z_score:+.2f})")

# pointwise cocycle: E(x1) E(x2) = exp(<x1, x2>) E(x1 + x2)
x1, x2 = rng.normal(size=(2, 16))
lhs, rhs = fm.cocycle_check(x1, x2, w)
print(f"\ncocycle lhs {lhs:.12e} vs rhs {rhs:.12e} "
      f"(rel diff {abs(lhs - rhs) / rhs:.1e})")

# integral E(x) <y, w>^2 dmu = <x, y>^2 + ||y||^2
print(f"\ntranslated second moment: {second.value:.5f} vs {second.target:.5f} "
      f"(z {second.z_score:+.2f})")

# change of variables: integrating against the density = shifting the argument
for power, est in zip(POWERS, shifts):
    print(f"shift consistency, g = <y,.>^{power}: diff {est.value:+.5f} "
          f"(z {est.z_score:+.2f})")

# Karhunen-Loeve for the Parseval-rescaled Mercedes-Benz frame
print(f"\nParseval rescale: bounds [{pf.lower_bound:.12f}, {pf.upper_bound:.12f}]")
print(f"KL expansion of {x2d}: empirical E[(Tx)^2] = {kl.value:.5f} "
      f"vs coefficient energy {kl.target:.5f} (z {kl.z_score:+.2f})")
# the KL values (T x)(omega) = sum_n <x, phi_n> omega_n of the first five samples
coeffs = fm.analysis(pf, x2d)
print("per-sample values are plain Gaussians:", np.round(head[:, : coeffs.size] @ coeffs, 4))
