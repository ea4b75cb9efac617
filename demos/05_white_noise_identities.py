"""White-noise Monte Carlo: every closed-form identity, verified.

The standard Gaussian measure with characteristic functional
exp(-||x||^2/2) pushes forward to i.i.d. N(0,1) coordinates on R^D, and
the identities below are exact at any truncation D >= dim(x). Each check
reports value, target, standard error, and the z-score that the
acceptance band |z| <= 4 is judged on.
"""
import numpy as np

import framemeasures as fm

D, M, SEED = 32, 500_000, 123
ens = fm.WhiteNoiseEnsemble(D, M, SEED)
print(f"ensemble: D = {D}, M = {M}, seed = {SEED}")

rng = np.random.default_rng(9)
x = rng.normal(size=D)
x /= np.linalg.norm(x)
y = rng.normal(size=D)
y /= np.linalg.norm(y)

mb = fm.mercedes_benz_frame()
ORDERS = (2, 4, 6, 3)
# every check below, in one pass over the regenerated samples
iso, (re, im), *moments, (_, err), proj, cov = ens.reduce([
    fm.ito_isometry(x),
    fm.char_functional(x),
    *(fm.moment(x, order) for order in ORDERS),
    fm.reconstruction(x),
    fm.projection(y, y),
    fm.gramian_covariance(mb),
])


def show(name, est):
    print(f"{name:28s} value {est.value: .6f}  target {est.target: .6f}  "
          f"stderr {est.std_error:.2e}  z {est.z_score:+.2f}")


# Ito isometry: E <x, w>^2 = ||x||^2
show("Ito isometry", iso)

# characteristic functional: E exp(i<x, w>) = exp(-||x||^2/2)
show("char functional (real)", re)
show("char functional (imag)", im)

# Gaussian moments: E <x, w>^(2k) = (2k-1)!! ||x||^(2k), odd vanish
for order, est in zip(ORDERS, moments):
    show(f"moment order {order}", est)

# the Gaussian process indexed by a frame has the Gramian as covariance
print("\nempirical process covariance vs Gramian:")
print(np.round(cov, 4))
print(np.round(fm.gram(mb).entries, 4))
print("Frobenius distance:", np.linalg.norm(cov - fm.gram(mb).entries))

# joint density of (T phi_1, ..., T phi_n) needs an invertible sub-Gramian
g2 = fm.GramMatrix(entries=fm.gram(mb).entries[:2, :2])
print("\njoint density of the first two process coordinates at 0:",
      fm.joint_density(g2, [0.0, 0.0]))

# frame decomposition x = integral <x, w> w dmu(w), realized by averaging
print(f"\nreconstruction error ||x_hat - x|| = {err:.5f} "
      f"(rms prediction sqrt((D+1)/M) = {np.sqrt((D + 1) / M):.5f})")

# Q = T T* fixes range elements: <Q f, probe> = <y, probe> for f = <y, .>
show("projection idempotence", proj)
