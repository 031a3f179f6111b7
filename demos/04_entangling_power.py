"""
Classifying the entangling power of channels
============================================

Classify single Kraus operators into the product-preserving forms, certify
whole channels as stochastically non-entangling or entangling, and bracket
the channel Schmidt number.
"""

import numpy as np

from entpow import (
    certify_kraus_channel,
    channel_schmidt_number_bounds,
    channel_schmidt_rank,
    classify_kraus,
    entanglement_annihilating_check,
    kron,
    max_entangled,
    min_over_products,
    nonentangling_threshold,
    rank_boost_channel,
    replacement_channel,
    swap_channel,
    swap_matrix,
    unitary_channel,
)
from entpow.channels import KrausChannel

rng = np.random.default_rng(1)
g = lambda d: rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

# Single operators: the product-preserving forms are recognized structurally
# (tensor product, permutation composed with locals, and a range inside a
# local subspace, a (x) C^2). A rank-one operator onto a product state is the
# smallest local-range operator; (|0> (x) I) N has rank 2 and is one too
print("A (x) B:            ", classify_kraus(kron(g(2), g(2)), (2, 2)).form)
print("(A (x) B) swap:     ", classify_kraus(kron(g(2), g(2)) @ swap_matrix(2), (2, 2)).form)
left = np.kron([1.0, 0.0], [0.0, 1.0])
print("|chi1 chi2><Psi|:   ", classify_kraus(np.outer(left, g(4)[0].conj()), (2, 2)).form)
bell_rows = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]])  # N = |0><00+11| + |1><01+10|
local = np.kron([[1.0], [0.0]], np.eye(2)) @ bell_rows
print("(|0> (x) I) N:      ", classify_kraus(local, (2, 2)).form)

# CNOT fits none of them, and the classifier exhibits a product input whose
# image is entangled
cnot = np.eye(4)[[0, 1, 3, 2]]
st = classify_kraus(cnot, (2, 2))
print("CNOT form:", st.form, "| product preserving:", st.is_product_preserving)

# Whole-channel certificates: the swap channel is stochastically
# non-entangling, CNOT is entangling with a replayable witness violation.
# CNOT has one Kraus operator, so the probe's entangled image is the
# channel's own output: the image-shift witness c0^2 I - |img><img| is
# violated by the channel itself, and no witness family is minimized. The
# swap witness, pulled back through the channel, goes further below zero.
print("\nswap: ", certify_kraus_channel(swap_channel(2)).verdict)
cx = unitary_channel(cnot, (2, 2), label="cx")
cert = certify_kraus_channel(cx)
best = min(v.value for v in cert.violations)
print(f"CNOT:  {cert.verdict} (image-shift witness value {best:.4f})")
swap_min = min_over_products(cx.dual_apply(swap_matrix(2)), (2, 2)).value
print(f"CNOT:  swap witness pulled back, minimum over products {swap_min:.4f}")

# A channel whose stored Kraus operators are entangling can still be SNE:
# (A (x) B +/- C (x) D)/sqrt(2) span the same operators as A (x) B and
# C (x) D, and the certifier recovers those from the span (by simultaneous
# diagonalization) rather than trusting the stored decomposition
a, b, c, d = g(2), g(2), g(2), g(2)
plus = (kron(a, b) + kron(c, d)) / np.sqrt(2)
minus = (kron(a, b) - kron(c, d)) / np.sqrt(2)
norm = np.sqrt(np.linalg.norm(sum(m.conj().T @ m for m in (plus, minus)), 2))
hidden = KrausChannel([plus / norm, minus / norm], (2, 2))
print("hidden product decomposition:", certify_kraus_channel(hidden).verdict)

# Channel Schmidt rank of a single Kraus operator, and Schmidt-number
# bounds for full channels
m = np.outer(max_entangled(3, 4).amplitudes, max_entangled(2, 4).amplitudes.conj())
print("\nrank of |phi+_3><phi+_2|:", channel_schmidt_rank(m, (4, 4)))
for ch, name in [
    (swap_channel(2), "swap"),
    (replacement_channel(max_entangled(3, 3)), "replace with phi+_3"),
]:
    bounds = channel_schmidt_number_bounds(ch)
    print(f"{name}: Schmidt number in [{bounds.lower}, {bounds.upper}]")

# The rank-boost channel walks the separability threshold: the product of
# the top two Schmidt coefficients decides
steep = np.array([0.99, 1 / (9 * 0.99), 0.0])
steep[2] = np.sqrt(1 - steep[0] ** 2 - steep[1] ** 2)
flat = np.full(3, 1 / np.sqrt(3))
for coeffs, name in [(steep, "steep"), (flat, "uniform")]:
    rep = nonentangling_threshold(2, 3, coeffs)
    print(
        f"{name} coefficients: {rep.verdict} "
        f"(lambda0*lambda1 = {rep.coeff_product:.4f}, bound {rep.bound:.4f})"
    )

# Entanglement annihilation is proven or not proven, never sampled: on 2x2
# and 2x3 outputs one eigvalsh of the Choi matrix with output B transposed
# proves every output PPT, hence separable. Strong mixing toward I/4 is
# proven; toward this random separable sigma that matrix has a negative
# eigenvalue at p = 0.1, so annihilation is not proven (which proves nothing
# either way). Weak mixing is not proven toward either
from entpow import DensityMatrix, mixing_channel, random_separable

sigma = random_separable((2, 2), terms=3, seed=9)
noise = DensityMatrix(np.eye(4) / 4, (2, 2))
for target, name in [(sigma, "sigma"), (noise, "I/4")]:
    for p in (0.1, 0.9):
        ann = entanglement_annihilating_check(mixing_channel(p, target))
        print(f"\nmixing toward {name} with p={p}: annihilation",
              "proven" if ann else "not proven", end="")
print()
