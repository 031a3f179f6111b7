"""Property tests of stochastically-non-entangling certificates.

A mixture of weighted local unitaries whose Kraus list is hidden by a random
unitary on the Kraus index is SNE by construction. Its certificate must not
depend on which Kraus list of the channel is stored, nor on the order of the
parties, and the Kraus list it ships must reproduce the channel.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entpow.channels import KrausChannel
from entpow.power import certify_kraus_channel, channel_schmidt_number_bounds
from entpow.tensor import kron

PROPS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

DIMS = st.sampled_from([(2, 2), (2, 3), (3, 3)])
SEEDS = st.integers(0, 2**32 - 1)
SNE = "stochastically_nonentangling"


def haar(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def hidden_mixtures(draw):
    """Kraus operators ``U W`` for a Haar U and weighted local unitaries W."""
    d1, d2 = draw(DIMS)
    terms = draw(st.integers(1, min(4, d1 * d1, d2 * d2)))
    rng = np.random.default_rng(draw(SEEDS))
    p = rng.dirichlet(np.ones(terms))
    ops = np.array([np.sqrt(pi) * kron(haar(rng, d1), haar(rng, d2)) for pi in p])
    return np.einsum("ij,jkl->ikl", haar(rng, terms), ops), (d1, d2)


def unnormalized_choi(ops):
    flat = np.array(ops).reshape(len(ops), -1)
    return flat.T @ np.conj(flat)


def is_sne(ops, dims):
    cert = certify_kraus_channel(KrausChannel(list(ops), dims))
    return cert.verdict == SNE and all(s.is_product_preserving for s in cert.structures)


@PROPS
@given(hidden_mixtures())
def test_hidden_mixture_ships_a_certificate_reproducing_the_choi_matrix(mixture):
    ops, dims = mixture
    assert is_sne(ops, dims)
    bounds = channel_schmidt_number_bounds(KrausChannel(list(ops), dims))
    assert (bounds.lower, bounds.upper) == (1, 1)
    want = unnormalized_choi(ops)
    got = unnormalized_choi(bounds.certificate)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@PROPS
@given(hidden_mixtures(), SEEDS, st.sampled_from([0, 2]))
def test_sne_survives_any_remixing_of_the_kraus_list(mixture, seed, pad):
    ops, dims = mixture
    # the first columns of a unitary: an isometry adding `pad` operators
    isometry = haar(np.random.default_rng(seed), len(ops) + pad)[:, : len(ops)]
    assert is_sne(np.einsum("ij,jkl->ikl", isometry, ops), dims)


@PROPS
@given(hidden_mixtures())
def test_sne_survives_relabelling_the_parties(mixture):
    ops, (d1, d2) = mixture
    # P |i, j> = |j, i> from the (d1, d2) space to the (d2, d1) space
    p = np.eye(d1 * d2).reshape(d1, d2, d1 * d2).transpose(1, 0, 2).reshape(d1 * d2, -1)
    assert is_sne(p @ ops @ p.T, (d2, d1))
