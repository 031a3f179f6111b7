"""Property tests of stochastically-non-entangling certificates.

A mixture of weighted local unitaries whose Kraus list is hidden by a random
unitary on the Kraus index is SNE by construction. Its certificate must not
depend on which Kraus list of the channel is stored, nor on the order of the
parties, and the Kraus list it ships must reproduce the channel. Certificates
and Schmidt-number bounds must also not change when the Kraus list is scaled,
nor, for one operator, when it is stored as several multiples of itself.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entpow.channels import KrausChannel, mixing_channel
from entpow.cli import main
from entpow.power import certify_kraus_channel, channel_schmidt_number_bounds
from entpow.serialize import channel_to_json
from entpow.states import DensityMatrix, max_entangled
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


CNOT = np.eye(4)[[0, 1, 3, 2]]


def fixed_channel(name):
    if name == "cnot_with_identity":
        return [np.sqrt(0.5) * np.eye(4), np.sqrt(0.5) * CNOT], (2, 2)
    bell = DensityMatrix(max_entangled(2, 2).projector(), (2, 2))
    return list(mixing_channel(0.3, bell).kraus), (2, 2)


def answers(ops, dims):
    ch = KrausChannel(list(ops), dims)
    cert = certify_kraus_channel(ch)
    bounds = channel_schmidt_number_bounds(ch)
    forms = [s.form for s in cert.structures]
    return cert.verdict, cert.note, forms, bounds.lower, bounds.upper, bounds.method


@PROPS
@given(
    st.one_of(
        hidden_mixtures(),
        st.sampled_from(["cnot_with_identity", "bell_mixing"]).map(fixed_channel),
    ),
    st.integers(-3, 3),
)
def test_answers_do_not_change_when_the_kraus_list_is_scaled(channel, k):
    ops, dims = channel
    scaled = [10.0**k * m for m in ops]
    assert answers(scaled, dims) == answers(ops, dims)


@st.composite
def stored_lists(draw):
    """One to three operators, each local ``A (x) B`` or generic, as stored."""
    d1, d2 = draw(DIMS)
    rng = np.random.default_rng(draw(SEEDS))
    kinds = draw(st.lists(st.sampled_from(["local", "generic"]), min_size=1, max_size=3))

    def rand(n):
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    ops = [kron(rand(d1), rand(d2)) if kind == "local" else rand(d1 * d2) for kind in kinds]
    return np.array(ops), (d1, d2)


@PROPS
@given(
    st.one_of(
        hidden_mixtures(),
        stored_lists(),
        st.sampled_from(["cnot_with_identity", "bell_mixing"]).map(fixed_channel),
    )
)
def test_bounds_read_the_certificate(channel):
    ops, dims = channel
    ch = KrausChannel(list(ops), dims)
    cert = certify_kraus_channel(ch)
    bounds = channel_schmidt_number_bounds(ch)
    assert ((bounds.lower, bounds.upper) == (1, 1)) == (cert.verdict == SNE)
    assert cert.verdict != "entangling" or bounds.lower >= 2
    if ch.choi_rank == 1:  # exact: the image rank of the one operator
        assert bounds.lower == bounds.upper
    else:
        assert (bounds.lower == 2) == (cert.verdict == "entangling")
    want = unnormalized_choi(ops)
    for kraus in (cert.kraus, bounds.certificate):
        assert np.linalg.norm(unnormalized_choi(kraus) - want) <= 1e-9 * np.linalg.norm(want)


def schmidt_report(ch):
    """What ``entpow schmidt`` prints for `ch`."""
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "ch.json"
        spec.write_text(json.dumps(channel_to_json(ch)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["schmidt", str(spec)]) == 0
    return out.getvalue()


@PROPS
@given(st.one_of(hidden_mixtures(), stored_lists()), SEEDS)
def test_choi_rank_one_bounds_do_not_depend_on_the_split(channel, seed):
    # one operator stored as 1, 2 or 3 multiples c_j M with sum |c_j|^2 = 1
    ops, dims = channel
    rng = np.random.default_rng(seed)
    seen = set()
    for terms in (1, 2, 3):
        c = np.sqrt(rng.dirichlet(np.ones(terms))) * np.exp(2j * np.pi * rng.random(terms))
        ch = KrausChannel([cj * ops[0] for cj in c], dims)
        assert ch.choi_rank == 1
        b = channel_schmidt_number_bounds(ch)
        line = f"channel schmidt number bounds: ({b.lower}, {b.upper}) [{b.method}]\n"
        assert line in schmidt_report(ch)
        seen.add((b.lower, b.upper, b.method))
    assert len(seen) == 1
