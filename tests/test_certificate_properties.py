"""Property tests of stochastically-non-entangling certificates.

A list of product-preserving Kraus operators of one form (weighted local
unitaries, local-range operators or rectangular swaps) whose Kraus list is
hidden by a random unitary on the Kraus index is SNE by construction. Its certificate must not
depend on which Kraus list of the channel is stored, nor on the order of the
parties, and the Kraus list it ships must reproduce the channel. Certificates
and Schmidt-number bounds must also not change when the Kraus list is scaled
or dressed with local unitaries, nor, for one operator, when it is stored as
several multiples of itself.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entpow.channels import KrausChannel, mixing_channel, random_unitary_channel
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
    """Kraus operators ``U W`` for a Haar U and a list W of one form: weighted
    local unitaries; ``(|a_j> (x) I) N_j`` for at most d1 row blocks N_j of a
    Haar unitary, after a local unitary (`local_range`); or, on (2, 3), the
    rectangular ``(A_j (x) B_j) V`` for the party swap V (`permutation_local`)."""
    kind = draw(st.sampled_from(["local", "local_range", "swap"]))
    d1, d2 = (2, 3) if kind == "swap" else draw(DIMS)
    n = d1 * d2
    rng = np.random.default_rng(draw(SEEDS))
    if kind == "local":
        terms = draw(st.integers(1, min(4, d1 * d1, d2 * d2)))
        p = rng.dirichlet(np.ones(terms))
        ops = np.array([np.sqrt(pi) * kron(haar(rng, d1), haar(rng, d2)) for pi in p])
    elif kind == "local_range":
        terms = draw(st.integers(1, d1))
        blocks = haar(rng, n)[: terms * d2].reshape(terms, d2, n)
        local = kron(haar(rng, d1), haar(rng, d2))
        ops = np.array([local @ np.kron(np.eye(d1)[:, [j]], np.eye(d2)) @ blocks[j]
                        for j in range(terms)])
    else:
        terms = draw(st.integers(1, 4))
        # V |x, y> = |y, x> from the (d1, d2) space to the (d2, d1) space
        v = np.eye(n).reshape(d1, d2, n).transpose(1, 0, 2).reshape(n, n)
        g = rng.normal(size=(terms, 2, n)) + 1j * rng.normal(size=(terms, 2, n))
        ops = np.array([kron(a.reshape(d1, d2), b.reshape(d2, d1)) @ v for a, b in g])
        # trace non-increasing: sum_j M_j^dag M_j <= I
        ops /= np.sqrt(np.linalg.norm(np.einsum("jki,jkl->il", ops.conj(), ops), 2))
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
    return channel_answers(KrausChannel(list(ops), dims))


def channel_answers(ch):
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
    st.integers(-12, 12),
)
def test_answers_do_not_change_when_the_kraus_list_is_scaled(channel, k):
    ops, dims = channel
    scaled = [10.0**k * m for m in ops]
    assert answers(scaled, dims) == answers(ops, dims)


def test_a_faint_or_scaled_down_cnot_term_is_not_certified_sne():
    # no tolerance has an absolute floor, so a CNOT term of weight 1e-22 is not
    # read as zero: its image rank keeps the bounds of the unscaled list, but
    # the channel violates no witness by more than its relative cut, so the
    # verdict stays open; the whole list at 1e-12 gives the unscaled answers
    ops, dims = fixed_channel("cnot_with_identity")
    faint = [np.sqrt(1.0 - 1e-22) * np.eye(4), 1e-11 * CNOT]
    want = answers(ops, dims)
    got = answers(faint, dims)
    assert want[0] == "entangling" and got[0] == "inconclusive" and got[3:5] == want[3:5]
    assert answers([1e-12 * m for m in ops], dims) == want


def test_a_faint_term_of_a_built_channel_is_kept():
    # random-unitary and mixing channels keep every term of positive weight: with
    # a faint entangling term of weight w they give the answers of the same
    # operators stored as a Kraus list, and neither is SNE; the mixing form stops
    # where 1 - w rounds to 1, the identity channel
    phi = max_entangled(2, 2)
    replace = [np.outer(phi.amplitudes, e) for e in np.eye(4)]
    for w in 10.0 ** -np.arange(4, 25):
        pairs = [(random_unitary_channel([np.eye(4), CNOT], [1.0 - w, w], (2, 2)),
                  [np.sqrt(1.0 - w) * np.eye(4), np.sqrt(w) * CNOT])]
        if 1.0 - w < 1.0:
            pairs.append((mixing_channel(1.0 - w, phi.density()),
                          [np.sqrt(1.0 - w) * np.eye(4)] + [np.sqrt(w) * r for r in replace]))
        for ch, kraus in pairs:
            got = channel_answers(ch)
            assert got[0] != SNE and got == answers(kraus, (2, 2)), w


@st.composite
def stored_lists(draw):
    """One to three operators, as stored: each local ``A (x) B``, swapped
    ``M (x (x) y) = A y (x) B x`` (rectangular A and B on unequal dims), of
    local range ``a (x) N`` or ``N (x) b``, or generic."""
    d1, d2 = draw(DIMS)
    n = d1 * d2
    rng = np.random.default_rng(draw(SEEDS))
    kinds = ["local", "swap", "local_left", "local_right", "generic"]
    drawn = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3))

    def rand(rows, cols):
        return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))

    # V |x, y> = |y, x> from the (d1, d2) space to the (d2, d1) space
    v = np.eye(n).reshape(d1, d2, n).transpose(1, 0, 2).reshape(n, n)
    build = {
        "local": lambda: kron(rand(d1, d1), rand(d2, d2)),
        "swap": lambda: kron(rand(d1, d2), rand(d2, d1)) @ v,
        "local_left": lambda: np.kron(rand(d1, 1), rand(d2, n)),
        "local_right": lambda: np.kron(rand(d1, n), rand(d2, 1)),
        "generic": lambda: rand(n, n),
    }
    return np.array([build[kind]() for kind in drawn]), (d1, d2)


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


@PROPS
@given(
    st.one_of(
        hidden_mixtures(),
        stored_lists(),
        st.sampled_from(["cnot_with_identity", "bell_mixing"]).map(fixed_channel),
    ),
    SEEDS,
)
def test_answers_do_not_change_under_local_unitaries(channel, seed):
    # every K becomes (U_A (x) U_B) K (V_A (x) V_B): local unitaries before and
    # after the channel; only the note may change
    ops, (d1, d2) = channel
    rng = np.random.default_rng(seed)
    after, before = (kron(haar(rng, d1), haar(rng, d2)) for _ in range(2))
    verdict, _, forms, *bounds = answers([after @ m @ before for m in ops], (d1, d2))
    want_verdict, _, want_forms, *want_bounds = answers(ops, (d1, d2))
    assert (verdict, forms, bounds) == (want_verdict, want_forms, want_bounds)


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
    # one operator stored as 1, 2 or 3 multiples c_j M with sum |c_j|^2 = 1:
    # the bounds, the printed line and the verdict agree, and an entangling
    # certificate lists exactly one witness violation, evidence about the
    # channel that replays on its output
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
        cert = certify_kraus_channel(ch)
        for v in cert.violations:
            if v.kind == "witness":
                chi = v.input.assemble().amplitudes
                out = ch.apply_matrix(np.outer(chi, np.conj(chi)))
                replayed = np.real(np.trace(v.witness.operator @ out))
                assert abs(replayed - v.value) <= 1e-9 * max(1.0, abs(v.value))
        witnesses = [v for v in cert.violations if v.kind == "witness"]
        assert len(witnesses) == (cert.verdict == "entangling")
        seen.add((b.lower, b.upper, b.method, cert.verdict))
    assert len(seen) == 1
