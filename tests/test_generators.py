"""The seeded generators: pinned draws, and the witnesses they build in
closed form checked by the consumers' verifiers."""

import hashlib
import random

import pytest

from qfold.corpus import corpus, corpus_entry
from qfold.generators import _sign_diag, rand_invertible, random_graded_pair, random_theta_module
from qfold.linalg import Mat
from qfold.module_lab import check_framed_embedding, verify_transition

# verify-all's eigenspace-inclusion setups at the generator's default sizes,
# and module-lab's entries at its sizes
PAIR_DEFAULT_ENTRIES = ("A3-flip", "A5-flip", "D4-swap", "D5-swap")
PAIR_MODULE_LAB_ENTRIES = ("A7-flip", "A9-flip", "D4-swap", "D5-swap", "affineD4-swap")
MODULE_LAB_SIZES = {"max_sub": 3, "max_extra": 2}

# SHA-256 of `_draws_digest()`.  verify-all's stdout does not depend on the
# seed, so this pin is what shows that a change to the generators' work
# left every seed's draws where they were
DRAWS_SHA256 = "3d05bfbfe0f655006865eaedb28554b9259104f7d398ea540ca0c1fe782b4eca"


def _feed_mat(h, m: Mat) -> None:
    h.update(f"{m.rows}x{m.cols}[".encode())
    h.update(",".join(str(x) for row in m.data for x in row).encode())
    h.update(b"]")


def _feed_map(h, maps) -> None:
    for key in sorted(maps):
        h.update(f"{key}:".encode())
        _feed_mat(h, maps[key])


def _feed_module(h, m) -> None:
    h.update(f"v{sorted(m.v.items())}w{sorted(m.w.items())}s{m.signed}".encode())
    for maps in (m.B, m.I, m.J):
        _feed_map(h, maps)


def _feed_pair(h, pair) -> None:
    xi, m_sub, m, sigma, w_sub, wit = pair
    _feed_map(h, xi)
    _feed_module(h, m_sub)
    _feed_module(h, m)
    _feed_map(h, sigma.maps)
    _feed_map(h, w_sub.g)
    _feed_map(h, wit.g)


def _draws_digest() -> str:
    h = hashlib.sha256()
    for seed in range(1, 6):
        for name in PAIR_DEFAULT_ENTRIES:
            entry = corpus_entry(name)
            _feed_pair(h, random_graded_pair(random.Random(seed), entry.quiver, entry.auto))
        for name in PAIR_MODULE_LAB_ENTRIES:
            entry = corpus_entry(name)
            _feed_pair(h, random_graded_pair(random.Random(seed), entry.quiver, entry.auto,
                                             **MODULE_LAB_SIZES))
        for entry in corpus():
            m, sigma = random_theta_module(random.Random(seed), entry.quiver, entry.auto)
            _feed_module(h, m)
            _feed_map(h, sigma.maps)
    return h.hexdigest()


def test_draws_are_pinned():
    assert _draws_digest() == DRAWS_SHA256


@pytest.mark.parametrize("sizes", [{}, MODULE_LAB_SIZES], ids=["default", "module-lab"])
def test_graded_pair_witnesses_verify(sizes):
    """The witnesses a graded pair carries are built in closed form; both
    are module isomorphisms onto the transport, and xi is an embedding."""
    for name in PAIR_DEFAULT_ENTRIES:
        entry = corpus_entry(name)
        for seed in range(20):
            xi, m_sub, m, sigma, w_sub, wit = random_graded_pair(
                random.Random(seed), entry.quiver, entry.auto, **sizes)
            assert verify_transition(m, sigma, wit), (name, seed)
            assert verify_transition(m_sub, sigma, w_sub), (name, seed)
            assert check_framed_embedding(xi, m_sub, m), (name, seed)


def test_rand_invertible_returns_the_inverse():
    """Each draw comes with its inverse, empty shapes included."""
    rng = random.Random(3)
    for n in range(5):
        for _ in range(20):
            m, m_inv = rand_invertible(rng, n)
            assert m_inv == m.inverse()
            assert m * m_inv == Mat.identity(n)


def test_no_empty_matrix_is_inverted():
    """An empty gauge is the empty pair, drawn without touching the random
    stream; the draws of graded pairs and theta-modules, which ask for
    empty gauges at zero-dimensional orbits, invert no 0 x 0 matrix."""
    rng = random.Random(3)
    state = rng.getstate()
    assert rand_invertible(rng, 0) == (Mat.zeros(0, 0), Mat.zeros(0, 0))
    assert rng.getstate() == state
    inverted = []
    inverse = Mat.inverse

    def counting_inverse(m):
        inverted.append((m.rows, m.cols))
        return inverse(m)

    Mat.inverse = counting_inverse
    try:
        for seed in range(1, 4):
            for name in PAIR_DEFAULT_ENTRIES:
                entry = corpus_entry(name)
                random_graded_pair(random.Random(seed), entry.quiver, entry.auto)
            for entry in corpus():
                random_theta_module(random.Random(seed), entry.quiver, entry.auto)
    finally:
        Mat.inverse = inverse
    assert inverted and (0, 0) not in inverted


def test_sign_diagonals_are_involutions():
    for signs in ([], [1], [-1], [1, -1], [1, 1, -1, -1, -1]):
        d = _sign_diag(signs)
        assert d * d == Mat.identity(len(signs))
