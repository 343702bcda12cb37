"""The seeded generators: pinned draws, the witnesses they build in closed
form checked by the consumers' verifiers, and the twists and modules they
draw, which they build unchecked, checked here."""

import hashlib
import random

import pytest

from qfold.corpus import corpus, corpus_entry
from qfold.errors import InputError
from qfold.generators import (
    _choices,
    _random_sign_compatible,
    _random_triangular,
    _sign_diag,
    rand_invertible,
    rand_mat,
    random_graded_pair,
    random_one_way_module,
    random_orbit_constant_dims,
    random_sigma,
    random_theta_module,
)
from qfold.linalg import Mat
from qfold.module_lab import (check_framed_embedding, check_relations, framed_module,
                              verify_transition)
from qfold.quiver_core import orbit_data
from qfold.split_quotient import identity_sigma

# verify-all's eigenspace-inclusion setups at the generator's default sizes,
# and module-lab's entries at its sizes
PAIR_DEFAULT_ENTRIES = ("A3-flip", "A5-flip", "D4-swap", "D5-swap")
PAIR_MODULE_LAB_ENTRIES = ("A7-flip", "A9-flip", "D4-swap", "D5-swap", "affineD4-swap")
MODULE_LAB_SIZES = {"max_sub": 3, "max_extra": 2}

# SHA-256 of `_draws_digest()`.  verify-all's stdout does not depend on the
# seed, so this pin is what shows that a change to the generators' work
# left every seed's draws where they were
DRAWS_SHA256 = "3d05bfbfe0f655006865eaedb28554b9259104f7d398ea540ca0c1fe782b4eca"

# SHA-256 of `_fp_draws_digest()`: the draws over F_p, which stability-oracle
# makes, pinned as DRAWS_SHA256 pins those over Q.  It was computed when
# the drawers still drew each entry with `randrange(p)`
FP_DRAWS_SHA256 = "a73c6bac7800752ad655b9c3f45694cc55fa7a3e379a3462546035641d8a5a28"
FP_SHAPES = ((0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (4, 4))


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


def _fp_draws_digest() -> str:
    h = hashlib.sha256()
    for seed in range(1, 6):
        for p in (2, 3, 5, 7):
            rng = random.Random(seed)
            for rows, cols in FP_SHAPES:
                _feed_mat(h, rand_mat(rng, rows, cols, p))
            for entry in corpus():
                q = entry.quiver
                v = {x: rng.randint(0, 3) for x in q.vertices}
                w = {x: rng.randint(0, 2) for x in q.vertices}
                _feed_module(h, random_one_way_module(rng, q, v, w, p=p))
    return h.hexdigest()


def test_draws_are_pinned():
    assert _draws_digest() == DRAWS_SHA256


def test_draws_over_prime_fields_are_pinned():
    assert _fp_draws_digest() == FP_DRAWS_SHA256


# The drawers as they drew with `randint(-2, 2)` and `randrange(p)`: the
# oracle of the drawers that read each entry with one `rng.choice`
def _randint_rand_mat(rng, rows, cols, p=None):
    if p is None:
        return Mat(rows, cols, [[rng.randint(-2, 2) for _ in range(cols)]
                                for _ in range(rows)])
    return Mat(rows, cols, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], p)


def _randint_triangular(rng, rows, cols, sub_rows, sub_cols):
    m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
    for r in range(sub_rows, rows):
        for c in range(sub_cols):
            m[r][c] = 0
    return Mat(rows, cols, m)


def _randint_sign_compatible(rng, row_signs, col_signs):
    data = [[rng.randint(-2, 2) if row_signs[r] == col_signs[c] else 0
             for c in range(len(col_signs))] for r in range(len(row_signs))]
    return Mat(len(row_signs), len(col_signs), data)


# the option lists `random_finite_order_matrix` draws a block order from
BLOCK_ORDER_OPTIONS = ([1], [1, 2], [1, 2, 3, 6], [1, 2, 4], [1, 3, 5, 15], list(range(1, 10)))


def test_drawers_match_the_randint_loops():
    """Each drawer gives the matrix of the loop it replaced, entry by entry,
    and so do the dimension and block-order draws, each against the
    `randint` or `choice` call it replays; each leaves the random stream
    where that loop left it.  An empty range is refused, not drawn from
    forever."""
    shapes = ((0, 0), (0, 2), (2, 0), (1, 1), (3, 3), (2, 5), (4, 1))
    for seed in range(200):
        signs = random.Random(-seed)
        for rows, cols in shapes:
            sub_rows, sub_cols = signs.randint(0, rows), signs.randint(0, cols)
            row_signs = [signs.choice((1, -1)) for _ in range(rows)]
            col_signs = [signs.choice((1, -1)) for _ in range(cols)]
            draws = [(rand_mat, _randint_rand_mat, (rows, cols, p)) for p in (None, 2, 3, 5, 7)]
            draws += [(_random_triangular, _randint_triangular, (rows, cols, sub_rows, sub_cols)),
                      (_random_sign_compatible, _randint_sign_compatible, (row_signs, col_signs))]
            for new, old, args in draws:
                rng, oracle = random.Random(seed), random.Random(seed)
                got, want = new(rng, *args), old(oracle, *args)
                assert (got.rows, got.cols, got.p) == (want.rows, want.cols, want.p)
                assert got.data == want.data and got == want, (new.__name__, seed, args)
                assert rng.getstate() == oracle.getstate(), (new.__name__, seed, args)
        # `_choices`, which also draws the dimensions and the block orders,
        # against `randint(0, k)` and `choice(options)`, a run at a time
        for count in (0, 1, 2, 7):
            for k in range(5):
                rng, oracle = random.Random(seed), random.Random(seed)
                assert _choices(rng, range(k + 1), count) == \
                    [oracle.randint(0, k) for _ in range(count)], (seed, k, count)
                assert rng.getstate() == oracle.getstate(), (seed, k, count)
            for options in BLOCK_ORDER_OPTIONS:
                rng, oracle = random.Random(seed), random.Random(seed)
                assert _choices(rng, options, count) == \
                    [oracle.choice(options) for _ in range(count)], (seed, options, count)
                assert rng.getstate() == oracle.getstate(), (seed, options, count)
    for entry in corpus():
        od = orbit_data(entry.quiver, entry.auto)
        for seed in range(20):
            rng, oracle = random.Random(seed), random.Random(seed)
            want = {}
            for orbit in od.vertex_orbits:
                want.update(dict.fromkeys(orbit, oracle.randint(0, 2)))
            assert random_orbit_constant_dims(rng, od) == want, (entry.name, seed)
            assert rng.getstate() == oracle.getstate(), (entry.name, seed)
    with pytest.raises(InputError, match="^nothing to draw from$"):
        _choices(random.Random(0), [], 1)


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


def test_every_draw_is_valid_as_built():
    """The generators check neither the twists nor the modules they draw,
    as both are valid by construction: every twist passes the entry check
    `SigmaData.validate`, and every module and submodule satisfies the
    preprojective relation and is the module `framed_module` builds from
    its maps with every check (one-way modules over Q and F_3,
    theta-modules, and both modules of a graded pair at the default and
    the module-lab sizes)."""
    sigmas, modules = [], []
    for seed in range(1, 6):
        for entry in corpus():
            q, a = entry.quiver, entry.auto
            m, sigma = random_theta_module(random.Random(seed), q, a)
            sigmas += [sigma, identity_sigma(q, a, m.w)]
            modules.append(m)
            # wider framings than random_theta_module draws, and modules over F_3
            rng = random.Random(-seed)
            w = {}
            for orbit in orbit_data(q, a).vertex_orbits:
                w.update(dict.fromkeys(orbit, rng.randint(0, 3)))
            sigmas.append(random_sigma(rng, q, a, w))
            v = {x: rng.randint(0, 2) for x in q.vertices}
            modules += [random_one_way_module(rng, q, v, w, p=3),
                        random_one_way_module(rng, q, v, w, signed=False)]
        for names, sizes in ((PAIR_DEFAULT_ENTRIES, {}),
                             (PAIR_MODULE_LAB_ENTRIES, MODULE_LAB_SIZES)):
            for name in names:
                entry = corpus_entry(name)
                _xi, m_sub, m, sigma, _w_sub, _wit = random_graded_pair(
                    random.Random(seed), entry.quiver, entry.auto, **sizes)
                sigmas.append(sigma)
                modules += [m_sub, m]
    for sigma in sigmas:
        sigma.validate()
    for m in modules:
        check_relations(m)
    assert {m.B[k].p for m in modules for k in m.B} == {0, 3}
    assert [m for m in modules if m != framed_module(m.quiver, m.v, m.w, B=m.B, I=m.I, J=m.J,
                                                     signed=m.signed)] == []


def test_rand_invertible_returns_the_inverse():
    """Each draw comes with its inverse, the right half of the rref of
    [m | I], empty shapes included."""
    rng = random.Random(3)
    for n in range(5):
        for _ in range(20):
            m, m_inv = rand_invertible(rng, n)
            red, pivots = m.hstack(Mat.identity(n)).rref()
            assert pivots == list(range(n))
            assert m_inv == red.submatrix(range(n), range(n, 2 * n))
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
    for signs in ((), (1,), (-1,), (1, -1), (1, 1, -1, -1, -1)):
        d = _sign_diag(signs)
        assert d * d == Mat.identity(len(signs))
