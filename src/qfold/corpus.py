"""Named quiver-with-automorphism corpus.

Built-in entries cover the finite A/D flip and swap families, the affine
cycle with its reflection and rotation, the affine D double swap, and the
order-3 rotation of the four-point star.  Entries are not required to be
admissible: the non-admissible ones are kept as counterexamples and are
recorded as such.  An entry is a name, a quiver, an automorphism and its
admissibility.  The corpus is this fixed table; a quiver of one's own is
read from a file by the CLI's `--file`.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, NamedTuple

from .errors import InputError
from .quiver_core import (
    DiagramAutomorphism,
    Quiver,
    a_quiver,
    affine_a_quiver,
    affine_d_quiver,
    automorphism,
    d_quiver,
    flip_automorphism,
    fork_swap_automorphism,
    identity_automorphism,
    is_admissible,
)


class CorpusEntry(NamedTuple):
    name: str
    quiver: Quiver
    auto: DiagramAutomorphism
    admissible: bool


def _builtin_makers() -> dict[str, Callable[[], CorpusEntry]]:
    """Each built-in entry's name with a function that builds it, so that
    one entry is built without the others."""
    makers: dict[str, Callable[[], CorpusEntry]] = {}

    def add(name: str, make_quiver: Callable[[], Quiver],
            make_auto: Callable[[Quiver], DiagramAutomorphism]) -> None:
        def make() -> CorpusEntry:
            q = make_quiver()
            a = make_auto(q)
            return CorpusEntry(name, q, a, is_admissible(q, a))
        makers[name] = make

    add("A3-id", lambda: a_quiver(3), identity_automorphism)   # the path with the identity
    for n in (3, 5, 7, 9):   # odd paths with the end-to-end flip
        add(f"A{n}-flip", partial(a_quiver, n), partial(flip_automorphism, n=n))
    for n in (4, 6, 8):   # even path flips: each reverses the middle edge, not admissible
        add(f"A{n}-flip", partial(a_quiver, n), partial(flip_automorphism, n=n))
    for n in (3, 4, 5, 6):   # fork swaps
        add(f"D{n}-swap", partial(d_quiver, n), partial(fork_swap_automorphism, n=n))
    add("D4-rot3", lambda: d_quiver(4),   # the order-3 rotation of the three legs
        lambda q: automorphism(q, {"1": "3", "3": "4", "4": "1", "2": "2"}))
    add("affineA1-swap", lambda: affine_a_quiver(1),   # double edge, ends swapped, not admissible
        lambda q: automorphism(q, {"0": "1", "1": "0"}, {"e0": "e1", "e1": "e0"}))
    add("affineA3-rot", lambda: affine_a_quiver(3),   # the cycle rotation, not admissible
        lambda q: automorphism(q, {"0": "1", "1": "2", "2": "3", "3": "0"}))
    add("affineA3-flip", lambda: affine_a_quiver(3),   # the cycle reflection fixing 0 and 2
        lambda q: automorphism(q, {"0": "0", "2": "2", "1": "3", "3": "1"}))
    add("affineD4-swap", lambda: affine_d_quiver(4),   # the swap of one fork pair
        lambda q: automorphism(q, {"0": "0", "1": "1", "2": "2", "3": "4", "4": "3"}))
    add("affineD4-doubleswap", lambda: affine_d_quiver(4),   # the swap of both fork pairs
        lambda q: automorphism(q, {"0": "1", "1": "0", "2": "2", "3": "4", "4": "3"}))
    return makers


@lru_cache(maxsize=1)
def _builtin() -> tuple[CorpusEntry, ...]:
    """Every built-in entry, built once per process (an entry is not
    changed once built)."""
    return tuple(make() for make in _builtin_makers().values())


def corpus() -> list[CorpusEntry]:
    return list(_builtin())


def corpus_entry(name: str) -> CorpusEntry:
    """The named entry, built alone."""
    makers = _builtin_makers()
    if name not in makers:
        raise InputError(f"unknown corpus entry {name!r}; known entries: {', '.join(makers)}")
    return makers[name]()
