"""Acceptance suite: one test per release criterion, exact checks only.

Each criterion runs one property of qfold.properties, at a larger seed
and size than `qfold verify-all` uses, and prints a single PASS line
(visible with pytest -s or -rA) once it passes; any failure is a release
blocker.
"""

from qfold.properties import PROPERTIES


def accept(number: int, name: str, seed: int, size: int) -> None:
    check, _verify_size = PROPERTIES[name]
    assert check(seed, size) == []
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_split_quotient_correspondence():
    accept(1, "split-correspondence", 0, 0)


def test_criterion_02_involution_on_corpus():
    accept(2, "split-involution", 0, 0)


def test_criterion_03_admissibility_triple():
    accept(3, "admissibility", 0, 0)


def test_criterion_04_folding_table():
    accept(4, "folding-table", 0, 0)


def test_criterion_05_folded_generator_relations():
    accept(5, "folded-generators", 0, 0)


def test_criterion_06_branching():
    accept(6, "branching", 2024, 20)


def test_criterion_07_character_totals():
    accept(7, "character-dimensions", 7, 50)


def test_criterion_08_stability_oracle_agreement():
    accept(8, "stability-oracle", 88, 200)


def test_criterion_09_twisted_double_certificate():
    accept(9, "twisted-double-witness", 0, 0)


def test_criterion_10_eigenspace_inclusion():
    accept(10, "eigenspace-inclusion", 55, 200)


def test_criterion_11_transport_order():
    accept(11, "transport-order", 31, 100)


def test_criterion_12_dimension_bookkeeping():
    accept(12, "variety-dimensions", 0, 0)


def test_criterion_13_fiber_counts():
    accept(13, "fiber-enumeration", 0, 4)
