"""The shipped fixture files stay in sync with their generators."""
from pathlib import Path

import pytest

from bagsolve import (
    fixture_duality_bag,
    generate_family,
    generate_star,
    parse_bag,
    serialize_bag,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

EXPECTED = {
    "duality.bag": fixture_duality_bag,
    "family_k1.bag": lambda: generate_family(1, 0.9, 0.1),
    "family_k2.bag": lambda: generate_family(2, 0.9, 0.1),
    "star_k1.bag": lambda: generate_star(1, 0.9, 0.9),
    "star_k10.bag": lambda: generate_star(10, 0.9, 0.9),
    "star_k100.bag": lambda: generate_star(100, 0.9, 0.9),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fixture_file_matches_generator(name):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    assert parse_bag(text) == EXPECTED[name]()


def test_no_stray_fixture_files():
    assert {p.name for p in FIXTURES.glob("*.bag")} == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_serialization_matches_fixture_file(name):
    # the files are serializer output under a comment header, so this pins
    # the serializer's bytes: statement order, number format and layout
    text = (FIXTURES / name).read_text(encoding="utf-8")
    statements = "".join(line for line in text.splitlines(keepends=True)
                         if not line.startswith("#"))
    assert serialize_bag(parse_bag(text)) == statements
