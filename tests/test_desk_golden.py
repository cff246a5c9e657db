"""Every desk row keeps its recorded outcome to the bit (``desk_golden.py``
says what is recorded and how to re-run or re-record all of it)."""

import math

import pytest

from desk_golden import desk_rows, differences, load_golden, outcome

ROWS = desk_rows()

# t8 admm at n=128 and n=256 take about two thirds of the desk's time;
# `python tests/desk_golden.py` checks them with every other row.
SLOW = ("t8[6]-admm-n128", "t8[8]-admm-n256")


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def test_golden_covers_every_desk_row(golden):
    assert list(golden) == list(ROWS)
    assert set(SLOW) <= ROWS.keys()


@pytest.mark.parametrize("row_id", [row_id for row_id in ROWS if row_id not in SLOW])
def test_desk_row_is_unchanged(row_id, golden):
    got = outcome(ROWS[row_id])
    assert differences({row_id: golden[row_id]}, {row_id: got}) == []


def test_a_flipped_last_bit_is_a_difference(golden):
    row_id = "t9[6]-newton-admm-n128"
    entry = golden[row_id]
    flipped = math.nextafter(float.fromhex(entry["final_residual"]), math.inf).hex()
    assert differences(golden, {**golden, row_id: {**entry, "final_residual": flipped}}) == [
        f"{row_id} final_residual: {entry['final_residual']!r} -> {flipped!r}"
    ]
