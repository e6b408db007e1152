"""CSV rendering against the field-by-field reference ``oracles.csv_field``,
byte for byte, on every value kind a table row holds."""

import math

import numpy as np
import pytest

from spinflip.tables import OutputTable

from oracles import csv_field

ROWS = [
    [0.1, np.float64(1.0) / 3.0, 7, True, "x-only"],
    [math.nan, math.inf, -math.inf, -0.0, 5e-324],
    [np.int64(-3), np.float32(0.1), False, np.float64(-1e300), 2.5e-17],
]


@pytest.mark.parametrize("rows", [ROWS[:1], ROWS[1:2], ROWS, ROWS + ROWS[::-1]],
                         ids=["kinds", "non-finite-and-tiny", "three-signatures",
                              "signatures-repeat"])
def test_csv_matches_field_reference(rows):
    columns = {name: [row[i] for row in rows] for i, name in enumerate("abcde")}
    table = OutputTable.of(columns, meta={"seed": 1, "b0_T": 0.15})
    expected = ["# seed: 1", "# b0_T: 0.15", "a,b,c,d,e"]
    expected += [",".join(csv_field(v) for v in row) for row in rows]
    assert table.to_csv() == "\n".join(expected) + "\n"
    assert table.render("csv") == table.to_csv()


def test_unequal_columns_rejected():
    with pytest.raises(ValueError):
        OutputTable.of({"a": [1.0, 2.0], "b": [3.0]})

