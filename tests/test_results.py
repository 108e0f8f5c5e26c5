"""Tests for the chunked ExperimentResult and the column-wise CSV renderer."""

import tracemalloc

import numpy as np
import pytest

from tsvf_sim.cli import RENDER_CHUNK, _fmt, csv_chunks, render_csv
from tsvf_sim.errors import InvariantError
from tsvf_sim.experiments import EXPERIMENTS, ExperimentResult, resolve_params
from helpers import result_columns

MIXED = [-0.0, 5e-324, float("inf"), None, "brute", "closed", 2 ** 63 + 1, 10 ** 29 - 1, 0.1, -7]


def _data_lines(result):
    exp = EXPERIMENTS["decay"]
    text = render_csv(exp, 0, resolve_params(exp, {}), result)
    assert text.endswith("\n")
    lines = text.split("\n")[:-1]
    assert lines[2] == ",".join(result.header)
    return lines[3:]


def test_result_needs_one_column_per_header_name():
    with pytest.raises(InvariantError, match="one column per header name"):
        ExperimentResult.from_columns(header=("a", "b"), columns=([1, 2],), summary={})
    with pytest.raises(InvariantError, match="one column per header name"):
        ExperimentResult.from_columns(header=("a",), columns=([1], [2]), summary={})
    with pytest.raises(InvariantError, match="one column per header name"):
        ExperimentResult.from_columns(header=(), columns=(), summary={})


def test_result_columns_must_have_equal_length():
    with pytest.raises(InvariantError, match="differ in length"):
        ExperimentResult.from_columns(header=("a", "b"), columns=(np.arange(3), [1.0, 2.0]),
                                      summary={})


def test_result_chunks_yield_every_row_once():
    result = ExperimentResult.from_columns(header=("a", "b"),
                                           columns=(np.arange(3), ["x", "y", ""]), summary={})
    assert result_columns(result) == ([0, 1, 2], ["x", "y", ""])


@pytest.mark.parametrize("n_rows", [1, RENDER_CHUNK - 1, RENDER_CHUNK, RENDER_CHUNK + 1])
def test_column_wise_render_equals_row_wise_fmt(n_rows):
    mixed = [MIXED[i % len(MIXED)] for i in range(n_rows)]
    shifted = [MIXED[(3 * i + 1) % len(MIXED)] for i in range(n_rows)]
    ints = np.arange(n_rows) * (2 ** 40) - 2 ** 62
    floats = np.resize(np.array([-0.0, 5e-324, np.inf, -np.inf, 1e16, 1e-5, 0.1]), n_rows)
    columns = (mixed, ints, shifted, floats, range(n_rows))
    result = ExperimentResult.from_columns(header=("m", "i", "s", "f", "r"), columns=columns,
                                           summary={})
    expected = [",".join(_fmt(v) for v in row) for row in zip(*columns)]
    assert _data_lines(result) == expected


def test_born_million_trial_render_memory_is_bounded():
    exp = EXPERIMENTS["born"]
    exp.runner(resolve_params(exp, {"trials": "1"}), 7)  # imports random before tracing
    params = resolve_params(exp, {"trials": "1000000"})
    tracemalloc.start()
    try:
        result = exp.runner(params, 7)
        lines = sum(chunk.count("\n") for chunk in csv_chunks(exp, 7, params, result))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lines == 3 + 1_000_000
    # Measured 0.39 MiB, set by the render, which holds one RENDER_CHUNK of
    # 2048 rows' cells and text and one block of 16384 outcomes at a time;
    # the counting pass alone peaks at 0.05 MiB. Joining the whole text instead peaked at 18.2 MiB,
    # and a per-row renderer above 80 MiB.
    assert peak < 2 ** 20
