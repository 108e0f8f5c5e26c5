"""Tests for the blocked ExperimentResult and the column-wise CSV writer."""

import tracemalloc
from array import array

import numpy as np
import pytest

from tsvf_sim.cli import RENDER_CHUNK, _fmt, csv_chunks
from tsvf_sim.experiments import BLOCK, EXPERIMENTS, ExperimentResult, resolve_params
from helpers import result_columns

MIXED = [-0.0, 5e-324, float("inf"), None, "brute", "closed", 2 ** 63 + 1, 10 ** 29 - 1, 0.1, -7]


def _render(result) -> str:
    exp = EXPERIMENTS["decay"]
    return "".join(csv_chunks(exp, 0, resolve_params(exp, {}), result))


def _data_lines(result):
    text = _render(result)
    assert text.endswith("\n")
    lines = text.split("\n")[:-1]
    assert lines[2] == ",".join(result.header)
    return lines[3:]


def _mixed_columns(n_rows: int) -> tuple:
    """Columns of every kind a runner hands over: lists of mixed cells, numpy
    ints and floats, array('b'), array('d') and a range."""
    mixed = [MIXED[i % len(MIXED)] for i in range(n_rows)]
    shifted = [MIXED[(3 * i + 1) % len(MIXED)] for i in range(n_rows)]
    ints = np.arange(n_rows) * (2 ** 40) - 2 ** 62
    floats = np.resize(np.array([-0.0, 5e-324, np.inf, -np.inf, 1e16, 1e-5, 0.1]), n_rows)
    signs = array("b", [1 - 2 * (i % 3 == 0) for i in range(n_rows)])
    doubles = array("d", [i / 7 for i in range(n_rows)])
    return mixed, ints, shifted, floats, signs, doubles, range(n_rows)


HEADER = ("m", "i", "s", "f", "b", "d", "r")


@pytest.mark.parametrize("header, columns", [
    (("a", "b"), ([1, 2],)),
    (("a",), ([1], [2])),
    ((), ()),
], ids=["fewer-columns", "more-columns", "no-columns"])
def test_writer_needs_one_column_per_header_name(header, columns):
    with pytest.raises(ValueError, match="one column per header name") as raised:
        _render(ExperimentResult.from_columns(header, columns, summary={}))
    assert raised.type is ValueError  # a defect of the runner, not rejected input


def test_writer_needs_columns_of_equal_length():
    with pytest.raises(ValueError, match=r"differ in length: \[2, 3\]") as raised:
        _render(ExperimentResult.from_columns(("a", "b"), (np.arange(3), [1.0, 2.0]),
                                              summary={}))
    assert raised.type is ValueError


def test_result_chunks_yield_every_row_once():
    result = ExperimentResult.from_columns(header=("a", "b"),
                                           columns=(np.arange(3), ["x", "y", ""]), summary={})
    assert result_columns(result) == ([0, 1, 2], ["x", "y", ""])


@pytest.mark.parametrize("n_rows", [1, RENDER_CHUNK - 1, RENDER_CHUNK, RENDER_CHUNK + 1])
def test_column_wise_render_equals_row_wise_fmt(n_rows):
    columns = _mixed_columns(n_rows)
    result = ExperimentResult.from_columns(header=HEADER, columns=columns, summary={})
    expected = [",".join(_fmt(v) for v in row) for row in zip(*columns)]
    assert _data_lines(result) == expected


def test_rendered_text_does_not_depend_on_how_a_runner_blocks_its_rows():
    sizes = [1, 7, RENDER_CHUNK - 1, RENDER_CHUNK + 1, BLOCK]
    columns = _mixed_columns(sum(sizes))

    def blocks():
        start = 0
        for size in sizes:
            yield tuple(column[start:start + size] for column in columns)
            start += size

    whole = ExperimentResult.from_columns(header=HEADER, columns=columns, summary={})
    assert _render(ExperimentResult(HEADER, blocks, {})) == _render(whole)


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
