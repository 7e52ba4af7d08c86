import time

import pytest

from fdlab.data import TABLES, load_table, table_rows
from fdlab.model import ModelError
from fdlab.problems import (
    Instance,
    bibd_params,
    build,
    check_solution,
    counts,
    parse_instance,
)


def test_parse_instance_forms():
    assert parse_instance("queens:8") == Instance("queens", (8,))
    assert parse_instance("golfers:2,4,4") == Instance("golfers", (2, 4, 4))
    assert parse_instance("queens:8+ext") == Instance("queens", (8,), extended=True)
    assert str(parse_instance("golfers:2,4,4+ext")) == "golfers:2,4,4+ext"


@pytest.mark.parametrize(
    "text",
    ["queens", "queens:", "queens:x", "queens:8,3", "sudoku:9", "queens:-1", "magic:4+ext"],
)
def test_parse_instance_rejects_malformed(text):
    with pytest.raises(ModelError):
        parse_instance(text)


@pytest.mark.parametrize(
    "problem, params",
    [
        ("queens", (8.5,)),
        ("queens", (8.0,)),
        ("queens", ("8",)),
        ("queens", (None,)),
        ("bibd", (7, 3, 1.0)),
        ("golfers", (2, "4", 4)),
        ("queens", 8),
    ],
)
def test_instance_rejects_non_integral_parameters(problem, params):
    with pytest.raises(ModelError, match="positive integer parameter"):
        Instance(problem, params)


@pytest.mark.parametrize("text", ["queens:20000", "magic:256"])
def test_oversized_models_fail_fast(text):
    """queens:20000 asks for about 2*10^8 variables, and magic:256 keeps to
    the domain span cap but its 65,536 cells model 2^26 words: both are
    refused as they pass the region cap, long before memory runs out."""
    started = time.perf_counter()
    with pytest.raises(ModelError, match="words of modelled domains"):
        build(parse_instance(text))
    assert time.perf_counter() - started < 1.0


def test_bibd_params():
    assert bibd_params(7, 3, 1) == (7, 3)
    assert bibd_params(7, 3, 10) == (70, 30)
    with pytest.raises(ModelError):
        bibd_params(8, 3, 1)  # r = 7/2 does not divide
    with pytest.raises(ModelError):
        bibd_params(7, 1, 1)


def test_data_tables_load():
    for name in TABLES:
        table = load_table(name)
        assert table["rows"]
        assert len(table["columns"]) == len(table["rows"][0])
    with pytest.raises(KeyError):
        load_table("table9")
    rows = table_rows("table3")
    assert {"model", "instance", "backtracks"} == set(rows[0])


def test_counts_match_published_model_sizes():
    for row in table_rows("table2"):
        inst = parse_instance(f"{row['model']}:{row['instance']}")
        got = counts(inst)
        assert got.variables == row["variables"], inst
        assert got.constraints_native == row["constraints"], inst
        assert got.constraints_decomposed == row["constraints_decomposed"], inst


def test_extended_counts_match_published_sizes():
    for row in table_rows("table4"):
        inst = parse_instance(f"{row['model']}:{row['instance']}+ext")
        assert counts(inst).variables == row["variables_extended"], inst


def test_extended_model_adds_unconstrained_bools_only():
    normal = build(parse_instance("queens:8"))
    extended = build(parse_instance("queens:8+ext"))
    assert len(extended.store._mask) == len(normal.store._mask)
    assert len(extended.store._bstate) > len(normal.store._bstate)
    assert len(extended.props) == len(normal.props)
    assert extended.decision_vars == normal.decision_vars


def test_build_respects_bool_mode():
    native = build(parse_instance("bibd:7,3,2"), bool_mode="native")
    as_int = build(parse_instance("bibd:7,3,2"), bool_mode="int")
    assert len(native.store._bstate) > 0 and len(native.store._mask) == 0
    assert len(as_int.store._bstate) == 0 and len(as_int.store._mask) > 0
    assert native.store.num_vars == as_int.store.num_vars


def test_decision_variable_layout():
    model = build(parse_instance("golfers:2,3,3"))
    assert len(model.decision_vars) == 2 * 3 * 9
    model = build(parse_instance("magic:4"))
    assert len(model.decision_vars) == 16
    model = build(parse_instance("golomb:5"))
    assert model.objective == model.decision_vars[-1]


def test_check_solution_examples():
    assert check_solution(parse_instance("queens:4"), (1, 3, 0, 2)) is None
    assert "diagonal" in check_solution(parse_instance("queens:4"), (0, 1, 3, 2))
    assert "column" in check_solution(parse_instance("queens:4"), (0, 0, 1, 3))
    assert check_solution(parse_instance("golomb:4"), (0, 1, 4, 6)) is None
    assert "distinct" in check_solution(parse_instance("golomb:4"), (0, 1, 2, 4))
    assert "increasing" in check_solution(parse_instance("golomb:4"), (0, 4, 1, 6))
    assert "first tick" in check_solution(parse_instance("golomb:4"), (1, 2, 5, 7))
    good_magic = (2, 7, 6, 9, 5, 1, 4, 3, 8)
    assert check_solution(parse_instance("magic:3"), good_magic) is None
    assert "sums" in check_solution(parse_instance("magic:3"), (1, 2, 3, 4, 5, 6, 7, 8, 9))
    assert "permutation" in check_solution(parse_instance("magic:3"), (2,) * 9)


def test_check_solution_wrong_arity():
    assert "expected" in check_solution(parse_instance("queens:4"), (0, 1))
