import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhh import reports
from quiverhh.products import star_table

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def test_ledger_entry_classifies_deviations_by_value(pipes):
    hc = pipes[0].hochschild
    x, y, z = hc.x_cochain(), hc.y_cochain(), hc.z_cochain()
    assert reports._ledger_entry(x, x, "x", "2x") == "KD-1"
    assert reports._ledger_entry(z, z, "x", "0") == "KD-2"
    # a value neither known deviation produces
    assert reports._ledger_entry(y, y, "0", "<degree-2 cochain>") is None
    assert reports._ledger_entry(x, x, "x", "0") is None
    assert reports._ledger_entry(x, z, "z", "0") is None
    assert reports._ledger_entry(z, z, "0", "0") is None
    assert [row["id"] for row in reports.kd_ledger()] == ["KD-1", "KD-2"]


def test_worked_values_match_golden(pipes):
    dm = pipes[0].diagonal
    rows = reports.worked_value_report(dm, dm.default_homotopy())
    golden = json.loads((GOLDENS / "worked_values.json").read_text())
    assert rows == golden
    # the two claims that name generators missing at their degree
    illtyped = {r["generator"] for r in rows if r["status"] == "ill-typed"}
    assert illtyped == {"(f1,f1)", "(f1,e2)"}


def test_ring_star_report_matches_published_except_kd(pipes):
    rows = reports.ring_star_report(pipes[0].hochschild, pipes[0].products)
    deviations = [r for r in rows if r["status"] == "deviation"]
    assert [(r["left"], r["right"], r["kd"]) for r in deviations] == [("z", "z", "KD-2")]


def test_ring_presentation_rows(pipes, solved_families):
    hc, pr = pipes[0].hochschild, pipes[0].products
    cup = reports.ring_cup_report(hc, pr, solved_families[0])
    pres = reports.ring_presentation(cup)
    by = {r["relation"]: r for r in pres}
    assert by["x*x"]["status"] == "holds"
    assert by["y*y"]["status"] == "holds"
    assert by["y*z"]["status"] == "differs"
    assert by["z*z"]["computed"] == "nonzero class in degree 12"


def test_markdown_rendering_round_trips_values():
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    md = reports.render_markdown_table(rows, ["a", "b"])
    lines = md.strip().splitlines()
    assert lines[0] == "| a | b |"
    assert lines[2] == "| 1 | x |"
    assert lines[3] == "| 2 | y |"


def test_canonical_json_is_sorted_and_stable():
    a = reports.canonical_json({"b": 1, "a": [2, 1]})
    b = reports.canonical_json({"a": [2, 1], "b": 1})
    assert a == b


_json_scalars = (
    st.text()  # non-ASCII, control characters and lone surrogates included
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.booleans()
    | st.none()
    | st.floats()
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_json_values)
def test_canonical_json_matches_json_dumps(data):
    assert reports.canonical_json(data) == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_canonical_json_matches_json_dumps_on_a_report(pipes):
    pipe = pipes[0]
    payload = {"images": pipe.family_json(pipe.family("solved")), "empty": [{}, [], ""]}
    assert reports.canonical_json(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("bad", [{1, 2}, b"bytes", object(), {"k": [1, 2j]}, {1: "int key"}])
def test_canonical_json_refuses_unsupported_types(bad):
    with pytest.raises(TypeError):
        reports.canonical_json(bad)


@settings(max_examples=200, deadline=None)
@given(_json_values, st.integers(min_value=1, max_value=4))
def test_canonical_json_matches_json_dumps_in_small_chunks(data, chunk):
    # every chunk boundary, nested lists included, joins to the same text
    default, reports._CHUNK = reports._CHUNK, chunk
    try:
        assert reports.canonical_json(data) == json.dumps(data, indent=2, sort_keys=True) + "\n"
    finally:
        reports._CHUNK = default


def test_canonical_json_memory_is_bounded_by_the_text(capsys, monkeypatch):
    # the fragments of a whole report, held at once, took about 4.7 times
    # the memory of its text
    import tracemalloc

    from quiverhh.cli import main

    payloads = []
    dumps = reports.canonical_json
    monkeypatch.setattr(reports, "canonical_json", lambda data: payloads.append(data) or dumps(data))
    assert main(["report", "--n", "0", "--max-degree", "12", "--output", "json"]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        text = dumps(payloads[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 100_000
    assert peak - before <= 3.5 * len(text)
