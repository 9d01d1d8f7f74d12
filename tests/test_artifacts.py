import csv
import io
import json
import os
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qreadout import artifacts, cli
from qreadout.artifacts import decode_columns, encode_columns, write_csv, write_json
from qreadout.errors import DimensionError, ValidationError

SMALL_PIPELINE = {
    "stage": "pipeline",
    "seed": 3,
    "register": {"horizon": 200, "dim": 64, "residual_strength": 0.3},
    "factorization": {"k_min": 1, "k_max": 3, "max_iters": 150, "tol": 1e-6},
}

numbers = st.one_of(st.integers(), st.floats(allow_nan=True, allow_infinity=True))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    numbers,
    st.just(-0.0),
    st.text(),
    st.sampled_from(["a, b", ", ", "é, ü", "line\nbreak", " "]),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(), inner, max_size=5),
        st.dictionaries(st.integers(), inner, max_size=3),
    ),
    max_leaves=30,
)
# the scale of the long lists below, which run from LONG - 1 to 3 * LONG items
LONG = 1024
# long flat number lists, as a numeric column or trace would be written (a
# short drawn pattern, tiled to a drawn length)
long_number_lists = st.builds(
    lambda pattern, n: (pattern * n)[:n],
    st.lists(numbers, min_size=1, max_size=8),
    st.integers(LONG - 1, 2 * LONG + 3),
)


def half_distinct_floats(n: int, distinct: int, seed: int) -> list[float]:
    """``n`` floats holding exactly ``distinct`` values, specials among them, shuffled."""
    values = [-0.0, 0.0, float("nan"), float("inf"), -float("inf")]
    values += [i + 0.1 for i in range(distinct - len(values))]
    floats = values + [values[i % distinct] for i in range(n - distinct)]
    random.Random(seed).shuffle(floats)
    return floats


# lists of floats alone, repeating a few values with the specials among
# them, which must keep their own texts.  Tiled past 2 * LONG items, and at
# exactly half and half + 1 distinct values.
special_floats = st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), -float("inf")])
long_float_lists = st.one_of(
    st.builds(
        lambda pattern, n: (pattern * n)[:n],
        st.lists(
            st.one_of(special_floats, st.floats(allow_nan=True, allow_infinity=True)),
            min_size=1,
            max_size=8,
        ),
        st.integers(2 * LONG + 1, 3 * LONG),
    ),
    st.builds(
        lambda half, extra, seed: half_distinct_floats(2 * half, half + extra, seed),
        st.integers(LONG + 1, LONG + 20),
        st.sampled_from([0, 1]),
        st.integers(0, 2**32 - 1),
    ),
)


def written(value, directory: Path) -> str:
    path = directory / "value.json"
    write_json(value, path)
    return path.read_text()


def assert_same_text(got: str, want: str) -> None:
    """Equal texts.  A mismatch names its first differing offset: pytest's
    own diff of two texts of thousands of lines takes minutes to build."""
    if got != want:
        i = next(
            (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
            min(len(got), len(want)),
        )
        lo = max(i - 40, 0)
        pytest.fail(f"texts differ at offset {i}: {got[lo:i + 40]!r} != {want[lo:i + 40]!r}")


@settings(max_examples=300, deadline=None)
@given(value=json_values)
def test_bytes_equal_indented_json_dumps(value, tmp_path_factory):
    directory = tmp_path_factory.getbasetemp()
    assert written(value, directory) == json.dumps(value, indent=2, sort_keys=True)


# no shrink phase: shrinking 2k-3k-item lists can run for many minutes; a
# failing example is reported unshrunk
@settings(
    max_examples=60,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(
    numbers_list=st.one_of(long_number_lists, long_float_lists),
    nest=st.sampled_from(["bare", "in-dict", "in-list", "tuple"]),
)
def test_long_number_lists_equal_indented_json_dumps(
    numbers_list, nest, tmp_path_factory
):
    value = {
        "bare": numbers_list,
        "in-dict": {"data": numbers_list, "shape": [len(numbers_list)]},
        "in-list": [numbers_list, [1.5, True]],
        "tuple": tuple(numbers_list),
    }[nest]
    directory = tmp_path_factory.getbasetemp()
    assert_same_text(written(value, directory), json.dumps(value, indent=2, sort_keys=True))


# arrays stand for their .tolist(): 1-D float arrays drawn as the float
# lists above (long, both sides of the half-distinct edge, with -0.0, NaN
# and ±inf), laid out as 2-D rows, as strided views; int and bool arrays,
# 0-d arrays, and empty arrays of each dtype
ARRAY_DTYPES = [np.float64, np.int64, np.int32, np.uint64, np.bool_]
any_arrays = st.one_of(
    long_float_lists.map(np.array),
    st.builds(
        lambda floats, rows: np.array(floats[: len(floats) // rows * rows]).reshape(rows, -1),
        long_float_lists,
        st.integers(1, 3),
    ),
    st.builds(lambda floats, step: np.array(floats)[::step], long_float_lists, st.integers(2, 3)),
    st.builds(
        lambda floats: np.array(floats[: len(floats) // 2 * 2]).reshape(-1, 2).T[:, ::2],
        long_float_lists,
    ),
    hnp.arrays(
        st.sampled_from(ARRAY_DTYPES),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    ),
    st.sampled_from([
        np.zeros(shape, dtype)
        for dtype in ARRAY_DTYPES for shape in [(0,), (2, 0), (0, 3)]
    ]),
)


@settings(
    max_examples=60,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(array=any_arrays, nest=st.sampled_from(["bare", "in-dict", "in-list"]))
def test_float_arrays_equal_indented_json_dumps_of_their_lists(array, nest, tmp_path_factory):
    value, as_lists = {
        "bare": (array, array.tolist()),
        "in-dict": ({"data": array, "shape": [1]}, {"data": array.tolist(), "shape": [1]}),
        "in-list": ([array, [1.5, True]], [array.tolist(), [1.5, True]]),
    }[nest]
    directory = tmp_path_factory.getbasetemp()
    assert_same_text(written(value, directory), json.dumps(as_lists, indent=2, sort_keys=True))


@pytest.mark.parametrize("extra", [0, 1], ids=["at-half", "past-half"])
def test_csv_distinct_floats_formatted_once(tmp_path, monkeypatch, extra):
    # a row of 2 * LONG + 2 floats: each distinct value is formatted once,
    # however many of them are distinct; the index cell is formatted too
    floats = half_distinct_floats(2 * LONG + 2, LONG + 1 + extra, seed=7)
    header = ["m"] + [f"t{t}" for t in range(len(floats))]
    seen = []

    def counting(value):
        seen.append(value)
        return repr(value)

    monkeypatch.setattr(artifacts, "repr", counting, raising=False)
    path = tmp_path / "row.csv"
    write_csv(header, [[0, np.array(floats)]], path)
    assert path.read_bytes() == csv_text(header, [[0, *floats]]).encode()
    assert len(seen) == 1 + LONG + 1 + extra


@pytest.mark.parametrize("integral", [False, True])
def test_csv_bytes_match_csv_writer(tmp_path, integral):
    # reference: csv.writer on the same rows of Python numbers, laid out as
    # the channel files: index first, then one value per time step, which
    # write_csv is handed as the Python numbers or as the row's float array
    rng = np.random.default_rng(5)
    extra = [7, -3, 2**70, True, False, float("nan"), float("inf"), -float("inf"), -0.0]
    few = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e-300, 3.5]
    for shape in [(2, 1), (2, 7), (3, 2048)]:
        values = rng.exponential(30.0, size=shape)
        if integral:
            values = np.floor(values)
        values[0, 0] = 0.0
        # handed as arrays, rows of a few repeated values (as the channel
        # files hold) and the floored rows take the distinct-value path; the
        # unfloored rows are mostly distinct, so their items are formatted alone
        repeated = rng.choice(np.array(few), size=(2, shape[1]))
        arrays = [*values, *repeated]
        header = ["m"] + [f"t{t}" for t in range(shape[1])]
        rows = [[m, *row.tolist()] for m, row in enumerate(arrays)]
        rows.append([len(rows), *extra])
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        for handed in [rows, [*([m, row] for m, row in enumerate(arrays)), rows[-1]]]:
            got = tmp_path / "got.csv"
            write_csv(header, handed, got)
            assert got.read_bytes() == expected.read_bytes()


# a row's items: a few values, so fills and repeats are common, with -0.0
# beside 0.0; no NaN, whose JSON text is one for every NaN bit pattern
layout_values = st.sampled_from([0.0, -0.0, 1.5, 2.0**-1074, 1e300, -3.25, float("inf")])
layout_arrays = st.integers(1, 12).flatmap(
    lambda T: st.one_of(
        st.lists(layout_values, min_size=T, max_size=T).map(np.array),
        st.integers(1, 4).flatmap(
            lambda R: st.lists(
                st.lists(layout_values, min_size=T, max_size=T), min_size=R, max_size=R
            ).map(np.array)
        ),
    )
)


# rows where the most frequent value's runs sit at the edges: a run that
# starts or ends the row, a -0.0 fill beside 0.0 items (and the reverse), a
# row of one item, and a row that is all one value
FILL_RUNS = {
    "run-starts": [0.0] * 5 + [1.5, 2.5, 1.5],
    "run-ends": [1.5, 2.5, 1.5] + [0.0] * 5,
    "runs-inside": [1.5, 0.0, 0.0, 2.5, 0.0, 0.0, 0.0, 1.5],
    "negative-zero-fill": [-0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 3.0, -0.0],
    "zero-fill-beside-negative-zero": [0.0, -0.0, 0.0, 0.0, -0.0, 0.0],
    "one-item": [0.25],
    "all-fill": [float("nan")] * 4,
}


@pytest.mark.parametrize("floats", FILL_RUNS.values(), ids=FILL_RUNS.keys())
def test_csv_fill_runs_match_csv_writer(tmp_path, floats):
    # the array as the row's last, first and middle cell, and alone
    array = np.array(floats)
    path = tmp_path / "row.csv"
    for handed, plain in [
        ([3, array], [3, *floats]),
        ([array, 3], [*floats, 3]),
        ([1.5, array, -0.0, array], [1.5, *floats, -0.0, *floats]),
        ([array], floats),
    ]:
        write_csv(["m"], [handed], path)
        assert path.read_bytes() == csv_text(["m"], [plain]).encode(), handed


def test_csv_array_cell_written_as_floats(tmp_path):
    # an integer array stands for its items as floats, with many distinct
    # values or few
    path = tmp_path / "row.csv"
    write_csv(["m"], [[np.array([1, 2, 3])], [np.array([1, 1, 1, 2])]], path)
    assert path.read_bytes() == csv_text(["m"], [[1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 2.0]]).encode()


def test_csv_numpy_scalar_cells_written_as_their_numbers(tmp_path):
    # a numpy scalar cell is written as the Python number it holds; its
    # repr under numpy 2 (np.float64(1.5), np.True_) is no CSV number
    path = tmp_path / "row.csv"
    row = [np.int64(2), np.float64(1.5), np.True_, np.float32(0.25), np.float64(-0.0),
           np.float64("nan"), np.uint8(7), np.bool_(False)]
    plain = [2, 1.5, True, 0.25, -0.0, float("nan"), 7, False]
    write_csv(["i", "x"], [row, [np.float64(2.5), np.arange(3.0)]], path)
    assert path.read_bytes() == csv_text(["i", "x"], [plain, [2.5, 0.0, 1.0, 2.0]]).encode()


@settings(max_examples=200, deadline=None)
@given(
    floats=st.lists(
        st.one_of(layout_values, st.just(float("nan"))), min_size=0, max_size=40
    ),
    lead=st.booleans(),
)
def test_csv_float_rows_match_csv_writer(floats, lead, tmp_path_factory):
    # rows of a few repeated values, so most take the repeated-run path
    path = tmp_path_factory.getbasetemp() / "row.csv"
    handed, plain = ([7, np.array(floats)], [7, *floats]) if lead else (
        [np.array(floats)], floats
    )
    write_csv("m,x", [handed, handed], path)
    assert path.read_bytes() == csv_text(["m", "x"], [plain, plain]).encode()


@settings(max_examples=200, deadline=None)
@given(array=layout_arrays)
def test_column_layout_round_trips_bit_equal(array, tmp_path_factory):
    entry = encode_columns(array)
    assert sorted(entry) == ["cols", "data", "fill", "shape"]
    rows = np.atleast_2d(array)
    fill = np.asarray(entry["fill"])
    # the fill is each row's most frequent value, by bits
    for row, value in zip(rows, fill):
        counts = {}
        for bits in row.view(np.int64).tolist():
            counts[bits] = counts.get(bits, 0) + 1
        assert counts[np.float64(value).view(np.int64)] == max(counts.values())
    # the cols are exactly the columns where an item's bits differ from its fill
    differs = rows.view(np.int64) != fill.view(np.int64)[:, None]
    assert entry["cols"] == np.flatnonzero(differs.any(axis=0)).tolist()
    text = written(entry, tmp_path_factory.getbasetemp())
    back = decode_columns(json.loads(text), "x")
    assert back.shape == array.shape and back.tobytes() == array.tobytes()


LAYOUT = {"shape": [2, 5], "cols": [1, 3], "data": [1.5, 2.5, 0.0, -0.0], "fill": [0.0, 7.0]}


def test_column_layout_decodes_at_full_width():
    np.testing.assert_array_equal(
        decode_columns(LAYOUT, "x"),
        [[0.0, 1.5, 0.0, 2.5, 0.0], [7.0, 0.0, 7.0, -0.0, 7.0]],
    )
    assert np.signbit(decode_columns(LAYOUT, "x")[1, 3])


@pytest.mark.parametrize(
    "damage",
    [
        {"cols": [-1, 3]},
        {"cols": [1, 5]},
        {"cols": [1, 99999]},
        {"cols": [3, 1]},
        {"cols": [1, 1]},
        {"cols": [True, 3]},
        {"cols": [1.0, 3]},
        {"cols": [1, 2**70]},
        {"cols": "13"},
        {"data": [1.5, 2.5, 0.0]},
        {"data": [[1.5, 2.5], [0.0, -0.0]]},
        {"fill": [0.0]},
        {"fill": [0.0, 7.0, 1.0]},
        {"shape": [2]},
        {"shape": [2, -5]},
        {"shape": [2, True]},
        {"shape": [1, 2, 5]},
        {"shape": "2x5"},
    ],
    ids=lambda damage: json.dumps(damage),
)
def test_malformed_column_layout_refused(damage):
    with pytest.raises(ValidationError, match="^values: "):
        decode_columns({**LAYOUT, **damage}, "values")


def test_pipeline_artifacts_are_indented_sorted_json(tmp_path):
    doc = dict(SMALL_PIPELINE, output_dir=str(tmp_path / "out"))
    cfg = cli.RunConfig(
        stage="pipeline", seed=3, output_dir=tmp_path / "out", document=doc
    )
    cli.run(cfg)
    paths = sorted((tmp_path / "out").glob("*.json"))
    assert {p.name for p in paths} >= {
        "ground_truth.json", "observation.json", "model.json",
        "partition.json", "recovery.json",
        "snr_report.json", "run.json",
    }
    for path in paths:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True), path.name


def csv_text(header, rows) -> str:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# each writer with two documents: (write it, its expected text)
REWRITES = {
    "json": [
        (lambda path: write_json({"a": [1.5, 2.5]}, path),
         json.dumps({"a": [1.5, 2.5]}, indent=2, sort_keys=True)),
        (lambda path: write_json({"b": np.arange(1.0)}, path),
         json.dumps({"b": [0.0]}, indent=2, sort_keys=True)),
    ],
    "csv": [
        (lambda path: write_csv(["i", "x"], [[0, 1.5], [1, 2.5]], path),
         csv_text(["i", "x"], [[0, 1.5], [1, 2.5]])),
        (lambda path: write_csv(["m", "t0"], [[0, np.array([0.25])]], path),
         csv_text(["m", "t0"], [[0, 0.25]])),
    ],
}


@pytest.mark.parametrize("kind", sorted(REWRITES))
def test_rewrite_goes_to_a_new_file(tmp_path, kind):
    # the second text is the shorter, so a rewrite in place shows through
    # the old names, and one left untruncated through stale trailing bytes
    (write_old, old), (write_new, new) = REWRITES[kind]
    path = tmp_path / f"artifact.{kind}"
    write_old(path)
    link = tmp_path / "link"
    os.link(path, link)
    with open(path, newline="") as handle:
        write_new(path)
        assert handle.read() == old
    for name, text in ((link, old), (path, new)):
        with open(name, newline="") as fh:
            assert fh.read() == text


def test_symlink_at_the_path_is_replaced(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("kept")
    path = tmp_path / "value.json"
    path.symlink_to(target)
    write_json([1], path)
    assert not path.is_symlink()
    assert path.read_text() == json.dumps([1], indent=2)
    assert target.read_text() == "kept"


@pytest.mark.parametrize(
    "expect", [(2, 6), (3, 5), (5,), (None, 4), (1, None)], ids=repr
)
def test_column_layout_of_another_shape_refused(expect):
    with pytest.raises(DimensionError, match=r"^values: shape must be "):
        decode_columns(LAYOUT, "values", expect)


@pytest.mark.parametrize("expect", [(2, 5), (None, 5), (2, None), (None, None)], ids=repr)
def test_column_layout_of_the_expected_shape_decoded(expect):
    assert decode_columns(LAYOUT, "values", expect).shape == (2, 5)


@pytest.mark.parametrize(
    "entry", [[[1.0, 2.0]], {"shape": [1, 2], "data": [1.0, 2.0]}], ids=["lists", "shape-data"]
)
def test_dense_layout_of_another_shape_refused(entry):
    # the dense layouts written before the column layout are no longer
    # read, whatever shape is expected
    for expect in ((1, None), (1, 3), None):
        with pytest.raises(ValidationError, match=r"^values: must be a column layout"):
            decode_columns(entry, "values", expect)
