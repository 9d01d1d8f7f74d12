import csv
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from qreadout import artifacts, cli
from qreadout.artifacts import _SLICE, write_csv, write_json

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
# flat number lists go through the C encoder in slices; these cross slice
# edges (a short drawn pattern, tiled to a drawn length)
long_number_lists = st.builds(
    lambda pattern, n: (pattern * n)[:n],
    st.lists(numbers, min_size=1, max_size=8),
    st.integers(_SLICE - 1, 2 * _SLICE + 3),
)


def half_distinct_floats(n: int, distinct: int, seed: int) -> list[float]:
    """``n`` floats holding exactly ``distinct`` values, specials among them, shuffled."""
    values = [-0.0, 0.0, float("nan"), float("inf"), -float("inf")]
    values += [i + 0.1 for i in range(distinct - len(values))]
    floats = values + [values[i % distinct] for i in range(n - distinct)]
    random.Random(seed).shuffle(floats)
    return floats


# lists of floats alone with at most half their values distinct take the
# path that formats each distinct value once, keyed by its bits; the
# specials keep their own texts there.  Tiled past two slices, and at
# exactly half and half + 1 distinct values (the edge of the fallback).
special_floats = st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), -float("inf")])
long_float_lists = st.one_of(
    st.builds(
        lambda pattern, n: (pattern * n)[:n],
        st.lists(
            st.one_of(special_floats, st.floats(allow_nan=True, allow_infinity=True)),
            min_size=1,
            max_size=8,
        ),
        st.integers(2 * _SLICE + 1, 3 * _SLICE),
    ),
    st.builds(
        lambda half, extra, seed: half_distinct_floats(2 * half, half + extra, seed),
        st.integers(_SLICE + 1, _SLICE + 20),
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


# float arrays stand for their .tolist(): 1-D arrays drawn as the float
# lists above (across slice edges, both sides of the half-distinct edge,
# with -0.0, NaN and ±inf), laid out as 2-D rows, as strided views, and
# empty arrays
float_arrays = st.one_of(
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
    st.sampled_from([np.zeros(0), np.zeros((2, 0)), np.zeros((0, 3))]),
)


@settings(
    max_examples=60,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(array=float_arrays, nest=st.sampled_from(["bare", "in-dict", "in-list"]))
def test_float_arrays_equal_indented_json_dumps_of_their_lists(array, nest, tmp_path_factory):
    value, as_lists = {
        "bare": (array, array.tolist()),
        "in-dict": ({"data": array, "shape": [1]}, {"data": array.tolist(), "shape": [1]}),
        "in-list": ([array, [1.5, True]], [array.tolist(), [1.5, True]]),
    }[nest]
    directory = tmp_path_factory.getbasetemp()
    assert_same_text(written(value, directory), json.dumps(as_lists, indent=2, sort_keys=True))


@pytest.mark.parametrize("extra,calls", [(0, 1), (1, 3)])
def test_distinct_floats_formatted_once(tmp_path, monkeypatch, extra, calls):
    # 2 * _SLICE + 2 items: the distinct values in one encoder call, or the
    # three slices when more than half the values are distinct; the same
    # for the list and for its array
    floats = half_distinct_floats(2 * _SLICE + 2, _SLICE + 1 + extra, seed=7)
    expected = json.dumps(floats, indent=2, sort_keys=True)
    dumps, seen = json.dumps, []

    def counting(obj, *args, **kwargs):
        seen.append(len(obj))
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(artifacts.json, "dumps", counting)
    for handed in (floats, np.array(floats)):
        seen.clear()
        assert_same_text(written(handed, tmp_path), expected)
        assert len(seen) == calls


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


def test_pipeline_artifacts_are_indented_sorted_json(tmp_path):
    doc = dict(SMALL_PIPELINE, output_dir=str(tmp_path / "out"))
    cfg = cli.RunConfig(
        stage="pipeline", seed=3, output_dir=tmp_path / "out", document=doc
    )
    cli.run(cfg)
    paths = sorted((tmp_path / "out").glob("*.json"))
    assert {p.name for p in paths} >= {
        "ground_truth.json", "observation.json", "model.json",
        "partition.json", "clustered_bases.json", "recovery.json",
        "snr_report.json", "run.json",
    }
    for path in paths:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True), path.name
