import json

import numpy as np
import pytest

from qreadout import register
from qreadout.artifacts import encode_columns, write_json
from qreadout.errors import ConfigurationError, DimensionError, ValidationError


def make_cfg(**kw):
    base = dict(horizon=128, dim=8, residual_strength=0.3, seed=7)
    base.update(kw)
    return register.RegisterConfig(**base)


class TestConfigValidation:
    def test_rejects_bad_horizon(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            make_cfg(horizon=0)

    def test_rejects_horizon_past_its_bound(self):
        assert make_cfg(horizon=register.MAX_HORIZON).horizon == 10**6
        with pytest.raises(ConfigurationError, match=r"horizon must be .* <= 1000000"):
            make_cfg(horizon=register.MAX_HORIZON + 1)

    def test_rejects_bad_dim(self):
        with pytest.raises(ConfigurationError, match="dim"):
            make_cfg(dim=0)

    def test_rejects_horizon_below_dim(self):
        # one time window per component
        with pytest.raises(ConfigurationError, match=r"horizon must be >= dim \(8\), got 7"):
            make_cfg(horizon=7, dim=8)
        assert make_cfg(horizon=8, dim=8).horizon == 8

    def test_rejects_out_of_range_strength(self):
        with pytest.raises(ConfigurationError, match="residual_strength"):
            make_cfg(residual_strength=1.5)

    def test_rejects_wrong_source_count(self):
        # the count is fixed; only the reader of a written config can meet another
        for count in (3, 1, 2.0, True, "2"):
            doc = {**make_cfg().to_dict(), "num_sources": count}
            with pytest.raises(ConfigurationError, match="num_sources"):
                register.RegisterConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("horizon", 40.5),
            ("horizon", "x"),
            ("horizon", True),
            ("dim", True),
            ("seed", 1.5),
            ("seed", "x"),
            ("residual_strength", "0.3"),
            ("residual_strength", True),
        ],
    )
    def test_rejects_wrong_type(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            make_cfg(**{name: value})


class TestGenerateInput:
    def test_zero_residual_gives_zero_row(self):
        gt = register.generate_input(make_cfg(horizon=4, dim=4, residual_strength=0.0))
        assert np.all(gt.source_rows[1] == 0.0)

    def test_deterministic_for_fixed_seed(self):
        cfg = make_cfg(seed=123)
        a = register.generate_input(cfg)
        b = register.generate_input(cfg)
        assert np.array_equal(a.source_rows, b.source_rows)
        assert np.array_equal(a.input_weights, b.input_weights)
        assert np.array_equal(a.residual_weights, b.residual_weights)

    def test_residual_frobenius_ratio(self):
        # independent oracle: recompute both norms from the generated matrix
        gt = register.generate_input(make_cfg(horizon=128, dim=8, residual_strength=0.3))
        ratio = np.linalg.norm(gt.source_rows[1]) / np.linalg.norm(gt.source_rows[0])
        assert ratio == pytest.approx(0.3, rel=0.05)

    def test_weights_normalized_and_nonnegative(self):
        gt = register.generate_input(make_cfg(dim=16))
        assert abs(gt.input_weights.sum() - 1.0) <= 1e-12
        assert np.all(gt.input_weights >= 0)
        assert np.all(gt.source_rows >= 0)

    def test_disjoint_dominant_supports(self):
        gt = register.generate_input(make_cfg(dim=16))
        lo = np.flatnonzero(gt.input_weights)
        hi = np.flatnonzero(gt.residual_weights)
        assert lo.max() < hi.min()


class TestObserve:
    def test_zero_residual_identity(self):
        cfg = make_cfg(residual_strength=0.0)
        gt = register.generate_input(cfg)
        obs = register.observe(gt, cfg)
        assert np.array_equal(obs.values[0], gt.source_rows[0])
        assert np.all(obs.values[1] == 0.0)

    def test_entries_nonnegative(self):
        cfg = make_cfg()
        obs = register.observe(register.generate_input(cfg), cfg)
        assert np.all(obs.values >= 0)

    def test_aggregate_matches_row_sum(self):
        cfg = make_cfg()
        gt = register.generate_input(cfg)
        obs = register.observe(gt, cfg)
        expected = gt.source_rows[0] + gt.source_rows[1]
        np.testing.assert_allclose(obs.aggregate, expected, rtol=0, atol=0)

    def test_shape_mismatch_raises(self):
        cfg = make_cfg()
        gt = register.generate_input(cfg)
        with pytest.raises(DimensionError):
            register.observe(gt, make_cfg(horizon=cfg.horizon + 1))

    @pytest.mark.parametrize("seed", [0, 1, 999])
    def test_bit_identical_across_runs(self, seed):
        cfg = make_cfg(seed=seed)
        a = register.observe(register.generate_input(cfg), cfg)
        b = register.observe(register.generate_input(cfg), cfg)
        assert a.values.tobytes() == b.values.tobytes()


class TestStates:
    def test_input_state_unit_norm(self):
        gt = register.generate_input(make_cfg(dim=32))
        amps = register.input_state(gt)
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)

    def test_register_state_weighs_residual(self):
        gt = register.generate_input(make_cfg(dim=32, residual_strength=0.5))
        mix = np.abs(register.register_state(gt)) ** 2
        hi = np.flatnonzero(gt.residual_weights)
        assert mix[hi].sum() > 0

    def test_spectrum_from_row_recovers_windows(self):
        cfg = make_cfg(horizon=64, dim=4)
        gt = register.generate_input(cfg)
        spec = register.spectrum_from_row(gt.source_rows[0], cfg.horizon, cfg.dim)
        # power lands in the windows of the active components only
        np.testing.assert_allclose(
            np.flatnonzero(spec), np.flatnonzero(gt.input_weights)
        )

    @pytest.mark.parametrize(
        "horizon,dim",
        # window lengths 6/7, 1/2, 666/667 and 0/1 (horizon < dim)
        [(20000, 3000), (600, 512), (2000, 3), (100, 300), (5, 7)],
    )
    def test_spectrum_from_row_matches_window_loop(self, horizon, dim):
        rng = np.random.default_rng(horizon + dim)
        row = rng.random(horizon) * np.exp(5.0 * rng.normal(size=horizon))
        power = np.array([
            float(np.sum(row[w] ** 2))
            for w in register.component_windows(horizon, dim)
        ])
        want = power / power.sum()
        got = register.spectrum_from_row(row, horizon, dim)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        if horizon < dim:
            assert np.count_nonzero(got == 0.0) >= dim - horizon


class TestSerialization:
    def test_json_roundtrip_embeds_config(self, tmp_path):
        cfg = make_cfg()
        gt = register.generate_input(cfg)
        path = tmp_path / "gt.json"
        write_json(register.ground_truth_to_dict(gt, cfg), path)
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["config"]["horizon"] == cfg.horizon
        back, back_cfg = register.ground_truth_from_dict(doc)
        assert back_cfg == cfg
        np.testing.assert_allclose(back.source_rows, gt.source_rows)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("input_weights", [[0.5], [0.5]]),
            ("input_weights", "nan"),
            ("input_weights", "negative"),
            ("residual_weights", "nan"),
            ("residual_weights", "negative"),
            ("residual_weights", [0.0]),
        ],
    )
    def test_malformed_weights_rejected(self, key, value):
        cfg = make_cfg()
        gt = register.generate_input(cfg)
        doc = register.ground_truth_to_dict(gt, cfg)
        if value in ("nan", "negative"):
            # the last weight damaged, written in the column layout as before
            weights = getattr(gt, key).copy()
            weights[-1] = float("nan") if value == "nan" else -1e-3
            doc[key] = encode_columns(weights)
            error = ConfigurationError
        else:
            # a dense list is no column layout, whatever its shape
            doc[key] = value
            error = ValidationError
        with pytest.raises(error, match=key):
            register.ground_truth_from_dict(doc)

    @pytest.mark.parametrize("key", ["horizon", "dim"])
    def test_config_mismatch_rejected(self, key):
        cfg = make_cfg()
        doc = register.ground_truth_to_dict(register.generate_input(cfg), cfg)
        doc["config"][key] += 1
        with pytest.raises(ConfigurationError, match="does not match its config"):
            register.ground_truth_from_dict(doc)


class TestTinyDimensions:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_degenerate_dims_still_generate(self, dim):
        cfg = make_cfg(horizon=16, dim=dim)
        gt = register.generate_input(cfg)
        obs = register.observe(gt, cfg)
        assert obs.values.shape == (2, 16)
        assert abs(gt.input_weights.sum() - 1.0) <= 1e-12
