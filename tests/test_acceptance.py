"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 7's K_true=3 sub-case is a strict expected failure: with
two observation channels a three-basis planted model is exactly
representable with two bases (the nonnegative rank of a 2-row nonnegative
matrix never exceeds 2), so a correct bound-maximizing selector prefers
K=2; the README paragraph under "Install and test" gives the argument.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from qreadout import bnmf, cli, partition as pm, recovery, register, snr
from qreadout import transforms as tr


def verdict(num, label, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"
    print(f"[acceptance] criterion {num} ({label}): PASS [{elapsed:.1f}s]")


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_criterion_1_probability_concentration():
    started = time.monotonic()
    for K in (4, 8, 16, 32, 64):
        for K1 in divisors(K):
            for k1 in divisors(K):
                part = pm.BasisPartition(np.repeat([1, 2], [K1, K - K1]))
                state = recovery.build_superposition(part, k1)
                _, table = recovery.extract_target(state, k1, K)
                peak = (K // k1) % K
                assert table.peak_index == peak
                assert abs(table.probabilities[peak] - (K1 / K) ** 2) <= 1e-12
                others = np.delete(table.probabilities, peak)
                assert np.all(others < 1e-12)
    verdict(1, "probability concentration", started, budget=5.0)


def test_criterion_2_elbo_monotonicity():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    opts = bnmf.FitOptions(max_iters=250, tol=1e-9, seed=0)
    count = 0
    for K in (1, 2, 3, 4):
        for _ in range(25):
            X = rng.random((2, 64)) * rng.choice([0.5, 2.0, 10.0, 40.0])
            model = bnmf.fit(X, K, opts)
            trace = np.array(model.elbo_trace)
            drops = trace[:-1] - trace[1:]
            assert np.all(drops <= 1e-8 * np.abs(trace[:-1])), (
                f"bound decreased beyond tolerance at K={K}"
            )
            count += 1
    assert count == 100
    verdict(2, "variational bound monotonicity", started, budget=30.0)


def test_criterion_3_control_closed_forms():
    started = time.monotonic()
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 1000:
        M, K, T = 2, int(rng.integers(1, 8)), int(rng.integers(1, 12))
        activations = rng.uniform(0.01, 20.0, size=(K, T))
        bases = rng.uniform(0.01, 20.0, size=(M, K))
        model = bnmf.init_model(np.ones((M, T)), K, seed=0)
        from dataclasses import replace

        model = replace(model, bases=bases, activations=activations)
        out = bnmf.update_control(model)

        s_w = activations.sum(axis=1)[None, :]
        res_a = out.ctrl_alpha**2 + s_w * out.ctrl_alpha - s_w / bases
        assert np.max(np.abs(res_a)) < 1e-9
        s_u = bases.sum(axis=0)[:, None]
        res_b = out.ctrl_beta**2 + s_u * out.ctrl_beta - s_u / activations
        assert np.max(np.abs(res_b)) < 1e-9
        checked += res_a.size + res_b.size
    verdict(3, "control closed forms", started, budget=1.0)


def test_criterion_4_transform_unitarity():
    started = time.monotonic()
    for K in range(2, 65):
        m = tr.idstft_matrix(tr.WindowSpec(0, K, unit_window=True))
        assert np.max(np.abs(m.conj().T @ m - np.eye(K))) <= 1e-12
        f = tr.dft_matrix(K)
        assert np.max(np.abs(f.conj().T @ f - np.eye(K))) <= 1e-12
    rng = np.random.default_rng(4)
    for _ in range(1000):
        K = int(rng.integers(1, 65))
        v = rng.normal(size=K) + 1j * rng.normal(size=K)
        out = tr.dft(v, K)
        assert abs(np.linalg.norm(out) - np.linalg.norm(v)) <= 1e-12 * max(
            1.0, np.linalg.norm(v)
        )
    verdict(4, "transform unitarity and Parseval", started, budget=5.0)


def test_criterion_5_snr_curve_and_round_trip():
    started = time.monotonic()
    r_sx = 1.0
    grid = [float(d) for d in range(1, 10)]
    rows = snr.sweep_curve(r_sx, grid)
    values = []
    for (d, got) in rows:
        assert got == 10.0 * np.log10(d + r_sx)
        values.append(got)
    assert np.all(np.diff(values) > 0)
    rng = np.random.default_rng(5)
    for _ in range(200):
        delta = float(rng.uniform(1e-6, 1e6))
        db = 10.0 * np.log10(delta)
        back = 10.0 ** (db / 10.0)
        assert back == pytest.approx(delta, rel=1e-9)
    verdict(5, "analytic SNR curve", started, budget=1.0)


def test_criterion_6_end_to_end_separation(tmp_path):
    started = time.monotonic()
    trials = 50
    gain_hits = 0
    fidelity_hits = 0
    for seed in range(trials):
        out = tmp_path / f"run{seed}"
        doc = {
            "register": {"horizon": 600, "dim": 512, "residual_strength": 0.3},
            "factorization": {"k_min": 1, "k_max": 4, "max_iters": 300, "tol": 1e-6},
        }
        cfg = cli.RunConfig(stage="pipeline", seed=seed, output_dir=out, document=doc)
        cli.run(cfg)
        report = json.loads((out / "snr_report.json").read_text())
        result = json.loads((out / "recovery.json").read_text())
        gain = report["snr_out_db"] - report["snr_register_db"]
        gain_hits += gain >= 10.0
        fidelity_hits += result["fidelity_vs_target"] >= 0.9
    assert gain_hits >= int(0.8 * trials), f"only {gain_hits}/{trials} reached 10 dB"
    assert fidelity_hits >= int(0.8 * trials), (
        f"only {fidelity_hits}/{trials} reached fidelity 0.9"
    )
    verdict(6, "end-to-end separation", started, budget=120.0)


def _planted_order_data(K_true, T, seed, scale=20.0):
    rng = np.random.default_rng(seed)
    angles = np.linspace(0.15, np.pi / 2 - 0.15, K_true)
    U = np.vstack([np.cos(angles), np.sin(angles)])
    W = np.zeros((K_true, T))
    edges = np.linspace(0, T, K_true + 1).astype(int)
    for k in range(K_true):
        W[k, edges[k] : edges[k + 1]] = rng.uniform(
            0.5 * scale, 1.5 * scale, edges[k + 1] - edges[k]
        )
    return U @ W


@pytest.mark.parametrize("k_true", [1, 2])
def test_criterion_7_order_selection(k_true):
    started = time.monotonic()
    trials = 50
    opts = bnmf.FitOptions(max_iters=200, tol=1e-7, seed=0)
    hits = 0
    for seed in range(trials):
        X = _planted_order_data(k_true, 128, 1000 + seed)
        k_star, _ = bnmf.select_order(X, 1, 4, opts)
        hits += k_star == k_true
    assert hits >= int(0.8 * trials), f"K_true={k_true}: only {hits}/{trials}"
    verdict(7, f"order selection (K_true={k_true})", started, budget=120.0)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable at M=2: a three-basis planted mean matrix on two "
        "observation channels has nonnegative rank <= 2, so the K=2 model "
        "reproduces it exactly and the bound's parsimony pressure always "
        "selects K*=2 (verified even under oracle initialization at the "
        "planted factors); see the README paragraph under 'Install and test'"
    ),
)
def test_criterion_7_order_selection_rank3():
    started = time.monotonic()
    trials = 50
    opts = bnmf.FitOptions(max_iters=200, tol=1e-7, seed=0)
    hits = 0
    for seed in range(trials):
        X = _planted_order_data(3, 128, 1000 + seed)
        k_star, _ = bnmf.select_order(X, 1, 4, opts)
        hits += k_star == 3
    if hits < int(0.8 * trials):
        print(
            f"[acceptance] criterion 7 (order selection, K_true=3): FAIL expected "
            f"({hits}/{trials}; nonnegative-rank collapse at M=2, see notes)"
        )
    assert hits >= int(0.8 * trials)
    verdict(7, "order selection (K_true=3)", started, budget=120.0)


def test_criterion_8_contraction_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(8)
    for _ in range(200):
        M = int(rng.integers(2, 4))
        K = int(rng.integers(1, 12))
        T = int(rng.integers(1, 24))
        assert M * M * K * T <= 10_000
        t = pm.PartitionTensors(
            R=rng.random((M, 1, M)),
            E=rng.random((M, K)),
            H=rng.random((1, K, T)),
        )
        expected = np.zeros((M, T))
        for m in range(M):
            for tt in range(T):
                acc = 0.0
                for i in range(M):
                    for k in range(K):
                        acc += t.R[i, 0, m] * t.E[i, k] * t.H[0, k, tt]
                expected[m, tt] = acc
        np.testing.assert_allclose(pm.contract(t), expected, atol=1e-12)
    verdict(8, "tensor contraction oracle", started, budget=5.0)


def test_criterion_9_cli_determinism(tmp_path):
    started = time.monotonic()
    doc = {
        "register": {"horizon": 200, "dim": 64, "residual_strength": 0.3},
        "factorization": {"k_min": 1, "k_max": 3, "max_iters": 120, "tol": 1e-6},
        "sweep": {"r_sx": 1.0, "deltas": [1, 2, 3]},
    }

    def run_all(out: Path) -> dict:
        for stage in ("simulate", "fit", "partition", "recover", "verify", "sweep"):
            cfg = cli.RunConfig(stage=stage, seed=11, output_dir=out, document=doc)
            cli.run(cfg)
        return {
            p.name: p.read_bytes()
            for p in sorted(out.iterdir())
            if p.name != "run.json"
        }

    first = run_all(tmp_path / "a")
    second = run_all(tmp_path / "a")   # rerun in place
    fresh = run_all(tmp_path / "b")    # and from scratch
    assert first.keys() == second.keys() == fresh.keys()
    for name in first:
        assert first[name] == second[name] == fresh[name], f"{name} not reproducible"
    verdict(9, "stage determinism", started, budget=60.0)
