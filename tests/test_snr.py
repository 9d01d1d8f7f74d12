import tracemalloc

import numpy as np
import pytest

from qreadout import snr
from qreadout.errors import DimensionError, NumericalDomainError, ValidationError


def random_hermitian(rng, L):
    a = rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L))
    return (a + a.conj().T) / 2


class TestEnergy:
    def test_basis_state_eigenvalue(self):
        for j in (0, 3, 7):
            v = np.zeros(8, dtype=complex)
            v[j] = 1.0
            assert snr.energy(v) == pytest.approx(float(j), abs=1e-12)

    def test_uniform_state_mean_level(self):
        L = 10
        v = np.full(L, 1 / np.sqrt(L), dtype=complex)
        assert snr.energy(v) == pytest.approx((L - 1) / 2, abs=1e-12)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            L = int(rng.integers(2, 9))
            v = rng.normal(size=L) + 1j * rng.normal(size=L)
            h = random_hermitian(rng, L)
            # naive double loop over c_i* c_j <phi_i|H|phi_j>
            num = sum(
                np.conj(v[i]) * v[j] * h[i, j] for i in range(L) for j in range(L)
            )
            den = sum(np.conj(v[i]) * v[i] for i in range(L))
            expected = (num / den).real
            got = snr.energy(v, snr.EnergySpec(hamiltonian=h))
            assert got == pytest.approx(expected, abs=1e-12 * max(1, abs(expected)))

    def test_phase_and_scale_invariance(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        h = random_hermitian(rng, 6)
        spec = snr.EnergySpec(hamiltonian=h)
        base = snr.energy(v, spec)
        assert snr.energy(3.7 * v, spec) == pytest.approx(base, abs=1e-12 * max(1, abs(base)))
        assert snr.energy(np.exp(1.3j) * v, spec) == pytest.approx(
            base, abs=1e-12 * max(1, abs(base))
        )

    def test_zero_norm_rejected(self):
        with pytest.raises(NumericalDomainError):
            snr.energy(np.zeros(4, dtype=complex))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            snr.EnergySpec(hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_dimension_mismatch(self):
        spec = snr.EnergySpec(hamiltonian=np.eye(3))
        with pytest.raises(DimensionError):
            snr.energy(np.ones(4, dtype=complex), spec)

    def test_default_equals_dense_diagonal(self):
        rng = np.random.default_rng(5)
        for L in (1, 2, 7, 64, 513, 2048):
            dense = snr.EnergySpec(hamiltonian=np.diag(np.arange(L)))
            for _ in range(5):
                v = rng.normal(size=L) + 1j * rng.normal(size=L)
                assert snr.energy(v) == snr.energy(v, dense)

    def test_default_memory_is_linear(self):
        L = 4096
        rng = np.random.default_rng(6)
        v = rng.normal(size=L) + 1j * rng.normal(size=L)
        tracemalloc.start()
        try:
            snr.energy(v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * L * 16


class TestDelta:
    def test_equal_ratios_zero(self):
        assert snr.delta(3.0, 2.0, 2.0) == 0.0

    def test_arithmetic(self):
        assert snr.delta(2.0, 2.0, 1.0) == pytest.approx(1.0)

    def test_zero_signal(self):
        assert snr.delta(0.0, 2.0, 3.0) == 0.0

    def test_zero_denominators_rejected(self):
        with pytest.raises(NumericalDomainError):
            snr.delta(1.0, 0.0, 1.0)
        with pytest.raises(NumericalDomainError):
            snr.delta(1.0, 1.0, 0.0)


class TestSnrReport:
    def test_unit_ratio_zero_db(self):
        rep = snr.snr_report(2.0, 1.0, 2.0)
        assert rep.snr_out_db == pytest.approx(0.0, abs=1e-12)

    def test_delta_db_round_trip(self):
        # delta = 10^(delta_snr_db / 10) must recover the stored delta
        rep = snr.snr_report(4.0, 4.0, 1.0)
        assert 10 ** (rep.delta_snr_db / 10) == pytest.approx(rep.delta, rel=1e-9)

    def test_delta_of_ten_gives_ten_db(self):
        # S/T = 11, S/X = 1 -> delta = 10 -> 10 dB
        rep = snr.snr_report(11.0, 11.0, 1.0)
        assert rep.delta == pytest.approx(10.0)
        assert rep.delta_snr_db == pytest.approx(10.0, abs=1e-9)

    def test_worked_example(self):
        rep = snr.snr_report(4.0, 4.0, 1.0)
        assert rep.snr_out_db == pytest.approx(6.0205999132796239, abs=1e-9)
        assert rep.snr_register_db == pytest.approx(0.0, abs=1e-12)
        assert rep.delta == pytest.approx(3.0)
        assert not rep.no_gain

    def test_chain_consistency_flagged(self):
        # consistent only when r_st = delta * r_sx
        consistent = snr.snr_report(4.0, 4.0, 0.5)  # r_st=8, r_sx=1, delta=7 -> no
        assert not consistent.chain_consistent
        # engineered: S=2, X=1, T=2/3 -> r_st=3, r_sx=2, delta=1 -> ratio 1.5 != delta
        rep = snr.snr_report(2.0, 1.0, 2.0 / 3.0)
        assert rep.snr_difference_db == pytest.approx(
            rep.snr_out_db - rep.snr_register_db, abs=1e-12
        )

    def test_no_gain_flag(self):
        rep = snr.snr_report(2.0, 1.0, 4.0)  # r_st=0.5, r_sx=2 -> delta=-1.5
        assert rep.no_gain
        assert np.isnan(rep.delta_snr_db)
        assert np.isfinite(rep.snr_out_db)

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(NumericalDomainError):
            snr.snr_report(0.0, 1.0, 1.0)

    def test_round_trips_on_random_positive_deltas(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            s = float(rng.uniform(0.5, 10))
            x = float(rng.uniform(0.5, 10))
            t = float(rng.uniform(0.01, 0.5))
            rep = snr.snr_report(s, x, t)
            if rep.no_gain:
                continue
            assert 10 ** (rep.delta_snr_db / 10) == pytest.approx(rep.delta, rel=1e-9)


class TestSweepCurve:
    def test_zero_delta_matches_register_snr(self):
        r_sx = 2.5
        rows = snr.sweep_curve(r_sx, [0.0])
        assert rows[0][1] == pytest.approx(10 * np.log10(r_sx), abs=1e-12)

    def test_strictly_increasing(self):
        rows = snr.sweep_curve(1.0, np.linspace(0.1, 50, 200))
        values = [v for _, v in rows]
        assert np.all(np.diff(values) > 0)

    def test_ten_db_point(self):
        rows = snr.sweep_curve(1.0, [9.0])
        assert rows[0][1] == pytest.approx(10.0, abs=1e-12)

    def test_nonpositive_ratio_skipped_with_diagnostic(self):
        with pytest.warns(RuntimeWarning, match="skipping"):
            rows = snr.sweep_curve(1.0, [-2.0, 1.0])
        assert len(rows) == 1


class TestChainConsistency:
    def test_multiplicative_case_flagged_true(self):
        # r_st = delta * r_sx holds for S=4, X=2, T=1 (r_st=4, r_sx=2, delta=2)
        rep = snr.snr_report(4.0, 2.0, 1.0)
        assert rep.chain_consistent
        assert rep.delta_snr_db + rep.snr_register_db == pytest.approx(
            rep.snr_out_db, abs=1e-9
        )
