"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.arch.control import RangeNormalizer
from repro.arch.weight_bank import WeightBank
from repro.dataflow.tiling import TileSchedule
from repro.devices.activation_cell import GSTActivationCell
from repro.devices.gst import patch_transmission
from repro.devices.mrr import AddDropMRR, RingGeometry
from repro.devices.pcm_mrr import build_calibration
from repro.nn.layers import GEMMShape
from repro.nn.quantization import UniformQuantizer

_CAL = build_calibration()

weights = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
weight_arrays = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 16), st.integers(1, 16)),
    elements=weights,
)


class TestQuantizerProperties:
    @given(v=arrays(np.float64, st.integers(1, 64), elements=weights),
           bits=st.integers(2, 10))
    def test_roundtrip_error_bounded_by_half_step(self, v, bits):
        q = UniformQuantizer.from_bits(bits)
        assert np.max(np.abs(q.roundtrip(v) - v)) <= q.step / 2 + 1e-12

    @given(v=arrays(np.float64, st.integers(1, 64), elements=weights))
    def test_quantization_idempotent(self, v):
        q = UniformQuantizer(255)
        once = q.roundtrip(v)
        twice = q.roundtrip(once)
        assert np.array_equal(once, twice)

    @given(v=arrays(np.float64, st.integers(2, 64), elements=weights))
    def test_quantization_preserves_order(self, v):
        q = UniformQuantizer(255)
        order = np.argsort(v, kind="stable")
        rq = q.roundtrip(v)
        assert np.all(np.diff(rq[order]) >= -1e-12)

    @given(bits=st.integers(2, 12))
    def test_levels_formula(self, bits):
        assert UniformQuantizer.from_bits(bits).levels == 2**bits - 1


class TestCalibrationProperties:
    @given(w=weights)
    def test_weight_fraction_weight_roundtrip(self, w):
        c = _CAL.weight_to_fraction(w)
        assert 0.0 <= float(c) <= 1.0
        assert float(_CAL.fraction_to_weight(c)) == pytest.approx(w, abs=5e-3)

    @given(w1=weights, w2=weights)
    def test_fraction_ordering_inverts_weight_ordering(self, w1, w2):
        c1 = float(_CAL.weight_to_fraction(w1))
        c2 = float(_CAL.weight_to_fraction(w2))
        if w1 < w2 - 1e-9:
            assert c1 >= c2


class TestMRRProperties:
    @given(
        loss=st.floats(min_value=0.3, max_value=1.0),
        coupling=st.floats(min_value=0.5, max_value=0.99),
        lam=st.floats(min_value=1.5e-6, max_value=1.6e-6),
    )
    def test_passive_ring_never_amplifies(self, loss, coupling, lam):
        ring = AddDropMRR(
            input_coupling=coupling, drop_coupling=coupling, ring_loss=0.999,
            extra_loss=loss,
        )
        total = float(ring.through(lam)) + float(ring.drop(lam))
        assert 0.0 <= total <= 1.0 + 1e-9

    @given(radius=st.floats(min_value=2e-6, max_value=60e-6))
    def test_fsr_positive_and_shrinks_with_radius(self, radius):
        small = RingGeometry(radius_m=radius)
        big = RingGeometry(radius_m=radius * 2)
        assert big.free_spectral_range() < small.free_spectral_range()


class TestGSTProperties:
    @given(
        c=st.floats(min_value=0.0, max_value=1.0),
        length=st.floats(min_value=0.0, max_value=2e-6),
    )
    def test_patch_transmission_in_unit_interval(self, c, length):
        t = float(patch_transmission(c, length))
        assert 0.0 < t <= 1.0

    @given(
        c1=st.floats(min_value=0.0, max_value=1.0),
        c2=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_transmission_antitone_in_crystallinity(self, c1, c2):
        t1 = float(patch_transmission(c1, 0.5e-6))
        t2 = float(patch_transmission(c2, 0.5e-6))
        if c1 < c2:
            # Antitone up to float rounding: adjacent crystallinities can
            # evaluate within 1 ULP of each other (e.g. c1=0, c2~1e-16).
            assert t1 >= t2 - 1e-12


class TestActivationProperties:
    @given(h=arrays(np.float64, st.integers(1, 32),
                    elements=st.floats(-10, 10, allow_nan=False)),
           scale=st.floats(min_value=1e-3, max_value=100.0))
    def test_positive_homogeneity(self, h, scale):
        cell = GSTActivationCell()
        assert np.allclose(cell.activate(scale * h), scale * cell.activate(h),
                           rtol=1e-12, atol=1e-12)

    @given(h=arrays(np.float64, st.integers(1, 32),
                    elements=st.floats(-10, 10, allow_nan=False)))
    def test_output_nonnegative_and_derivative_consistent(self, h):
        cell = GSTActivationCell()
        out = cell.activate(h)
        assert np.all(out >= 0)
        d = cell.derivative(h)
        assert np.all((d == 0) | np.isclose(d, 0.34))


class TestWeightBankProperties:
    @settings(max_examples=25, deadline=None)
    @given(w=weight_arrays)
    def test_programmed_error_bounded(self, w):
        bank = WeightBank()
        realized = bank.program(w)
        assert np.max(np.abs(realized - w)) <= bank.weight_step / 2 + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        w=weight_arrays,
        data=st.data(),
    )
    def test_matvec_linearity(self, w, data):
        """The analog MVP must be exactly linear in the input."""
        bank = WeightBank()
        bank.program(w)
        n = w.shape[1]
        x1 = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
        x2 = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
        lhs = bank.matmat(np.clip(x1 + x2, -1, 1)[:, None])
        rhs = bank.matmat(x1[:, None]) + bank.matmat(x2[:, None])
        if np.max(np.abs(x1 + x2)) <= 1.0:
            assert np.allclose(lhs, rhs, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(w=weight_arrays)
    def test_matvec_bounded_by_dimensions(self, w):
        """|output| <= number of columns (inputs and weights in [-1, 1])."""
        bank = WeightBank()
        bank.program(w)
        out = bank.matmat(np.ones((w.shape[1], 1)))
        assert np.all(np.abs(out) <= w.shape[1] + 1e-9)


class TestTilingProperties:
    gemm_dims = st.tuples(
        st.integers(1, 512), st.integers(1, 512), st.integers(1, 512),
        st.integers(1, 32),
    )

    @given(dims=gemm_dims)
    def test_tiles_cover_all_cells(self, dims):
        m, k, n, g = dims
        s = TileSchedule(GEMMShape(m=m, k=k, n=n, groups=g), 16, 16)
        capacity = s.n_tiles * 16 * 16
        assert capacity >= s.cells
        assert s.cells == m * k * g

    @given(dims=gemm_dims)
    def test_occupancy_in_unit_interval(self, dims):
        m, k, n, g = dims
        s = TileSchedule(GEMMShape(m=m, k=k, n=n, groups=g), 16, 16)
        assert 0.0 < s.mean_occupancy <= 1.0

    @given(dims=gemm_dims, pes=st.integers(1, 64))
    def test_rounds_bounds(self, dims, pes):
        m, k, n, g = dims
        s = TileSchedule(GEMMShape(m=m, k=k, n=n, groups=g), 16, 16)
        rounds = s.rounds(pes)
        assert rounds * pes >= s.n_tiles
        assert (rounds - 1) * pes < s.n_tiles

    @given(dims=gemm_dims)
    def test_symbols_account_for_all_macs(self, dims):
        """Every MAC must be covered: symbols x bank capacity >= MACs."""
        m, k, n, g = dims
        s = TileSchedule(GEMMShape(m=m, k=k, n=n, groups=g), 16, 16)
        assert s.symbols * 256 >= s.gemm.macs


class TestNormalizerProperties:
    @given(v=arrays(np.float64, st.integers(1, 32),
                    elements=st.floats(-1e6, 1e6, allow_nan=False)))
    def test_normalized_in_range_and_restorable(self, v):
        norm = RangeNormalizer.normalize(v)
        assert np.max(np.abs(norm.values)) <= 1.0 + 1e-12
        assert np.allclose(norm.restore(norm.values), v, rtol=1e-12, atol=1e-12)


class TestPhysicalBankProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        w=arrays(np.float64, st.tuples(st.just(4), st.just(4)), elements=weights),
        data=st.data(),
    )
    def test_physical_matches_normalized(self, w, data):
        """Watts-to-amps physics and the normalized abstraction agree for
        any programmable weight matrix and non-negative input."""
        from repro.devices.waveguide import WDMChannelPlan
        from repro.optics import PhysicalWeightBank

        x = np.array(data.draw(st.lists(st.floats(0, 1), min_size=4, max_size=4)))
        physical = PhysicalWeightBank(rows=4, plan=WDMChannelPlan(4))
        physical.program(w)
        normalized = WeightBank(rows=4, cols=4)
        normalized.program(w)
        out = physical.forward(x)
        expected = normalized.matmat(x[:, None])[:, 0]
        assert np.max(np.abs(out.normalized - expected)) < 1e-6


class TestLinkBudgetProperties:
    @given(
        rows=st.integers(1, 256),
        power=st.floats(min_value=1e-4, max_value=1e-1),
    )
    def test_snr_monotone_decreasing_in_rows(self, rows, power):
        from repro.optics import LinkBudget

        budget = LinkBudget()
        assert budget.snr_db(rows, 16, power) >= budget.snr_db(rows + 1, 16, power)

    @given(power=st.floats(min_value=1e-4, max_value=1e-1))
    def test_more_power_never_hurts(self, power):
        from repro.optics import LinkBudget

        budget = LinkBudget()
        assert budget.snr_db(16, 16, power * 2) > budget.snr_db(16, 16, power)


class TestDriftProperties:
    @given(
        c=st.floats(min_value=0.0, max_value=1.0),
        age=st.floats(min_value=0.0, max_value=1e9),
        temp=st.floats(min_value=280.0, max_value=420.0),
    )
    def test_aged_fraction_bounded_and_increasing(self, c, age, temp):
        from repro.devices.drift import RetentionModel

        model = RetentionModel()
        aged = float(model.aged_fraction(c, age, temp))
        assert c - 1e-12 <= aged <= 1.0 + 1e-12

    @given(
        c=st.floats(min_value=0.0, max_value=1.0),
        t1=st.floats(min_value=0.0, max_value=1e8),
        t2=st.floats(min_value=0.0, max_value=1e8),
    )
    def test_aging_monotone_in_time(self, c, t1, t2):
        from repro.devices.drift import RetentionModel

        model = RetentionModel()
        lo, hi = sorted((t1, t2))
        assert float(model.aged_fraction(c, lo, 360.0)) <= float(
            model.aged_fraction(c, hi, 360.0)
        ) + 1e-12


class TestThermalCrosstalkProperties:
    @given(
        coupling=st.floats(min_value=0.0, max_value=0.1),
        n=st.integers(2, 32),
    )
    def test_worst_error_scales_with_coupling(self, coupling, n):
        from repro.devices.thermal_crosstalk import ThermalCrosstalkModel

        model = ThermalCrosstalkModel(n_rings=n, adjacent_coupling=coupling)
        err = model.worst_case_error()
        assert err >= 0
        if coupling == 0:
            assert err == 0

    @given(c1=st.floats(0.0, 0.05), c2=st.floats(0.0, 0.05))
    def test_bits_antitone_in_coupling(self, c1, c2):
        from repro.devices.thermal_crosstalk import ThermalCrosstalkModel

        lo, hi = sorted((c1, c2))
        bits_lo = ThermalCrosstalkModel(adjacent_coupling=lo).usable_bits()
        bits_hi = ThermalCrosstalkModel(adjacent_coupling=hi).usable_bits()
        assert bits_lo >= bits_hi


class TestProgramVerifyProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        targets=arrays(np.float64, st.integers(1, 64),
                       elements=st.floats(0, 254)),
        seed=st.integers(0, 1000),
    )
    def test_achieved_levels_in_grid(self, targets, seed):
        from repro.devices.program_verify import ProgramVerifyWriter

        result = ProgramVerifyWriter(seed=seed).write(targets)
        assert np.all(result.achieved_levels >= 0)
        assert np.all(result.achieved_levels <= 254)
        assert np.all(result.pulses >= 1)
        assert np.all(result.pulses <= 10)


class TestRepairProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        w=arrays(np.float64, st.tuples(st.integers(2, 8), st.integers(1, 8)),
                 elements=weights),
        data=st.data(),
    )
    def test_spare_remap_preserves_healthy_rows(self, w, data):
        """Remapping one logical row must not move any other row's
        realized weights — the spare routing change is row-local."""
        rows = w.shape[0]
        bank = WeightBank(rows=rows, cols=w.shape[1], spare_rows=2)
        bank.program(w)
        before = bank.logical_weights
        victim = data.draw(st.integers(0, rows - 1))
        bank.remap_row(victim)
        bank.program(w)
        after = bank.logical_weights
        healthy = [r for r in range(rows) if r != victim]
        assert np.array_equal(before[healthy], after[healthy])

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 200),
        fraction=st.floats(0.0, 0.15),
        batch=st.integers(1, 6),
    )
    def test_symbol_parity_under_faults_and_repair(self, seed, fraction, batch):
        """forward and forward_batch must agree symbol-for-symbol (and on
        outputs) with stuck faults injected and repair remaps active."""
        import warnings

        from repro import TridentAccelerator, TridentConfig
        from repro.devices.program_verify import ProgramVerifyConfig
        from repro.errors import WriteConvergenceWarning
        from repro.faults import FaultManager, RepairConfig

        rng = np.random.default_rng(seed)
        acc = TridentAccelerator(
            config=TridentConfig(spare_rows=4, convergence_floor=0.0),
            seed=seed,
            program_verify=ProgramVerifyConfig(),
        )
        acc.map_mlp([6, 8, 3])
        acc.inject_stuck_faults(fraction, stuck_level=254)
        manager = FaultManager(acc, config=RepairConfig(policy="spare"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WriteConvergenceWarning)
            manager.deploy(
                [rng.uniform(-1, 1, (8, 6)), rng.uniform(-1, 1, (3, 8))]
            )
        xs = rng.uniform(-1, 1, (batch, 6))
        before = acc.counters.snapshot()
        out_batch = acc.forward_batch(xs)
        batch_delta = acc.counters.diff(before).as_dict()
        before = acc.counters.snapshot()
        out_sample = np.concatenate([acc.forward_batch(x[None]) for x in xs])
        sample_delta = acc.counters.diff(before).as_dict()
        assert batch_delta == sample_delta
        assert np.allclose(out_batch, out_sample)

    @settings(max_examples=15, deadline=None)
    @given(
        w=arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(1, 6)),
                 elements=weights),
        data=st.data(),
    )
    def test_fully_repaired_bank_matches_never_faulted(self, w, data):
        """After every stuck row is remapped onto clean spares, the bank's
        logical weights must match a never-faulted bank's within the
        quantization step (here: exactly — the writer is noise-free)."""
        from repro.devices.program_verify import ProgramVerifyConfig, ProgramVerifyWriter

        rows, cols = w.shape
        exact = ProgramVerifyConfig(
            write_std_levels=0.0, read_std_levels=0.0, max_iterations=2
        )
        clean_bank = WeightBank(rows=rows, cols=cols, spare_rows=rows)
        clean_bank.program_verified(w, ProgramVerifyWriter(exact, seed=0))
        reference = clean_bank.logical_weights

        faulty_bank = WeightBank(
            rows=rows, cols=cols, spare_rows=rows, convergence_floor=0.0
        )
        n_bad = data.draw(st.integers(1, rows))
        bad_rows = data.draw(
            st.lists(st.integers(0, rows - 1), min_size=n_bad, max_size=n_bad,
                     unique=True)
        )
        for row in bad_rows:
            faulty_bank._stuck_mask[row, :] = True
            faulty_bank._stuck_levels[row, :] = 254
        for row in bad_rows:
            faulty_bank.remap_row(row)
        faulty_bank.program_verified(w, ProgramVerifyWriter(exact, seed=0))
        assert np.max(np.abs(faulty_bank.logical_weights - reference)) \
            <= faulty_bank.weight_step
