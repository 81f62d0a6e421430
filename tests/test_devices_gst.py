"""Tests for the GST phase-change material model."""

import numpy as np
import pytest

from repro.devices.gst import (
    DEFAULT_ENDURANCE_CYCLES,
    GSTCell,
    GSTMaterial,
    absorption_coefficient,
    effective_index,
    effective_permittivity,
    patch_transmission,
)
from repro.errors import EnduranceExceededError, ProgrammingError


class TestEffectiveMedium:
    def test_endpoints_match_pure_phases(self):
        n0 = effective_index(0.0)
        n1 = effective_index(1.0)
        assert complex(n0) == pytest.approx(4.6 + 0.18j, rel=1e-9)
        assert complex(n1) == pytest.approx(7.45 + 1.49j, rel=1e-9)

    def test_real_index_increases_with_crystallinity(self):
        c = np.linspace(0, 1, 50)
        n = np.real(effective_index(c))
        assert np.all(np.diff(n) > 0)

    def test_extinction_increases_with_crystallinity(self):
        c = np.linspace(0, 1, 50)
        k = np.imag(effective_index(c))
        assert np.all(np.diff(k) > 0)

    def test_vectorized_matches_scalar(self):
        c = np.array([0.0, 0.3, 0.7, 1.0])
        vec = effective_permittivity(c)
        for ci, vi in zip(c, vec):
            assert complex(effective_permittivity(float(ci))) == pytest.approx(complex(vi))

    def test_rejects_out_of_range_fraction(self):
        with pytest.raises(ProgrammingError):
            effective_permittivity(-0.1)
        with pytest.raises(ProgrammingError):
            effective_permittivity(1.1)


class TestPatchTransmission:
    def test_bounded_in_unit_interval(self):
        c = np.linspace(0, 1, 100)
        t = patch_transmission(c, 0.5e-6)
        assert t.shape == c.shape
        assert np.all(t > 0)
        assert np.all(t <= 1)

    def test_monotone_decreasing_in_crystallinity(self):
        c = np.linspace(0, 1, 100)
        t = patch_transmission(c, 0.5e-6)
        assert np.all(np.diff(t) < 0)

    def test_zero_length_patch_is_transparent(self):
        assert patch_transmission(1.0, 0.0) == pytest.approx(1.0)

    def test_longer_patch_absorbs_more(self):
        short = patch_transmission(0.8, 0.2e-6)
        long = patch_transmission(0.8, 0.8e-6)
        assert long < short

    def test_higher_confinement_absorbs_more(self):
        weak = patch_transmission(0.8, 0.5e-6, confinement=0.1)
        strong = patch_transmission(0.8, 0.5e-6, confinement=0.3)
        assert strong < weak

    def test_rejects_bad_confinement(self):
        with pytest.raises(ProgrammingError):
            patch_transmission(0.5, 1e-6, confinement=0.0)
        with pytest.raises(ProgrammingError):
            patch_transmission(0.5, 1e-6, confinement=1.5)

    def test_rejects_negative_length(self):
        with pytest.raises(ProgrammingError):
            patch_transmission(0.5, -1e-6)

    def test_absorption_coefficient_rejects_bad_wavelength(self):
        with pytest.raises(ProgrammingError):
            absorption_coefficient(0.5, wavelength_m=0.0)


class TestGSTMaterial:
    def test_default_has_8_bit_resolution(self):
        assert GSTMaterial().bit_resolution == 8

    def test_levels_match_paper_ref5(self):
        assert GSTMaterial().levels == 255

    def test_rejects_too_few_levels(self):
        with pytest.raises(ProgrammingError):
            GSTMaterial(levels=1)

    def test_rejects_nonpositive_endurance(self):
        with pytest.raises(ProgrammingError):
            GSTMaterial(endurance_cycles=0)

    def test_six_bit_variant(self):
        assert GSTMaterial(levels=63).bit_resolution == 6


class TestGSTCell:
    def test_fabricated_crystalline(self):
        assert GSTCell().crystalline_fraction == 1.0

    def test_program_fraction_sets_state_and_counts(self):
        cell = GSTCell()
        cell.program_fraction(0.25)
        assert cell.crystalline_fraction == 0.25
        assert cell.write_count == 1
        assert cell.energy_spent_j == pytest.approx(cell.write_energy_j)

    def test_program_level_roundtrip(self):
        cell = GSTCell()
        for level in (0, 100, 254):
            cell.program_level(level)
            assert cell.level == level

    def test_level_zero_is_crystalline(self):
        cell = GSTCell()
        cell.program_level(0)
        assert cell.crystalline_fraction == pytest.approx(1.0)

    def test_top_level_is_amorphous(self):
        cell = GSTCell()
        cell.program_level(254)
        assert cell.crystalline_fraction == pytest.approx(0.0)

    def test_program_level_rejects_out_of_range(self):
        cell = GSTCell()
        with pytest.raises(ProgrammingError):
            cell.program_level(-1)
        with pytest.raises(ProgrammingError):
            cell.program_level(255)

    def test_program_fraction_rejects_out_of_range(self):
        cell = GSTCell()
        with pytest.raises(ProgrammingError):
            cell.program_fraction(1.5)

    def test_amorphize_increases_transmission(self):
        cell = GSTCell()
        t_cryst = cell.transmission()
        cell.amorphize()
        assert cell.transmission() > t_cryst

    def test_crystallize_after_amorphize(self):
        cell = GSTCell()
        cell.amorphize()
        cell.crystallize()
        assert cell.crystalline_fraction == 1.0

    def test_read_counts_energy_not_endurance(self):
        cell = GSTCell()
        writes_before = cell.write_count
        t = cell.read()
        assert cell.read_count == 1
        assert cell.write_count == writes_before
        assert 0 < t <= 1
        assert cell.energy_spent_j == pytest.approx(cell.read_energy_j)

    def test_endurance_enforced(self):
        cell = GSTCell(material=GSTMaterial(endurance_cycles=3))
        for _ in range(3):
            cell.amorphize()
        with pytest.raises(EnduranceExceededError):
            cell.amorphize()

    def test_remaining_endurance(self):
        cell = GSTCell(material=GSTMaterial(endurance_cycles=10))
        cell.amorphize()
        cell.amorphize()
        assert cell.remaining_endurance == 8

    def test_default_endurance_is_trillion_cycles(self):
        assert DEFAULT_ENDURANCE_CYCLES == int(1e12)

    def test_write_energy_matches_paper(self):
        # Sec. III-B: >= 660 pJ write, ~20 pJ read.
        cell = GSTCell()
        assert cell.write_energy_j == pytest.approx(660e-12)
        assert cell.read_energy_j == pytest.approx(20e-12)
