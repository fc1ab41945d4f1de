"""Heart-rate plant, energy expenditure, and the intensity controller.

The numeric fixtures were computed with fractions.Fraction arithmetic on the
forward-Euler recurrence and are exact to the last bit of the float result.
"""
from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from virusboxing.physiology import (
    DEFAULT_PID_GAINS,
    HEART_PRESETS,
    KCAL_PER_BPM_SECOND,
    LOW_INTENSITY_FACTOR,
    PhysioState,
    PidController,
    apply_modulation,
    hr_step,
    kcal_step,
    modulated_intensity,
)
from virusboxing.protocol import PhaseKind


REGULAR = HEART_PRESETS["regular"]


class TestIntensity:
    def test_low_and_cooldown_are_scaled(self) -> None:
        assert modulated_intensity(PhaseKind.LOW, 0.615) == \
            pytest.approx(LOW_INTENSITY_FACTOR * 0.615)
        assert modulated_intensity(PhaseKind.COOLDOWN, 0.615) == \
            modulated_intensity(PhaseKind.LOW, 0.615)

    def test_sprint_passes_effort_through(self) -> None:
        assert modulated_intensity(PhaseKind.SPRINT, 0.615) == 0.615

    def test_ended_is_zero(self) -> None:
        assert modulated_intensity(PhaseKind.ENDED, 0.615) == 0.0

    @pytest.mark.parametrize("effort", [-0.01, 1.01])
    def test_effort_out_of_range_rejected(self, effort: float) -> None:
        with pytest.raises(ValueError):
            modulated_intensity(PhaseKind.SPRINT, effort)

    def test_unscaled_intensity_is_uncapped_below_full_effort(self) -> None:
        assert modulated_intensity(PhaseKind.SPRINT, 0.6) == 0.6


class TestHeartRateStep:
    def test_single_rising_step_exact(self) -> None:
        state = PhysioState(hr=60.0)
        hr_step(state, intensity=1.0, params=REGULAR, dt=0.02)
        # 60 + (190 - 60) / 30 * 0.02, via Fraction
        assert state.hr == pytest.approx(60.086666666666666, abs=1e-12)

    def test_two_rising_steps_exact(self) -> None:
        state = PhysioState(hr=60.0)
        for _ in range(2):
            hr_step(state, intensity=1.0, params=REGULAR, dt=0.02)
        assert state.hr == pytest.approx(60.173275555555556, abs=1e-12)

    def test_fifty_rising_steps_exact(self) -> None:
        state = PhysioState(hr=60.0)
        for _ in range(50):
            hr_step(state, intensity=1.0, params=REGULAR, dt=0.02)
        assert state.hr == pytest.approx(64.26330464073315, abs=1e-11)

    def test_decay_uses_slower_time_constant(self) -> None:
        state = PhysioState(hr=140.0)
        hr_step(state, intensity=0.0, params=REGULAR, dt=0.02)
        # 140 + (60 - 140) / 60 * 0.02
        assert state.hr == pytest.approx(139.97333333333333, abs=1e-12)

    def test_low_phase_target(self) -> None:
        intensity = modulated_intensity(PhaseKind.LOW, 0.615)
        target = REGULAR.hr_rest + intensity * (REGULAR.hr_max - REGULAR.hr_rest)
        assert target == pytest.approx(95.9775, abs=1e-12)

    def test_hr_clamped_to_preset_band(self) -> None:
        state = PhysioState(hr=REGULAR.hr_rest)
        hr_step(state, intensity=0.0, params=REGULAR, dt=0.02)
        assert state.hr == REGULAR.hr_rest
        state = PhysioState(hr=REGULAR.hr_max)
        hr_step(state, intensity=1.0, params=REGULAR, dt=0.02)
        assert state.hr <= REGULAR.hr_max

    @given(
        hr=st.floats(min_value=60.0, max_value=190.0),
        intensity=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_step_stays_in_band(self, hr: float, intensity: float) -> None:
        state = PhysioState(hr=hr)
        hr_step(state, intensity=intensity, params=REGULAR, dt=0.02)
        assert REGULAR.hr_rest <= state.hr <= REGULAR.hr_max


class TestCalories:
    def test_coefficient_normalisation(self) -> None:
        # a whole session pinned at 126 bpm burns exactly 44 kcal
        assert KCAL_PER_BPM_SECOND * 126.0 * 420.0 == pytest.approx(44.0)

    def test_accumulation_over_session(self) -> None:
        state = PhysioState(hr=126.0)
        for _ in range(21000):
            kcal_step(state, dt=0.02)
        assert state.kcal == pytest.approx(44.0, abs=1e-6)


class TestPidController:
    def test_hand_computed_trajectory(self) -> None:
        # kp=0.1, ki=0.5, dt=1: integral winds to its clamp at |u|<=1
        pid = PidController(kp=0.1, ki=0.5, kd=0.0)
        assert pid.step(setpoint=1.0, measured=0.0, dt=1.0) == \
            pytest.approx(0.6)
        assert pid.step(setpoint=1.0, measured=0.0, dt=1.0) == \
            pytest.approx(1.0)  # raw 1.1, output clamp
        assert pid.step(setpoint=1.0, measured=0.0, dt=1.0) == \
            pytest.approx(1.0)  # integral itself saturates at 2.0
        assert pid.integral == pytest.approx(2.0)
        assert pid.step(setpoint=0.0, measured=1.0, dt=1.0) == \
            pytest.approx(0.4)  # kp*(-1) + ki*1.0 (integral fell to 1.0)

    def test_derivative_term(self) -> None:
        pid = PidController(kp=0.0, ki=0.0, kd=0.1)
        assert pid.step(setpoint=1.0, measured=0.0, dt=0.5) == \
            pytest.approx(0.2)  # de = 1 from the 0 init
        assert pid.step(setpoint=1.0, measured=0.0, dt=0.5) == 0.0

    @given(
        kp=st.floats(min_value=0.0, max_value=2.0),
        error=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_pure_proportional_matches_clamp(self, kp: float, error: float) -> None:
        pid = PidController(kp=kp, ki=0.0, kd=0.0)
        u = pid.step(setpoint=error, measured=0.0, dt=0.02)
        assert u == pytest.approx(max(-1.0, min(1.0, kp * error)))

    def test_rejects_nonpositive_dt(self) -> None:
        pid = PidController(*DEFAULT_PID_GAINS)
        with pytest.raises(ValueError):
            pid.step(setpoint=1.0, measured=0.0, dt=0.0)

    @given(u=st.floats(min_value=-3.0, max_value=3.0))
    def test_modulation_bounds(self, u: float) -> None:
        assert 0.5 <= apply_modulation(u) <= 2.0

    def test_zero_output_is_identity(self) -> None:
        assert apply_modulation(0.0) == 1.0

    def test_output_maps_exponentially(self) -> None:
        assert apply_modulation(0.5) == pytest.approx(math.sqrt(2.0))
        assert apply_modulation(-1.0) == pytest.approx(0.5)


class TestPresets:
    def test_known_presets(self) -> None:
        assert REGULAR.hr_rest == 60.0 and REGULAR.hr_max == 190.0
        sedentary = HEART_PRESETS["sedentary"]
        assert sedentary.hr_rest == 70.0 and sedentary.hr_max == 195.0
        assert REGULAR.tau_rise == 30.0 and REGULAR.tau_decay == 60.0
