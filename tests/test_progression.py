"""Energy accrual, empowerment windows, and summary metrics."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virusboxing.progression import (
    EMPOWERMENT_DURATION,
    ENERGY_CAPACITY,
    ProgressionState,
    RefusalReason,
    activate_empowerment,
    is_empowered,
    on_cell_avoided,
    on_cell_collided,
    on_virus_destroyed,
    on_virus_missed,
    on_wrong_hand,
    summary,
    tick_empowerment,
)


def _charged(energy: int = ENERGY_CAPACITY) -> ProgressionState:
    state = ProgressionState()
    for _ in range(energy):
        on_virus_destroyed(state, 0.0)
    return state


class TestEnergy:
    def test_each_destroy_adds_one_point(self) -> None:
        state = ProgressionState()
        for i in range(1, 6):
            on_virus_destroyed(state, 0.0)
            assert state.energy == i

    def test_energy_saturates_at_capacity(self) -> None:
        state = _charged()
        on_virus_destroyed(state, 0.0)
        assert state.energy == ENERGY_CAPACITY

    def test_no_gain_while_empowered(self) -> None:
        state = _charged()
        assert activate_empowerment(state, 100.0, button_pressed=True) is None
        on_virus_destroyed(state, 101.0)
        on_virus_destroyed(state, 105.0)
        assert state.energy == 0
        # the window closes at exactly +10 s; gains resume
        tick_empowerment(state, 110.0)
        on_virus_destroyed(state, 110.0)
        assert state.energy == 1


class TestActivation:
    def test_successful_activation(self) -> None:
        state = _charged()
        assert activate_empowerment(state, 42.0, button_pressed=True) is None
        assert state.energy == 0
        assert state.empowered_until == 52.0
        assert state.activations == 1

    def test_refusal_precedence_no_press_first(self) -> None:
        state = _charged()
        activate_empowerment(state, 0.0, button_pressed=True)
        # not pressed outranks already-empowered, which outranks not-full
        assert activate_empowerment(state, 1.0, button_pressed=False) \
            is RefusalReason.NO_PRESS
        assert activate_empowerment(state, 1.0, button_pressed=True) \
            is RefusalReason.ALREADY_EMPOWERED
        tick_empowerment(state, 10.0)
        assert activate_empowerment(state, 10.0, button_pressed=True) \
            is RefusalReason.NOT_FULL

    def test_window_is_right_open(self) -> None:
        state = _charged()
        activate_empowerment(state, 0.0, button_pressed=True)
        assert is_empowered(state, 9.99)
        assert not is_empowered(state, 10.0)

    def test_tick_reports_expiry_exactly_once(self) -> None:
        state = _charged()
        activate_empowerment(state, 0.0, button_pressed=True)
        assert not tick_empowerment(state, 9.99)
        assert tick_empowerment(state, 10.0)
        assert not tick_empowerment(state, 10.02)
        assert state.empowered_until is None


class TestSummary:
    def test_percentages(self) -> None:
        state = ProgressionState()
        for _ in range(3):
            on_virus_destroyed(state, 0.0)
        on_virus_missed(state)
        on_cell_avoided(state)
        on_cell_collided(state)
        on_wrong_hand(state)
        metrics = summary(state, viruses_spawned=4, cells_spawned=2)
        assert metrics.miss_pct == pytest.approx(25.0)
        assert metrics.cell_hit_pct == pytest.approx(50.0)
        assert metrics.wrong_hand_jabs == 1

    def test_empty_categories_have_no_percentage(self) -> None:
        metrics = summary(ProgressionState(), 0, 0)
        assert metrics.miss_pct is None
        assert metrics.cell_hit_pct is None

    def test_inconsistent_counters_rejected(self) -> None:
        state = ProgressionState()
        on_virus_destroyed(state, 0.0)
        with pytest.raises(ValueError):
            summary(state, viruses_spawned=2, cells_spawned=0)


# Random event sequences drive the state machine; the invariants must hold
# at every intermediate step.
_EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just("destroy"), st.just(0)),
        st.tuples(st.just("press"), st.just(0)),
        st.tuples(st.just("tick"), st.just(0)),
        st.tuples(st.just("wait"), st.integers(min_value=1, max_value=300)),
    ),
    max_size=120,
)


@settings(max_examples=300)
@given(events=_EVENTS)
def test_state_machine_invariants(events) -> None:
    state = ProgressionState()
    now = 0.0
    started_at: float | None = None
    for name, arg in events:
        if name == "wait":
            now += arg * 0.02
        tick_empowerment(state, now)
        if name == "destroy":
            empowered_before = is_empowered(state, now)
            energy_before = state.energy
            on_virus_destroyed(state, now)
            if empowered_before:
                assert state.energy == energy_before
        elif name == "press":
            full_before = state.energy == ENERGY_CAPACITY
            empowered_before = is_empowered(state, now)
            result = activate_empowerment(state, now, button_pressed=True)
            if result is None:
                assert full_before and not empowered_before
                assert state.empowered_until == now + EMPOWERMENT_DURATION
                started_at = now
        assert 0 <= state.energy <= ENERGY_CAPACITY
        if started_at is not None and is_empowered(state, now):
            assert now - started_at < EMPOWERMENT_DURATION + 1e-12
