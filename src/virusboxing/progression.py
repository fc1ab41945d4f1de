"""Energy accrual, empowerment, and end-of-session outcome metrics.

Energy only accrues from viruses destroyed outside empowerment, one unit
per kill up to ten.  A full bar plus a button press trades the bar for a
ten-second empowerment window; the window is right-open, so at exactly
start + 10 s the player is ordinary again.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .world import IdentityEnum

__all__ = [
    "ENERGY_CAPACITY",
    "EMPOWERMENT_DURATION",
    "RefusalReason",
    "ProgressionState",
    "SummaryMetrics",
    "is_empowered",
    "on_virus_destroyed",
    "on_virus_missed",
    "on_cell_avoided",
    "on_cell_collided",
    "on_wrong_hand",
    "activate_empowerment",
    "tick_empowerment",
    "summary",
]

ENERGY_CAPACITY = 10
EMPOWERMENT_DURATION = 10.0


class RefusalReason(IdentityEnum):
    NOT_FULL = "not_full"
    NO_PRESS = "no_press"
    ALREADY_EMPOWERED = "already_empowered"


@dataclass(slots=True)
class ProgressionState:
    energy: int = 0
    empowered_until: float | None = None
    viruses_destroyed: int = 0
    viruses_missed: int = 0
    cells_avoided: int = 0
    cells_collided: int = 0
    wrong_hand_jabs: int = 0
    activations: int = 0


def is_empowered(state: ProgressionState, sim_time: float) -> bool:
    return state.empowered_until is not None and sim_time < state.empowered_until


def on_virus_destroyed(state: ProgressionState, sim_time: float) -> None:
    """Count a kill; energy moves only outside empowerment, clamped at full."""
    state.viruses_destroyed += 1
    if not is_empowered(state, sim_time):
        state.energy = min(ENERGY_CAPACITY, state.energy + 1)


def on_virus_missed(state: ProgressionState) -> None:
    state.viruses_missed += 1


def on_cell_avoided(state: ProgressionState) -> None:
    state.cells_avoided += 1


def on_cell_collided(state: ProgressionState) -> None:
    state.cells_collided += 1


def on_wrong_hand(state: ProgressionState) -> None:
    state.wrong_hand_jabs += 1


def activate_empowerment(state: ProgressionState, sim_time: float,
                         button_pressed: bool) -> RefusalReason | None:
    """Attempt to spend a full energy bar; None means it activated."""
    if not button_pressed:
        return RefusalReason.NO_PRESS
    if is_empowered(state, sim_time):
        return RefusalReason.ALREADY_EMPOWERED
    if state.energy < ENERGY_CAPACITY:
        return RefusalReason.NOT_FULL
    state.energy = 0
    state.empowered_until = sim_time + EMPOWERMENT_DURATION
    state.activations += 1
    return None


def tick_empowerment(state: ProgressionState, sim_time: float) -> bool:
    """Clear an elapsed empowerment window; True if it expired just now."""
    if state.empowered_until is not None and sim_time >= state.empowered_until:
        state.empowered_until = None
        return True
    return False


@dataclass(frozen=True)
class SummaryMetrics:
    """Aggregate outcomes for one session.

    Percentages are in percent units and absent (None) when the category
    never spawned; the heart-rate fields are absent when no ``hr`` row
    was written.  The session runner (through ``summary``) and
    ``session.metrics_from_log`` both build them with ``of``.
    """

    viruses_spawned: int
    cells_spawned: int
    viruses_destroyed: int
    viruses_missed: int
    cells_avoided: int
    cells_collided: int
    wrong_hand_jabs: int
    activations: int
    miss_pct: float | None
    cell_hit_pct: float | None
    avg_hr: float | None = None
    max_hr: float | None = None
    kcal: float | None = None

    @classmethod
    def of(cls, state: ProgressionState, viruses_spawned: int,
           cells_spawned: int, hr: Sequence[float] = (),
           kcal: float | None = None) -> SummaryMetrics:
        """The metrics of ``state``'s counters, the spawned populations,
        the ``hr`` row values in order and the last row's kcal.  Checks
        no counter: ``summary`` does."""
        missed, collided = state.viruses_missed, state.cells_collided
        return cls(
            viruses_spawned=viruses_spawned, cells_spawned=cells_spawned,
            viruses_destroyed=state.viruses_destroyed, viruses_missed=missed,
            cells_avoided=state.cells_avoided, cells_collided=collided,
            wrong_hand_jabs=state.wrong_hand_jabs,
            activations=state.activations,
            miss_pct=(100.0 * missed / viruses_spawned if viruses_spawned
                      else None),
            cell_hit_pct=(100.0 * collided / cells_spawned if cells_spawned
                          else None),
            avg_hr=round(sum(hr) / len(hr), 6) if hr else None,
            max_hr=max(hr) if hr else None,
            kcal=kcal,
        )


def summary(state: ProgressionState, viruses_spawned: int,
            cells_spawned: int, hr: Sequence[float] = (),
            kcal: float | None = None) -> SummaryMetrics:
    """Fold the final state, the ``hr`` row values and the last kcal into
    metrics through ``SummaryMetrics.of``; refuses inconsistent counters."""
    if state.viruses_destroyed + state.viruses_missed != viruses_spawned:
        raise ValueError(
            "virus counters do not cover the spawned population: "
            f"{state.viruses_destroyed} destroyed + {state.viruses_missed} missed "
            f"!= {viruses_spawned} spawned"
        )
    if state.cells_avoided + state.cells_collided != cells_spawned:
        raise ValueError(
            "cell counters do not cover the spawned population: "
            f"{state.cells_avoided} avoided + {state.cells_collided} collided "
            f"!= {cells_spawned} spawned"
        )
    return SummaryMetrics.of(state, viruses_spawned, cells_spawned, hr, kcal)
