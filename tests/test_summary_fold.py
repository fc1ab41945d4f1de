"""The summary fold, ``SummaryMetrics.of``: ``metrics_from_log`` reads
any mix of counted rows, written with the writer's own templates, as the
fold of the same counts, and the fold's fields are those counts, their
percentages and the ``hr`` rows' mean and peak.

The counts need not conserve.  So empty populations, which only the
shortest sessions reach, and logs with no ``hr`` row, which no session
writes, are drawn as well as full ones.
"""
from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from virusboxing import session
from virusboxing.interaction import CellOutcome, Hand, HitKind, PoseClass
from virusboxing.progression import ProgressionState, SummaryMetrics
from virusboxing.session import metrics_from_log
from virusboxing.world import VIRUS_KINDS, EntityKind

COUNT = st.integers(min_value=0, max_value=12)
# A value as an hr row writes and reads it back: six decimals.
SIX_DECIMALS = st.floats(min_value=0.0, max_value=250.0).map(
    lambda x: round(x, 6))
HR_ROWS = st.lists(st.tuples(SIX_DECIMALS, SIX_DECIMALS), max_size=30)


def _log(spawned: dict, jabs: dict, missed: int, avoided: int,
         collided: int, activations: int, hr_rows: list) -> list[str]:
    """A log of these counted rows, one template row each, with ids and
    times that only have to be well formed."""
    lines = []
    for kind, n in spawned.items():
        lines += [session._SPAWN_ROW % (0.5, i, kind.value, 0.0, 6.0)
                  for i in range(n)]
    for hit, n in jabs.items():
        entity = "7" if hit is HitKind.DESTROYED else "null"
        lines += [session._JAB_ROW % (1.0, Hand.LEFT.value, hit.value,
                                      entity, 1.5)] * n
    lines += [session._MISSED_ROW % (2.0, 3)] * missed
    lines += [session._CELL_ROW % (2.0, 4, CellOutcome.AVOIDED.value,
                                   PoseClass.SQUAT.value)] * avoided
    lines += [session._CELL_ROW % (2.0, 5, CellOutcome.COLLIDED.value,
                                   PoseClass.STANDING.value)] * collided
    lines += [session._EMPOWER_START_ROW % (3.0, 13.0)] * activations
    lines += [session._HR_ROW % (float(t), hr, kcal, "low", 0, "false")
              for t, (hr, kcal) in enumerate(hr_rows)]
    return lines


@given(spawned=st.fixed_dictionaries({kind: COUNT for kind in EntityKind}),
       jabs=st.fixed_dictionaries({hit: COUNT for hit in HitKind}),
       missed=COUNT, avoided=COUNT, collided=COUNT, activations=COUNT,
       hr_rows=HR_ROWS, order=st.randoms(use_true_random=False))
def test_the_log_reads_as_the_fold_of_its_counts(
        spawned, jabs, missed, avoided, collided, activations, hr_rows,
        order) -> None:
    lines = _log(spawned, jabs, missed, avoided, collided, activations,
                 hr_rows)
    # The counts do not depend on where the rows stand, but the hr rows
    # keep their order: the last one's kcal is the session's.
    counted = [line for line in lines if '"type":"hr"' not in line]
    order.shuffle(counted)
    lines = counted + lines[len(counted):]
    assert all(session._ROW_PATTERN.fullmatch(line) for line in lines)

    viruses = sum(n for kind, n in spawned.items() if kind in VIRUS_KINDS)
    cells = sum(spawned.values()) - viruses
    state = ProgressionState(
        viruses_destroyed=jabs[HitKind.DESTROYED], viruses_missed=missed,
        cells_avoided=avoided, cells_collided=collided,
        wrong_hand_jabs=jabs[HitKind.WRONG_HAND], activations=activations)
    hr = [hr for hr, _ in hr_rows]
    fold = SummaryMetrics.of(state, viruses, cells, hr,
                             hr_rows[-1][1] if hr_rows else None)
    assert metrics_from_log(lines) == fold

    assert fold == SummaryMetrics(
        viruses_spawned=viruses,
        cells_spawned=cells,
        viruses_destroyed=jabs[HitKind.DESTROYED],
        viruses_missed=missed,
        cells_avoided=avoided,
        cells_collided=collided,
        wrong_hand_jabs=jabs[HitKind.WRONG_HAND],
        activations=activations,
        miss_pct=100.0 * missed / viruses if viruses else None,
        cell_hit_pct=100.0 * collided / cells if cells else None,
        avg_hr=round(sum(hr) / len(hr), 6) if hr else None,
        max_hr=max(hr) if hr else None,
        kcal=hr_rows[-1][1] if hr_rows else None,
    )
