"""``metrics_from_log``: rows the writer's templates write are read off
one pattern built from those templates, and any other line with
``json.loads``.

These tests hold both routes to the reader that parsed every line with
``json.loads``, kept here as the reference: on the logs of every golden
config, which take the pattern on every row, and on logs whose rows are
perturbed so that they fall back to ``json.loads``.
"""
from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_golden import cases
from virusboxing import session
from virusboxing.interaction import CellOutcome, Hand, HitKind, PoseClass
from virusboxing.playersim import load_profile
from virusboxing.progression import SummaryMetrics
from virusboxing.protocol import PhaseKind
from virusboxing.session import SessionConfig, metrics_from_log, run_session
from virusboxing.world import EntityKind


def _reference_metrics(lines) -> SummaryMetrics:
    """The reader before the pattern: every line through ``json.loads``."""
    viruses_spawned = cells_spawned = destroyed = missed = 0
    avoided = collided = wrong_hand = activations = 0
    hr_values = []
    kcal_last = None
    for line in lines:
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        kind = row.get("type")
        if kind == "spawn":
            if row["kind"].endswith("_virus"):
                viruses_spawned += 1
            else:
                cells_spawned += 1
        elif kind == "jab":
            if row["outcome"] == "destroyed":
                destroyed += 1
            elif row["outcome"] == "wrong_hand":
                wrong_hand += 1
        elif kind == "cross":
            status = row["status"]
            if status == "missed":
                missed += 1
            elif status == "avoided":
                avoided += 1
            elif status == "collided":
                collided += 1
        elif kind == "empower":
            if row["action"] == "start":
                activations += 1
        elif kind == "hr":
            hr_values.append(row["hr"])
            kcal_last = row["kcal"]
    return SummaryMetrics(
        viruses_spawned=viruses_spawned,
        cells_spawned=cells_spawned,
        viruses_destroyed=destroyed,
        viruses_missed=missed,
        cells_avoided=avoided,
        cells_collided=collided,
        wrong_hand_jabs=wrong_hand,
        activations=activations,
        miss_pct=100.0 * missed / viruses_spawned if viruses_spawned else None,
        cell_hit_pct=100.0 * collided / cells_spawned if cells_spawned else None,
        avg_hr=(round(sum(hr_values) / len(hr_values), 6) if hr_values
                else None),
        max_hr=max(hr_values) if hr_values else None,
        kcal=kcal_last,
    )


def _same(lines) -> None:
    """``metrics_from_log`` reads ``lines`` as the reference does, down to
    the types and NaNs, or raises the error the reference raises."""
    try:
        want = _reference_metrics(lines)
    except json.JSONDecodeError:
        with pytest.raises(json.JSONDecodeError):
            metrics_from_log(lines)
        return
    assert repr(metrics_from_log(lines)) == repr(want)


GOLDEN = cases()


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_golden_logs_read_as_the_reference_reads_them(label) -> None:
    result = run_session(GOLDEN[label])
    # Every row but the header takes the pattern.
    assert [line for line in result.lines
            if session._ROW_PATTERN.fullmatch(line) is None] == [
                result.lines[0]]
    assert metrics_from_log(result.lines) == result.metrics
    _same(result.lines)


# --- Perturbed rows fall back to json.loads.

ENUM_KEYS = "kind|hand|outcome|status|pose|phase|action"
PERTURBATIONS = {
    "space after a colon": lambda line: line.replace(":", ": ", 1),
    "reordered keys": lambda line: re.sub(r'^\{("type":"\w+"),(.*)\}$',
                                          r"{\2,\1}", line),
    "duplicate type first": lambda line: '{"type":"phase",' + line[1:],
    "duplicate type last": lambda line: line[:-1] + ',"type":"phase"}',
    "leading-zero float": lambda line: re.sub(r'"t":(\d)', r'"t":0\1', line),
    "leading-zero int": lambda line: re.sub(r'"(id|index|energy)":(\d)',
                                            r'"\1":0\2', line),
    "NaN heart rate": lambda line: re.sub(r'"hr":[^,]+', '"hr":NaN', line),
    "Infinity time": lambda line: re.sub(r'"t":[^,}]+', '"t":Infinity', line),
    "upper-case enum value": lambda line: re.sub(
        f'"({ENUM_KEYS})":"([a-z_]+)"',
        lambda m: f'"{m[1]}":"{m[2].upper()}"', line),
    "trailing comma": lambda line: line[:-1] + ",}",
}


@pytest.fixture(scope="module")
def full_log() -> tuple[str, ...]:
    # 60 s of mid_skill writes every kind of row and every variant.
    return run_session(SessionConfig(
        seed=0, profile=load_profile("mid_skill"), duration=60.0)).lines


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_perturbed_rows_read_as_json_reads_them(full_log, name) -> None:
    perturb = PERTURBATIONS[name]
    lines = [full_log[0]] + [perturb(line) for line in full_log[1:]]
    changed = [line for line, old in zip(lines, full_log) if line != old]
    assert len(changed) > 20
    assert not any(session._ROW_PATTERN.fullmatch(line) for line in changed)
    _same(lines)
    # One perturbed row of each type, among rows the pattern reads.
    for row_type in ("spawn", "jab", "cross", "empower", "hr", "phase"):
        i = next((i for i, line in enumerate(full_log)
                  if line.startswith(f'{{"type":"{row_type}"')
                  and perturb(line) != line), None)
        if i is not None:
            _same([*full_log[:i], perturb(full_log[i]), *full_log[i + 1:]])


def test_hand_edited_whole_numbers_keep_their_type() -> None:
    lines = ['{"type": "hr", "hr": 70, "kcal": 3}',
             '{"type":"hr","t":1.000000,"hr":71.500000,"kcal":3.100000,'
             '"phase":"low","energy":0,"empowered":false}']
    _same(lines)
    assert metrics_from_log(lines[:1]).kcal == 3
    assert type(metrics_from_log(lines[:1]).kcal) is int


# --- Rows that cannot be counted.

@pytest.mark.parametrize("lines, number, message", [
    (["[1]"], 1, "not a JSON object"),
    (["", '"hr"'], 2, "not a JSON object"),
    (['{"type":"hr","t":0}'], 1, "has no 'hr'"),
    (['{"type":"hr","hr":60.0}'], 1, "has no 'kcal'"),
    (['{"type":"spawn","t":0.0}'], 1, "has no 'kind'"),
    (['{"type":"phase"}', '{"type":"jab"}'], 2, "has no 'outcome'"),
    (['{"type":"spawn","kind":3}'], 1, "not a string"),
    (['{"type":"cross","status":null}'], 1, "not a string"),
    (['{"type":"empower","action":["start"]}'], 1, "not a string"),
    (['{"type":"hr","hr":"60","kcal":0.0}'], 1, "not a number"),
    (['{"type":"hr","hr":60.0,"kcal":true}'], 1, "not a number"),
])
def test_an_uncountable_row_names_its_line(lines, number, message) -> None:
    with pytest.raises(ValueError, match=f"line {number}.*{message}"):
        metrics_from_log(lines)


def test_invalid_json_still_raises_json_errors() -> None:
    with pytest.raises(json.JSONDecodeError):
        metrics_from_log(['{"type":"hr",'])


@pytest.mark.parametrize("row", ['{"kind":3}', '{"type":3,"kind":3}',
                                 '{"type":["spawn"]}', '{"type":"phase"}'])
def test_rows_that_are_not_counted_need_no_fields(row) -> None:
    _same([row])


# --- The pattern against the templates.

def test_a_template_that_is_not_flat_json_is_refused() -> None:
    with pytest.raises(ValueError, match="not a flat JSON row template"):
        session._row_pattern(['{"type":"x", "t":%.6f}'])


def _values(enum) -> st.SearchStrategy:
    return st.sampled_from([member.value for member in enum])


FLOATS = st.floats(width=64)
INTS = st.integers(min_value=-10**18, max_value=10**18)
TEMPLATE_ARGS = {
    "_PHASE_ROW": (FLOATS, _values(PhaseKind), INTS),
    "_HR_ROW": (FLOATS, FLOATS, FLOATS, _values(PhaseKind), INTS,
                st.sampled_from(["true", "false"])),
    "_SPAWN_ROW": (FLOATS, INTS, _values(EntityKind), FLOATS, FLOATS),
    "_JAB_ROW": (FLOATS, _values(Hand), _values(HitKind),
                 st.one_of(st.just("null"), INTS), FLOATS),
    "_MISSED_ROW": (FLOATS, INTS),
    "_CELL_ROW": (FLOATS, INTS, _values(CellOutcome), _values(PoseClass)),
    "_EMPOWER_START_ROW": (FLOATS, FLOATS),
    "_EMPOWER_END_ROW": (FLOATS,),
    "_END_ROW": (FLOATS,) + (INTS,) * 8,
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(TEMPLATE_ARGS)))
def test_a_written_row_matches_and_reads_as_json_reads_it(data, name) -> None:
    args = tuple(data.draw(arg) for arg in TEMPLATE_ARGS[name])
    line = getattr(session, name) % args
    match = session._ROW_PATTERN.fullmatch(line)
    if not all(math.isfinite(arg) for arg in args if isinstance(arg, float)):
        # "%.6f" writes nan and inf, which are not JSON.
        assert match is None
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
        return
    assert match is not None
    row = json.loads(line)
    group = match.lastindex
    row_type = session._ROW_TYPES[group]
    if row["type"] not in session._COUNTED:
        assert row_type is None
        return
    assert row_type == row["type"]
    for offset, key in enumerate(session._COUNTED[row_type], 1):
        text = match[group + offset]
        assert (float(text) if row_type == "hr" else text) == row[key]
    _same([line])
