"""Golden replay logs: the engine's output pinned byte for byte.

Each case runs one full session and compares the SHA-256 of its replay
log, exactly as ``SessionResult.write_log`` writes it, to a digest
recorded before the hot path was optimised.  Determinism tests only show
that two runs of the same code agree; these show that the code still
produces the same bytes it did.

The digests change only with an intentional behaviour change, which must
bump ``LOG_VERSION`` and say why in CHANGES.md.
"""
from __future__ import annotations

import hashlib

import pytest

from virusboxing.interaction import (
    TargetingMode,
    TargetingPolicy,
    TargetingRange,
)
from virusboxing.physiology import HEART_PRESETS
from virusboxing.playersim import load_profile
from virusboxing.protocol import SESSION_DURATION
from virusboxing.session import LOG_VERSION, SessionConfig, run_session

SEED = 0

_MODES = {"pt": TargetingMode.PRECISE, "rt": TargetingMode.ROUGH}
_RANGES = {"long": TargetingRange.LONG, "short": TargetingRange.SHORT}


def _config(profile: str, targeting: str, pid: bool, heart: str, *,
            range_: str = "long", dt: float = 0.02, seed: int = SEED,
            duration: float = SESSION_DURATION) -> SessionConfig:
    return SessionConfig(
        seed=seed,
        profile=load_profile(profile),
        targeting=TargetingPolicy(_MODES[targeting], _RANGES[range_]),
        heart=HEART_PRESETS[heart],
        pid_enabled=pid,
        dt=dt,
        duration=duration,
    )


def cases() -> dict[str, SessionConfig]:
    """Every pinned session, by label."""
    out = {}
    for profile in ("expert", "mid_skill", "novice"):
        for targeting in ("pt", "rt"):
            for pid in (True, False):
                for heart in ("regular", "sedentary"):
                    label = (f"{profile}-{targeting}-pid_{'on' if pid else 'off'}"
                             f"-{heart}")
                    out[label] = _config(profile, targeting, pid, heart)
    # Empowered play with the short targeting range.
    out["expert-pt-short"] = _config("expert", "pt", True, "regular",
                                     range_="short")
    out["mid_skill-rt-short"] = _config("mid_skill", "rt", True, "regular",
                                        range_="short")
    # Off the 50 Hz grid.  At 0.035 s the phase boundaries fall between
    # ticks and the last gameplay tick ends at 420.00000000000006.
    out["mid_skill-rt-dt0.01"] = _config("mid_skill", "rt", True, "regular",
                                         dt=0.01)
    out["mid_skill-rt-dt0.035"] = _config("mid_skill", "rt", True, "regular",
                                          dt=0.035)
    # Other seeds on configs pinned above at seed 0.  Heart rate, kcal and
    # the controller do not depend on the seed, so within one process
    # these sessions can reuse the seed-0 sessions' control schedule.
    for seed in (1, 2):
        for profile, targeting, pid, heart in (
                ("mid_skill", "pt", True, "regular"),
                ("mid_skill", "rt", True, "regular"),
                ("novice", "pt", True, "sedentary"),
                ("expert", "rt", False, "regular")):
            label = (f"{profile}-{targeting}-pid_{'on' if pid else 'off'}"
                     f"-{heart}-seed{seed}")
            out[label] = _config(profile, targeting, pid, heart, seed=seed)
    # A session that ends inside the first sprint.
    out["mid_skill-rt-60s"] = _config("mid_skill", "rt", True, "regular",
                                      duration=60.0)
    return out


def log_digest(config: SessionConfig) -> str:
    lines = run_session(config).lines
    return hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()


GOLDEN_VERSION = "1"

GOLDEN = {
    "expert-pt-pid_off-regular":
        "1e8dc95945b34f7f37e4bda0a40658c050956b273a1a1a21dfd27b19ce1a3611",
    "expert-pt-pid_off-sedentary":
        "31eb6b6e46c8cbe32711e2327547342fc9c62ba9d385bf2aa47659f1d2c0d7f8",
    "expert-pt-pid_on-regular":
        "4ca007432843e87d7aacd0715f052ed18454c1fc620ab702232ba993b815cb44",
    "expert-pt-pid_on-sedentary":
        "11b7d5fd4a26ca31864c0a96a4494fd86fd031f9ce87bf8dc88b5ffd95a24af4",
    "expert-pt-short":
        "1f23d75ffb108ff1d8b97070541c4fa20270b1f165113b4837cb47be45464295",
    "expert-rt-pid_off-regular":
        "9af359d1d4e570dfbd7dcafa172faa6db31c6a1dd89cb5b0ca381580d8122257",
    "expert-rt-pid_off-sedentary":
        "3a10595ad9156248d6d5430c4fa2eb3eb6f2ec362631fc369de6fb794be862f9",
    "expert-rt-pid_on-regular":
        "337fd733dee9bac5f77875b3ee9cd2e01419696b0c12fb08d0e26903a14bf7fe",
    "expert-rt-pid_on-sedentary":
        "1b9348492f4a2d7403e806c05666a1879acfccb3e5d222ddcff93fc709c9270e",
    "mid_skill-pt-pid_off-regular":
        "4e64004a453ae07a8a76939b2b0c182e520f9617da79900c41ba7243aa4fc6d2",
    "mid_skill-pt-pid_off-sedentary":
        "f7ea26f0baf84772fd62908a43bc40176450e2a2261fb7d977ec89ad40f9cff2",
    "mid_skill-pt-pid_on-regular":
        "38c19b221a77029a32d567f5eea5121e5d93bd81024733806bf96310bb03f24f",
    "mid_skill-pt-pid_on-sedentary":
        "a07fbae86a0b9d1d40b67fd8444030cfffe9a38cfee760521492318aac74d7b7",
    "mid_skill-rt-dt0.01":
        "a8bd2ae224ef779e454ae1a4afcc7c5bb6efb46052ba403a30062405b9f67168",
    "mid_skill-rt-dt0.035":
        "e70711e55b103a1772ebf3cffdd6629715d4d53b6bd48659c1cf37a262c42e8a",
    "mid_skill-rt-pid_off-regular":
        "3cae1ee609c4cd6b2a0937f5a6f87096490a47d648e64f32c74cc461da280813",
    "mid_skill-rt-pid_off-sedentary":
        "e96b6df97f8ee257753f3e3b334fd4e25b1870e0fcac4db092fa2472ff2a9f4b",
    "mid_skill-rt-pid_on-regular":
        "8f1b88d5b3339777581d82fa8edefb95ab288896fe4ebf78dc57e6bdbb24532e",
    "mid_skill-rt-pid_on-sedentary":
        "293486d79dbbc7367371b6303e2de7bbd313ad39da1d4a29fe0a3b2baeeeacd0",
    "mid_skill-rt-short":
        "38e4af9aca7cb04671cc2dfe34e0808f718bda37ab47052c2a0f5337244f71f4",
    "novice-pt-pid_off-regular":
        "363aa665cc5671a155c716ffca9f0f6a93c67e77b02d67690d3194413dd59ce7",
    "novice-pt-pid_off-sedentary":
        "bf72a7cab734ff43400aa216f7d523eafbab586c0b48f187d63f8896bb544559",
    "novice-pt-pid_on-regular":
        "f0cb2dd8e7bf6f7061e990634ef2b0dd367e444d9863c26b13901724b6ccd0ac",
    "novice-pt-pid_on-sedentary":
        "4ec84dbe5533e78e5f8e0806f26de3ecf8876dd25a7df0f89300f183afbcb9a9",
    "novice-rt-pid_off-regular":
        "a1c7f5bbd91bb4b3b1c0fb50f1b16c2c652a25c82ebd4a4bc57aec5d0df92317",
    "novice-rt-pid_off-sedentary":
        "557a822ab38d3cc88daae7f33befb45efc24c82e13b889de02d2a79f6b53340d",
    "novice-rt-pid_on-regular":
        "08f4ed42e6449de0a4fec5e9a18b18aaafaddaaf93e4e49afed378631837eedf",
    "novice-rt-pid_on-sedentary":
        "b358faa79c8ef16bea7b06cf39f3fd400c009a95585367878429e8a0486534d2",
    # Seeds 1 and 2, and the 60 s session: pinned later than the cases
    # above, but from the same code, before the control schedule existed.
    "expert-rt-pid_off-regular-seed1":
        "daf5361d15632970535f819db6a3aee22fd3d44bdd76c00884a1ee0db4e50f78",
    "expert-rt-pid_off-regular-seed2":
        "b8d0ba48852752577299c364f0c2ef1999448bed81c3bed048d748cd421425e9",
    "mid_skill-pt-pid_on-regular-seed1":
        "a50b7ce00107dd0142b0c9ac9ad12d328212ed43ed4bcd92913961fd1fa73b09",
    "mid_skill-pt-pid_on-regular-seed2":
        "1a6471052711ad4ba1ba7b017f451f21b111449df014381fca6f4015dc854e3c",
    "mid_skill-rt-60s":
        "dddc8954bb3fb647609c80eae4a9764386c6e0689aec9a6da029e6c5f63390dd",
    "mid_skill-rt-pid_on-regular-seed1":
        "b1788831e15ffe1b10011b837baa75319b2e764540ddfe217ca1d397c1adec03",
    "mid_skill-rt-pid_on-regular-seed2":
        "0131b0d0ee2d28c40feceb3a0cc1387bd789b26b0a534f9742750324c0a8c88c",
    "novice-pt-pid_on-sedentary-seed1":
        "598603b25b1091997c3c7d0c45f9ccd8531e2d1c297ffa1249adc59acf373629",
    "novice-pt-pid_on-sedentary-seed2":
        "18872205e1f73422d54e7d61468cfd53759ca5617d6c1cf1f4a60b1e229da00c",
}


def test_golden_covers_every_case() -> None:
    assert set(GOLDEN) == set(cases())


def test_golden_matches_log_version() -> None:
    # New digests go with a LOG_VERSION bump, never on their own.
    assert GOLDEN_VERSION == LOG_VERSION


@pytest.mark.parametrize("label", sorted(cases()))
def test_log_is_byte_identical(label: str) -> None:
    assert log_digest(cases()[label]) == GOLDEN[label]
