"""Hypothesis profiles: ``default`` for tier-1, and ``ci`` with ten times
its examples for a deeper run of the config properties::

    pytest tests/test_config_properties.py --hypothesis-profile=ci

A property that sets no ``max_examples`` of its own takes the profile's.
"""
from __future__ import annotations

from hypothesis import settings

EXAMPLES = 100

settings.register_profile("default", max_examples=EXAMPLES)
settings.register_profile("ci", max_examples=10 * EXAMPLES)
