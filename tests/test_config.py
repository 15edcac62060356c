"""The config document: what a key it leaves out, or one it does not know, does."""

from __future__ import annotations

import pytest

from svaa.config import AppConfig, config_from_dict
from svaa.errors import InvalidConfig


def test_an_empty_document_is_the_default_config():
    assert config_from_dict({}) == AppConfig()


def test_unknown_keys_are_ignored():
    document = {"heatmap": {"cols": 32, "colour": "red"}, "anomaly": {"history_capacity": 3}, "heatmap_cols": 8,
                "unknown": {"min_samples": 1}}
    assert config_from_dict(document) == AppConfig(heatmap_cols=32)


@pytest.mark.parametrize("section", [[], "x", 1, None])
def test_a_section_that_is_not_an_object_is_refused(section):
    with pytest.raises(InvalidConfig, match="bad config document"):
        config_from_dict({"occupancy": section})
