"""``config_for``: the one parser from a protocol name to a config."""

import pytest

from repro.harness.bench import PROTOCOL_NAMES, config_for
from repro.harness.runner import ProtocolConfig


@pytest.mark.parametrize("name, prefetch, expected", [
    ("Base", False, ProtocolConfig.treadmarks("Base")),
    ("base", False, ProtocolConfig.treadmarks("Base")),
    ("I", False, ProtocolConfig.treadmarks("I")),
    ("i+d", False, ProtocolConfig.treadmarks("I+D")),
    ("P", False, ProtocolConfig.treadmarks("P")),
    ("I+P", False, ProtocolConfig.treadmarks("I+P")),
    ("I+P+D", False, ProtocolConfig.treadmarks("I+P+D")),
    # --prefetch is AURC-only; TreadMarks prefetching is in the mode.
    ("I+D", True, ProtocolConfig.treadmarks("I+D")),
    ("aurc", False, ProtocolConfig.aurc()),
    ("AURC", False, ProtocolConfig.aurc()),
    ("aurc", True, ProtocolConfig.aurc(prefetch=True)),
    ("aurc+prefetch", False, ProtocolConfig.aurc(prefetch=True)),
    ("AURC+Prefetch", False, ProtocolConfig.aurc(prefetch=True)),
])
def test_accepted_names(name, prefetch, expected):
    assert config_for(name, prefetch=prefetch) == expected


@pytest.mark.parametrize("name", ["aurcx", "Bogus", "", "I+D+P", None])
def test_rejected_names_list_every_accepted_name(name):
    with pytest.raises(ValueError) as info:
        config_for(name)
    message = str(info.value)
    assert repr(name) in message
    assert all(accepted in message for accepted in PROTOCOL_NAMES)
