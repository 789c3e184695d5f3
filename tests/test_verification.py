"""Each consolidated check fails when the function it guards is broken."""

import pytest

from ariki import verification
from ariki.verification import ALL_CHECKS, RankCaps

BREAKS = [
    ("a-function-oracle", "a_value", lambda a_value: lambda *args: a_value(*args) + 1),
    ("divided-power-oracle", "f_divided", lambda _: lambda vec, *args: vec),
    ("counting-identity", "is_kleshchev", lambda _: lambda mp, p: True),
    ("semisimple-identity", "is_semisimple", lambda _: lambda p, n: False),
]


@pytest.mark.parametrize("check,name,broken", BREAKS, ids=[b[0] for b in BREAKS])
def test_check_fails_on_a_broken_function(monkeypatch, check, name, broken):
    monkeypatch.setattr(verification, name, broken(getattr(verification, name)))
    ok, detail = dict(ALL_CHECKS)[check](RankCaps.quick())
    assert not ok, detail
