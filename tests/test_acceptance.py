"""Acceptance suite: every `verify` check, one test each.

The checks in ariki.verification are the one definition of the criteria, so
a check added to ALL_CHECKS is a test here with no further code.  Run as
`pytest -v tests/test_acceptance.py` (add -s to see the PASS lines).
"""

import pytest

from ariki.verification import ALL_CHECKS


@pytest.mark.parametrize("name,check", ALL_CHECKS, ids=[name for name, _ in ALL_CHECKS])
def test_criterion(name, check):
    ok, detail = check()
    assert ok, detail
    print(f"PASS {name}: {detail}")
