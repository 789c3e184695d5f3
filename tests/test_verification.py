"""Each consolidated check fails when the function it guards is broken."""

import pytest

from ariki import verification
from ariki.charge import ChargeParams
from ariki.laurent import LaurentPoly
from ariki.verification import ALL_CHECKS, RankCaps


def _conjugate(lam):
    return tuple(sum(1 for x in lam if x > j) for j in range(lam[0] if lam else 0))


BREAKS = [
    ("a-function-oracle", "a_value", lambda a_value: lambda *args: a_value(*args) + 1),
    ("divided-power-oracle", "f_divided", lambda _: lambda vec, *args: vec),
    ("counting-identity", "is_kleshchev", lambda _: lambda mp, p: True),
    ("semisimple-identity", "is_semisimple", lambda _: lambda p, n: False),
    ("minimality-brute-force", "residue_path_terminals", lambda _: lambda seq, p: set()),
    ("shift-invariances", "a_value",
     lambda a_value: lambda mp, p, shift=0: a_value(mp, p, shift) + shift),
    ("type-b", "a_value_typeb", lambda a_value_typeb: lambda bp, r: a_value_typeb(bp, r) + r),
    ("d1-e-regular-oracle", "kleshchev_multipartitions", lambda _: lambda p, n: []),
    ("canonical-structure", "replayed_basis", lambda _: lambda p, n: []),
    ("small-known-matrix", "canonical_basis", lambda _: lambda p, n: []),
    ("determinism", "hash_seed_outputs", lambda _: lambda code: [b"0", b"1"]),
    # the matrix of the next e; the conjugate convention, which regularizes
    # the conjugate partition and conjugates back; and a comparator that no
    # column satisfies, which shows the dominance comparisons are reached
    ("regularization", "decomposition_matrix",
     lambda real: lambda p, n: real(ChargeParams(p.d, p.e + 1, p.v, p.s), n)),
    ("regularization", "regularize",
     lambda real: lambda lam, e: _conjugate(real(_conjugate(lam), e))),
    ("regularization", "dominates", lambda _: lambda mu, lam: False),
]


def _break_id(check, name):
    """The check's name, and the broken function's too where a check has several."""
    return check if sum(b[0] == check for b in BREAKS) == 1 else f"{check}-{name}"


@pytest.mark.parametrize("check,name,broken", BREAKS,
                         ids=[_break_id(check, name) for check, name, _ in BREAKS])
def test_check_fails_on_a_broken_function(monkeypatch, check, name, broken):
    monkeypatch.setattr(verification, name, broken(getattr(verification, name)))
    ok, detail = dict(ALL_CHECKS)[check](RankCaps.quick())
    assert not ok, detail


def test_canonical_structure_fails_when_q_zq_admits_constants(monkeypatch):
    # the straightening decides what to correct with in_q_zq; one that lets
    # degree 0 through leaves constant terms, which the check reads off the
    # degrees itself
    monkeypatch.setattr(LaurentPoly, "in_q_zq",
                        lambda self: not self.coeffs or min(self.coeffs) >= 0)
    ok, detail = dict(ALL_CHECKS)["canonical-structure"](RankCaps.quick())
    assert not ok, detail
