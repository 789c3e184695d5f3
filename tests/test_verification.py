"""Each consolidated check fails when the function it guards is broken."""

import pytest

import ariki.canonical as canonical
import ariki.charge as charge
import ariki.symbols as symbols
from ariki import verification
from ariki.charge import ChargeParams
from ariki.crystal import kleshchev_multipartitions
from ariki.fock import FockVector
from ariki.laurent import LaurentPoly, low_mask, pack, unpack
from ariki.verification import ALL_CHECKS


def _conjugate(lam):
    return tuple(sum(1 for x in lam if x > j) for j in range(lam[0] if lam else 0))


BREAKS = [
    ("a-function-oracle", "a_value", lambda a_value: lambda *args: a_value(*args) + 1),
    # a table whose rows are right but whose d*a is off by one: the
    # one-at-a-time a_value does not read it
    ("a-function-oracle", "_ScaledAValues",
     lambda real: type("OffByOne", (real,), {"__missing__": lambda self, mp:
                                             real.__missing__(self, mp) + 1})),
    ("divided-power-oracle", "f_divided", lambda _: lambda vec, *args: vec),
    ("counting-identity", "is_kleshchev", lambda _: lambda mp, p: True),
    # as many labels as the diagonal walk has at every rank, but not its set
    ("counting-identity", "flotw_multipartitions", lambda _: kleshchev_multipartitions),
    ("semisimple-identity", "is_semisimple", lambda _: lambda p, n: False),
    ("minimality-brute-force", "residue_path_terminals", lambda _: lambda seq, p: set()),
    # an a-value that reads the shift s itself, which only s -> s+1 moves
    ("shift-invariances", "a_value",
     lambda a_value: lambda mp, p: a_value(mp, p) + p.scaled_m[0] // (p.d * p.e)),
    # a comparison that ignores the symbol height but reads the weights
    # themselves: it flips once the first scaled weight is positive
    ("shift-invariances", "prec",
     lambda real: lambda mu, nu, p: real(mu, nu, p) != (p.scaled_m[0] > 0)),
    ("type-b", "a_value_typeb", lambda a_value_typeb: lambda bp: a_value_typeb(bp[::-1])),
    ("d1-e-regular-oracle", "kleshchev_multipartitions", lambda _: lambda p, n: []),
    ("canonical-structure", "replayed_basis", lambda _: lambda p, n: []),
    ("small-known-matrix", "canonical_basis", lambda _: lambda p, n: []),
    ("determinism", "hash_seed_outputs", lambda _: lambda code: [b"0", b"1"]),
    # the matrix of the next e; the conjugate convention, which regularizes
    # the conjugate partition and conjugates back; and a comparator that no
    # column satisfies, which shows the dominance comparisons are reached
    ("regularization", "decomposition_matrix",
     lambda real: lambda p, n: real(ChargeParams(p.d, p.e + 1, p.v), n)),
    ("regularization", "regularize",
     lambda real: lambda lam, e: _conjugate(real(_conjugate(lam), e))),
    ("regularization", "dominates", lambda _: lambda mu, lam: False),
    # the matrix of the next e, whose nonzero cells join different contents
    ("blocks", "decomposition_matrix",
     lambda real: lambda p, n: real(ChargeParams(p.d, p.e + 1, p.v), n)),
]


# each id names the check and the broken function, so a check's next break
# renames none of its earlier ones
@pytest.mark.parametrize("check,name,broken", BREAKS,
                         ids=[f"{check}-{name}" for check, name, _ in BREAKS])
def test_check_fails_on_a_broken_function(monkeypatch, check, name, broken):
    monkeypatch.setattr(verification, name, broken(getattr(verification, name)))
    ok, detail = dict(ALL_CHECKS)[check]()
    assert not ok, detail


def test_a_function_oracle_fails_on_a_weights_without_high_weights(monkeypatch):
    # weight data that files every weight as low, so no row runs the high
    # weights' closed form; the grid is rebuilt, as ChargeParams derives its
    # data once.  The check's point (3,5,(0,0,1)) has high weights in rows
    # 1 and 2
    real = charge.a_weights

    def all_low(d, scaled_m):
        total, pairs, _, _, ascending = real(d, scaled_m)
        return total, pairs, (total,) * d, (d,) * d, ascending

    monkeypatch.setattr(charge, "a_weights", all_low)
    grid = tuple(ChargeParams(p.d, p.e, p.v) for p in verification.GRID)
    assert all(p._a_weights[3] == (p.d,) * p.d for p in grid)
    monkeypatch.setattr(verification, "GRID", grid)
    ok, detail = dict(ALL_CHECKS)["a-function-oracle"]()
    assert not ok, detail


def test_shift_invariances_reach_rows_with_high_weights(monkeypatch):
    # a symbol row whose weights include one more than d above its own
    # (charge.a_weights: start[i] < d) runs the hook sum's high-weight loop;
    # no grid point has one, so the check runs (3,5,(0,0,1)) too
    real, high = symbols._scaled_row, []

    def counting(entries, i, comp, h, p):
        if p._a_weights[3][i] < p.d:
            high.append(p)
        return real(entries, i, comp, h, p)

    monkeypatch.setattr(symbols, "_scaled_row", counting)
    ok, detail = dict(ALL_CHECKS)["shift-invariances"]()
    assert ok, detail
    assert high


def test_canonical_structure_fails_when_q_zq_admits_constants(monkeypatch):
    # the straightening decides what to correct with a packed coefficient's
    # low_mask digits; a mask that lets degree 0 through leaves constant
    # terms, which the check reads off the degrees itself
    monkeypatch.setattr(canonical, "low_mask", lambda width, offset: (1 << width * offset) - 1)
    ok, detail = dict(ALL_CHECKS)["canonical-structure"]()
    assert not ok, detail


def _with_negative_monomial(real, p_bad, n_bad):
    # canonical_basis with 2q - q^2, which is 1 at q = 1 and of minimum
    # degree 1, in place of the first non-leading coefficient at (p_bad, n_bad)
    def call(p, n):
        basis = real(p, n)
        if (p, n) == (p_bad, n_bad):
            i, el = next((i, el) for i, el in enumerate(basis) if len(el.vector.terms) > 1)
            nu = next(nu for nu in el.vector.terms if nu != el.label)
            terms = {**el.vector.terms, nu: LaurentPoly({1: 2, 2: -1})}
            basis[i] = el._replace(vector=FockVector(terms))
        return basis
    return call


@pytest.mark.parametrize("p,n", [
    (ChargeParams(2, 2, (0, 1)), 13),
    (ChargeParams(3, 3, (0, 1, 2)), 6),
    (ChargeParams(2, 4, (1, 2)), 6),
], ids=["p22-n13", "p333-n6", "p24-12-n6"])
def test_canonical_structure_fails_on_a_negative_monomial(monkeypatch, p, n):
    # each point is checked for the shape only, with no replay to compare;
    # a coefficient nonnegative at q = 1 must still be in N[q] monomial by monomial
    monkeypatch.setattr(verification, "canonical_basis",
                        _with_negative_monomial(verification.canonical_basis, p, n))
    ok, detail = dict(ALL_CHECKS)["canonical-structure"]()
    assert not ok and detail.endswith("coefficient -q^2 + 2q not in N[q]"), detail


def _drop_high_degree_values(at_one):
    # the q = 1 value of a coefficient of minimum degree >= 5, packed at
    # offset 0 as every finished element is, read as 0
    return lambda x, width: 0 if not x & low_mask(width, 4) else at_one(x, width)


def _completion_digits(completion, change):
    # the packed completion with change applied to its {exponent: digit} map
    def call(x, width, offset):
        return pack(change(unpack(completion(x, width, offset), width, offset)), width, offset)
    return call


def _unmirrored(completion):
    # degree -1 is kept but not mirrored to degree 1
    return _completion_digits(completion, lambda g: {e: c for e, c in g.items() if e != 1})


def _constant_capped(completion):
    # the constant term of the completion is at most 1
    return _completion_digits(completion, lambda g: {e: min(c, 1) if e == 0 else c
                                                     for e, c in g.items()})


PIPELINE_BREAKS = [
    # decomposition_matrix reads each entry through packed_at_one; the first
    # entry lost is at rank 10, the check's top rank
    ("regularization", canonical, "packed_at_one", _drop_high_degree_values,
     "FAIL regularization"),
    ("canonical-structure", canonical, "_bar_symmetric_completion", _unmirrored,
     "RuntimeError: correction coefficient is not bar-symmetric"),
    # passes every capped rank; (2,2,(0,1)) n=13 leaves q^4 + 2q^2 + 1
    ("canonical-structure", canonical, "_bar_symmetric_completion", _constant_capped,
     "not in q*Z[q]"),
]


@pytest.mark.parametrize("check,owner,name,broken,message", PIPELINE_BREAKS,
                         ids=["at_one", "completion-unmirrored", "completion-capped"])
def test_pipeline_break_gives_a_fail_line(monkeypatch, check, owner, name, broken, message):
    # a break inside the pipeline fails its check as `ariki verify` runs it,
    # whether the check finds it or the pipeline's own guard raises
    monkeypatch.setattr(owner, name, broken(getattr(owner, name)))
    monkeypatch.setattr(verification, "ALL_CHECKS", ((check, dict(ALL_CHECKS)[check]),))
    lines = []
    assert not verification.run_all(report=lines.append)
    [line] = lines
    assert line.startswith(f"FAIL {check} (") and message in line, line


def test_a_check_that_raises_fails_and_the_rest_still_run(monkeypatch, capsys):
    def raising():
        raise ValueError("broken on purpose")

    checks = (("first", lambda: (True, "one")), ("raising", raising),
              ("last", lambda: (True, "three")))
    monkeypatch.setattr(verification, "ALL_CHECKS", checks)
    lines = []
    assert not verification.run_all(report=lines.append)
    assert [line.split(" (")[0] for line in lines] == ["PASS first", "FAIL raising", "PASS last"]
    assert lines[1].endswith(" s): ValueError: broken on purpose"), lines[1]
    # the CLI prints the same lines and exits 1, with no internal error
    from ariki.cli import main
    assert main(["verify"]) == 1
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 3 and "FAIL raising" in out and err == ""
