"""Named end-to-end checks over exhaustive small-rank enumerations.

Each check returns (ok, detail); the CLI `verify` subcommand runs them all
and reports one line per property with the check's wall time.  Each check
writes its rank caps where it uses them, at the scales it is known to pass
at desk speed; there is one setting.  These checks are the one definition
of the acceptance criteria: tier-1 (tests/test_acceptance.py) runs every
entry of ALL_CHECKS, and the unit tests hold no copy of a check.
tests/test_verification.py shows, for every check but the two printed
examples, that it fails when a function it reads is broken.
The parameter grid used throughout pairs both orders with d = 2 and d = 3
charge sets, which is what pins every ordering convention in the package.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction

from ._oracles import (asymptotic_charge, bumped_weights, composition_addable_positions,
                       diagram_residues, divided_power_holds, dominates, prec,
                       regularize, replayed_basis, residue_path_terminals,
                       schur_valuation)
from .aseq import a_graph, a_sequence, k_opt_add
from .canonical import canonical_basis, decomposition_matrix, simple_module_a_values
from .charge import ChargeParams, is_semisimple
from .crystal import (crystal_graph, flotw_multipartitions, is_kleshchev,
                      kleshchev_multipartitions)
from .fock import FockVector, f_divided
from .laurent import LaurentPoly
from .partitions import enumerate_multipartitions, is_e_regular
from .render import (render_a_seq, render_a_value, render_bijection, render_canonical,
                     render_crystal, render_decomp, render_typeb)
from .symbols import _ScaledAValues, a_value, ordinary_symbol, shifted_symbol
from .typeb import (a_value_typeb, decomposition_matrix_b, even_charge_params,
                    type_a_params)

GRID = (
    ChargeParams(2, 4, (0, 1)),
    ChargeParams(2, 2, (0, 1)),
    ChargeParams(3, 3, (0, 1, 2)),
    ChargeParams(2, 4, (1, 2)),
)


def check_symbol_example():
    """Three-component symbol with fractional weights matches the printed table."""
    mp = ((4, 2), (), (5, 2, 1))
    sym = ordinary_symbol(mp, 0)
    if sym.rows != ((6, 3, 0), (2, 1, 0), (7, 3, 1)):
        return False, f"ordinary rows {sym.rows}"
    shifted = shifted_symbol(sym, (1, Fraction(1, 2), 2))
    expect = ((Fraction(7), Fraction(4), Fraction(1)),
              (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2)),
              (Fraction(9), Fraction(5), Fraction(3)))
    if shifted.rows != expect:
        return False, f"shifted rows {shifted.rows}"
    return True, "B and B[m]' reproduced exactly"


def check_a_sequence_example():
    """Residue sequence and optimal chain of (2.2, 2.2.1) at {4; 0, 1}."""
    p = ChargeParams(2, 4, (0, 1))
    lam = ((2, 2), (2, 2, 1))
    seq = a_sequence(lam, p)
    if seq != (1, 0, 0, 3, 3, 2, 1, 1, 0):
        return False, f"sequence {seq}"
    graph = a_graph(lam, p)
    stages = [((), ()), ((), (1,)), ((1,), (1,)), ((1,), (1, 1)),
              ((1, 1), (1, 1)), ((1, 1), (1, 1, 1)), ((1, 1), (2, 1, 1)),
              ((2, 1), (2, 1, 1)), ((2, 1), (2, 2, 1)), ((2, 2), (2, 2, 1))]
    positions = [(1, 1), (1, 0), (2, 1), (2, 0), (3, 1), (1, 1), (1, 0), (2, 1), (2, 0)]
    if list(graph.stages) != stages:
        return False, f"stages {graph.stages}"
    if [(g.row, g.comp) for _, g, _ in graph.steps] != positions:
        return False, "node positions differ"
    if tuple(k for _, _, k in graph.steps) != (1, 0, 0, 3, 3, 2, 1, 1, 0):
        return False, "step residues differ"
    return True, "10-stage chain with positions and residues reproduced"


def check_counting_identity():
    """Both crystal vertex sets are equinumerous at every rank, and the
    paper's parametrisation is the diagonal walk's.

    The component-major set comes from the crystal walk; it must equal the
    multipartitions whose raising path reaches empty.  The FLOTW
    multipartitions, listed by the direct two-condition test, must be the
    set of the diagonal walk's vertices, the columns of
    decomposition_matrix.
    """
    top = 6
    for p in GRID:
        diagonal = crystal_graph(p, top, "flotw")
        for n in range(top + 1):
            walked = kleshchev_multipartitions(p, n)
            raised = [mp for mp in enumerate_multipartitions(p.d, n)
                      if is_kleshchev(mp, p)]
            if raised != walked:
                return False, f"{p!r} rank {n}: raising path and walk differ"
            flotw = flotw_multipartitions(p, n)
            k, f = len(walked), len(flotw)
            if k != f:
                return False, f"{p!r} rank {n}: {k} vs {f}"
            if set(flotw) != set(diagonal.vertices(n)):
                return False, f"{p!r} rank {n}: FLOTW set and diagonal walk differ"
    return True, f"all ranks <= {top} on the grid, FLOTW sets equal the walk's"


def check_d1_oracle():
    """For d = 1 both vertex sets equal the e-regular partitions.

    The diagonal set is read both from the direct membership test and from
    the levels of one diagonal walk.
    """
    top = 8
    for e in (2, 3):
        p = ChargeParams(1, e, (0,))
        walk = crystal_graph(p, top, "flotw")
        for n in range(top + 1):
            regular = [mp for mp in enumerate_multipartitions(1, n)
                       if is_e_regular(mp[0], e)]
            if kleshchev_multipartitions(p, n) != regular:
                return False, f"e={e} rank {n}: component-major set differs"
            if flotw_multipartitions(p, n) != regular:
                return False, f"e={e} rank {n}: diagonal set differs"
            if list(walk.vertices(n)) != regular:
                return False, f"e={e} rank {n}: diagonal walk differs"
    return True, f"e in (2, 3), ranks <= {top}"


def check_a_oracle():
    """a_value, and one a-value table per parameter set read over every rank
    as the pipeline reads one, equal -schur_valuation/d on every
    multipartition of the grid and of (3,5,(0,0,1)).

    No weight of the grid exceeds another by more than d, so no symbol row
    there has a high weight (charge.a_weights); at (3,5,(0,0,1)), with
    scaled weights (15, 10, 8), rows 1 and 2 each have one."""
    total = 0
    for p in GRID + (ChargeParams(3, 5, (0, 0, 1)),):
        table = _ScaledAValues(p)
        for n in range(6):
            for mp in enumerate_multipartitions(p.d, n):
                scaled = -schur_valuation(mp, p)
                if a_value(mp, p) != Fraction(scaled, p.d):
                    return False, f"a_value of {mp} at {p!r}"
                if table[mp] != scaled:
                    return False, f"table d*a of {mp} at {p!r}"
                total += 1
    return True, f"{total} multipartitions checked, one at a time and by table"


def check_invariances():
    """Weight-shift invariance of a_value and the comparisons.

    The check raises the shift s by one (d*e on every scaled weight)
    through _oracles.bumped_weights.  ChargeParams always takes the least
    s, which is sound only because nothing depends on it.  That the
    a-value does not depend on the symbol height is tested against the
    symbol itself in tests/test_symbols.py.  (3,5,(0,0,1)) adds symbol
    rows with high weights (see check_a_oracle).
    """
    top = 4
    for p in GRID + (ChargeParams(3, 5, (0, 0, 1)),):
        bumped = bumped_weights(p)
        for n in range(top + 1):
            mps = enumerate_multipartitions(p.d, n)
            for mp in mps:
                if a_value(mp, bumped) != a_value(mp, p):
                    return False, f"a-value changed under s+1 at {mp}"
                for k in range(p.e):
                    if composition_addable_positions(mp, k, p) and \
                            k_opt_add(mp, k, p) != k_opt_add(mp, k, bumped):
                        return False, f"optimal {k}-addition changed under s+1 at {mp}"
            for mu in mps:
                for nu in mps:
                    if prec(mu, nu, p) != prec(mu, nu, bumped):
                        return False, f"prec changed under s+1 at {mu}, {nu}"
            for mp in flotw_multipartitions(p, n):
                if a_graph(mp, p).steps != a_graph(mp, bumped).steps:
                    return False, f"optimal chain changed under s+1 at {mp}"
    return True, f"s -> s+1 on the grid and (3,5,(0,0,1)), ranks <= {top}"


def check_divided_powers():
    """f_i^(j) [j]! = (f_i)^j on all basis vectors, both orders, exactly."""
    top, total = 4, 0
    for p in GRID:
        # the oracle's "am" is the order of a charge asymptotic at rank top + 3
        charges = (("am", asymptotic_charge(p, top + 3)), ("flotw", p.v))
        for n in range(top + 1):
            for mp in enumerate_multipartitions(p.d, n):
                vec = FockVector.unit(mp)
                for order, s in charges:
                    for i in range(p.e):
                        for j in range(4):
                            out = f_divided(vec, i, j, order, p)
                            if not divided_power_holds(out, vec, i, j, s, p):
                                return False, f"{mp} {order} i={i} j={j}"
                            total += 1
    return True, f"{total} cases, [j]! f_i^(j) = (f_i)^j exactly"


def check_minimality():
    """Alternative realizations of a residue sequence end strictly higher."""
    checked = 0
    for p in (ChargeParams(2, 4, (0, 1)), ChargeParams(2, 2, (0, 1))):
        for n in range(6):
            for lam in flotw_multipartitions(p, n):
                seq = a_sequence(lam, p)
                terminals = residue_path_terminals(seq, p)
                if lam not in terminals:
                    return False, f"{lam} unreachable from its own sequence"
                a_lam = a_value(lam, p)
                for mu in terminals:
                    if mu != lam and a_value(mu, p) <= a_lam:
                        return False, f"{mu} not above {lam}"
                checked += len(terminals)
    return True, f"{checked} terminal multipartitions compared"


def _structure_error(basis, p):
    """Why basis breaks the canonical-basis shape, or None.

    The shape: leading coefficient 1; every other coefficient of minimum
    degree >= 1, read off the degrees, not through the packed mask
    (laurent.low_mask) that the straightening itself uses; in N[q],
    every monomial coefficient >= 0 (positivity); and at a multipartition
    of strictly larger a-value.
    """
    a = {mp: a_value(mp, p) for mp in {mp for el in basis for mp in el.vector.terms}}
    for el in basis:
        vec = el.vector
        if vec.coefficient(el.label) != LaurentPoly.one():
            return f"leading coefficient at {el.label}"
        for nu, c in vec.terms.items():
            if nu == el.label:
                continue
            if min(c.coeffs, default=0) < 1:
                return f"{nu} coefficient {c} outside q*Z[q]"
            if min(c.coeffs.values()) < 0:
                return f"{nu} coefficient {c} not in N[q]"
            if a[nu] <= a[el.label]:
                return f"a({nu}) <= a({el.label})"
    return None


def check_canonical_structure():
    """Leading 1, coefficients in q*N[q], strict a-triangularity,
    min-identity, and equality with the compute_A replays straightened by
    a scan.

    The ranks up to 6 straighten almost nothing (at most 2 subtractions),
    so (2,2,(0,1)) n=9, whose recursion makes 28, is checked as well.
    (2,2,(0,1)) n=13 and the other two GRID parameter sets to rank 6 are
    built too, and checked for the shape only: the replay of n=13 would
    take several times the build.
    """
    top = 6
    p24, p22 = ChargeParams(2, 4, (0, 1)), ChargeParams(2, 2, (0, 1))
    cases = [(p24, n) for n in range(top + 1)]
    cases += [(p22, n) for n in range(top)] + [(p22, 9)]
    for p, n in cases:
        basis = canonical_basis(p, n)
        if basis != replayed_basis(p, n):
            return False, f"{p!r} rank {n}: recursion and replay differ"
        error = _structure_error(basis, p)
        if error:
            return False, f"{p!r} rank {n}: {error}"
        simple_module_a_values(p, n)
    shape_only = [(p, n) for p in GRID if p not in (p24, p22) for n in range(top + 1)]
    for p, n in shape_only + [(p22, 13)]:
        error = _structure_error(canonical_basis(p, n), p)
        if error:
            return False, f"{p!r} rank {n}: {error}"
    return True, (f"both parameter sets to rank {top} and (2,2,(0,1)) "
                  "n=9, equal to the compute_A replay; the other two to rank "
                  f"{top} and (2,2,(0,1)) n=13 leading 1, q*N[q], a-triangular")


def check_regularization():
    """James's regularization theorem at d = 1 (James-Kerber 1981, 6.3;
    Mathas 1999 for Hecke algebras at a root of unity): row lam has entry 1
    at column lam^R, and every other nonzero column strictly dominates lam^R.

    lam^R moves every node to the top of its e-ladder (_oracles.regularize),
    which reads neither the crystal nor the canonical basis.
    """
    top = 10
    rows = others = 0
    for e in range(2, 6):
        for n in range(1, top + 1):
            matrix = decomposition_matrix(ChargeParams(1, e, (0,)), n)
            column_of = {mp: j for j, mp in enumerate(matrix.columns)}
            for (lam,), pairs in zip(matrix.rows, matrix.nonzero):
                reg = (regularize(lam, e),)
                j = column_of.get(reg)
                if j is None:
                    return False, f"e={e}: {reg}, the regularization of {lam}, is no column"
                entries = dict(pairs)
                if entries.get(j) != 1:
                    return False, f"e={e}: entry {entries.get(j, 0)} at row {lam}, column {reg}"
                for k in entries:
                    if k != j and not dominates(matrix.columns[k], reg):
                        return False, (f"e={e}: column {matrix.columns[k]} of row {lam} "
                                       f"does not dominate {reg}")
                rows += 1
                others += len(entries) - 1
    return True, (f"{rows} rows and {others} further nonzero entries, e in 2..5, "
                  f"ranks <= {top}")


def check_blocks():
    """Block structure: a nonzero decomposition number joins a row and a
    column of equal residue content.

    f_i preserves residue content, and the blocks of the algebra are its
    content classes (Lyle-Mathas 2007).  Read on the grid and on even-e
    type B at e in (2, 4), ranks <= 6, from the stored nonzero cells.
    """
    top = 6
    cases = [(p, n, decomposition_matrix(p, n)) for p in GRID for n in range(top + 1)]
    cases += [(even_charge_params(e), n, decomposition_matrix_b(n, e))
              for e in (2, 4) for n in range(top + 1)]
    checked = 0
    for p, n, m in cases:
        column_content = [diagram_residues(lam, p) for lam in m.columns]
        for mu, pairs in zip(m.rows, m.nonzero):
            content = diagram_residues(mu, p)
            for j, _ in pairs:
                if content != column_content[j]:
                    return False, (f"{p!r} rank {n}: row {mu} and column "
                                   f"{m.columns[j]} differ in residue content")
            checked += len(pairs)
    return True, f"{checked} nonzero entries within one block, ranks <= {top}"


def check_small_known_matrix():
    """d=1, e=2, n=2: single column (2) + q (1,1)."""
    p = ChargeParams(1, 2, (0,))
    basis = canonical_basis(p, 2)
    if len(basis) != 1 or basis[0].label != ((2,),):
        return False, "unexpected labels"
    vec = basis[0].vector
    if vec.coefficient(((2,),)) != LaurentPoly.one() or \
            vec.coefficient(((1, 1),)) != LaurentPoly({1: 1}) or \
            len(vec.support()) != 2:
        return False, f"vector {vec}"
    matrix = decomposition_matrix(p, 2)
    if matrix.rows != (((2,),), ((1, 1),)):
        return False, f"rows {matrix.rows}"
    if matrix.columns != (((2,),),) or matrix.kleshchev_labels != (((2,),),):
        return False, f"columns {matrix.columns}, duals {matrix.kleshchev_labels}"
    if matrix.entries != ((1,), (1,)):
        return False, f"entries {matrix.entries}"
    return True, "(2) -> (2) + q (1,1); entries (1, 1) at q=1"


def check_semisimple_identity():
    """Semisimple parameters give the identity decomposition matrix, rows
    and columns in one order, and a basis of unit vectors."""
    cases = [(ChargeParams(1, 5, (0,)), 2), (ChargeParams(1, 7, (0,)), 3),
             (ChargeParams(2, 5, (0, 2)), 2), (ChargeParams(3, 7, (0, 2, 4)), 2),
             (ChargeParams(2, 4, (0, 1)), 0)]
    for p, n in cases:
        if not is_semisimple(p, n):
            return False, f"{p!r} n={n} not semisimple"
        matrix = decomposition_matrix(p, n)
        if matrix.nonzero != tuple(((i, 1),) for i in range(len(matrix.rows))) or \
                matrix.rows != matrix.columns:
            return False, f"{p!r} n={n} not identity"
        if any(el.vector != FockVector.unit(el.label) for el in canonical_basis(p, n)):
            return False, f"{p!r} n={n}: a basis element is not a unit vector"
    return True, f"{len(cases)} semisimple cases are identity matrices"


def _cells(matrix):
    """{(row label, column label): entry} of every cell of matrix."""
    return {(mu, lam): x for mu, row in zip(matrix.rows, matrix.entries)
            for lam, x in zip(matrix.columns, row)}


def check_typeb():
    """Type B a-values equal -schur_valuation/2 at e = 2 and 4, whose
    weights (1, 0) are those of every even e; odd-e block tensor rule."""
    for e in (2, 4):
        p = even_charge_params(e)
        if p.m != (1, 0):
            return False, f"e={e}: shift {p.m}, not (1, 0)"
        for n in range(6):
            for bp in enumerate_multipartitions(2, n):
                if a_value_typeb(bp) != Fraction(-schur_valuation(bp, p), 2):
                    return False, f"mismatch at {bp}, e={e}"
    matrix = decomposition_matrix_b(3, 3)
    cell = _cells(matrix)
    factor = {}  # the type-A factors of ranks 0..3, keyed by one-component labels
    for l in range(4):
        factor.update(_cells(decomposition_matrix(type_a_params(3), l)))
    for (mu, lam), x in cell.items():
        if sum(mu[0]) != sum(lam[0]):
            expected = 0
        else:
            expected = factor[(mu[0],), (lam[0],)] * factor[(mu[1],), (lam[1],)]
        if x != expected:
            return False, f"block entry at {mu}, {lam}"
    for j, lam in enumerate(matrix.columns):
        nonzero = [a for a, mu in zip(matrix.row_a_values, matrix.rows) if cell[mu, lam]]
        if min(nonzero) != matrix.column_a_values[j]:
            return False, f"column {lam} min a-value"
    # identity blocks exactly where both type-A factors are semisimple
    for a in range(4):
        semi = is_semisimple(type_a_params(3), a) and is_semisimple(type_a_params(3), 3 - a)
        rows_a = [mu for mu in matrix.rows if sum(mu[0]) == a]
        cols_a = [lam for lam in matrix.columns if sum(lam[0]) == a]
        block_is_identity = (len(rows_a) == len(cols_a) and all(
            cell[mu, lam] == (1 if mu == lam else 0)
            for mu in rows_a for lam in cols_a))
        if block_is_identity != semi:
            return False, f"block {a}: identity={block_is_identity}, semisimple={semi}"
    return True, "a-values against the valuation, block tensor rule, identity blocks"


def hash_seed_outputs(code):
    """Stdout bytes of `python -c code` under PYTHONHASHSEED 0 and then 1.

    The child imports this copy of the package: the directory holding it
    goes first on PYTHONPATH.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for seed in (0, 1):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True)
        if proc.returncode:
            raise RuntimeError(f"child under PYTHONHASHSEED={seed} exited "
                               f"{proc.returncode}: {proc.stderr.decode()[-500:]}")
        outputs.append(proc.stdout)
    return outputs


def _determinism_outputs(n):
    """The outputs that check_determinism compares, joined."""
    p = ChargeParams(2, 4, (0, 1))
    p22 = ChargeParams(2, 2, (0, 1))
    parts = [render_canonical(p, n), render_decomp(p, n), render_decomp(p, n, "json"),
             render_crystal(p, 4, "flotw"), render_decomp(p22, max(0, n - 1)),
             # the walk to the top builds labels on demand here from n = 8 on
             render_canonical(p22, 9),
             render_decomp(even_charge_params(2), 3),
             render_typeb(3, 3, "decomp"), render_typeb(2, 2, "decomp")]
    # every single-vertex query on both vertex sets below rank n
    p = ChargeParams(3, 4, (0, 1, 3))
    for r in range(n):
        for mp in kleshchev_multipartitions(p, r):
            parts += [render_bijection(p, mp), render_a_value(p, mp)]
        for mp in flotw_multipartitions(p, r):
            parts += [render_bijection(p, mp, inverse=True), render_a_seq(p, mp),
                      render_a_value(p, mp)]
    return "".join(parts)


def check_determinism():
    """Canonical, decomposition (text and JSON), crystal, type B and
    single-vertex output is byte-identical across hash seeds."""
    n = 6
    code = ("import sys\n"
            "from ariki.verification import _determinism_outputs\n"
            f"sys.stdout.write(_determinism_outputs({n}))\n")
    here = _determinism_outputs(n).encode()
    if hash_seed_outputs(code) != [here, here]:
        return False, "outputs differ across hash seeds"
    return True, "PYTHONHASHSEED 0, 1 and this process agree byte for byte"


ALL_CHECKS = (
    ("symbol-example", check_symbol_example),
    ("a-sequence-example", check_a_sequence_example),
    ("counting-identity", check_counting_identity),
    ("d1-e-regular-oracle", check_d1_oracle),
    ("a-function-oracle", check_a_oracle),
    ("shift-invariances", check_invariances),
    ("divided-power-oracle", check_divided_powers),
    ("minimality-brute-force", check_minimality),
    ("canonical-structure", check_canonical_structure),
    ("regularization", check_regularization),
    ("blocks", check_blocks),
    ("small-known-matrix", check_small_known_matrix),
    ("semisimple-identity", check_semisimple_identity),
    ("type-b", check_typeb),
    ("determinism", check_determinism),
)


def run_all(report=print):
    """Run every check, reporting each with its wall time; True iff all pass.

    A check that raises fails, reported with the exception's type and
    message, and the checks after it still run.
    """
    ok_all = True
    for name, fn in ALL_CHECKS:
        started = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a failure of this check; the others still run
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        ok_all &= ok
        report(f"{'PASS' if ok else 'FAIL'} {name} ({elapsed:.2f} s): {detail}")
    return ok_all
