"""Residue sequences, optimal additions, and the minimality propositions."""

import pytest

from ariki._oracles import (bumped_weights, composition_addable_positions, prec,
                            residue_path_terminals)
from ariki.aseq import _peel, a_graph, a_sequence, a_sequence_blocks, k_opt_add, peel_step
from ariki.charge import ChargeParams
from ariki.crystal import flotw_multipartitions, is_flotw
from ariki.partitions import Node, part, removable_nodes

P24 = ChargeParams(2, 4, (0, 1))
GRID = (P24, ChargeParams(2, 2, (0, 1)), ChargeParams(3, 3, (0, 1, 2)),
        ChargeParams(2, 4, (1, 2)))


def test_a_sequence_examples():
    assert a_sequence(((2, 2), (2, 2, 1)), P24) == (1, 0, 0, 3, 3, 2, 1, 1, 0)
    assert a_sequence(((), ()), P24) == ()
    assert a_sequence(((1,), ()), P24) == (0,)


def test_a_sequence_rejects_non_members():
    with pytest.raises(ValueError):
        a_sequence(((), (1, 1)), P24)


def test_peel_step_forced_residue():
    step = peel_step(((2, 2), (2, 2, 1)), P24)
    assert step.k == 0 and step.candidates == (0,)


def test_peel_step_rejects_non_members():
    with pytest.raises(ValueError, match="membership conditions"):
        peel_step(((), (1, 1)), P24)


def test_internal_peel_equals_peel_step():
    for p in GRID:
        for n in range(1, 8):
            for lam in flotw_multipartitions(p, n):
                step = peel_step(lam, p)
                assert _peel(lam, p) == (step.k, step.removed, step.rest), (p, lam)


def test_consecutive_blocks_have_distinct_residues():
    for p in GRID:
        for n in range(7):
            for lam in flotw_multipartitions(p, n):
                blocks = a_sequence_blocks(lam, p)
                assert sum(c for _, c in blocks) == n
                for i in range(len(blocks) - 1):
                    assert blocks[i][0] != blocks[i + 1][0]


def test_k_opt_add_examples():
    p = ChargeParams(2, 4, (0, 1))
    out, node = k_opt_add(((), (1,)), 0, p)
    assert out == ((1,), (1,)) and node == Node(1, 1, 0)
    out, node = k_opt_add(((), ()), 0, P24)
    assert out == ((1,), ()) and node == Node(1, 1, 0)
    with pytest.raises(ValueError):
        k_opt_add(((), ()), 2, P24)


def test_k_opt_add_rejects_wrong_component_count():
    # too few components would give a wrong answer, too many an IndexError;
    # a_graph and composition_addable_positions reject both the same way
    for mc in (((1,),), ((1,), (), ())):
        for fn in (lambda mc, p: k_opt_add(mc, 1, p), a_graph,
                   lambda mc, p: composition_addable_positions(mc, 1, p)):
            with pytest.raises(ValueError, match=f"expected 2 components, got {len(mc)}"):
                fn(mc, P24)
        with pytest.raises(ValueError, match="expected 2 components"):
            k_opt_add(mc, 1, bumped_weights(P24))


def test_composition_addable_positions_validates_its_input():
    # the oracle's filter compares residues in 0..e-1, so k = -1 or 5 would
    # match no node; the component count is checked with k_opt_add's above
    for k in (-1, 4, 5, 1.0):
        with pytest.raises(ValueError, match=r"residue must be an integer in 0\.\.3"):
            composition_addable_positions(((1,), ()), k, P24)
    with pytest.raises(ValueError, match="is not a composition"):
        composition_addable_positions(((1,), (0, 1)), 1, P24)
    assert composition_addable_positions(([2, 1], ()), 1, P24) == [Node(1, 1, 1)]


def test_k_opt_add_composition_tie_break():
    # rows 1 and 2 of (1, 2) carry the same shifted diagonal and residue;
    # the tie goes to the smallest (component, row)
    p = ChargeParams(1, 2, (0,))
    out, node = k_opt_add(((1, 2),), 1, p)
    assert node == Node(1, 2, 0)
    assert out == ((2, 2),)


def test_a_graph_trivial_cases():
    assert a_graph(((), ()), P24).steps == ()
    graph = a_graph(((1,), ()), P24)
    assert len(graph.steps) == 1 and graph.steps[0][1] == Node(1, 1, 0)


def test_a_graph_reconstruction_and_closure():
    for p in GRID:
        for n in range(7):
            for lam in flotw_multipartitions(p, n):
                graph = a_graph(lam, p)
                assert graph.final == lam
                for stage in graph.stages:
                    assert is_flotw(stage, p)


def test_a_graph_adds_no_node_through_the_checked_add(monkeypatch):
    # k_opt_add's node is one it just found addable, so it goes in
    # unchecked; the chain still equals the checked one-node replay
    import ariki.aseq as aseq
    import ariki.partitions as partitions
    checked = partitions.add_node

    def refuse(mp, node):
        raise AssertionError("checked add_node on the a_graph path")

    monkeypatch.setattr(partitions, "add_node", refuse)
    monkeypatch.setattr(aseq, "add_node", refuse, raising=False)
    for p in GRID:
        for n in range(7):
            for lam in flotw_multipartitions(p, n):
                graph = a_graph(lam, p)
                cur = ((),) * p.d
                for before, node, _ in graph.steps:
                    assert before == cur
                    cur = checked(cur, node)
                assert cur == graph.final == lam


def test_minimality_over_composition_realizations():
    for p in (P24,):
        for n in range(5):
            for lam in flotw_multipartitions(p, n):
                seq = a_sequence(lam, p)
                terminals = residue_path_terminals(seq, p, compositions=True)
                assert lam in terminals
                for mu in terminals:
                    if mu != lam:
                        assert prec(lam, mu, p)


def test_removable_node_diagonal_comparison():
    # for a removable node and a part whose border residue is one less, the
    # part-length comparison agrees with the shifted-diagonal comparison
    for p in (P24, ChargeParams(3, 3, (0, 1, 2))):
        for n in range(6):
            for lam in flotw_multipartitions(p, n):
                for xi in removable_nodes(lam):
                    j1, i1 = xi.row, xi.comp
                    l1 = part(lam[i1], j1)
                    for i2, comp in enumerate(lam):
                        for j2 in range(1, len(comp) + 1):
                            l2 = part(lam[i2], j2)
                            if (l2 - j2 + p.v[i2]) % p.e != \
                                    (l1 - j1 + p.v[i1] - 1) % p.e:
                                continue
                            lhs = l2 >= l1
                            rhs = (p.d * (l2 - j2) + p.scaled_m[i2] + p.d
                                   >= p.d * (l1 - j1) + p.scaled_m[i1])
                            assert lhs == rhs, (lam, xi, (j2, i2))


def test_peel_residue_ties_are_recorded_not_fatal():
    # several residues may qualify at one peeling step; the smallest is the
    # determinism choice, and the others are recorded in candidates
    ties = []
    for p in GRID:
        for n in range(1, 6):
            for lam in flotw_multipartitions(p, n):
                cur = lam
                while sum(sum(c) for c in cur):
                    step = peel_step(cur, p)
                    assert step.k == min(step.candidates)
                    if len(step.candidates) > 1:
                        ties.append((p, cur, step.candidates))
                    cur = step.rest
    print(f"peel residue ties observed: {len(ties)}")
    for params, mp, candidates in ties[:5]:
        print(f"  {params} {mp}: residues {candidates}, smallest taken")
