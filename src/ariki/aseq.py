"""Residue sequences and optimal-addition chains for diagonal-crystal vertices.

Peeling works top down: among removable nodes on the longest parts, pick a
residue k such that no (k-1)-node sits on the border of a part of that
length (the smallest such k when several qualify), then strip every
removable k-node lying on parts longer than the longest part carrying a
(k-1)-border-node.  Reading the stripped residues bottom-up gives the
residue sequence; replaying it from the empty multipartition, always adding
at the position with the largest shifted diagonal, rebuilds the original
multipartition through a chain of diagonal-crystal vertices.
"""

from typing import NamedTuple

from .charge import ChargeParams, check_residue
from .crystal import _is_flotw
from .partitions import (Node, add_node, check_components, check_multicomposition,
                         empty_multipartition, part, rank)


class PeelStep(NamedTuple):
    """One peeling step: chosen residue, qualifying ties, removed nodes, rest."""
    k: int
    candidates: tuple
    removed: tuple
    rest: tuple


def peel_step(mp, p: ChargeParams) -> PeelStep:
    """Strip one block of equal-residue removable nodes from a nonempty vertex.

    Several residues may qualify; the smallest is taken, and all of them are
    listed in candidates.
    """
    mp = check_components(mp, p.d)
    if rank(mp) == 0:
        raise ValueError("cannot peel the empty multipartition")
    step = _peel(mp, p)
    return step._replace(removed=tuple(Node(*g) for g in step.removed))


def _peel(mp, p: ChargeParams) -> PeelStep:
    """peel_step on a nonempty multipartition already validated with p.d components.

    One pass over the row ends records, per residue, the longest part whose
    border node has it, and the removable row ends with their residues.
    The removed nodes are plain (row, col, comp) tuples; peel_step makes
    them Nodes.
    """
    e, v = p.e, p.v
    longest = {}     # residue -> longest part with a border node of that residue
    removable = []   # (residue, row, length, comp) of every removable row end
    for c, comp in enumerate(mp):
        vc, height = v[c], len(comp)
        for a, length in enumerate(comp, start=1):
            r = (length - a + vc) % e
            if longest.get(r, 0) < length:
                longest[r] = length
            if a == height or comp[a] < length:
                removable.append((r, a, length, c))
    lmax = max(longest.values())
    candidates = sorted({r for r, _, length, _ in removable
                         if length == lmax and longest.get((r - 1) % e) != lmax})
    if not candidates:
        raise ValueError(f"no admissible residue on {mp}; not a diagonal-crystal vertex")
    k = candidates[0]
    threshold = longest.get((k - 1) % e, 0)
    removed = tuple((a, length, c) for r, a, length, c in removable
                    if r == k and length > threshold)
    rest = list(mp)
    for a, length, c in removed:
        comp = rest[c]
        rest[c] = comp[:a - 1] + ((length - 1,) if length > 1 else ()) + comp[a:]
    return PeelStep(k=k, candidates=tuple(candidates), removed=removed, rest=tuple(rest))


def a_sequence_blocks(mp, p: ChargeParams):
    """Block form [(residue, count), ...] from first-added to last-added."""
    return _blocks(check_components(mp, p.d), p)


def _blocks(mp, p: ChargeParams):
    """a_sequence_blocks on a multipartition already validated with p.d components."""
    if not _is_flotw(mp, p):
        raise ValueError(f"{mp} does not satisfy the membership conditions")
    blocks = []
    cur, remaining = mp, rank(mp)
    while remaining:
        step = _peel(cur, p)
        blocks.append((step.k, len(step.removed)))
        cur, remaining = step.rest, remaining - len(step.removed)
    blocks.reverse()
    return blocks


def a_sequence(mp, p: ChargeParams):
    """Residue sequence of a diagonal-crystal vertex, first-added first."""
    return tuple(k for k, count in a_sequence_blocks(mp, p) for _ in range(count))


def composition_addable_positions(mc, k, p: ChargeParams):
    """Nodes of residue k addable to a multicomposition (any row, or a new one)."""
    check_residue(k, p)
    return _addable_positions(_checked_multicomposition(mc, p), k, p)


def _checked_multicomposition(mc, p):
    """mc validated as a multicomposition of p.d components."""
    mc = check_multicomposition(mc)
    if len(mc) != p.d:
        raise ValueError(f"expected {p.d} components, got {len(mc)}")
    return mc


def _addable_positions(mc, k, p):
    """composition_addable_positions on an input already validated."""
    out = []
    for c, comp in enumerate(mc):
        for j in range(1, len(comp) + 2):
            b = part(comp, j) + 1
            if (b - j + p.v[c]) % p.e == k:
                out.append(Node(j, b, c))
    return out


def k_opt_add(mc, k, p: ChargeParams):
    """Add a k-node at the position with the largest shifted diagonal.

    Returns (new multicomposition, added node).  On multipartitions the
    maximizer is unique; composition ties go to the smallest (component, row).
    """
    return _k_opt_add(_checked_multicomposition(mc, p), k, p)


def _k_opt_add(mc, k, p: ChargeParams):
    """k_opt_add on a multicomposition already validated."""
    best = None
    for g in _addable_positions(mc, k, p):
        weight = p.d * (part(mc[g.comp], g.row) - g.row) + p.scaled_m[g.comp]
        slot = (g.comp, g.row)
        if best is None or weight > best[0] or (weight == best[0] and slot < best[1]):
            best = (weight, slot, g)
    if best is None:
        raise ValueError(f"no addable node of residue {k} on {mc}")
    g = best[2]
    return add_node(mc, g), g


class AGraph(NamedTuple):
    """Optimal-addition chain: steps (stage-before, node, residue) and final stage."""
    steps: tuple
    final: tuple

    @property
    def stages(self):
        return tuple(before for before, _, _ in self.steps) + (self.final,)


def a_graph(mp, p: ChargeParams) -> AGraph:
    """Replay the residue sequence from empty through optimal additions."""
    mp = check_components(mp, p.d)
    seq = tuple(k for k, count in _blocks(mp, p) for _ in range(count))
    cur = empty_multipartition(p.d)
    steps = []
    for k in seq:
        nxt, node = _k_opt_add(cur, k, p)
        steps.append((cur, node, k))
        cur = nxt
    if cur != mp:
        raise RuntimeError(f"optimal replay of {seq} ended at {cur}, not {mp}")
    return AGraph(steps=tuple(steps), final=cur)
