"""Residue sequences and optimal-addition chains for diagonal-crystal vertices.

Peeling works top down: among removable nodes on the longest parts, pick a
residue k such that no (k-1)-node sits on the border of a part of that
length (the smallest such k when several qualify), then strip every
removable k-node lying on parts longer than the longest part carrying a
(k-1)-border-node.  Reading the stripped residues bottom-up gives the
residue sequence; replaying it from the empty multipartition, always adding
at the position with the largest shifted diagonal, rebuilds the original
multipartition through a chain of diagonal-crystal vertices.

The public peel_step checks its input and returns the whole PeelStep record.
The residue sequence and the canonical basis peel through _peel, which
takes the smallest admissible residue straight away and returns only
(k, removed, rest), with plain (row, col, comp) nodes.
"""

from typing import NamedTuple

from .charge import ChargeParams
from .crystal import _is_flotw
from .partitions import (Node, _moved, check_components, check_multicomposition,
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
    if not _is_flotw(mp, p):
        raise ValueError(f"{mp} does not satisfy the membership conditions")
    ends, e = _top_ends(mp, p), p.e
    k, removed, rest = _peel(mp, p)
    return PeelStep(k=k, candidates=tuple(sorted(r for r in ends if (r - 1) % e not in ends)),
                    removed=tuple(Node(*g) for g in removed), rest=rest)


def _top_ends(mp, p):
    """Residues of the row ends on the longest parts of a nonempty multipartition.

    The parts of the longest length are the top rows of their components,
    and their ends go down one residue per row, so a residue is admissible
    (the end of a removable longest part, with no longest part ending one
    residue lower) exactly when it is here and the residue before it is not.
    """
    e, v = p.e, p.v
    lmax = max(mp)[0]  # the largest first part; an empty component sorts first
    ends = set()
    for vc, comp in zip(v, mp):
        if comp and comp[0] == lmax:
            top = lmax - 1 + vc
            for a in range(comp.count(lmax)):
                ends.add((top - a) % e)
    return ends


def _peel(mp, p: ChargeParams):
    """peel_step on a nonempty vertex already validated: (k, removed, rest).

    k is the smallest admissible residue.  The removed nodes are the
    removable k-nodes on parts longer than the longest part ending in
    residue k - 1, as plain (row, col, comp) tuples, and rest is mp without
    them.  A component's rows below its first (k-1)-end are no longer than
    that part, so its scan stops there.
    """
    e, v = p.e, p.v
    ends = _top_ends(mp, p)
    for k in sorted(ends):
        if (k - 1) % e not in ends:
            break
    else:
        raise ValueError(f"no admissible residue on {mp}; not a diagonal-crystal vertex")
    before, threshold, found = (k - 1) % e, 0, []
    for c, comp in enumerate(mp):
        vc, height = v[c], len(comp)
        for a, length in enumerate(comp, start=1):
            r = (length - a + vc) % e
            if r == before:
                if threshold < length:
                    threshold = length
                break
            if r == k and (a == height or comp[a] < length):
                found.append((a, length, c))
    removed = tuple([g for g in found if g[1] > threshold])
    return k, removed, _moved(mp, removed, -1)


def a_sequence_blocks(mp, p: ChargeParams):
    """Block form [(residue, count), ...] from first-added to last-added."""
    return _blocks(check_components(mp, p.d), p)


def _blocks(mp, p: ChargeParams):
    """a_sequence_blocks on a multipartition already validated with p.d components."""
    if not _is_flotw(mp, p):
        raise ValueError(f"{mp} does not satisfy the membership conditions")
    blocks = []
    while any(mp):
        k, removed, mp = _peel(mp, p)
        blocks.append((k, len(removed)))
    blocks.reverse()
    return blocks


def a_sequence(mp, p: ChargeParams):
    """Residue sequence of a diagonal-crystal vertex, first-added first."""
    return tuple(k for k, count in a_sequence_blocks(mp, p) for _ in range(count))


def _checked_multicomposition(mc, p):
    """mc validated as a multicomposition of p.d components."""
    mc = check_multicomposition(mc)
    if len(mc) != p.d:
        raise ValueError(f"expected {p.d} components, got {len(mc)}")
    return mc


def k_opt_add(mc, k, p: ChargeParams):
    """Add a k-node at the position with the largest shifted diagonal.

    Returns (new multicomposition, added node).  On multipartitions the
    maximizer is unique; composition ties go to the smallest (component, row).
    """
    return _k_opt_add(_checked_multicomposition(mc, p), k, p)


def _k_opt_add(mc, k, p: ChargeParams):
    """k_opt_add on a multicomposition already validated.

    The addable k-nodes, any row's or a new row's, are scanned by
    (component, row), so the first of the largest weight wins a tie.  The
    node is one just found addable, so partitions._moved adds it unchecked:
    it lengthens its row, or starts a new one.
    """
    best = None
    for c, comp in enumerate(mc):
        for j in range(1, len(comp) + 2):
            b = part(comp, j) + 1
            if (b - j + p.v[c]) % p.e == k:
                weight = p.d * (b - 1 - j) + p.scaled_m[c]
                if best is None or weight > best[0]:
                    best = (weight, Node(j, b, c))
    if best is None:
        raise ValueError(f"no addable node of residue {k} on {mc}")
    g = best[1]
    return _moved(mc, (g,), 1), g


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
