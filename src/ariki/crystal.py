"""Crystal combinatorics: signatures, good nodes, membership, and the bijection.

The i-signature of a multipartition lists its addable and removable i-nodes
from the lowest to the highest node of the selected order.  Scanning in
that direction, an addable node cancels the next uncancelled removable
node after it; the good addable node is the lowest surviving addable one and
the good removable node is the highest surviving removable one.  This
scanning convention is pinned by three observable requirements checked in
the test suite: for d = 1 both crystals regenerate exactly the e-regular
partitions, the diagonal-order crystal regenerates the explicit
two-condition membership test at every rank, and the two membership sets are
equinumerous rank by rank.

Each walk scans a vertex's rows once per step.  The walks that try several
residues of one vertex read every residue from one pass: crystal_graph
once per vertex, the bijection once per source of the diagonal edges, and
a raising path once per step.  In the component-major order the rows are
scanned in the order itself, so that pass, charge.am_reduced_signatures,
cancels as it scans and hands over every residue's surviving nodes; the
diagonal order merges the components' rows, so its walks read
charge.border_signatures and sort and cancel each list they use.  The
good nodes and the bijection's replay want one residue: in the
component-major order they read charge.am_reduced_signature, the same
cancelling scan for one residue, and in the diagonal order
charge.i_signature, that residue's i-nodes sorted, which they cancel.
The signature's nodes are plain (row, col, comp) tuples; a
partitions.Node is built only where a public function returns one (the
good nodes and crystal_graph's edges).  The walks (the raising paths, the
bijection's replay and crystal_graph) apply a whole i-string through
partitions._moved, which trusts the signature and checks no node again;
the public add_node and remove_node keep their checks, and the walks keep
their own "crystals disagree" guards.

Component-major-order crystal vertices are called Kleshchev multipartitions
and diagonal-order vertices satisfy the explicit conditions below
(is_flotw), read straight off the rows that can break them.  Each
connected component of the Fock-space crystal has one highest-weight
vertex, and raising lowers the rank inside the component, so a
multipartition is a vertex exactly when one greedy raising path reaches
empty.  The bijection between the two vertex sets is the crystal
isomorphism: one vertex is mapped by replaying its raising steps, whole
i-strings, as lowerings in the other order, a whole rank along the
diagonal crystal graph's own edges, each one replayed as a
component-major lowering of the image of its source.
"""

from typing import NamedTuple

from .charge import (ChargeParams, am_reduced_signature, am_reduced_signatures,
                     border_signatures, check_order, check_residue, i_signature)
from .partitions import (Node, _moved, check_components, empty_multipartition,
                         enumerate_multipartitions, rank)


def _reduced_signature(mp, i, order, p):
    """Surviving addable and removable i-nodes after pair cancellation.

    The component-major order cancels while it scans; the diagonal order
    sorts the i-nodes first.  Neither mp nor order is validated.
    """
    if order == "am":
        return am_reduced_signature(mp, i, p)
    return _cancelled(i_signature(mp, i, p))


def _cancelled(items):
    """The surviving addable and removable nodes of an i-signature's items.

    Scanning the items upward, each addable node cancels against the next
    surviving removable node above it; both lists come out lowest node
    first.
    """
    addable, removable = [], []
    for _, _, is_addable, g in items:
        if is_addable:
            addable.append(g)
        elif addable:
            addable.pop()
        else:
            removable.append(g)
    return addable, removable


def good_addable_node(mp, i, order: str, p: ChargeParams):
    """Position added by the crystal lowering operator, as a Node, or None."""
    check_order(order)
    check_residue(i, p)
    addable, _ = _reduced_signature(check_components(mp, p.d), i, order, p)
    return Node(*addable[0]) if addable else None


def good_removable_node(mp, i, order: str, p: ChargeParams):
    """Node removed by the crystal raising operator, as a Node, or None."""
    check_order(order)
    check_residue(i, p)
    _, removable = _reduced_signature(check_components(mp, p.d), i, order, p)
    return Node(*removable[-1]) if removable else None


def _raising_path(mp, order, p):
    """Greedy raising down to empty as (residue, k) steps, or None if stuck.

    Each step takes the smallest residue i with a surviving removable
    i-node and removes all k of them at once, which is e_i^k: removing an
    i-node changes no other i-node, so the removed node turns addable and
    cancels nothing, and the next good removable node is the next surviving
    one down.  Any maximal raising path ends at its component's one
    highest-weight vertex, so this path reaches empty exactly when the
    one-node path does.  A step tries the residues in ascending order until
    one keeps a removable node; a residue with no i-node has none, so only
    those that occur are tried.  In the component-major order a step reads
    them all from one charge.am_reduced_signatures pass, which cancels as
    it scans; in the diagonal order from one charge.border_signatures pass,
    sorting and cancelling only the lists it reaches.  The rank is counted
    down, not recomputed.
    """
    path, left, diagonal = [], rank(mp), order == "flotw"
    while left:
        if diagonal:
            scan = border_signatures(mp, p)
            for i in sorted(scan):
                items = scan[i]
                items.sort()
                _, removable = _cancelled(items)
                if removable:
                    break
            else:
                return None
        else:
            scan = am_reduced_signatures(mp, p)
            for i in sorted(scan):
                removable = scan[i][1]
                if removable:
                    break
            else:
                return None
        path.append((i, len(removable)))
        mp = _moved(mp, removable, -1)
        left -= len(removable)
    return path


def is_kleshchev(mp, p: ChargeParams) -> bool:
    """Reachable from empty by good-node additions in the component-major order."""
    return _raising_path(check_components(mp, p.d), "am", p) is not None


def is_flotw(mp, p: ChargeParams) -> bool:
    """Explicit two-condition membership test for the diagonal-order crystal."""
    return _is_flotw(check_components(mp, p.d), p)


def _is_flotw(mp, p):
    """is_flotw on a multipartition already validated with p.d components.

    The cyclic condition lam^(j)_i >= lam^(j+1)_(i+s) with s = v_(j+1) - v_j,
    and its wrap-around lam^(d-1)_i >= lam^(0)_(i+s) with s = e + v_0 - v_(d-1),
    can only break on a row t > s of the lower component: row t must have a
    row t - s of the upper one at least as long.  The second condition fails
    once the row ends of one part length carry all e residues, which a
    bitmask per length shows as soon as it happens; with fewer than e rows
    in all it cannot, so no bitmask is made and a huge e costs nothing.
    """
    e, v = p.e, p.v
    upper, vu = mp[-1], v[-1] - e
    for lower, vl in zip(mp, v):
        s = vl - vu
        rows = len(lower) - s
        if rows > 0:
            if rows > len(upper):
                return False
            for t in range(rows):
                if upper[t] < lower[t + s]:
                    return False
        upper, vu = lower, vl
    if sum(map(len, mp)) < e:
        return True
    full, masks = (1 << e) - 1, {}
    for c, comp in enumerate(mp):
        vc = v[c]
        for a, length in enumerate(comp, start=1):
            mask = masks.get(length, 0) | (1 << (length - a + vc) % e)
            if mask == full:
                return False
            masks[length] = mask
    return True


class CrystalGraph(NamedTuple):
    """Ranked crystal: vertex lists per rank and labeled edges between ranks.

    edges[r] holds (source, residue, node, target) with source of rank r
    and node a partitions.Node.
    """
    order: str
    levels: tuple
    edges: tuple

    def vertices(self, r: int):
        return self.levels[r]


def crystal_graph(p: ChargeParams, n: int, order: str) -> CrystalGraph:
    """Breadth-first crystal from the empty multipartition up to rank n.

    Every residue of a vertex is read from one pass:
    charge.am_reduced_signatures in the component-major order,
    charge.border_signatures in the diagonal one.  A residue with no
    i-node has no edge.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_order(order)
    diagonal = order == "flotw"
    levels = [[empty_multipartition(p.d)]]
    edges = []
    for r in range(n):
        targets = {}  # every edge into a vertex holds the level's one tuple
        level_edges = []
        for mp in levels[r]:
            scan = border_signatures(mp, p) if diagonal else am_reduced_signatures(mp, p)
            for i, found in scan.items():
                if diagonal:
                    found.sort()
                    addable, _ = _cancelled(found)
                else:
                    addable = found[0]
                if addable:
                    nxt = _moved(mp, addable[:1], 1)
                    nxt = targets.setdefault(nxt, nxt)
                    level_edges.append((mp, i, Node(*addable[0]), nxt))
        level_edges.sort()
        levels.append(sorted(targets))
        edges.append(tuple(level_edges))
    return CrystalGraph(order=order,
                        levels=tuple(tuple(lv) for lv in levels),
                        edges=tuple(edges))


def kleshchev_multipartitions(p: ChargeParams, n: int):
    """All component-major-order crystal vertices of rank n, sorted."""
    return list(crystal_graph(p, n, "am").vertices(n))


def flotw_multipartitions(p: ChargeParams, n: int):
    """All diagonal-order crystal vertices of rank n (direct test), sorted."""
    return [mp for mp in enumerate_multipartitions(p.d, n) if _is_flotw(mp, p)]


def crystal_bijection(p: ChargeParams, n: int):
    """{diagonal-order vertex: component-major vertex} at rank n.

    Walks the diagonal crystal graph rank by rank: the image of the target
    of a diagonal i-edge is the component-major i-lowering of the image of
    its source.
    """
    return _graph_bijection(crystal_graph(p, n, "flotw"), p)


def _graph_bijection(gf: CrystalGraph, p: ChargeParams):
    """crystal_bijection at the top rank of a diagonal-order crystal graph.

    A level's edges come sorted, so the edges of one source are adjacent:
    its image is scanned once (charge.am_reduced_signatures, which cancels
    every residue as it scans) and each edge reads its own residue.
    """
    empty = gf.levels[0][0]
    image = {empty: empty}
    for flotw_edges in gf.edges:
        level, source = {}, None
        for src, i, _, dst in flotw_edges:
            if src != source:
                source, cur = src, image[src]
                scan = am_reduced_signatures(cur, p)
            addable, _ = scan.get(i, ((), ()))
            target = _moved(cur, addable[:1], 1) if addable else None
            if target is None or level.setdefault(dst, target) != target:
                raise RuntimeError(f"crystals disagree at {dst}")
        image = level
    return image


def _transport(mp, p, source, target):
    """Image of a source-order vertex: its raising path replayed in target order.

    A step (i, k) is replayed as f_i^k, which adds the k lowest surviving
    addable i-nodes of one scan.  A crystal isomorphism maps every raising
    path of a vertex to the same image.
    """
    path = _raising_path(check_components(mp, p.d), source, p)
    if path is None:
        raise ValueError(f"{mp} is not a vertex of the {source} crystal")
    cur = empty_multipartition(p.d)
    for i, k in reversed(path):
        addable, _ = _reduced_signature(cur, i, target, p)
        if len(addable) < k:
            raise RuntimeError("residue path cannot be replayed; crystals disagree")
        cur = _moved(cur, addable[:k], 1)
    return cur


def bijection_j(mp, p: ChargeParams):
    """Image of a Kleshchev multipartition in the diagonal-order crystal."""
    return _transport(mp, p, "am", "flotw")


def bijection_j_inverse(mp, p: ChargeParams):
    """Image of a diagonal-order crystal vertex in the component-major crystal."""
    return _transport(mp, p, "flotw", "am")
