"""Charge parameters, residues, the two node orders, and semisimplicity.

A parameter set consists of d, a root-of-unity order e >= 2 and weakly
increasing charges 0 <= v_0 <= ... <= v_{d-1} < e.  The weights are
m^(j) = v_j - j*e/d + s*e with s the least shift that makes them all
nonnegative; the a-function, and so everything downstream, depends on the
weights only up to a common shift, so s is derived, never given.  The
m^(j) have denominator d, so all arithmetic is done on the integers
scaled_m[j] = d*m^(j); rationals only ever appear in display, and the
property m imports fractions on first use, not at import.  scaled_m and the
a-function's weight data follow from them: a_weights(d, scaled_m) sorts
the weights once, so each symbol row's hook sum (symbols._scaled_row) loops
only over the weights more than d above the row's own.

Two strict total orders on same-residue nodes drive everything downstream:
the component-major order (below = smaller (comp, row)) and the
diagonal order (below = larger b - a + v_c, ties to the smaller component).
Five row scans find a multipartition's addable and removable nodes by
residue, each in one pass over its rows.  i_signature lists the i-nodes of
one residue i lowest first in the diagonal order, for the crystal's good
nodes and the bijection's replay in that order.  component_signature is
its pass over one component, in the component-major order, each addable
node with the component it makes; the divided powers keep one per
(component, index, residue) for a whole walk, concatenate them over a
multipartition's components and sort the result for the diagonal order
(fock._moves).  border_signatures lists every residue that occurs at
once, as {residue: i_signature items in the component-major order}, for
the diagonal-order crystal walks that try several residues of one vertex
(the crystal graph and the raising paths), which sort the lists they read.
The component-major order is the scan order itself, so its two scans
cancel while they scan and return the surviving nodes:
am_reduced_signature for one residue (the good nodes and the bijection's
replay in that order) and am_reduced_signatures for every residue that
occurs (the crystal graph, the raising paths and the bijection's edges in
that order).  A reader that wants a single residue stays on a one-residue
scan: a pass that files every node by residue costs more than one that
keeps the nodes of one residue.  The nodes are plain (row, col, comp)
tuples; the public functions that return a node build the partitions.Node
record from one.  No scan checks its multipartition: every caller has
run partitions.check_components on it or walks from the empty one.  The
oracles read both orders as the diagonal order of an integer charge
s = v (mod e): ariki._oracles.below_key.
"""

from bisect import bisect_right
from itertools import accumulate
from operator import mul

from .partitions import Node

ORDERS = ("am", "flotw")


def _weighted_min_sum(xs):
    """Sum of min(x, y) over unordered pairs of the list xs, which this sorts
    in place: x_(k) counts N-1-k times."""
    xs.sort()
    return sum(map(mul, xs, range(len(xs) - 1, -1, -1)))


def a_weights(d, scaled_m):
    """The a-function's data of the scaled weights sm, which depends on
    (d, sm) alone: (total, pairs, low, start, ascending).

    Row i of a symbol reads min(d*k + sm_i, sm_j) for every weight sm_j and
    k >= 1.  A weight sm_j <= sm_i + d is the minimum for every k, so row i
    reads those weights through their sum low[i] alone; the others, its
    high weights, are ascending[start[i]:], with ascending the sorted sm.
    pairs is the sum of min(sm_i, sm_j) over the pairs i < j, and total the
    sum of sm.  One sort, a prefix sum and one bisect per weight: O(d log d)
    time and O(d) memory.
    """
    ascending = list(scaled_m)
    pairs = _weighted_min_sum(ascending)  # sorts ascending in place
    ascending = tuple(ascending)
    prefix = (0, *accumulate(ascending))
    start = tuple(bisect_right(ascending, x + d) for x in scaled_m)
    return prefix[-1], pairs, tuple(prefix[k] for k in start), start, ascending


class ChargeParams:
    """Immutable (d, e, charges) bundle with the derived scaled weights.

    The weights take the minimal shift that makes them all nonnegative.
    Equality and hashing read (d, e, v); scaled_m and the a-function's
    weight data _a_weights (a_weights) follow from them.
    """

    __slots__ = ("d", "e", "v", "scaled_m", "_a_weights")

    def __init__(self, d, e, v):
        v = tuple(v)
        if not isinstance(d, int) or not isinstance(e, int):
            raise ValueError("d and e must be integers")
        if d < 1:
            raise ValueError("d must be positive")
        if e < 2:
            raise ValueError("e must be at least 2")
        if len(v) != d:
            raise ValueError(f"expected {d} charges, got {len(v)}")
        if not all(isinstance(x, int) for x in v):
            raise ValueError("charges must be integers")
        if not all(0 <= v[j] <= v[j + 1] for j in range(d - 1)) or not (
                0 <= v[0] and v[-1] < e):
            raise ValueError("charges must satisfy 0 <= v_0 <= ... <= v_{d-1} < e")
        # s = max_j ceil((j*e - d*v_j) / (d*e)), which is 0 or more (j = 0)
        s = max((j * e - d * v[j] + d * e - 1) // (d * e) for j in range(d))
        scaled = tuple(d * v[j] - j * e + s * d * e for j in range(d))
        for name, value in (("d", d), ("e", e), ("v", v), ("scaled_m", scaled),
                            ("_a_weights", a_weights(d, scaled))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ChargeParams is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.d, self.e, self.v) == (other.d, other.e, other.v)

    def __hash__(self):
        return hash((self.d, self.e, self.v))

    def __repr__(self):
        return f"ChargeParams(d={self.d!r}, e={self.e!r}, v={self.v!r})"

    def __reduce__(self):
        # pickle and copy would restore the slots through __setattr__
        return ChargeParams, (self.d, self.e, self.v)

    @property
    def m(self):
        """The weights m^(j) as exact rationals."""
        from fractions import Fraction
        return tuple(Fraction(x, self.d) for x in self.scaled_m)


def residue(node: Node, p: ChargeParams) -> int:
    """Residue (b - a + v_c) mod e of a node."""
    a, b, c = node
    if not 0 <= c < p.d:
        raise ValueError(f"component index {c} out of range for d={p.d}")
    return (b - a + p.v[c]) % p.e


def check_order(order):
    """Reject anything but the two node orders; entry points call this once."""
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}")


def check_residue(i, p: ChargeParams):
    """Reject a residue outside 0..e-1; entry points call this once."""
    if not isinstance(i, int) or not 0 <= i < p.e:
        raise ValueError(f"residue must be an integer in 0..{p.e - 1}, got {i!r}")


def i_signature(mp, i, p: ChargeParams):
    """The addable and removable i-nodes of mp, lowest first in the
    diagonal order.

    One pass over the rows yields tuples (-content, comp, addable?, node),
    where content is b - a + v_c and node is a plain (row, col, comp)
    tuple, not a partitions.Node.  The end of row a has residue
    (length - a + v_c) mod e and the node after it the next residue, so a
    row gives at most one i-node (e >= 2).  The tuples are sorted once;
    (-content, comp) is unique among the i-nodes.  Neither mp nor the
    residue is checked here.
    """
    e, before = p.e, (i - 1) % p.e
    items = []
    for c, comp in enumerate(mp):
        vc, height = p.v[c], len(comp)
        for a, length in enumerate(comp, start=1):
            r = (length - a + vc) % e
            if r == i:
                if a == height or comp[a] < length:  # row a+1 is shorter
                    items.append((a - length - vc, c, False, (a, length, c)))
            elif r == before and (a == 1 or comp[a - 2] > length):  # row a-1 longer
                items.append((a - length - 1 - vc, c, True, (a, length + 1, c)))
        if (vc - height) % e == i:
            items.append((height - vc, c, True, (height + 1, 1, c)))
    items.sort()
    return items


def component_signature(comp, c, i, p: ChargeParams):
    """The i-nodes of the one component comp at index c, lowest first in the
    component-major order, each addable one with the component it makes.

    The pass of i_signature over one component's rows, with smaller items:
    (-content, c, row, new), where new is comp with the addable node added,
    or None for a removable node, whose column is comp[row - 1] (an addable
    node's is new[row - 1]).  Written with their nodes, these lists,
    concatenated over mp's components, are mp's i-nodes in the
    component-major order, and sorted by (-content, c) they are
    i_signature(mp, i, p), the diagonal order.  The items leave out
    i_signature's node tuple and addable flag because the divided powers
    keep one list per (comp, c, i) for a whole walk (fock._moves).  c is
    not checked here.
    """
    e, before, vc, height = p.e, (i - 1) % p.e, p.v[c], len(comp)
    items = []
    for a, length in enumerate(comp, start=1):
        r = (length - a + vc) % e
        if r == i:
            if a == height or comp[a] < length:  # row a+1 is shorter
                items.append((a - length - vc, c, a, None))
        elif r == before and (a == 1 or comp[a - 2] > length):  # row a-1 longer
            items.append((a - length - 1 - vc, c, a, comp[:a - 1] + (length + 1,) + comp[a:]))
    if (vc - height) % e == i:
        items.append((height - vc, c, height + 1, comp + (1,)))
    return tuple(items)


def border_signatures(mp, p: ChargeParams):
    """{i: mp's i-nodes as i_signature's items, in the component-major
    order} for every residue i with an i-node.

    The same items as i_signature, from one pass over the rows for all
    residues at once: the end of row a is removable with residue
    (length - a + v_c) mod e when row a+1 is shorter, and the node after
    it addable with the next residue when row a-1 is longer.  Each
    residue's list comes out in the component-major order, since the pass
    meets the rows in that order and a component's new-row node after its
    rows.  Its readers are the diagonal-order walks, which sort the lists
    they read; the component-major walks read am_reduced_signatures.  Only
    the residues that occur are keys, so the cost does not grow with e.
    """
    e, out = p.e, {}
    for c, comp in enumerate(mp):
        vc, height = p.v[c], len(comp)
        for a, length in enumerate(comp, start=1):
            if a == 1 or comp[a - 2] > length:  # row a-1 longer: addable
                out.setdefault((length + 1 - a + vc) % e, []).append(
                    (a - length - 1 - vc, c, True, (a, length + 1, c)))
            if a == height or comp[a] < length:  # row a+1 shorter: removable
                out.setdefault((length - a + vc) % e, []).append(
                    (a - length - vc, c, False, (a, length, c)))
        out.setdefault((vc - height) % e, []).append(
            (height - vc, c, True, (height + 1, 1, c)))
    return out


def am_reduced_signature(mp, i, p: ChargeParams):
    """The surviving addable and removable i-nodes in the component-major order.

    The i-nodes of mp, cancelled while the rows are scanned: the scan
    meets them in the order itself, so an addable i-node is pushed and a
    removable one pops the last surviving addable node, or survives if
    there is none.  The scan steps a run of equal rows at a time, since
    only its first row has an addable node and only its last a removable
    one.  Both lists come out lowest node first.
    """
    e = p.e
    addable, removable = [], []
    for c, comp in enumerate(mp):
        vc, height = p.v[c], len(comp)
        a = 1
        while a <= height:  # rows a..b have one length
            length, b = comp[a - 1], a
            while b < height and comp[b] == length:
                b += 1
            if (length + 1 - a + vc) % e == i:
                addable.append((a, length + 1, c))
            if (length - b + vc) % e == i:
                if addable:
                    addable.pop()
                else:
                    removable.append((b, length, c))
            a = b + 1
        if (vc - height) % e == i:
            addable.append((height + 1, 1, c))
    return addable, removable


def am_reduced_signatures(mp, p: ChargeParams):
    """{i: am_reduced_signature(mp, i, p)} for every residue i with an i-node.

    One pass for all residues at once, a run of equal rows at a time,
    cancelling as it scans: it meets every residue's nodes in the
    component-major order.  Only the residues that occur are keys, so the
    cost does not grow with e.
    """
    e, out = p.e, {}
    for c, comp in enumerate(mp):
        vc, height = p.v[c], len(comp)
        a = 1
        while a <= height:  # rows a..b have one length
            length, b = comp[a - 1], a
            while b < height and comp[b] == length:
                b += 1
            r = (length + 1 - a + vc) % e
            pair = out.get(r)
            if pair is None:
                out[r] = ([(a, length + 1, c)], [])
            else:
                pair[0].append((a, length + 1, c))
            r = (length - b + vc) % e
            pair = out.get(r)
            if pair is None:
                out[r] = ([], [(b, length, c)])
            elif pair[0]:
                pair[0].pop()
            else:
                pair[1].append((b, length, c))
            a = b + 1
        r = (vc - height) % e
        pair = out.get(r)
        if pair is None:
            out[r] = ([(height + 1, 1, c)], [])
        else:
            pair[0].append((height + 1, 1, c))
    return out


def is_semisimple(p: ChargeParams, n: int) -> bool:
    """Semisimplicity of the algebra on n strands at these parameters.

    Requires e > n and that no power v^k u_i with |k| < n collides with u_j.
    """
    if n <= 0:
        return True
    if p.e <= n:
        return False
    for i in range(p.d):
        for j in range(p.d):
            if i == j:
                continue
            for k in range(-(n - 1), n):
                if (k + p.v[i] - p.v[j]) % p.e == 0:
                    return False
    return True
