"""Test helpers shared by several test modules."""

import pytest

from ariki._oracles import addable_i_nodes, below_key, removable_i_nodes


def _ordered_i_nodes(mp, i, s, p):
    """mp's addable and removable i-nodes as charge.i_signature's items,
    (-content, comp, addable?, node), lowest first in the diagonal order
    of the charge s, read off the oracles' residue filters: s = p.v is the
    diagonal order, _oracles.asymptotic_charge the component-major one."""
    key = below_key(s, p)
    tagged = ([(g, True) for g in addable_i_nodes(mp, i, p)]
              + [(g, False) for g in removable_i_nodes(mp, i, p)])
    tagged.sort(key=lambda item: key(item[0]))
    return [(g.row - g.col - p.v[g.comp], g.comp, is_addable, g) for g, is_addable in tagged]


@pytest.fixture
def ordered_i_nodes():
    """_ordered_i_nodes, for the tests that check a scan's node order."""
    return _ordered_i_nodes
