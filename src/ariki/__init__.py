"""Exact combinatorial representation theory of Ariki-Koike algebras at roots of unity."""

from .aseq import AGraph, a_graph, a_sequence, a_sequence_blocks, k_opt_add
from .canonical import (CanonicalBasisElement, DecompositionMatrix, canonical_basis,
                        compute_A, decomposition_matrix, simple_module_a_values)
from .charge import (ChargeParams, am_below, flotw_above, is_semisimple, residue)
from .crystal import (CrystalGraph, bijection_j, bijection_j_inverse, crystal_graph,
                      flotw_multipartitions, good_addable_node, good_removable_node,
                      is_flotw, is_kleshchev, kleshchev_multipartitions)
from .fock import FockVector, e_action, f_action, f_divided
from .laurent import LaurentPoly, gauss_binomial, gauss_factorial, gauss_number
from .partitions import (Node, addable_nodes, border_nodes, conjugate, dominates,
                         enumerate_multipartitions, format_multipartition,
                         is_e_regular, parse_multipartition, rank, removable_nodes)
from .symbols import (ShiftedSymbol, Symbol, a_value, ordinary_symbol, prec,
                      schur_valuation, shifted_symbol)
from .typeb import (a_value_typeb, canonical_basic_set_b, decomposition_matrix_b)

__version__ = "0.1.0"
