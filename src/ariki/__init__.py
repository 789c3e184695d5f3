"""Exact combinatorial representation theory of Ariki-Koike algebras at roots of unity."""

from .aseq import AGraph, a_graph, a_sequence, a_sequence_blocks, k_opt_add, peel_step
from .canonical import (CanonicalBasisElement, DecompositionMatrix, canonical_basis,
                        decomposition_matrix, simple_module_a_values)
from .charge import ChargeParams, is_semisimple, residue
from .crystal import (CrystalGraph, bijection_j, bijection_j_inverse, crystal_bijection,
                      crystal_graph, flotw_multipartitions, good_addable_node,
                      good_removable_node, is_flotw, is_kleshchev,
                      kleshchev_multipartitions)
from .fock import FockVector, f_divided
from .laurent import LaurentPoly
from .partitions import (Node, addable_nodes, enumerate_multipartitions,
                         format_multipartition, is_e_regular, parse_multipartition,
                         rank, removable_nodes)
from .symbols import ShiftedSymbol, Symbol, a_value, ordinary_symbol, shifted_symbol
from .typeb import (a_value_typeb, canonical_basic_set_b, decomposition_matrix_b)

__version__ = "0.1.0"


def __getattr__(name):
    # compute_A is a test oracle, not pipeline: it is served from
    # ariki._oracles on first access (perfbench/workloads.py imports it from
    # the package for its replay), so importing the package loads no oracle
    if name == "compute_A":
        from ._oracles import compute_A
        return compute_A
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
