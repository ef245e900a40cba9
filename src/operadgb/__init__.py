"""Groebner bases for shuffle operads presented by generators and relations.

The package computes arity-stratified Groebner bases of shuffle operads,
counts normal monomials per arity (dimension tables), converts symmetric
operad identities to shuffle relations, re-derives special identities of
Gelfand-Dorfman algebras through a differential Poisson rewriting system,
and verifies finite-dimensional GD-algebra embeddings into differential
Poisson envelopes.
"""

from .trees import (
    GeneratorSymbol,
    Occurrence,
    ShufflePartition,
    Tree,
    TreeError,
    TreeOrder,
    all_trees,
    leaf,
    node,
    order_for,
)
from .elements import OperadElement, graft_at, shuffle_compose
from .syntax import ParseError, format_element, parse_element, parse_monomial
from .presentation import Presentation, SymmetricRelation, builtin_presentations, parse_presentation, symmetric_to_shuffle
from .groebner import GroebnerBasis, RewriteRule, buchberger, load_basis, reduce_element, save_basis
from .hilbert import DimensionTable, emit_table
from .diffpoisson import Ambiguity, RewriteContext
from .gdmodels import EnvelopeSpec, GDTable, bracket1_check, check_gd_axioms, classify_2dim, verify_embedding

__all__ = [
    "GeneratorSymbol", "Occurrence", "ShufflePartition", "Tree", "TreeError",
    "TreeOrder", "all_trees", "leaf", "node", "order_for",
    "OperadElement", "graft_at", "shuffle_compose",
    "ParseError", "format_element", "parse_element", "parse_monomial",
    "Presentation", "SymmetricRelation", "builtin_presentations",
    "parse_presentation", "symmetric_to_shuffle",
    "GroebnerBasis", "RewriteRule", "buchberger", "load_basis",
    "reduce_element", "save_basis",
    "DimensionTable", "emit_table",
    "Ambiguity", "RewriteContext",
    "EnvelopeSpec", "GDTable", "bracket1_check", "check_gd_axioms",
    "classify_2dim", "verify_embedding",
]
