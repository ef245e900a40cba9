"""Groebner bases for shuffle operads presented by generators and relations.

The package computes arity-stratified Groebner bases of shuffle operads,
counts normal monomials per arity (dimension tables), converts symmetric
operad identities to shuffle relations, re-derives special identities of
Gelfand-Dorfman algebras through a differential Poisson rewriting system,
and verifies finite-dimensional GD-algebra embeddings into differential
Poisson envelopes.

The package root re-exports nothing: import each name from its module
(``operadgb.groebner``, ``operadgb.trees`` and so on), so a process loads
only the modules it uses.
"""
