"""A from-scratch ROBDD (reduced ordered binary decision diagram) package.

The paper's symbolic engines were built on CUDD [14]; this package is the
Python substitute.  It provides:

- hash-consed reduced ordered BDDs with a mutable node store that
  reordering relabels in place, so node ids -- and the :class:`Function`
  handles user code holds -- stay valid across reordering,
- the classic operation set -- ITE, AND/OR/XOR/NOT, existential and
  universal quantification, the AND-EXISTS relational product used by image
  computation, cofactoring/restriction, composition and variable renaming,
- cube utilities -- satisfying-assignment extraction, cube enumeration,
  model counting and *fattest cube* selection (the cube with the fewest
  assignments, Section 2.2),
- dynamic variable reordering by sifting with variable *groups* (current-
  and next-state variables are sifted as a block so image renaming stays a
  level-monotone remap), plus explicit order get/set so RFN can persist the
  order across refinement iterations (Section 2.2),
- :meth:`BDD.transfer`, which copies a function from another manager by
  variable name, whatever the two managers' orders.
"""

from repro.bdd.function import Function
from repro.bdd.manager import BDD, BDDError

__all__ = ["BDD", "BDDError", "Function"]
