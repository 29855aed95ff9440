"""User-facing handle for a BDD node.

A :class:`Function` pairs a manager with a node id.  Dynamic reordering
relabels and rebuilds nodes in place without ever merging two of them, so
a node id stays a stable handle for its function and the handle reads it
directly.  Equality is semantic (same manager, same node), which the
manager's canonicity makes an O(1) id comparison.

Handles are unhashable; index dictionaries by ``Function.node``, which is
stable across reordering.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Optional

if TYPE_CHECKING:
    from repro.bdd.manager import BDD


class Function:
    """A boolean function represented as a BDD node handle."""

    __slots__ = ("bdd", "_node", "__weakref__")

    def __init__(self, bdd: "BDD", node: int) -> None:
        self.bdd = bdd
        self._node = node
        bdd._register_handle(self)

    @property
    def node(self) -> int:
        """The node id, stable across reordering."""
        return self._node

    # -- structure ------------------------------------------------------

    @property
    def is_true(self) -> bool:
        return self.node == self.bdd.TRUE

    @property
    def is_false(self) -> bool:
        return self.node == self.bdd.FALSE

    @property
    def is_constant(self) -> bool:
        return self.node <= 1

    @property
    def var(self) -> Optional[str]:
        """Name of the top variable, or ``None`` for constants."""
        return self.bdd._top_var_name(self.node)

    @property
    def low(self) -> "Function":
        return self.bdd._wrap(self.bdd._low_of(self.node))

    @property
    def high(self) -> "Function":
        return self.bdd._wrap(self.bdd._high_of(self.node))

    def size(self) -> int:
        """Number of BDD nodes (including terminals) in this function."""
        return self.bdd.size(self)

    def support(self):
        """Set of variable names the function depends on."""
        return self.bdd.support(self)

    # -- boolean algebra --------------------------------------------------

    def _coerce(self, other) -> int:
        if isinstance(other, Function):
            if other.bdd is not self.bdd:
                raise ValueError("mixing functions from different managers")
            return other.node
        if other is True or other == 1:
            return self.bdd.TRUE
        if other is False or other == 0:
            return self.bdd.FALSE
        return NotImplemented  # type: ignore[return-value]

    def __invert__(self) -> "Function":
        return self.bdd._wrap(self.bdd._not(self.node))

    def __and__(self, other) -> "Function":
        node = self._coerce(other)
        if node is NotImplemented:
            return NotImplemented
        return self.bdd._wrap(self.bdd._and(self.node, node))

    __rand__ = __and__

    def __or__(self, other) -> "Function":
        node = self._coerce(other)
        if node is NotImplemented:
            return NotImplemented
        return self.bdd._wrap(self.bdd._or(self.node, node))

    __ror__ = __or__

    def __xor__(self, other) -> "Function":
        node = self._coerce(other)
        if node is NotImplemented:
            return NotImplemented
        return self.bdd._wrap(self.bdd._xor(self.node, node))

    __rxor__ = __xor__

    def __sub__(self, other) -> "Function":
        """Set difference: ``self & ~other``."""
        node = self._coerce(other)
        if node is NotImplemented:
            return NotImplemented
        return self.bdd._wrap(self.bdd._and(self.node, self.bdd._not(node)))

    def implies(self, other: "Function") -> "Function":
        return (~self) | other

    def equiv(self, other: "Function") -> "Function":
        return ~(self ^ other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Function):
            return NotImplemented
        return self.bdd is other.bdd and self.node == other.node
    __hash__ = None  # type: ignore[assignment]

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __bool__(self) -> bool:
        raise TypeError(
            "Function truth value is ambiguous; use .is_true / .is_false "
            "or compare against bdd.true / bdd.false"
        )

    # -- evaluation & models ----------------------------------------------

    def __call__(self, assignment: Dict[str, int]) -> bool:
        """Evaluate under a (total, w.r.t. the support) assignment."""
        return self.bdd.evaluate(self, assignment)

    def sat_count(self, nvars: Optional[int] = None) -> int:
        return self.bdd.sat_count(self, nvars)

    def pick_cube(self) -> Optional[Dict[str, int]]:
        return self.bdd.pick_cube(self)

    def shortest_cube(self) -> Optional[Dict[str, int]]:
        return self.bdd.shortest_cube(self)

    def cubes(self) -> Iterator[Dict[str, int]]:
        return self.bdd.iter_cubes(self)

    def __le__(self, other) -> bool:
        """Implication test: is ``self -> other`` a tautology?"""
        node = self._coerce(other)
        if node is NotImplemented:
            return NotImplemented
        bdd = self.bdd
        return bdd._and(self.node, bdd._not(node)) == bdd.FALSE

    def __ge__(self, other) -> bool:
        """Implication test: is ``other -> self`` a tautology?"""
        node = self._coerce(other)
        if node is NotImplemented:
            return NotImplemented
        bdd = self.bdd
        return bdd._and(node, bdd._not(self.node)) == bdd.FALSE

    def __repr__(self) -> str:
        if self.is_true:
            return "Function(TRUE)"
        if self.is_false:
            return "Function(FALSE)"
        return f"Function(node={self.node}, top={self.var!r})"
