"""Cube and model utilities for the BDD manager (mixin).

A *cube* is a partial assignment of variables (Section 2: "a valuation of
some signals").  RFN's hybrid engine needs, beyond plain satisfying
assignments, the **fattest cube** of a set: the cube with the least number
of assignments (Section 2.2), which corresponds to the shortest root-to-TRUE
path of the BDD since skipped levels are don't-cares.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.bdd.function import Function

_INFINITY = float("inf")


class CubeMixin:
    """Cube construction, enumeration, selection and counting."""

    # These attributes/methods are provided by the BDD manager.
    FALSE: int
    TRUE: int

    def cube(self, assignment: Dict[str, int]) -> "Function":
        """Build the conjunction of literals for a partial assignment."""
        items: List[Tuple[int, int]] = [
            (self.level_of(name), 1 if value else 0)
            for name, value in assignment.items()
        ]
        items.sort(reverse=True)  # build bottom-up
        node = self.TRUE
        for level, value in items:
            if value:
                node = self._mk(level, self.FALSE, node)
            else:
                node = self._mk(level, node, self.FALSE)
        return self._wrap(node)

    def pick_cube(self, f: "Function") -> Optional[Dict[str, int]]:
        """Some satisfying cube (one root-to-TRUE path), or ``None``."""
        node = self._node_of(f)
        if node == self.FALSE:
            return None
        cube: Dict[str, int] = {}
        while node != self.TRUE:
            name = self._top_var_name(node)
            low = self._low[node]
            high = self._high[node]
            if low != self.FALSE:
                cube[name] = 0
                node = low
            else:
                cube[name] = 1
                node = high
        return cube

    def shortest_cube(self, f: "Function") -> Optional[Dict[str, int]]:
        """The *fattest* cube: a satisfying cube with the fewest literals.

        Dynamic program over the DAG: ``cost(TRUE) = 0``,
        ``cost(FALSE) = inf`` and ``cost(n) = 1 + min(cost children)``;
        the witness path is recovered greedily.
        """
        root = self._node_of(f)
        if root == self.FALSE:
            return None
        cost: Dict[int, float] = {self.TRUE: 0, self.FALSE: _INFINITY}
        stack: List[Tuple[int, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node in cost:
                continue
            low = self._low[node]
            high = self._high[node]
            if expanded:
                cost[node] = 1 + min(cost[low], cost[high])
            else:
                stack.append((node, True))
                if low not in cost:
                    stack.append((low, False))
                if high not in cost:
                    stack.append((high, False))
        cube: Dict[str, int] = {}
        node = root
        while node != self.TRUE:
            name = self._top_var_name(node)
            low = self._low[node]
            high = self._high[node]
            if cost[low] <= cost[high]:
                cube[name] = 0
                node = low
            else:
                cube[name] = 1
                node = high
        return cube

    def iter_cubes(self, f: "Function") -> Iterator[Dict[str, int]]:
        """Enumerate the satisfying cubes (one per root-to-TRUE path).

        The cubes are disjoint and their union is the function.  Skipped
        variables are omitted (don't-cares).
        """
        root = self._node_of(f)
        if root == self.FALSE:
            return
        path: List[Tuple[int, int]] = []  # (level, value) literals

        def walk(node: int) -> Iterator[Dict[str, int]]:
            if node == self.FALSE:
                return
            if node == self.TRUE:
                yield {
                    self._var_names[self._level2var[level]]: value
                    for level, value in path
                }
                return
            level = self._level[node]
            for value, child in (
                (0, self._low[node]),
                (1, self._high[node]),
            ):
                path.append((level, value))
                yield from walk(child)
                path.pop()

        yield from walk(root)

    def sat_count(self, f: "Function", nvars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``nvars`` variables
        (default: all declared variables)."""
        total_levels = len(self._level2var)
        if nvars is None:
            nvars = total_levels
        if nvars < total_levels:
            raise ValueError(
                f"nvars={nvars} is smaller than the declared variable "
                f"count {total_levels}"
            )
        root = self._node_of(f)

        def clamp(level: int) -> int:
            return min(level, total_levels)

        counts: Dict[int, int] = {self.TRUE: 1, self.FALSE: 0}
        stack: List[Tuple[int, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node in counts:
                continue
            low = self._low[node]
            high = self._high[node]
            if expanded:
                level = self._level[node]
                counts[node] = counts[low] * (
                    1 << (clamp(self._level[low]) - level - 1)
                ) + counts[high] * (
                    1 << (clamp(self._level[high]) - level - 1)
                )
            else:
                stack.append((node, True))
                if low not in counts:
                    stack.append((low, False))
                if high not in counts:
                    stack.append((high, False))
        top = clamp(self._level[root])
        return counts[root] * (1 << top) * (1 << (nvars - total_levels))

    def project_states(
        self, f: "Function", names: List[str]
    ) -> Iterator[Tuple[int, ...]]:
        """Enumerate total valuations of ``names`` consistent with ``f``
        after existentially quantifying every other variable.

        This is the projection RFN's coverage-state analysis performs on
        the forward fixpoint (Section 3).
        """
        keep = set(names)
        others = [name for name in self.var_order() if name not in keep]
        projected = self.exists(others, f)
        for cube in self.iter_cubes(projected):
            free = [name for name in names if name not in cube]
            base = tuple(cube.get(name, 0) for name in names)
            for mask in range(1 << len(free)):
                values = dict(cube)
                for bit, name in enumerate(free):
                    values[name] = (mask >> bit) & 1
                yield tuple(values[name] for name in names)
