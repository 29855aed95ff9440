"""The BDD manager: node store, hash-consing and the classic operation set.

Design notes
------------
Nodes live in parallel arrays (``_level``, ``_low``, ``_high``) indexed by an
integer id; ids 0 and 1 are the FALSE/TRUE terminals.  Reduction is enforced
by construction (:meth:`BDD._mk` never builds a node with equal children and
hash-conses through per-level unique tables), so two equivalent functions
always have the same node id and equality is O(1).

Nodes are *mutable*: dynamic reordering relabels nodes and rebuilds
dependent nodes in place (see :mod:`repro.bdd.reorder`; an adjacent swap
never makes two distinct nodes equal, so nothing is merged).  A node id
therefore stays a stable handle for its function across reordering, and a
:class:`~repro.bdd.function.Function` simply holds the id.

Quantification sets are passed to the recursive operations as a positive
*cube node* (the conjunction of the quantified variables), built once per
public call: a recursion step skips cube levels above its top variable by
following ``high`` and keys its cache entry by the node ids alone.

Variables are identified by a stable index and positioned at a *level*;
operations compare levels, so reordering is just a permutation of the
var/level maps plus node surgery (see :mod:`repro.bdd.reorder`).
"""

from __future__ import annotations

import sys
import weakref
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.bdd.cubes import CubeMixin
from repro.bdd.function import Function
from repro.bdd.reorder import ReorderMixin
from repro.runtime.abort import NodesOut

# Deep but bounded: operation recursion depth tracks the number of levels.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))

TERMINAL_LEVEL = 1 << 30
DEAD_LEVEL = -1


class BDDError(Exception):
    """Raised for invalid BDD manager usage."""


class BDDNodeLimit(BDDError, NodesOut):
    """Raised by node allocation when ``node_limit`` is exceeded.

    Long-running clients (the reachability engine) catch this to turn a
    blowup inside a single image computation into a clean RESOURCE_OUT
    instead of an unbounded stall.  It is also a
    :class:`repro.runtime.abort.NodesOut`, so the portfolio supervisor
    contains it under the unified abort taxonomy.
    """


class BDD(CubeMixin, ReorderMixin):
    """A reduced ordered BDD manager.

    >>> bdd = BDD()
    >>> x, y = bdd.declare("x"), bdd.declare("y")
    >>> f = x & ~y
    >>> f.pick_cube()
    {'x': 1, 'y': 0}
    """

    FALSE = 0
    TRUE = 1
    #: allocations between ``checkpoint_hook`` polls -- large enough to
    #: keep ``_mk`` cheap, small enough for sub-second abort latency.
    CHECKPOINT_EVERY = 8192

    def __init__(self, var_names: Iterable[str] = ()) -> None:
        self._level: List[int] = [TERMINAL_LEVEL, TERMINAL_LEVEL]
        self._low: List[int] = [-1, -1]
        self._high: List[int] = [-1, -1]
        self._unique: List[Dict[Tuple[int, int], int]] = []
        self._var_names: List[str] = []
        self._name2var: Dict[str, int] = {}
        self._var2level: List[int] = []
        self._level2var: List[int] = []
        self._groups: List[List[int]] = []  # var-index blocks, level order
        self._var_nodes: Dict[int, int] = {}
        self._cache: Dict[tuple, int] = {}
        # Level map of a monotone rename -> small int used in cache keys,
        # so the map is hashed once per rename call, not once per node.
        self._lmap_ids: Dict[Tuple[Tuple[int, int], ...], int] = {}
        # Function is unhashable, so track handles in an id-keyed dict of
        # weak references instead of a WeakSet.
        self._handles: Dict[int, "weakref.ref[Function]"] = {}
        self._refs: Optional[List[int]] = None  # live only while reordering
        self._true = Function(self, self.TRUE)
        self._false = Function(self, self.FALSE)
        self.auto_reorder = False
        self.node_limit: Optional[int] = None  # raise BDDNodeLimit beyond
        # Cooperative cancellation: when set, called every
        # CHECKPOINT_EVERY node allocations so a runtime Budget can
        # abort an enormous image computation mid-flight.
        self.checkpoint_hook: Optional[Callable[[], None]] = None
        self._alloc_since_check = 0
        self._last_reorder_size = 1024
        for name in var_names:
            self.declare(name)

    # ------------------------------------------------------------------
    # Variables and ordering
    # ------------------------------------------------------------------

    def declare(self, name: str) -> Function:
        """Declare a new variable at the bottom of the order and return its
        literal.  Declaring an existing name returns the existing literal."""
        var = self._name2var.get(name)
        if var is None:
            var = len(self._var_names)
            level = len(self._level2var)
            self._var_names.append(name)
            self._name2var[name] = var
            self._var2level.append(level)
            self._level2var.append(var)
            self._unique.append({})
            self._groups.append([var])
            self._var_nodes[var] = self._mk(level, self.FALSE, self.TRUE)
        return self._wrap(self._var_nodes[var])

    def var(self, name: str) -> Function:
        """The literal for an already-declared variable."""
        var = self._name2var.get(name)
        if var is None:
            raise BDDError(f"undeclared variable {name!r}")
        return self._wrap(self._var_nodes[var])

    def has_var(self, name: str) -> bool:
        return name in self._name2var

    @property
    def var_count(self) -> int:
        return len(self._var_names)

    def var_order(self) -> List[str]:
        """Variable names from top level to bottom level."""
        return [self._var_names[v] for v in self._level2var]

    def level_of(self, name: str) -> int:
        var = self._name2var.get(name)
        if var is None:
            raise BDDError(f"undeclared variable {name!r}")
        return self._var2level[var]

    @property
    def true(self) -> Function:
        return self._true

    @property
    def false(self) -> Function:
        return self._false

    # ------------------------------------------------------------------
    # Node plumbing
    # ------------------------------------------------------------------

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        table = self._unique[level]
        key = (low, high)
        node = table.get(key)
        if node is None:
            node = len(self._level)
            if self.node_limit is not None and node > self.node_limit:
                raise BDDNodeLimit(
                    f"BDD node limit of {self.node_limit} exceeded"
                )
            if self.checkpoint_hook is not None:
                self._alloc_since_check += 1
                if self._alloc_since_check >= self.CHECKPOINT_EVERY:
                    self._alloc_since_check = 0
                    self.checkpoint_hook()
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
            table[key] = node
        return node

    def _wrap(self, node: int) -> Function:
        return Function(self, node)

    def _register_handle(self, handle: Function) -> None:
        key = id(handle)
        self._handles[key] = weakref.ref(
            handle, lambda _ref, key=key: self._handles.pop(key, None)
        )

    def _top_var_name(self, node: int) -> Optional[str]:
        level = self._level[node]
        if level >= TERMINAL_LEVEL:
            return None
        return self._var_names[self._level2var[level]]

    def _low_of(self, node: int) -> int:
        if node <= 1:
            raise BDDError("terminal node has no children")
        return self._low[node]

    def _high_of(self, node: int) -> int:
        if node <= 1:
            raise BDDError("terminal node has no children")
        return self._high[node]

    # ------------------------------------------------------------------
    # Core boolean operations (internal, on node ids)
    # ------------------------------------------------------------------

    def _not(self, f: int) -> int:
        if f == self.FALSE:
            return self.TRUE
        if f == self.TRUE:
            return self.FALSE
        key = ("!", f)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = self._mk(
            self._level[f], self._not(self._low[f]), self._not(self._high[f])
        )
        self._cache[key] = result
        self._cache[("!", result)] = f
        return result

    def _and(self, f: int, g: int) -> int:
        if f == self.FALSE or g == self.FALSE:
            return self.FALSE
        if f == self.TRUE:
            return g
        if g == self.TRUE or f == g:
            return f
        if f > g:
            f, g = g, f
        key = ("&", f, g)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        level, low, high = self._level, self._low, self._high
        lf, lg = level[f], level[g]
        top = lf if lf < lg else lg
        f0, f1 = (low[f], high[f]) if lf == top else (f, f)
        g0, g1 = (low[g], high[g]) if lg == top else (g, g)
        result = self._mk(top, self._and(f0, g0), self._and(f1, g1))
        self._cache[key] = result
        return result

    def _or(self, f: int, g: int) -> int:
        if f == self.TRUE or g == self.TRUE:
            return self.TRUE
        if f == self.FALSE:
            return g
        if g == self.FALSE or f == g:
            return f
        if f > g:
            f, g = g, f
        key = ("|", f, g)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        level, low, high = self._level, self._low, self._high
        lf, lg = level[f], level[g]
        top = lf if lf < lg else lg
        f0, f1 = (low[f], high[f]) if lf == top else (f, f)
        g0, g1 = (low[g], high[g]) if lg == top else (g, g)
        result = self._mk(top, self._or(f0, g0), self._or(f1, g1))
        self._cache[key] = result
        return result

    def _xor(self, f: int, g: int) -> int:
        if f == g:
            return self.FALSE
        if f == self.FALSE:
            return g
        if g == self.FALSE:
            return f
        if f == self.TRUE:
            return self._not(g)
        if g == self.TRUE:
            return self._not(f)
        if f > g:
            f, g = g, f
        key = ("^", f, g)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        level, low, high = self._level, self._low, self._high
        lf, lg = level[f], level[g]
        top = lf if lf < lg else lg
        f0, f1 = (low[f], high[f]) if lf == top else (f, f)
        g0, g1 = (low[g], high[g]) if lg == top else (g, g)
        result = self._mk(top, self._xor(f0, g0), self._xor(f1, g1))
        self._cache[key] = result
        return result

    def _ite(self, f: int, g: int, h: int) -> int:
        if f == self.TRUE:
            return g
        if f == self.FALSE:
            return h
        if g == h:
            return g
        if g == self.TRUE and h == self.FALSE:
            return f
        if g == self.FALSE and h == self.TRUE:
            return self._not(f)
        key = ("?", f, g, h)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        level, low, high = self._level, self._low, self._high
        lf, lg, lh = level[f], level[g], level[h]
        top = min(lf, lg, lh)
        f0, f1 = (low[f], high[f]) if lf == top else (f, f)
        g0, g1 = (low[g], high[g]) if lg == top else (g, g)
        h0, h1 = (low[h], high[h]) if lh == top else (h, h)
        result = self._mk(top, self._ite(f0, g0, h0), self._ite(f1, g1, h1))
        self._cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Quantification
    # ------------------------------------------------------------------

    def _exists(self, f: int, cube: int) -> int:
        """Existential quantification over the variables of the positive
        cube node ``cube``."""
        if f <= 1:
            return f
        level, high = self._level, self._high
        top = level[f]
        while level[cube] < top:  # TRUE's level is below every variable
            cube = high[cube]
        if cube == self.TRUE:
            return f
        key = ("E", f, cube)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        f0, f1 = self._low[f], high[f]
        if level[cube] == top:
            rest = high[cube]
            result = self._exists(f0, rest)
            if result != self.TRUE:
                result = self._or(result, self._exists(f1, rest))
        else:
            result = self._mk(
                top, self._exists(f0, cube), self._exists(f1, cube)
            )
        self._cache[key] = result
        return result

    def _and_exists(self, f: int, g: int, cube: int) -> int:
        """Relational product: ``exists cube . f & g`` without building the
        full conjunction first -- the workhorse of image computation."""
        if f == self.FALSE or g == self.FALSE:
            return self.FALSE
        if f == self.TRUE:
            return self._exists(g, cube)
        if g == self.TRUE or f == g:
            return self._exists(f, cube)
        if f > g:
            f, g = g, f
        level, low, high = self._level, self._low, self._high
        lf, lg = level[f], level[g]
        top = lf if lf < lg else lg
        while level[cube] < top:
            cube = high[cube]
        if cube == self.TRUE:
            return self._and(f, g)
        key = ("AE", f, g, cube)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        f0, f1 = (low[f], high[f]) if lf == top else (f, f)
        g0, g1 = (low[g], high[g]) if lg == top else (g, g)
        if level[cube] == top:
            rest = high[cube]
            result = self._and_exists(f0, g0, rest)
            if result != self.TRUE:
                result = self._or(result, self._and_exists(f1, g1, rest))
        else:
            result = self._mk(
                top,
                self._and_exists(f0, g0, cube),
                self._and_exists(f1, g1, cube),
            )
        self._cache[key] = result
        return result

    def _cube_of(self, names: Iterable[str]) -> int:
        """The positive cube node over ``names`` (duplicates allowed)."""
        node = self.TRUE
        for level in sorted({self.level_of(name) for name in names},
                            reverse=True):
            node = self._mk(level, self.FALSE, node)
        return node

    # ------------------------------------------------------------------
    # Cofactor / compose / rename
    # ------------------------------------------------------------------

    def _restrict(self, f: int, assign: Tuple[Tuple[int, int], ...]) -> int:
        """Cofactor w.r.t. a (level, value) assignment tuple sorted by level."""
        if f <= 1 or not assign:
            return f
        top = self._level[f]
        index = 0
        while index < len(assign) and assign[index][0] < top:
            index += 1
        if index:
            assign = assign[index:]
        if not assign:
            return f
        key = ("R", f, assign)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        low, high = self._low[f], self._high[f]
        if assign[0][0] == top:
            rest = assign[1:]
            child = high if assign[0][1] else low
            result = self._restrict(child, rest)
        else:
            result = self._mk(
                top, self._restrict(low, assign), self._restrict(high, assign)
            )
        self._cache[key] = result
        return result

    def _compose_one(self, f: int, level: int, g: int) -> int:
        """Substitute function ``g`` for the variable at ``level`` in ``f``."""
        if f <= 1 or self._level[f] > level:
            return f
        key = ("C", f, level, g)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        top = self._level[f]
        low, high = self._low[f], self._high[f]
        if top == level:
            result = self._ite(g, high, low)
        else:
            r0 = self._compose_one(low, level, g)
            r1 = self._compose_one(high, level, g)
            literal = self._var_nodes[self._level2var[top]]
            result = self._ite(literal, r1, r0)
        self._cache[key] = result
        return result

    def _rename_monotone(
        self, f: int, lmap: Dict[int, int], token: int
    ) -> int:
        """Relabel levels by ``lmap``; ``token`` identifies the map in
        cache keys (see :meth:`rename`)."""
        if f <= 1:
            return f
        key = ("M", f, token)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        top = self._level[f]
        result = self._mk(
            lmap.get(top, top),
            self._rename_monotone(self._low[f], lmap, token),
            self._rename_monotone(self._high[f], lmap, token),
        )
        self._cache[key] = result
        return result

    def _support_levels(self, f: int) -> Set[int]:
        support: Set[int] = set()
        seen: Set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= 1 or node in seen:
                continue
            seen.add(node)
            support.add(self._level[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        return support

    # ------------------------------------------------------------------
    # Public operation API (on Function handles)
    # ------------------------------------------------------------------

    def _node_of(self, f: Function) -> int:
        if f.bdd is not self:
            raise BDDError("function belongs to a different manager")
        return f.node

    def ite(self, f: Function, g: Function, h: Function) -> Function:
        return self._wrap(
            self._ite(self._node_of(f), self._node_of(g), self._node_of(h))
        )

    def apply(self, op: str, f: Function, g: Function) -> Function:
        ops = {"and": self._and, "or": self._or, "xor": self._xor}
        try:
            fn = ops[op]
        except KeyError:
            raise BDDError(f"unknown binary operator {op!r}") from None
        return self._wrap(fn(self._node_of(f), self._node_of(g)))

    def exists(self, names: Iterable[str], f: Function) -> Function:
        return self._wrap(self._exists(self._node_of(f), self._cube_of(names)))

    def forall(self, names: Iterable[str], f: Function) -> Function:
        inner = self._not(self._node_of(f))
        return self._wrap(
            self._not(self._exists(inner, self._cube_of(names)))
        )

    def and_exists(
        self, f: Function, g: Function, names: Iterable[str]
    ) -> Function:
        return self._wrap(
            self._and_exists(
                self._node_of(f), self._node_of(g), self._cube_of(names)
            )
        )

    def restrict(self, f: Function, assignment: Dict[str, int]) -> Function:
        assign = tuple(
            sorted((self.level_of(name), 1 if value else 0)
                   for name, value in assignment.items())
        )
        return self._wrap(self._restrict(self._node_of(f), assign))

    def compose(self, f: Function, substitutions: Dict[str, Function]) -> Function:
        """Simultaneous substitution of functions for variables.

        Implemented sequentially through fresh temporaries to preserve
        simultaneity when substituted variables appear in the substituting
        functions.
        """
        node = self._node_of(f)
        items = list(substitutions.items())
        sources = set(substitutions)
        overlap = any(sources & g.support() for _, g in items)
        if overlap:
            temps = []
            for index, (name, g) in enumerate(items):
                temp = f"_compose_tmp{index}${name}"
                self.declare(temp)
                temps.append(temp)
                node = self._compose_one(
                    node, self.level_of(name), self._node_of(self.var(temp))
                )
            for temp, (_, g) in zip(temps, items):
                node = self._compose_one(
                    node, self.level_of(temp), self._node_of(g)
                )
        else:
            for name, g in items:
                node = self._compose_one(
                    node, self.level_of(name), self._node_of(g)
                )
        return self._wrap(node)

    def rename(self, f: Function, mapping: Dict[str, str]) -> Function:
        """Rename variables.  Uses a fast structural remap when the mapping
        is monotone w.r.t. the current order (the common case when
        current/next-state variables are grouped), otherwise falls back to
        simultaneous composition with the target literals."""
        node = self._node_of(f)
        lmap = {
            self.level_of(src): self.level_of(dst)
            for src, dst in mapping.items()
        }
        support = self._support_levels(node)
        relevant = {l: lmap.get(l, l) for l in support}
        targets = list(relevant.values())
        sources = sorted(relevant)
        ordered = [relevant[l] for l in sources]
        monotone = (
            all(a < b for a, b in zip(ordered, ordered[1:]))
            and len(set(targets)) == len(targets)
        )
        if monotone:
            lkey = tuple(sorted(lmap.items()))
            token = self._lmap_ids.setdefault(lkey, len(self._lmap_ids))
            return self._wrap(self._rename_monotone(node, lmap, token))
        # General fallback: simultaneous composition with target literals
        # (handles swaps and collisions through compose's temporaries).
        return self.compose(
            f, {src: self.var(dst) for src, dst in mapping.items()}
        )

    def support(self, f: Function) -> Set[str]:
        return {
            self._var_names[self._level2var[level]]
            for level in self._support_levels(self._node_of(f))
        }

    def size(self, f: Function) -> int:
        """Node count of one function, terminals included."""
        seen: Set[int] = set()
        stack = [self._node_of(f)]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node > 1:
                stack.append(self._low[node])
                stack.append(self._high[node])
        return len(seen)

    def evaluate(self, f: Function, assignment: Dict[str, int]) -> bool:
        node = self._node_of(f)
        while node > 1:
            name = self._var_names[self._level2var[self._level[node]]]
            try:
                value = assignment[name]
            except KeyError:
                raise BDDError(
                    f"assignment misses support variable {name!r}"
                ) from None
            node = self._high[node] if value else self._low[node]
        return node == self.TRUE

    def transfer(self, f: Function) -> Function:
        """Copy ``f`` from its own manager into this one, matching
        variables by name (see :meth:`transferrer`).  Every variable in
        ``f``'s support must be declared in this manager
        (:class:`BDDError` otherwise)."""
        return self.transferrer(f.bdd)(f)

    def transferrer(self, src: "BDD") -> Callable[[Function], Function]:
        """A :meth:`transfer` from ``src`` whose calls share one memo, so
        copying many functions visits each source node once.

        When the variables the two managers share lie in the same
        relative order here (say, a saved order with new variables
        inserted), the level map is monotone and each source node is
        copied node-for-node: ``mk(level, copy(low), copy(high))`` on its
        variable's level here.  Otherwise a node becomes
        ``ite(var(name), copy(high), copy(low))``, which does not depend
        on either order.  Both give the canonical node of the function.
        """
        memo: Dict[int, int] = {self.FALSE: self.FALSE, self.TRUE: self.TRUE}
        levels: Dict[int, int] = {}  # source level -> level here
        for src_level, var in enumerate(src._level2var):
            ours = self._name2var.get(src._var_names[var])
            if ours is not None:
                levels[src_level] = self._var2level[ours]
        mapped = [levels[level] for level in sorted(levels)]
        monotone = all(a < b for a, b in zip(mapped, mapped[1:]))
        src_level_of, src_low, src_high = src._level, src._low, src._high

        def copy(node: int) -> int:
            done = memo.get(node)
            if done is not None:
                return done
            level = levels.get(src_level_of[node])
            if level is None:
                name = src._var_names[src._level2var[src_level_of[node]]]
                raise BDDError(f"undeclared variable {name!r}")
            high = copy(src_high[node])
            low = copy(src_low[node])
            if monotone:
                result = self._mk(level, low, high)
            else:
                literal = self._var_nodes[self._level2var[level]]
                result = self._ite(literal, high, low)
            memo[node] = result
            return result

        def transfer(f: Function) -> Function:
            if f.bdd is not src:
                raise BDDError("function belongs to a different manager")
            return self._wrap(copy(f.node))

        return transfer

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------

    def live_roots(self) -> List[int]:
        """Node ids of all live handles plus the variable nodes."""
        roots = set()
        for ref in list(self._handles.values()):
            handle = ref()
            if handle is not None:
                roots.add(handle.node)
        roots.update(self._var_nodes.values())
        return sorted(roots)

    def total_nodes(self) -> int:
        """Nodes currently held in the unique tables (may include garbage
        until :meth:`collect_garbage` runs)."""
        return 2 + sum(len(table) for table in self._unique)

    def collect_garbage(self) -> int:
        """Mark-and-sweep from the live handles; returns nodes reclaimed.

        Dead node slots are left in the arrays (ids are never reused) but
        removed from the unique tables and no longer found by operations.
        """
        live: Set[int] = set()
        stack = self.live_roots()
        while stack:
            node = stack.pop()
            if node <= 1 or node in live:
                continue
            live.add(node)
            stack.append(self._low[node])
            stack.append(self._high[node])
        reclaimed = 0
        for level, table in enumerate(self._unique):
            dead = [key for key, node in table.items() if node not in live]
            for key in dead:
                node = table.pop(key)
                self._level[node] = DEAD_LEVEL
                reclaimed += 1
        self._cache.clear()
        return reclaimed

    def clear_cache(self) -> None:
        self._cache.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "vars": self.var_count,
            "nodes": self.total_nodes(),
            "allocated": len(self._level),
            "cache_entries": len(self._cache),
            "handles": len(self._handles),
        }

    def __repr__(self) -> str:
        return f"BDD(vars={self.var_count}, nodes={self.total_nodes()})"
