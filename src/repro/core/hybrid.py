"""The BDD-ATPG hybrid engine for abstract error traces (Step 2).

When the forward fixpoint on the abstract model N intersects the target
states, RFN must produce an error trace of N.  Plain BDD pre-image on N is
hopeless when N has thousands of (pseudo) primary inputs, so the hybrid
method works on the *min-cut design* MC instead (Section 2.2):

1. pick the fattest cube ``T`` in ``B & S_k``;
2. compute ``R = S_{k-1} & preimage_MC(T)``;
3. if ``R`` has a *no-cut* cube (registers / primary inputs of N only),
   split it into the cycle's input cube and state cube; the state cube is
   the next ``T``;
4. otherwise take *min-cut* cubes of ``R`` (they assign internal signals
   of N that are MC inputs) one at a time and ask combinational ATPG for a
   consistent no-cut assignment on N;
5. repeat until cycle 0.

Because a cube of an R-BDD is closed under completing its don't-cares, any
ATPG completion consistent with a min-cut cube of R projects back into R,
so the constructed cube sequence is always satisfiable on N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.atpg.engine import AtpgOutcome, combinational_atpg
from repro.trace import Trace
from repro.mc.encode import SymbolicEncoding
from repro.mc.images import ImageComputer
from repro.mc.reach import ReachResult
from repro.mincut import MinCutResult, min_cut_design
from repro.netlist.circuit import Circuit
from repro.runtime.budget import Budget, Limits


class HybridEngineError(Exception):
    """Raised when no consistent no-cut cube can be constructed (would
    indicate a soundness bug or an exhausted cube budget)."""


@dataclass
class HybridStats:
    preimages: int = 0
    direct_no_cut: int = 0
    atpg_calls: int = 0
    atpg_conflicts: int = 0
    mincut_inputs: int = 0
    model_inputs: int = 0


@dataclass
class HybridTraceEngine:
    """Builds abstract error traces from a completed reachability run."""

    model: Circuit
    encoding: SymbolicEncoding
    images: ImageComputer
    #: combinational-ATPG caps (None: the ATPG default); not charged
    #: to ``budget``
    atpg_limits: Optional[Limits] = None
    max_cube_tries: int = 256
    #: optional runtime budget polled per pre-image step and cube try
    budget: Optional[Budget] = None
    #: route ATPG justification through the pooled incremental solver
    incremental: bool = True
    #: the min-cut of the previous, smaller abstract model, whose flow
    #: network this engine takes over (see :func:`min_cut_design`)
    previous_mincut: Optional[MinCutResult] = None

    def __post_init__(self) -> None:
        self.mincut: MinCutResult = min_cut_design(
            self.model, previous=self.previous_mincut
        )
        self.previous_mincut = None
        self.mc_encoding = SymbolicEncoding(
            self.mincut.circuit, bdd=self.encoding.bdd
        )
        self.mc_images = ImageComputer(self.mc_encoding)
        self.stats = HybridStats(
            mincut_inputs=self.mincut.num_inputs,
            model_inputs=self.model.num_inputs,
        )
        self._state_vars = set(self.encoding.current_vars)
        self._model_inputs = set(self.model.inputs)

    # ------------------------------------------------------------------

    def build_trace(self, reach: ReachResult, target) -> Trace:
        """Construct an abstract error trace from the onion rings.

        ``reach`` must have hit the target at ring ``reach.hit_ring``;
        ``target`` is the BDD of the bad states B.
        """
        if reach.hit_ring is None:
            raise ValueError("reachability result did not hit the target")
        bdd = self.encoding.bdd
        k = reach.hit_ring
        fat = bdd.shortest_cube(reach.rings[k] & target)
        if fat is None:  # pragma: no cover - guarded by hit_ring
            raise HybridEngineError("target ring is empty")
        states: List[Dict[str, int]] = [dict(fat)]
        inputs: List[Dict[str, int]] = [{}]
        current = dict(fat)
        for ring_index in range(k - 1, -1, -1):
            state_cube, input_cube = self._step_back(
                reach.rings[ring_index], current
            )
            states.append(state_cube)
            inputs.append(input_cube)
            current = state_cube
        states.reverse()
        inputs.reverse()
        # After the reversal inputs[i] is the vector recorded while
        # stepping from ring i to ring i+1, i.e. the cycle-i inputs, and
        # the final cycle carries the empty input cube.
        return Trace(states=states, inputs=inputs, circuit_name=self.model.name)

    # ------------------------------------------------------------------

    def _step_back(
        self, ring, target_cube: Dict[str, int]
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """One pre-image step on the min-cut design; returns the previous
        cycle's (state cube, input cube)."""
        bdd = self.encoding.bdd
        if self.budget is not None:
            self.budget.checkpoint(engine="hybrid")
        self.stats.preimages += 1
        t_fn = bdd.cube(target_cube)
        r = self.mc_images.pre_image_keep_inputs(t_fn) & ring
        if r.is_false:
            raise HybridEngineError(
                "empty pre-image intersection; onion rings inconsistent"
            )
        fat = bdd.shortest_cube(r)
        if self.mincut.is_no_cut_cube(fat):
            self.stats.direct_no_cut += 1
            return self._split_no_cut(fat)
        # Try min-cut cubes one at a time as combinational ATPG targets.
        for cube in itertools.islice(
            bdd.iter_cubes(r), self.max_cube_tries
        ):
            if self.budget is not None:
                self.budget.checkpoint(engine="hybrid")
            if self.mincut.is_no_cut_cube(cube):
                self.stats.direct_no_cut += 1
                return self._split_no_cut(cube)
            resolved = self._justify_min_cut_cube(cube, r)
            if resolved is not None:
                return resolved
        raise HybridEngineError(
            f"no consistent no-cut cube within {self.max_cube_tries} tries"
        )

    def _split_no_cut(
        self, cube: Dict[str, int]
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        state_cube = {
            k: v for k, v in cube.items() if k in self._state_vars
        }
        input_cube = {
            k: v for k, v in cube.items() if k in self._model_inputs
        }
        return state_cube, input_cube

    def _justify_min_cut_cube(
        self, cube: Dict[str, int], r
    ) -> Optional[Tuple[Dict[str, int], Dict[str, int]]]:
        """Combinational ATPG on N for a no-cut assignment consistent with
        a min-cut cube (Section 2.2)."""
        self.stats.atpg_calls += 1
        result = combinational_atpg(
            self.model, cube, limits=self.atpg_limits,
            incremental=self.incremental,
        )
        self.stats.atpg_conflicts += result.conflicts
        if result.outcome is not AtpgOutcome.TRACE_FOUND:
            return None
        assignment = result.assignment
        support = r.support()
        state_cube = {
            name: assignment[name]
            for name in self._state_vars
            if name in support or name in cube
        }
        input_cube = {
            name: assignment[name] for name in self._model_inputs
        }
        return state_cube, input_cube
