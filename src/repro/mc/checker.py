"""Error-trace extraction from a forward reachability run that hit its
target: the standard BDD backwards walk through the onion rings.

The plain COI model checker that uses it -- the Table 1 baseline RFN is
compared against -- is the ``bdd`` engine
(:class:`repro.engine.adapters.BddReachEngine`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.trace import Trace
from repro.mc.encode import SymbolicEncoding
from repro.mc.images import ImageComputer


def _extract_error_trace(
    encoding: SymbolicEncoding,
    images: ImageComputer,
    reach_result,
    target,
) -> Trace:
    """Standard BDD trace construction by backwards pre-image through the
    onion rings.  This is the step that dies on abstract models with many
    primary inputs, motivating the hybrid engine (Section 2.2)."""
    bdd = encoding.bdd
    hit = reach_result.hit_ring
    rings = reach_result.rings
    state_vars = set(encoding.current_vars)
    # Pick a total bad state in the last ring, then walk back through the
    # rings one total state at a time (completing a cube's don't-cares
    # keeps it inside the set, since skipped BDD levels are free).
    states: List[Dict[str, int]] = []
    choice = bdd.pick_cube(rings[hit] & target)
    total = _complete_state(encoding, _state_part(choice, state_vars))
    states.append(total)
    current = bdd.cube(total)
    for ring_index in range(hit - 1, -1, -1):
        pred = images.pre_image(current) & rings[ring_index]
        choice = bdd.pick_cube(pred)
        total = _complete_state(encoding, _state_part(choice, state_vars))
        current = bdd.cube(total)
        states.append(total)
    states.reverse()
    # Recover input vectors cycle by cycle: inputs consistent with the
    # transition from states[i] to states[i+1].
    inputs: List[Dict[str, int]] = []
    input_vars = list(encoding.input_vars)
    for i in range(len(states) - 1):
        constraint = bdd.cube(states[i])
        for reg, value in states[i + 1].items():
            fn = encoding.next_state_function(reg)
            constraint = constraint & (fn if value else ~fn)
        choice = bdd.pick_cube(constraint) or {}
        inputs.append(
            {n: choice.get(n, 0) for n in input_vars}
        )
    inputs.append({n: 0 for n in input_vars})
    return Trace(
        states=states,
        inputs=inputs,
        circuit_name=encoding.circuit.name,
    )


def _state_part(cube: Optional[Dict[str, int]], state_vars) -> Dict[str, int]:
    if cube is None:
        return {}
    return {k: v for k, v in cube.items() if k in state_vars}


def _complete_state(encoding: SymbolicEncoding, cube: Dict[str, int]) -> Dict[str, int]:
    """Fill unassigned registers with 0 to make the state total."""
    return {name: cube.get(name, 0) for name in encoding.current_vars}
