"""Structural operations on gate-level designs.

These implement the paper's Section 2 machinery:

- *transitive fanin* of a signal: the gates that transitively drive it
  through other gates (not registers) -- :func:`combinational_cone`,
- *cone of influence* (COI): all registers that transitively influence a set
  of signals, crossing register boundaries -- :func:`coi_registers`,
- *subcircuit extraction* for abstract models: given a set of kept
  registers, build the subcircuit containing those registers plus the
  transitive fanins of their data inputs and of the property signals, with
  the outputs of all *other* registers exposed as pseudo primary inputs --
  :func:`extract_subcircuit`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.netlist.circuit import Circuit, NetlistError


def combinational_cone(circuit: Circuit, signals: Iterable[str]) -> Set[str]:
    """Gate-output signals in the transitive fanin of ``signals``, traced
    backwards through gates only (register outputs and primary inputs stop
    the traversal).  Signals in ``signals`` that are themselves gate outputs
    are included."""
    cone: Set[str] = set()
    stack = [s for s in signals if circuit.is_gate_output(s)]
    while stack:
        sig = stack.pop()
        if sig in cone:
            continue
        cone.add(sig)
        for fanin in circuit.gates[sig].inputs:
            if circuit.is_gate_output(fanin) and fanin not in cone:
                stack.append(fanin)
    return cone


def support_of(circuit: Circuit, signals: Iterable[str]) -> Set[str]:
    """Non-gate signals (primary inputs and register outputs) on the boundary
    of the combinational cone of ``signals``.  Backed by the circuit's
    per-signal support memo, so repeated structural queries during
    abstraction refinement re-traverse nothing."""
    support: Set[str] = set()
    for sig in signals:
        support.update(circuit.support_of_signal(sig))
    return support


def coi_registers(circuit: Circuit, signals: Iterable[str]) -> Set[str]:
    """Registers in the cone of influence of ``signals``: the least set of
    registers containing every register whose output the signals (or the
    data inputs of registers already in the set) combinationally depend on,
    plus any of ``signals`` that are register outputs themselves.  Cached
    on the circuit per signal set, invalidated on mutation."""
    return set(circuit.coi_registers_of(signals))


def coi_stats(circuit: Circuit, signals: Iterable[str]) -> Tuple[int, int]:
    """(number of registers, number of gates) in the cone of influence of
    ``signals`` -- the first two columns of the paper's Tables 1 and 2."""
    sig_list = list(signals)
    regs = coi_registers(circuit, sig_list)
    roots = list(sig_list) + [circuit.registers[r].data for r in regs]
    gates = combinational_cone(circuit, roots)
    return len(regs), len(gates)


def _subcircuit_cone(
    circuit: Circuit, kept: Set[str], roots: List[str]
) -> Tuple[Set[str], Set[str]]:
    """The gate cone and the non-gate boundary signals of the abstract
    model that keeps ``kept`` (see :func:`extract_subcircuit`)."""
    for reg_out in kept:
        if not circuit.is_register_output(reg_out):
            raise NetlistError(f"{reg_out!r} is not a register output")
    cone_roots = list(roots)
    cone_roots.extend(circuit.registers[r].data for r in kept)
    gate_cone = combinational_cone(circuit, cone_roots)
    boundary: Set[str] = set()
    for sig in cone_roots:
        if not circuit.is_gate_output(sig):
            boundary.add(sig)
    for gname in gate_cone:
        for fanin in circuit.gates[gname].inputs:
            if not circuit.is_gate_output(fanin):
                boundary.add(fanin)
    return gate_cone, boundary


def subcircuit_signals(
    circuit: Circuit, kept_registers: Iterable[str], roots: Iterable[str]
) -> Set[str]:
    """The signals ``extract_subcircuit(circuit, kept_registers, roots)``
    defines, from a cone walk alone (no subcircuit is built)."""
    kept = set(kept_registers)
    gate_cone, boundary = _subcircuit_cone(circuit, kept, list(roots))
    return gate_cone | boundary | kept


def extract_subcircuit(
    circuit: Circuit,
    kept_registers: Iterable[str],
    roots: Iterable[str],
    name: Optional[str] = None,
) -> Circuit:
    """Build the abstract-model subcircuit of Section 2.1.

    The subcircuit contains the ``kept_registers`` (identified by their
    output signals), the transitive fanins (through gates) of the ``roots``
    (the signals mentioned in the property) and of the data inputs of the
    kept registers.  The outputs of registers *not* kept become primary
    inputs of the subcircuit, as do any original primary inputs in the
    cones.  Signal names are preserved, so cubes and traces of the
    subcircuit speak about the original design directly.
    """
    kept = set(kept_registers)
    root_list = [r for r in roots]
    gate_cone, boundary = _subcircuit_cone(circuit, kept, root_list)

    sub = Circuit(name or f"{circuit.name}.abs")
    # Primary inputs: every non-gate signal feeding the cone that is not a
    # kept register output.  This includes outputs of dropped registers
    # ("primary inputs of N but register outputs of M" in Figure 1).
    for sig in sorted(boundary):
        if sig in kept:
            continue
        if circuit.is_input(sig) or circuit.is_register_output(sig):
            sub.add_input(sig)
        else:
            raise NetlistError(f"unexpected boundary signal {sig!r}")

    # Gates, in the original topological order restricted to the cone.
    for gate in circuit.topo_gates():
        if gate.output in gate_cone:
            sub.add_gate(gate.op, gate.inputs, gate.output)

    # Kept registers, with their original data inputs and init values.
    for reg_out in sorted(kept):
        reg = circuit.registers[reg_out]
        if not sub.is_defined(reg.data) and reg.data not in kept:
            # Data input is outside the extracted cone only if it is a
            # non-gate signal that no gate in the cone reads; expose it.
            # (A kept register output is defined by its own add_register
            # below -- registers may feed registers directly.)
            if circuit.is_gate_output(reg.data):
                raise NetlistError(
                    f"register {reg_out!r} data {reg.data!r} missing from cone"
                )
            sub.add_input(reg.data)
        sub.add_register(reg.data, init=reg.init, output=reg_out)

    for sig in root_list:
        if sub.is_defined(sig):
            sub.mark_output(sig)
    sub.validate()
    return sub


def register_dependency_graph(circuit: Circuit) -> Dict[str, Set[str]]:
    """Map register output -> set of register outputs its next-state function
    combinationally depends on.  Used by the BFS abstraction method [8] and
    by refinement heuristics."""
    graph: Dict[str, Set[str]] = {}
    for reg_out, reg in circuit.registers.items():
        deps = {
            sig
            for sig in support_of(circuit, [reg.data])
            if circuit.is_register_output(sig)
        }
        graph[reg_out] = deps
    return graph


def transitive_fanout_signals(circuit: Circuit, signals: Iterable[str]) -> Set[str]:
    """All signals transitively driven by ``signals`` through gates and
    registers (the given signals themselves are included)."""
    fanouts = circuit.fanout_map()
    reached: Set[str] = set()
    stack = list(signals)
    while stack:
        sig = stack.pop()
        if sig in reached:
            continue
        reached.add(sig)
        stack.extend(fanouts.get(sig, ()))
    return reached
