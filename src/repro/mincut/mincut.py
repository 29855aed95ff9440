"""Free-cut and min-cut subcircuit extraction on netlists.

Terminology from Section 2.2 / [8]:

- The **free-cut design** FC of an abstract model N contains the registers
  of N plus the gates in the intersection of the transitive fanin and the
  transitive fanout of the registers -- i.e. the gates lying on
  register-to-register combinational paths.

- The **min-cut design** MC is a subcircuit of N that includes FC and has
  the smallest number of primary inputs.  We find it as a minimum vertex
  cut separating N's primary inputs from FC in the combinational DAG:
  every cuttable signal is split into in/out halves of capacity 1, FC
  gates get infinite capacity, and the saturated split edges of a maximum
  flow give the cut signals, which become MC's primary inputs.

Pre-image computation on MC instead of N is what makes the paper's hybrid
engine feasible: "min-cut subcircuits of abstract models that contain
thousands of primary inputs tend to contain less than a couple hundred
primary inputs".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.mincut.maxflow import INF, FlowNetwork
from repro.netlist.circuit import Circuit
from repro.netlist.ops import combinational_cone
from repro.obs import tracer as obs


def free_cut_gates(circuit: Circuit) -> Set[str]:
    """Gates on register-to-register combinational paths (FC gates)."""
    data_inputs = [reg.data for reg in circuit.registers.values()]
    fanin = combinational_cone(circuit, data_inputs)
    # Forward sweep from register outputs through gates only.
    fanout: Set[str] = set()
    reg_outputs = set(circuit.registers)
    for gate in circuit.topo_gates():
        if any(
            s in reg_outputs or s in fanout for s in gate.inputs
        ):
            fanout.add(gate.output)
    return fanin & fanout


class CutNetwork:
    """The vertex-split flow network of a min-cut, kept with its maximum
    flow so that the next, larger abstract model can grow it in place.

    Every cuttable signal is an ``in`` node (id ``k``) and an ``out`` node
    (id ``k + 1``) joined by its split arc: capacity 1, or ``INF`` for FC
    gates.  Primary inputs hang off the source, register data inputs
    feed the sink, and each fanin wire of a cone gate is an ``INF`` arc.
    """

    def __init__(self) -> None:
        self.net = FlowNetwork()
        self.source = self.net.add_node()
        self.sink = self.net.add_node()
        #: cuttable signal -> its in node (the out node is in + 1)
        self.node: Dict[str, int] = {}
        #: cuttable signal -> its split arc
        self.split: Dict[str, int] = {}
        #: cuttable signal -> its gate's (op, inputs); None for inputs
        self.defs: Dict[str, Optional[Tuple]] = {}
        self.linked: Set[str] = set()  # gates whose fanin arcs exist
        self.fc: Set[str] = set()  # signals with an INF split arc
        self.sinks: Set[str] = set()  # signals with a sink arc
        self.registers: Set[str] = set()

    def _stale(
        self,
        circuit: Circuit,
        relevant: Set[str],
        fc_gates: Set[str],
        sinks: Set[str],
    ) -> Optional[List[str]]:
        """The signals that became register outputs, or ``None`` when
        the network cannot grow into ``circuit``'s: its part of the cone
        changed (a signal's definition, a cone gate, an FC gate or a
        sink was lost, or a register went away)."""
        if not self.registers <= set(circuit.registers):
            return None
        if not (
            self.linked <= relevant
            and self.fc <= fc_gates
            and self.sinks <= sinks
        ):
            return None
        removed: List[str] = []
        for sig, definition in self.defs.items():
            if circuit.is_register_output(sig):
                if definition is not None:
                    return None
                removed.append(sig)
                continue
            gate = circuit.gates.get(sig)
            if gate is None:
                if definition is not None or not circuit.is_input(sig):
                    return None
            elif definition != (gate.op, gate.inputs):
                return None
        return removed

    def grow(self, circuit: Circuit) -> bool:
        """Make this the network of ``circuit``, keeping the flow on every
        path that still exists; returns False (and changes nothing) when
        the network cannot grow into it."""
        data_inputs = [reg.data for reg in circuit.registers.values()]
        relevant = combinational_cone(circuit, data_inputs)
        fc_gates = free_cut_gates(circuit)
        sinks = {d for d in data_inputs if not circuit.is_register_output(d)}
        removed = self._stale(circuit, relevant, fc_gates, sinks)
        if removed is None:
            return False
        net = self.net
        for sig in removed:
            in_node = self.node.pop(sig)
            net.withdraw(in_node)
            net.withdraw(in_node + 1)
            del self.split[sig], self.defs[sig]
        for sig in fc_gates - self.fc:
            arc = self.split.get(sig)
            if arc is not None:
                net.add_capacity(arc, INF - 1)
        self.fc = fc_gates
        self.registers = set(circuit.registers)

        node = self.node

        def add_signal(sig: str) -> int:
            in_node = node.get(sig)
            if in_node is None:
                in_node = net.add_node()
                net.add_node()
                node[sig] = in_node
                self.split[sig] = net.add_arc(
                    in_node, in_node + 1, INF if sig in fc_gates else 1
                )
                gate = circuit.gates.get(sig)
                if gate is None:
                    self.defs[sig] = None
                    net.add_arc(self.source, in_node, INF)
                else:
                    self.defs[sig] = (gate.op, gate.inputs)
            return in_node

        for gate in circuit.topo_gates():
            out = gate.output
            if out not in relevant or out in self.linked:
                continue
            gate_in = add_signal(out)
            for fanin in gate.inputs:
                if fanin in self.registers:
                    continue  # register outputs live inside MC
                net.add_arc(add_signal(fanin) + 1, gate_in, INF)
            self.linked.add(out)
        for data in data_inputs:
            if data in sinks and data not in self.sinks:
                net.add_arc(add_signal(data) + 1, self.sink, INF)
                self.sinks.add(data)
        return True

    def cut(self) -> Set[str]:
        """Augment to a maximum flow; returns the cut signals: those whose
        in node the source reaches in the residual graph and whose out
        node it does not."""
        self.net.augment(self.source, self.sink)
        seen = self.net.residual_reach(self.source)
        return {
            sig
            for sig, in_node in self.node.items()
            if seen[in_node] and not seen[in_node + 1]
        }


@dataclass
class MinCutResult:
    """Outcome of min-cut extraction.

    ``circuit`` is the min-cut design MC (same signal names as N);
    ``cut_signals`` are MC's primary inputs;
    ``internal_cut_signals`` are the cut signals that are *internal* (gate
    output) signals of N -- assignments to these are what makes a cube a
    "min-cut cube" in Figure 1.  ``network`` is the flow network behind
    the cut, until a later :func:`min_cut_design` call takes it over.
    """

    circuit: Circuit
    cut_signals: List[str]
    internal_cut_signals: Set[str]
    network: Optional[CutNetwork] = field(
        default=None, repr=False, compare=False
    )

    @property
    def num_inputs(self) -> int:
        return len(self.cut_signals)

    def is_no_cut_cube(self, cube: Dict[str, int]) -> bool:
        """Figure 1: a cube is *no-cut* when it only assigns registers or
        primary inputs of the abstract model N."""
        return not any(name in self.internal_cut_signals for name in cube)


def min_cut_design(
    circuit: Circuit,
    name: str = "",
    previous: Optional[MinCutResult] = None,
) -> MinCutResult:
    """Extract the min-cut design MC of ``circuit`` (the abstract model N).

    MC always contains every register of N; its primary inputs are the cut
    signals.  If N has no registers the result degenerates to an empty
    design with no inputs.

    ``previous`` is the min-cut of an earlier, smaller abstract model of
    the same design.  Its network is taken over and grown in place when
    its part of the cone is unchanged: paths through signals that became
    registers are withdrawn, the rest of the flow is kept and augmented.
    The cut is the same as a cold call's, because the residual graph's
    source side is the same for every maximum flow.
    """
    network = previous.network if previous is not None else None
    with obs.span("mincut") as phase:
        reused = network is not None and network.grow(circuit)
        if not reused:
            network = CutNetwork()
            network.grow(circuit)
        if previous is not None:
            previous.network = None
        cut_set = network.cut()
        phase.set(reused=reused, cut_inputs=len(cut_set))
        return _min_cut_circuit(circuit, cut_set, name, network)


def _min_cut_circuit(
    circuit: Circuit, cut_set: Set[str], name: str, network: CutNetwork
) -> MinCutResult:
    data_inputs = [reg.data for reg in circuit.registers.values()]
    # MC gates: gates of the relevant cone on the sink side of the cut,
    # found backwards from the register data inputs, stopping at the cut.
    mc_gates: Set[str] = set()
    stack = [
        d for d in data_inputs
        if circuit.is_gate_output(d) and d not in cut_set
    ]
    while stack:
        sig = stack.pop()
        if sig in mc_gates or sig in cut_set:
            continue
        gate = circuit.gates.get(sig)
        if gate is None:
            continue
        mc_gates.add(sig)
        for fanin in gate.inputs:
            if fanin not in cut_set and circuit.is_gate_output(fanin):
                stack.append(fanin)

    mc = Circuit(name or f"{circuit.name}.mincut")
    boundary: Set[str] = set(cut_set)
    for gate_out in mc_gates:
        for fanin in circuit.gates[gate_out].inputs:
            if fanin not in mc_gates and not circuit.is_register_output(fanin):
                boundary.add(fanin)
    for data in data_inputs:
        if (
            data not in mc_gates
            and not circuit.is_register_output(data)
        ):
            boundary.add(data)
    for sig in sorted(boundary):
        mc.add_input(sig)
    for gate in circuit.topo_gates():
        if gate.output in mc_gates:
            mc.add_gate(gate.op, gate.inputs, gate.output)
    for reg_out, reg in circuit.registers.items():
        mc.add_register(reg.data, init=reg.init, output=reg_out)
    mc.validate()

    internal = {
        sig for sig in mc.inputs if circuit.is_gate_output(sig)
    }
    return MinCutResult(
        circuit=mc,
        cut_signals=list(mc.inputs),
        internal_cut_signals=internal,
        network=network,
    )
