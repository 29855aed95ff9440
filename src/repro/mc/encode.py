"""Circuit-to-BDD symbolic encoding.

Each register output gets a *current-state* variable (its own name) and a
*next-state* partner named ``<name>#next``; the pair is declared adjacently
and fused into a BDD sifting group, so dynamic reordering keeps image
renaming a monotone remap.  Primary inputs get one variable each.

The static variable order is a DFS over the next-state cones (inputs and
registers appear roughly where their logic consumes them), which is the
usual "interleaved, locality-following" starting order.  RFN passes a
saved order from the previous refinement iteration when one exists
(Section 2.2).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.bdd import BDD, Function
from repro.kernel.scache import static_order as _cached_static_order
from repro.netlist.cell import GateOp
from repro.netlist.circuit import Circuit
from repro.obs import tracer as obs

NEXT_SUFFIX = "#next"


def next_var_name(register: str) -> str:
    return register + NEXT_SUFFIX


def static_variable_order(circuit: Circuit, roots: Iterable[str] = ()) -> List[str]:
    """State/input signal names in DFS order over the combinational cones
    of the register data inputs (and any extra roots)."""
    order: List[str] = []
    seen: Set[str] = set()

    def visit(sig: str) -> None:
        stack = [sig]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            gate = circuit.gates.get(name)
            if gate is None:
                seen.add(name)
                order.append(name)
            else:
                seen.add(name)
                stack.extend(reversed(gate.inputs))

    for root in roots:
        visit(root)
    for reg_out, reg in circuit.registers.items():
        if reg_out not in seen:
            seen.add(reg_out)
            order.append(reg_out)
        visit(reg.data)
    for name in circuit.inputs:
        if name not in seen:
            seen.add(name)
            order.append(name)
    return order


class SymbolicEncoding:
    """BDD view of a circuit: variables, gate functions, next-state
    functions and initial-state predicate."""

    def __init__(
        self,
        circuit: Circuit,
        bdd: Optional[BDD] = None,
        var_order: Optional[Sequence[str]] = None,
        extra_roots: Iterable[str] = (),
        seed: Optional["SymbolicEncoding"] = None,
    ) -> None:
        """``seed`` is an encoding of an earlier, smaller model of the
        same design (the previous CEGAR iteration's): every gate function
        the two models share is copied from it instead of rebuilt.  The
        copy is node-for-node when ``var_order`` is the seed's saved
        order, since the new variables then only extend it."""
        self.circuit = circuit
        self.bdd = bdd or BDD()
        self.current_vars: List[str] = []
        self.next_vars: List[str] = []
        self.input_vars: List[str] = []
        self._functions: Dict[str, Function] = {}
        #: gate functions copied from ``seed`` / built with apply ops
        self.copied = 0
        self.built = 0
        with obs.span("mc.encode", registers=len(circuit.registers)) as phase:
            order = self._resolve_order(var_order, extra_roots)
            for name in order:
                if circuit.is_register_output(name):
                    self.bdd.declare(name)
                    self.bdd.declare(next_var_name(name))
                    self.bdd.group([name, next_var_name(name)])
                    self.current_vars.append(name)
                    self.next_vars.append(next_var_name(name))
                else:
                    self.bdd.declare(name)
                    self.input_vars.append(name)
            self._build_functions(seed)
            phase.set(copied=self.copied, built=self.built)

    def _resolve_order(
        self,
        var_order: Optional[Sequence[str]],
        extra_roots: Iterable[str],
    ) -> List[str]:
        # Memoized through the kernel's structural cache: re-encoding the
        # same (unmutated) model in a later CEGAR step skips the DFS.
        natural = _cached_static_order(
            self.circuit,
            lambda: static_variable_order(self.circuit, extra_roots),
            extra_roots,
        )
        if var_order is None:
            return natural
        # Keep the saved order for signals that still exist, then append
        # the new ones in natural position order.
        existing = set(natural)
        kept = [
            name
            for name in var_order
            if name in existing and not name.endswith(NEXT_SUFFIX)
        ]
        kept_set = set(kept)
        return kept + [name for name in natural if name not in kept_set]

    def _build_functions(self, seed: Optional["SymbolicEncoding"]) -> None:
        bdd = self.bdd
        functions = self._functions
        for name in self.circuit.inputs:
            functions[name] = bdd.var(name)
        for name in self.circuit.registers:
            functions[name] = bdd.var(name)
        shared = set() if seed is None else self._shared_gates(seed.circuit)
        copy = bdd.transferrer(seed.bdd) if shared else None
        for gate in self.circuit.topo_gates():
            if gate.output in shared:
                functions[gate.output] = copy(seed._functions[gate.output])
                self.copied += 1
            else:
                inputs = [functions[s] for s in gate.inputs]
                functions[gate.output] = self._eval_gate(gate.op, inputs)
                self.built += 1

    def _shared_gates(self, old: Circuit) -> Set[str]:
        """Gates whose whole fan-in cone is the same in ``old``: same op
        and inputs, down to leaves that are inputs or registers in both
        models -- so their functions over the same variables agree."""
        circuit = self.circuit
        shared: Set[str] = set()
        for gate in circuit.topo_gates():
            before = old.gates.get(gate.output)
            if (
                before is not None
                and before.op is gate.op
                and before.inputs == gate.inputs
                and all(
                    name in shared
                    or not (
                        circuit.is_gate_output(name)
                        or old.is_gate_output(name)
                    )
                    for name in gate.inputs
                )
            ):
                shared.add(gate.output)
        return shared

    def _eval_gate(self, op: GateOp, inputs: List[Function]) -> Function:
        bdd = self.bdd
        if op is GateOp.AND or op is GateOp.NAND:
            acc = bdd.true
            for f in inputs:
                acc = acc & f
            return ~acc if op is GateOp.NAND else acc
        if op is GateOp.OR or op is GateOp.NOR:
            acc = bdd.false
            for f in inputs:
                acc = acc | f
            return ~acc if op is GateOp.NOR else acc
        if op is GateOp.NOT:
            return ~inputs[0]
        if op is GateOp.BUF:
            return inputs[0]
        if op is GateOp.XOR or op is GateOp.XNOR:
            acc = bdd.false
            for f in inputs:
                acc = acc ^ f
            return ~acc if op is GateOp.XNOR else acc
        if op is GateOp.MUX:
            return bdd.ite(inputs[0], inputs[2], inputs[1])
        if op is GateOp.CONST0:
            return bdd.false
        if op is GateOp.CONST1:
            return bdd.true
        raise ValueError(f"unknown gate op {op!r}")  # pragma: no cover

    # ------------------------------------------------------------------

    def function_of(self, signal: str) -> Function:
        """The BDD of any signal over current-state and input variables."""
        return self._functions[signal]

    def next_state_function(self, register: str) -> Function:
        return self._functions[self.circuit.registers[register].data]

    def initial_states(self) -> Function:
        """The predicate A over current-state variables; free-init
        registers are unconstrained."""
        cube = {
            name: reg.init
            for name, reg in self.circuit.registers.items()
            if reg.init is not None
        }
        return self.bdd.cube(cube)

    def state_cube(self, assignment: Dict[str, int]) -> Function:
        """A cube over current-state (and possibly input) variables."""
        return self.bdd.cube(assignment)

    def rename_next_to_current(self, f: Function) -> Function:
        return self.bdd.rename(
            f, {next_var_name(r): r for r in self.current_vars}
        )

    def rename_current_to_next(self, f: Function) -> Function:
        return self.bdd.rename(
            f, {r: next_var_name(r) for r in self.current_vars}
        )

    def saved_order(self) -> List[str]:
        """The current variable order, restricted to current-state and
        input variables -- what RFN persists between iterations."""
        return [
            name
            for name in self.bdd.var_order()
            if not name.endswith(NEXT_SUFFIX)
        ]
