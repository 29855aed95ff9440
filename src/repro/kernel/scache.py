"""Cross-CEGAR structural caches.

Every RFN iteration re-derives the same structure: the abstract model is
re-extracted, re-levelized, re-encoded to CNF for each candidate register
set, and the original design is re-unrolled for every guided search.
This module memoizes the three expensive derivations behind one identity
scheme:

- **compiled circuits** (:func:`compiled`) -- the flat arrays the
  bit-parallel simulator sweeps,
- **Tseitin frame templates** (:func:`frame_template`) -- the one-frame
  CNF of a circuit with *local* variable numbering, instantiated per time
  frame by literal offsetting instead of re-walking the netlist,
- **static BDD variable orders** (:func:`static_order`).

Identity is two-level.  Within one :class:`Circuit` object, entries are
keyed by the circuit's mutation ``generation`` (a stale entry is silently
rebuilt).  Across objects, frame templates are additionally keyed by a
full structural *fingerprint*, so the models that refinement keeps
rebuilding via ``extract_subcircuit`` -- byte-for-byte identical
subcircuits in fresh ``Circuit`` shells -- hit the cache too, and a
refinement iteration only pays for the cone that actually changed
(unchanged gates re-use the shared template work through the fingerprint
hit; per-op clause shapes are shared globally).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.kernel.compile import CompiledCircuit, compile_circuit_uncached
from repro.kernel.perf import PERF
from repro.netlist.cell import GateOp
from repro.netlist.circuit import Circuit
from repro.sat.cnf import CNF

# ----------------------------------------------------------------------
# Per-circuit entries
# ----------------------------------------------------------------------


class _Entry:
    __slots__ = (
        "generation",
        "compiled",
        "frame_template",
        "fingerprint",
        "static_orders",
        "coi_circuits",
    )

    def __init__(self, generation: int) -> None:
        self.generation = generation
        self.compiled: Optional[CompiledCircuit] = None
        self.frame_template: Optional["FrameTemplate"] = None
        self.fingerprint: Optional[Tuple] = None
        self.static_orders: Dict[Tuple[str, ...], List[str]] = {}
        self.coi_circuits: Dict[Tuple[str, ...], Circuit] = {}


_ENTRIES: "weakref.WeakKeyDictionary[Circuit, _Entry]" = (
    weakref.WeakKeyDictionary()
)


def _entry(circuit: Circuit) -> _Entry:
    entry = _ENTRIES.get(circuit)
    if entry is None or entry.generation != circuit.generation:
        entry = _Entry(circuit.generation)
        _ENTRIES[circuit] = entry
    return entry


def compiled(circuit: Circuit) -> CompiledCircuit:
    """The circuit's compiled form, rebuilt only after mutation."""
    entry = _entry(circuit)
    if entry.compiled is not None:
        PERF.hit("compile")
        return entry.compiled
    PERF.miss("compile")
    with PERF.timed("kernel.compile"):
        entry.compiled = compile_circuit_uncached(circuit)
    return entry.compiled


def fingerprint(circuit: Circuit) -> Tuple:
    """A full structural key: equal fingerprints mean identical netlists
    (same inputs, same gates in the same levelized order, same registers).
    Exact tuples, not hashes, so a collision cannot corrupt an encoding."""
    entry = _entry(circuit)
    if entry.fingerprint is None:
        entry.fingerprint = (
            tuple(circuit.inputs),
            tuple(
                (g.output, g.op.value, g.inputs) for g in circuit.topo_gates()
            ),
            tuple(
                (name, reg.data, reg.init)
                for name, reg in circuit.registers.items()
            ),
        )
    return entry.fingerprint


def coi_circuit(circuit: Circuit, roots: Iterable[str]) -> Circuit:
    """The cone-of-influence subcircuit of ``roots``: every register in
    their COI kept, the rest of the design cut away.  Memoized per
    circuit generation, so a CEGAR run extracts it once; treat the
    result as read-only."""
    from repro.netlist.ops import coi_registers, extract_subcircuit

    entry = _entry(circuit)
    key = tuple(roots)
    sub = entry.coi_circuits.get(key)
    if sub is None:
        sub = extract_subcircuit(
            circuit,
            coi_registers(circuit, key),
            key,
            name=f"{circuit.name}.coi",
        )
        entry.coi_circuits[key] = sub
    return sub


# ----------------------------------------------------------------------
# Tseitin frame templates
# ----------------------------------------------------------------------


def encode_gate_cnf(cnf: CNF, gate, frame_vars: Dict[str, int]) -> None:
    """Tseitin-encode one gate over an existing variable assignment.
    Shared by the template builder and any cold-path encoder."""
    out = frame_vars[gate.output]
    ins = [frame_vars[s] for s in gate.inputs]
    op = gate.op
    if op is GateOp.AND:
        cnf.add_and(out, ins)
    elif op is GateOp.OR:
        cnf.add_or(out, ins)
    elif op is GateOp.NAND:
        aux = cnf.new_var()
        cnf.add_and(aux, ins)
        cnf.add_equiv(out, -aux)
    elif op is GateOp.NOR:
        aux = cnf.new_var()
        cnf.add_or(aux, ins)
        cnf.add_equiv(out, -aux)
    elif op is GateOp.NOT:
        cnf.add_equiv(out, -ins[0])
    elif op is GateOp.BUF:
        cnf.add_equiv(out, ins[0])
    elif op in (GateOp.XOR, GateOp.XNOR):
        acc = ins[0]
        for nxt in ins[1:]:
            parity = cnf.new_var()
            cnf.add_xor2(parity, acc, nxt)
            acc = parity
        if op is GateOp.XOR:
            cnf.add_equiv(out, acc)
        else:
            cnf.add_equiv(out, -acc)
    elif op is GateOp.MUX:
        cnf.add_mux(out, ins[0], ins[1], ins[2])
    elif op is GateOp.CONST0:
        cnf.add_unit(-out)
    elif op is GateOp.CONST1:
        cnf.add_unit(out)
    else:  # pragma: no cover - GateOp is closed
        raise ValueError(f"unknown gate op {op!r}")


class FrameTemplate:
    """One combinational time frame of a circuit in local numbering.

    Local variables run ``1..var_count``; ``slot_names[k]`` is the signal
    bound to local variable ``k + 1`` (``None`` for Tseitin auxiliaries).
    Instantiating frame ``t`` into a target CNF is a block allocation
    plus one literal-offsetting pass over the prebuilt clause list -- no
    netlist walk, no per-clause dedup work.
    """

    __slots__ = ("var_count", "slot_names", "slots", "clauses")

    def __init__(self, circuit: Circuit) -> None:
        local = CNF()
        slots: Dict[str, int] = {}
        for name in circuit.inputs:
            slots[name] = local.new_var(name)
        for name in circuit.registers:
            slots[name] = local.new_var(name)
        order = circuit.topo_gates()
        for gate in order:
            slots[gate.output] = local.new_var(gate.output)
        for gate in order:
            encode_gate_cnf(local, gate, slots)
        self.var_count = local.num_vars
        self.slot_names: List[Optional[str]] = [
            local.name_of(var) for var in range(1, local.num_vars + 1)
        ]
        self.slots = slots
        self.clauses: List[Tuple[int, ...]] = [
            tuple(clause) for clause in local.clauses
        ]

    def instantiate(self, cnf: CNF, frame: int) -> Dict[str, int]:
        """Add this frame's variables and clauses to ``cnf`` with
        ``@<frame>``-suffixed names; returns the signal -> variable map."""
        base = cnf.alloc_block(
            [
                f"{name}@{frame}" if name is not None else None
                for name in self.slot_names
            ]
        )
        cnf.add_offset_clauses(self.clauses, base)
        return {name: base + slot for name, slot in self.slots.items()}


# Cross-object template store: structurally identical circuits built by
# successive refinement iterations share one template.  Bounded LRU.
_TEMPLATES_BY_FP: "OrderedDict[Tuple, FrameTemplate]" = OrderedDict()
_TEMPLATE_LRU_SIZE = 64


def frame_template(circuit: Circuit) -> FrameTemplate:
    """The (cached) one-frame Tseitin template of ``circuit``."""
    entry = _entry(circuit)
    if entry.frame_template is not None:
        PERF.hit("frame_template")
        return entry.frame_template
    fp = fingerprint(circuit)
    template = _TEMPLATES_BY_FP.get(fp)
    if template is not None:
        _TEMPLATES_BY_FP.move_to_end(fp)
        PERF.hit("frame_template")
        entry.frame_template = template
        return template
    PERF.miss("frame_template")
    with PERF.timed("kernel.tseitin_template"):
        template = FrameTemplate(circuit)
    entry.frame_template = template
    _TEMPLATES_BY_FP[fp] = template
    while len(_TEMPLATES_BY_FP) > _TEMPLATE_LRU_SIZE:
        _TEMPLATES_BY_FP.popitem(last=False)
    return template


# ----------------------------------------------------------------------
# Incremental solver sessions
# ----------------------------------------------------------------------

# Pool of persistent Unroller+Solver pairs keyed by circuit signature:
# the structural fingerprint plus the start-state convention plus a
# caller tag for sessions that assert extra permanent constraints (the
# BMC induction loop).  Sessions are guarded (atpg.encode), so the one
# session over a property's COI circuit answers for every abstract model
# inside it -- refinement probes and guided search pick theirs by active
# register set.  The start-state convention stays in the key although
# the encoding no longer depends on it: a free-start session (the hybrid
# engine's justification calls) then never inherits learned clauses from
# initialized queries, which would steer the models it returns.  Pool
# hits hand the caller a solver whose clause database -- problem clauses
# *and* learned clauses -- survives from earlier BMC depths, ATPG
# targets and CEGAR iterations.  Generation invalidation rides on the
# fingerprint: a mutated circuit fingerprints differently, so its stale
# sessions simply age out of the LRU.
_SESSIONS: "OrderedDict[Tuple, object]" = OrderedDict()
_SESSION_LRU_SIZE = 16


def solver_session(
    circuit: Circuit,
    cycles: int = 1,
    use_initial_state: bool = True,
    initial_state=None,
    tag: Tuple = (),
):
    """The pooled incremental solver session for ``circuit``.

    Callers must express query-specific constraints as assumptions (or
    push/pop groups), never as permanent units: the session outlives the
    query and is shared by every engine asking for the same signature.
    """
    # Imported lazily: atpg.encode imports this module for its frame
    # templates, so the dependency cannot be top-level both ways.
    from repro.atpg.encode import SolverSession

    init_key = (
        None
        if initial_state is None
        else tuple(sorted(initial_state.items()))
    )
    key = (fingerprint(circuit), use_initial_state, init_key, tag)
    session = _SESSIONS.get(key)
    if session is not None:
        _SESSIONS.move_to_end(key)
        PERF.hit("solver_pool")
        session.ensure_depth(cycles)
        return session
    PERF.miss("solver_pool")
    session = SolverSession(
        circuit,
        cycles,
        use_initial_state=use_initial_state,
        initial_state=initial_state,
    )
    _SESSIONS[key] = session
    while len(_SESSIONS) > _SESSION_LRU_SIZE:
        _SESSIONS.popitem(last=False)
    return session


# ----------------------------------------------------------------------
# Static BDD variable orders
# ----------------------------------------------------------------------


def clear_caches() -> None:
    """Drop every cached entry (benchmarking and tests: forces the next
    query to take the cold path)."""
    _ENTRIES.clear()
    _TEMPLATES_BY_FP.clear()
    _SESSIONS.clear()


def static_order(
    circuit: Circuit,
    compute,
    extra_roots: Iterable[str] = (),
) -> List[str]:
    """Memoize a static variable order per (circuit, extra-roots) pair;
    ``compute`` is called on a miss (keeps this module free of BDD
    imports)."""
    entry = _entry(circuit)
    key = tuple(extra_roots)
    order = entry.static_orders.get(key)
    if order is not None:
        PERF.hit("static_order")
        return list(order)
    PERF.miss("static_order")
    order = compute()
    entry.static_orders[key] = list(order)
    return order
