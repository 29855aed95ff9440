"""Time-frame expansion: Tseitin encoding of a circuit into CNF.

Frame ``t`` holds one CNF variable per circuit signal, named
``"<signal>@<t>"``.  Register semantics connect frames: the register output
variable at frame ``t + 1`` is equivalent to its data input variable at
frame ``t``.  With a single frame and no initial-state constraint the
encoding is the plain combinational view in which register outputs act as
free pseudo-inputs -- exactly what combinational ATPG needs.

A *guarded* unrolling (the one every :class:`SolverSession` builds)
instead conditions each register's transition and initial-value clauses
on a per-register activation literal, and the initial-value clauses on
one more init literal.  A query then selects an abstract model by the
registers it activates: active registers follow their next-state
function, inactive ones are free in every frame -- exactly the
pseudo-inputs of the subcircuit ``extract_subcircuit`` would build for
that register set (Section 2.1).

The per-frame clauses come from the kernel's cached
:class:`~repro.kernel.scache.FrameTemplate`: the circuit's one-frame CNF
is derived once (per structural fingerprint, shared across the identical
models that CEGAR iterations keep rebuilding) and each time frame is
instantiated by offsetting the template's literals.  Variable numbering
and clause order are byte-identical to a cold gate-by-gate encoding.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.kernel.perf import PERF
from repro.kernel.scache import frame_template
from repro.netlist.circuit import Circuit
from repro.obs import tracer as obs
from repro.sat.cnf import CNF
from repro.sat.solver import SatResult, Solver


class Unroller:
    """CNF encoding of ``cycles`` time frames of a circuit.

    Parameters
    ----------
    circuit:
        The gate-level design.
    cycles:
        Number of time frames (>= 1).
    use_initial_state:
        When true (default), registers are constrained to their declared
        initial values at frame 0; registers with a free initial value
        (``init=None``) stay unconstrained.  Pass ``False`` to leave the
        whole initial state free (combinational ATPG), or pass an explicit
        state via ``initial_state`` to start elsewhere.
    initial_state:
        Optional explicit (partial) initial state overriding the declared
        init values.
    guarded:
        Condition the register clauses on activation literals (see the
        module docstring).  The initial-value clauses are then encoded
        whatever ``use_initial_state`` says; the query decides whether to
        assume :attr:`init_lit`.
    """

    def __init__(
        self,
        circuit: Circuit,
        cycles: int,
        use_initial_state: bool = True,
        initial_state: Optional[Mapping[str, int]] = None,
        guarded: bool = False,
    ) -> None:
        if cycles < 1:
            raise ValueError("cycles must be >= 1")
        self.circuit = circuit
        self.cycles = cycles
        self.cnf = CNF()
        self._vars: List[Dict[str, int]] = []
        self._template = frame_template(circuit)
        self.guarded = guarded
        self._act: Dict[str, int] = {}
        init = self.initial_values(circuit, use_initial_state or guarded,
                                   initial_state)
        with PERF.timed("kernel.unroll"):
            self._append_frame(0)
            if guarded:
                # Allocated after frame 0 so that a one-frame query sees
                # the same frame numbering as an unguarded encoding.
                self.all_lit = self.cnf.new_var("@all")
                self.init_lit = self.cnf.new_var("@init")
                for name in circuit.registers:
                    act = self.cnf.new_var(f"{name}@act")
                    self._act[name] = act
                    self.cnf.add_implies(self.all_lit, act)
                for name, value in init.items():
                    self.cnf.add_clause(
                        [-self.init_lit, -self._act[name],
                         self.lit(name, 0, value)]
                    )
            for frame in range(1, cycles):
                self._append_frame(frame)
        if not guarded:
            for name, value in init.items():
                self.cnf.add_unit(self.lit(name, 0, value))

    @staticmethod
    def initial_values(
        circuit: Circuit,
        use_initial_state: bool = True,
        initial_state: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, int]:
        """The frame-0 register values a query constrains: the explicit
        ``initial_state`` if given, else the declared init values when
        ``use_initial_state``, else none."""
        if initial_state is not None:
            for name in initial_state:
                if not circuit.is_register_output(name):
                    raise ValueError(f"{name!r} is not a register output")
            return {name: int(value) for name, value in initial_state.items()}
        if not use_initial_state:
            return {}
        return {
            name: reg.init
            for name, reg in circuit.registers.items()
            if reg.init is not None
        }

    # ------------------------------------------------------------------

    def _append_frame(self, frame: int) -> None:
        frame_vars = self._template.instantiate(self.cnf, frame)
        self._vars.append(frame_vars)
        if frame > 0:
            previous = self._vars[frame - 1]
            for name, reg in self.circuit.registers.items():
                if self.guarded:
                    self._add_transition(
                        self._act[name], frame_vars[name], previous[reg.data]
                    )
                else:
                    self.cnf.add_equiv(frame_vars[name], previous[reg.data])

    def _add_transition(self, act: int, out: int, data: int) -> None:
        """``act -> (out <-> data)``: one register's guarded transition."""
        self.cnf.add_clause([-act, -out, data])
        self.cnf.add_clause([-act, out, -data])

    def act_lit(self, register: str) -> int:
        """The activation literal of a register (guarded unrollings)."""
        return self._act[register]

    def extend_to(self, cycles: int) -> int:
        """Grow the unrolling to ``cycles`` time frames, appending only
        the missing frames' clauses (the initial-state constraint on
        frame 0 is untouched).  Returns the number of frames appended;
        shrinking is not supported (a request below the current depth is
        a no-op)."""
        if cycles <= self.cycles:
            return 0
        appended = cycles - self.cycles
        with PERF.timed("kernel.unroll"):
            for frame in range(self.cycles, cycles):
                self._append_frame(frame)
        self.cycles = cycles
        PERF.bump("unroll.frames_appended", appended)
        return appended

    def lit(self, signal: str, cycle: int, value: int = 1) -> int:
        """CNF literal asserting ``signal`` has ``value`` at ``cycle``."""
        try:
            var = self._vars[cycle][signal]
        except (IndexError, KeyError):
            raise KeyError(f"no encoding for {signal!r} at cycle {cycle}") from None
        return var if value else -var

    def has_signal(self, signal: str, cycle: int = 0) -> bool:
        return 0 <= cycle < self.cycles and signal in self._vars[cycle]

    def cube_lits(self, cube: Mapping[str, int], cycle: int) -> List[int]:
        """Literals asserting a cube at a given cycle; signals without an
        encoding (not in this circuit) raise ``KeyError``."""
        return [self.lit(name, cycle, value) for name, value in cube.items()]

    def decode_frame(
        self, model: Mapping[int, bool], cycle: int
    ) -> Dict[str, int]:
        """Extract the valuation of every signal at a cycle from a model."""
        return {
            name: int(model.get(var, False))
            for name, var in self._vars[cycle].items()
        }

    def decode_inputs(
        self, model: Mapping[int, bool], cycle: int
    ) -> Dict[str, int]:
        return {
            name: int(model.get(self._vars[cycle][name], False))
            for name in self.circuit.inputs
        }

    def decode_state(
        self, model: Mapping[int, bool], cycle: int
    ) -> Dict[str, int]:
        return {
            name: int(model.get(self._vars[cycle][name], False))
            for name in self.circuit.registers
        }


class SolverSession:
    """A persistent :class:`Unroller` + :class:`Solver` pair.

    This is the single-instance incremental formulation (see PAPERS.md,
    Een-Mishchenko-Amla): one growing unrolling, one solver that absorbs
    only the newly appended frames, queries expressed as assumptions so
    nothing query-specific pollutes the clause database, and learned
    clauses inherited by every later query.  Sessions are pooled across
    BMC depths, ATPG targets and CEGAR iterations by
    :func:`repro.kernel.scache.solver_session`.

    Queries that genuinely need temporary *clauses* (the certifier's
    BDD-invariant Tseitin encodings) wrap them in
    ``solver.push()``/``solver.pop()`` activation groups.

    Growing the unrolling beyond a query's depth is sound and complete
    for that query: the transition function is total, so frames past the
    queried prefix never constrain it.

    The unrolling is guarded (see the module docstring): every query
    names its abstract model through ``active``, the registers that
    follow their next-state function (``None`` -- every register).  The
    rest act as pseudo-inputs, so one session over a cone-of-influence
    circuit answers for every abstract model inside it, and what a query
    learns is a consequence of the guarded clauses, valid for all of
    them.
    """

    def __init__(
        self,
        circuit: Circuit,
        cycles: int = 1,
        use_initial_state: bool = True,
        initial_state: Optional[Mapping[str, int]] = None,
    ) -> None:
        with obs.span(
            "sat.session", gates=circuit.num_gates, cycles=cycles
        ) as phase:
            self.unroller = Unroller(
                circuit,
                cycles,
                initial_state=initial_state,
                guarded=True,
            )
            self.solver = Solver()
            self.solver.attach(self.unroller.cnf)
            self.solver.absorb()
            phase.set(clauses=self.solver.num_clauses)
        #: whether queries assume the unroller's init literal
        self.initialized = use_initial_state or initial_state is not None
        self.queries = 0
        #: caller scratch for monotone bookkeeping (the incremental BMC
        #: induction loop records which frames already carry not-bad and
        #: uniqueness constraints here)
        self.meta: Dict[str, int] = {}
        self._prefixes = 0

    @property
    def circuit(self) -> Circuit:
        return self.unroller.circuit

    @property
    def cnf(self) -> CNF:
        return self.unroller.cnf

    @property
    def cycles(self) -> int:
        return self.unroller.cycles

    def ensure_depth(self, cycles: int) -> None:
        """Grow to at least ``cycles`` frames and sync the solver."""
        self.unroller.extend_to(cycles)
        self.solver.absorb()

    def fresh_prefix(self, stem: str) -> str:
        """A session-unique name prefix for auxiliary CNF variables
        (push/pop queries re-encode under fresh names each time)."""
        self._prefixes += 1
        return f"{stem}#{self._prefixes}"

    def activation(self, active: Optional[Iterable[str]] = None) -> List[int]:
        """Assumption literals selecting the abstract model whose kept
        registers are ``active`` (``None`` -- all of them), plus the init
        literal when the session starts from the initial state.  Ordered
        by the circuit's register order, so a query's assumptions never
        depend on set iteration order."""
        unroller = self.unroller
        if active is None:
            lits = [unroller.all_lit]
        else:
            chosen = set(active)
            unknown = chosen.difference(self.circuit.registers)
            if unknown:
                raise KeyError(
                    f"active registers not in circuit "
                    f"{self.circuit.name!r}: {sorted(unknown)}"
                )
            lits = [
                unroller.act_lit(name)
                for name in self.circuit.registers
                if name in chosen
            ]
        if self.initialized:
            lits.append(unroller.init_lit)
        return lits

    def solve(
        self,
        assumptions: Sequence[int] = (),
        active: Optional[Iterable[str]] = None,
        **kwargs,
    ) -> SatResult:
        """Solve under assumptions on the abstract model ``active``
        selects, accounting reuse to the kernel perf counters: from the
        second query on, every problem clause already in the solver is
        one the caller did not re-encode, and every retained learned
        clause is inherited search effort."""
        self.solver.absorb()
        self.queries += 1
        if self.queries > 1:
            PERF.bump("sat.clauses_reused", self.solver.num_clauses)
            PERF.bump("sat.learned_retained", self.solver.num_learned)
        return self.solver.solve(
            assumptions=self.activation(active) + list(assumptions), **kwargs
        )
