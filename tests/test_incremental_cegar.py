"""A CEGAR iteration pays only for what changed, and changes nothing else.

Three layers carry state from one abstract model to the next, each
pinned here against the from-scratch computation it replaces:

- ``Solver.absorb`` watches clean CNF clauses directly: same search as
  feeding every clause through ``add_clause``;
- a seeded ``SymbolicEncoding`` copies the shared gate functions: same
  variable order and the same BDDs as a fresh encoding;
- ``min_cut_design(previous=...)`` grows the previous flow network: same
  cut and the same min-cut circuit as a cold call, and a minimum cut.

Plus the regression pin that RFN really seeds its encodings.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RFN, RfnConfig
from repro.designs import table1_workloads
from repro.fuzz.gen import GenConfig, generate_instance
from repro.kernel.scache import clear_caches, fingerprint
from repro.mc.encode import SymbolicEncoding
from repro.mincut import free_cut_gates, min_cut_design
from repro.netlist import Circuit
from repro.netlist.cell import GateOp
from repro.netlist.ops import combinational_cone, extract_subcircuit
from repro.sat.cnf import CNF
from repro.sat.solver import Solver

# ----------------------------------------------------------------------
# absorb == add_clause
# ----------------------------------------------------------------------

NVARS = 8

literals = st.integers(1, NVARS).flatmap(
    lambda v: st.sampled_from([v, -v])
)
clauses = st.lists(literals, min_size=1, max_size=4)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("clauses"), st.lists(clauses, max_size=6)),
        st.tuples(st.just("push")),
        st.tuples(st.just("pop")),
        st.tuples(
            st.just("solve"),
            st.lists(literals, max_size=3),
            st.sampled_from([None, 2, 10]),
        ),
    ),
    max_size=14,
)


def _outcome(result):
    return (
        result.status,
        result.conflicts,
        result.decisions,
        result.propagations,
        result.model,
    )


@settings(max_examples=150, deadline=None)
@given(
    base=st.lists(clauses, min_size=1, max_size=30),
    ops=operations,
)
def test_absorb_matches_add_clause(base, ops):
    """A solver attached to a CNF and one fed clause by clause through
    ``add_clause`` make the same decisions and return the same results,
    across level-0 units, open push/pop groups and assumptions."""
    cnf = CNF()
    for _ in range(NVARS):
        cnf.new_var()
    absorbing = Solver()
    absorbing.attach(cnf)
    direct = Solver()

    def feed(batch):
        for clause in batch:
            cnf.add_clause(clause)
            direct.add_clause(clause)
        absorbing.absorb()

    def sync_vars():
        while direct.stats()["vars"] < cnf.num_vars:
            direct.new_var()

    sync_vars()
    feed(base)
    for op in ops:
        sync_vars()
        if op[0] == "clauses":
            feed(op[1])
        elif op[0] == "push":
            assert absorbing.push() == direct.push()
        elif op[0] == "pop":
            if absorbing.open_groups:
                absorbing.pop()
                direct.pop()
        else:
            _, assumptions, cap = op
            got = absorbing.solve(assumptions, max_conflicts=cap)
            want = direct.solve(assumptions, max_conflicts=cap)
            assert _outcome(got) == _outcome(want)
            if not got.is_unsat:
                # (After UNSAT, absorb stops adding clauses.)
                assert absorbing.stats() == direct.stats()


def test_absorb_copies_clauses_it_watches():
    """Watching reorders a clause's literals in place; the CNF's own
    clause lists must not move, since other solvers absorb them too."""
    cnf = CNF()
    a, b, c = (cnf.new_var() for _ in range(3))
    cnf.add_clause([a, b, c])
    cnf.add_clause([-a, -b])
    before = [list(clause) for clause in cnf.clauses]
    solver = Solver(cnf)
    assert solver.solve([-c, a]).is_sat
    assert cnf.clauses == before


# ----------------------------------------------------------------------
# Growing abstract models of fuzz designs
# ----------------------------------------------------------------------


def _growing_models(circuit, roots, order):
    """Abstract models for the kept-register prefixes of ``order``."""
    return [
        extract_subcircuit(circuit, order[:k], roots)
        for k in range(len(order) + 1)
    ]


def _instance(seed):
    instance = generate_instance(
        seed, GenConfig(min_registers=3, max_registers=5)
    )
    order = list(instance.circuit.registers)
    random.Random(seed).shuffle(order)
    return instance, order


def _shape(function):
    """The BDD as a node table in canonical DFS order -- equal tables
    mean node-identical functions, whatever the node ids."""
    bdd = function.bdd
    index = {bdd.FALSE: 0, bdd.TRUE: 1}
    table = []

    def walk(node):
        if node not in index:
            low, high = walk(bdd._low[node]), walk(bdd._high[node])
            table.append((bdd._top_var_name(node), low, high))
            index[node] = len(table) + 1
        return index[node]

    walk(function.node)
    return table


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), sift=st.lists(st.booleans(), max_size=6))
def test_seeded_encoding_equals_fresh(seed, sift):
    """Seeded from the previous model's encoding, a grown model's
    encoding has the fresh encoding's variable order, saved order and
    node-identical gate functions; only the new gates are built."""
    instance, order = _instance(seed)
    roots = instance.prop.signals()
    previous = None
    for step, model in enumerate(_growing_models(
        instance.circuit, roots, order
    )):
        saved = None if previous is None else previous.saved_order()
        fresh = SymbolicEncoding(model, var_order=saved)
        seeded = SymbolicEncoding(model, var_order=saved, seed=previous)
        assert seeded.bdd.var_order() == fresh.bdd.var_order()
        assert seeded.saved_order() == fresh.saved_order()
        for gate in model.topo_gates():
            assert _shape(seeded.function_of(gate.output)) == _shape(
                fresh.function_of(gate.output)
            )
        old_gates = 0 if previous is None else previous.circuit.num_gates
        assert seeded.copied == old_gates
        assert seeded.built == model.num_gates - old_gates
        if step < len(sift) and sift[step]:
            seeded.bdd.sift()  # the next order is a sifted one
        previous = seeded


def test_seeded_encoding_without_saved_order_still_agrees():
    """Seeded from an encoding whose order the new one does not extend
    (here: the reverse), the level map is not monotone; the copy then
    rebuilds by ite and still gives the fresh encoding's functions."""
    for seed in range(12):
        instance, order = _instance(seed)
        models = _growing_models(
            instance.circuit, instance.prop.signals(), order
        )
        for small, big in zip(models, models[1:]):
            natural = SymbolicEncoding(small).saved_order()
            previous = SymbolicEncoding(small, var_order=natural[::-1])
            fresh = SymbolicEncoding(big)
            seeded = SymbolicEncoding(big, seed=previous)
            assert seeded.copied == small.num_gates
            for gate in big.topo_gates():
                assert _shape(seeded.function_of(gate.output)) == _shape(
                    fresh.function_of(gate.output)
                )


@pytest.mark.parametrize("seed", range(25))
def test_grown_min_cut_equals_cold(seed):
    """Over a sequence of growing abstract models, the min-cut grown
    from the previous one has the cold call's cut signals and the same
    min-cut circuit."""
    instance, order = _instance(seed)
    previous = None
    for model in _growing_models(
        instance.circuit, instance.prop.signals(), order
    ):
        cold = min_cut_design(model)
        grown = min_cut_design(model, previous=previous)
        assert grown.cut_signals == cold.cut_signals
        assert grown.internal_cut_signals == cold.internal_cut_signals
        assert fingerprint(grown.circuit) == fingerprint(cold.circuit)
        previous = grown


def test_grown_min_cut_on_table1_refinements():
    """On the Table 1 designs, growing toward RFN's final abstract model
    one kept register at a time, the grown and cold min-cuts agree and
    the network is really taken over."""
    reused = 0
    for row in table1_workloads():
        clear_caches()
        result = RFN(row.circuit, row.prop, RfnConfig()).run()
        previous = None
        for model in _growing_models(
            row.circuit, row.prop.signals(), result.kept_registers
        ):
            cold = min_cut_design(model)
            network = None if previous is None else previous.network
            grown = min_cut_design(model, previous=previous)
            reused += network is not None and grown.network is network
            assert grown.cut_signals == cold.cut_signals
            assert fingerprint(grown.circuit) == fingerprint(cold.circuit)
            previous = grown
    assert reused > 0


def _random_dag(rng, inputs=3, gates=6):
    """A tiny sequential circuit with a random combinational DAG."""
    c = Circuit("dag")
    pool = [c.add_input(f"i{k}") for k in range(inputs)]
    regs = [c.add_register(f"d{k}", init=0, output=f"q{k}") for k in range(2)]
    pool.extend(regs)
    for k in range(gates):
        arity = rng.randint(1, 3)
        fanins = rng.sample(pool, min(arity, len(pool)))
        op = GateOp.BUF if arity == 1 else rng.choice(
            [GateOp.AND, GateOp.OR, GateOp.XOR]
        )
        pool.append(c.add_gate(op, fanins, output=f"g{k}"))
    for k in range(2):
        c.g_buf(rng.choice(pool[inputs:]), output=f"d{k}")
    c.validate()
    return c


def _brute_force_cut(c):
    """The fewest cuttable signals that separate the primary inputs from
    the register data inputs (FC gates and register outputs cannot be
    cut)."""
    data = [reg.data for reg in c.registers.values()]
    relevant = combinational_cone(c, data)
    fc = free_cut_gates(c)
    nodes = set(relevant)
    for gate in relevant:
        nodes.update(s for s in c.gates[gate].inputs if s not in c.registers)
    cuttable = sorted(n for n in nodes if n not in fc)
    sinks = {d for d in data if d not in c.registers}

    def separated(cut):
        stack = [n for n in nodes if c.is_input(n) and n not in cut]
        seen = set(stack)
        while stack:
            n = stack.pop()
            if n in sinks:
                return False
            for gate in relevant:
                if gate not in seen and gate not in cut and (
                    n in c.gates[gate].inputs
                ):
                    seen.add(gate)
                    stack.append(gate)
        return True

    for size in range(len(cuttable) + 1):
        for cut in itertools.combinations(cuttable, size):
            if separated(set(cut)):
                return size
    raise AssertionError("no finite cut")  # pragma: no cover


@pytest.mark.parametrize("seed", range(40))
def test_min_cut_size_is_minimum(seed):
    c = _random_dag(random.Random(seed))
    assert min_cut_design(c).num_inputs == _brute_force_cut(c)


# ----------------------------------------------------------------------
# Regression: RFN keeps seeding its encodings
# ----------------------------------------------------------------------


def test_rfn_builds_only_new_gates(traced):
    """On psh_hf, from iteration 2 on the abstract model's encoding
    (the first ``mc.encode`` of each iteration; the second encodes the
    min-cut) copies every gate of the previous model and builds only
    the gates refinement added."""
    row = {r.name: r for r in table1_workloads()}["psh_hf"]
    clear_caches()
    result = RFN(row.circuit, row.prop, RfnConfig()).run()
    records = traced.records()
    assert result.verified and len(result.iterations) >= 3
    iteration_span = {
        r["id"]: r["attrs"]["iter"]
        for r in records
        if r.get("type") == "span" and r["name"] == "rfn.iteration"
    }
    first_encode = {}
    for r in sorted(
        (r for r in records if r.get("type") == "span"),
        key=lambda r: r["ts"],
    ):
        if r["name"] == "mc.encode" and r.get("parent") in iteration_span:
            first_encode.setdefault(iteration_span[r["parent"]], r["attrs"])
    gates = {rec.index: rec.model_gates for rec in result.iterations}
    assert sorted(first_encode) == sorted(gates)
    assert first_encode[1]["copied"] == 0
    for index in sorted(gates)[1:]:
        attrs = first_encode[index]
        assert attrs["copied"] == gates[index - 1]
        assert attrs["built"] == gates[index] - gates[index - 1]


def test_report_shows_carried_over_work(traced):
    """``repro report`` on a traced run shows what the iterations
    carried over, from the program's own spans."""
    from repro.obs.report import render_report

    row = {r.name: r for r in table1_workloads()}["psh_hf"]
    clear_caches()
    RFN(row.circuit, row.prop, RfnConfig()).run()
    report = render_report(traced.records())
    section = report.split("Incremental CEGAR", 1)[1].split("\n\n")[1]
    lines = section.splitlines()
    assert lines[0].startswith("  mc.encode: ")
    assert "gates copied=" in lines[0] and "built=" in lines[0]
    assert lines[1].startswith("  mincut: ")
    assert "network reused=4 " in lines[1]
    assert lines[2].startswith("  sat.session: ")
