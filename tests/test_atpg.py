"""Tests for the Tseitin encoder and the ATPG engines."""

import pytest

from repro.atpg import (
    AtpgOutcome,
    Unroller,
    combinational_atpg,
    sequential_atpg,
)
from repro.netlist import Circuit
from repro.netlist.words import WordReg, w_eq_const, w_inc
from repro.runtime.budget import Limits
from repro.sat import Solver
from repro.sim import Simulator


def counter(width=4):
    """A free-running counter with a target signal at value 2**width - 3."""
    c = Circuit("cnt")
    cnt = WordReg(c, "cnt", width, init=0)
    nxt, _ = w_inc(c, cnt.q)
    cnt.drive(nxt)
    c.g_buf(w_eq_const(c, cnt.q, (1 << width) - 3), output="hit")
    c.validate()
    return c


def toggler():
    c = Circuit("toggler")
    en = c.add_input("en")
    q = c.add_register("d", init=0, output="q")
    nq = c.g_not(q, output="nq")
    c.g_mux(en, q, nq, output="d")
    c.validate()
    return c


class TestUnroller:
    def test_single_frame_vars(self):
        c = toggler()
        u = Unroller(c, 1)
        assert u.has_signal("q", 0)
        assert u.has_signal("en", 0)
        assert not u.has_signal("q", 1)
        with pytest.raises(KeyError):
            u.lit("q", 3)

    def test_initial_state_applied(self):
        c = toggler()
        u = Unroller(c, 1)
        solver = Solver(u.cnf)
        result = solver.solve()
        assert result.model[abs(u.lit("q", 0))] is False

    def test_initial_state_override(self):
        c = toggler()
        u = Unroller(c, 1, initial_state={"q": 1})
        result = Solver(u.cnf).solve()
        assert result.model[abs(u.lit("q", 0))] is True

    def test_initial_state_override_validates(self):
        c = toggler()
        with pytest.raises(ValueError):
            Unroller(c, 1, initial_state={"en": 1})

    def test_free_initial_state(self):
        c = toggler()
        u = Unroller(c, 1, use_initial_state=False)
        solver = Solver(u.cnf)
        assert solver.solve(assumptions=[u.lit("q", 0)]).is_sat
        assert solver.solve(assumptions=[-u.lit("q", 0)]).is_sat

    def test_transition_connects_frames(self):
        c = toggler()
        u = Unroller(c, 3)
        solver = Solver(u.cnf)
        # en=1 at cycle 0 forces q=1 at cycle 1.
        result = solver.solve(assumptions=[u.lit("en", 0)])
        assert result.is_sat
        assert result.model[abs(u.lit("q", 1))] is True

    def test_cube_lits(self):
        c = toggler()
        u = Unroller(c, 2)
        lits = u.cube_lits({"en": 1, "q": 0}, 1)
        assert set(lits) == {u.lit("en", 1), -abs(u.lit("q", 1))}

    def test_zero_cycles_rejected(self):
        with pytest.raises(ValueError):
            Unroller(toggler(), 0)


class TestSequentialAtpg:
    def test_counter_reaches_target_at_exact_depth(self):
        c = counter(4)
        target_cycle = 13  # counter value 13 at cycle 13 (0-based)
        result = sequential_atpg(c, target_cycle + 1, {target_cycle: {"hit": 1}})
        assert result.outcome is AtpgOutcome.TRACE_FOUND
        assert result.trace.length == target_cycle + 1

    def test_counter_cannot_reach_target_early(self):
        c = counter(4)
        result = sequential_atpg(c, 5, {4: {"hit": 1}})
        assert result.outcome is AtpgOutcome.UNSATISFIABLE

    def test_trace_replays_on_simulator(self):
        c = toggler()
        result = sequential_atpg(c, 4, {3: {"q": 1}})
        assert result.found
        sim = Simulator(c)
        frames = sim.run(result.trace.inputs, state=result.trace.states[0])
        assert frames[3]["q"] == 1

    def test_per_cycle_guidance_constrains_inputs(self):
        c = toggler()
        cubes = {0: {"en": 1}, 1: {"en": 1}, 2: {"q": 0}}
        result = sequential_atpg(c, 3, cubes)
        assert result.found
        assert result.trace.inputs[0]["en"] == 1
        assert result.trace.inputs[1]["en"] == 1

    def test_contradictory_cubes_unsat(self):
        c = toggler()
        result = sequential_atpg(c, 2, {0: {"q": 1}})  # init is q=0
        assert result.outcome is AtpgOutcome.UNSATISFIABLE

    def test_missing_signal_strict(self):
        c = toggler()
        with pytest.raises(KeyError):
            sequential_atpg(c, 2, {0: {"ghost": 1}})

    def test_missing_signal_skipped(self):
        c = toggler()
        result = sequential_atpg(c, 2, {0: {"ghost": 1}}, skip_missing=True)
        assert result.found

    def test_internal_signal_cubes(self):
        c = toggler()
        result = sequential_atpg(c, 2, {0: {"nq": 1}, 1: {"q": 1}})
        assert result.found

    def test_explicit_initial_state(self):
        c = toggler()
        result = sequential_atpg(
            c, 1, {0: {"q": 1}}, initial_state={"q": 1}
        )
        assert result.found

    def test_free_init_register(self):
        c = Circuit("free")
        a = c.add_input("a")
        c.add_register(a, init=None, output="q")
        c.validate()
        result = sequential_atpg(c, 1, {0: {"q": 1}})
        assert result.found

    def test_budget_aborts(self):
        # A hard mitered multiplier-ish instance is overkill; force a tiny
        # budget on a moderately wide problem instead.
        c = counter(10)
        result = sequential_atpg(
            c,
            40,
            {39: {"hit": 1}},
            limits=Limits(max_conflicts=0),
        )
        assert result.outcome in (AtpgOutcome.ABORTED, AtpgOutcome.UNSATISFIABLE)

    def test_cube_cycle_out_of_range(self):
        with pytest.raises(ValueError):
            sequential_atpg(toggler(), 2, {5: {"q": 1}})

    def test_cubes_as_sequence(self):
        c = toggler()
        result = sequential_atpg(c, 2, [{"en": 1}, {"q": 1}])
        assert result.found


class TestCombinationalAtpg:
    def test_justify_internal_target(self):
        c = toggler()
        result = combinational_atpg(c, {"d": 1})
        assert result.found
        assignment = result.assignment
        # d=1 requires q and nq consistent with the mux.
        assert assignment["d"] == 1

    def test_state_is_free(self):
        c = toggler()
        # q=1 impossible from init, but combinationally the state is free.
        result = combinational_atpg(c, {"q": 1})
        assert result.found

    def test_constraints_respected(self):
        c = toggler()
        result = combinational_atpg(c, {"d": 1}, constraints=[{"q": 0}])
        assert result.found
        assert result.assignment["q"] == 0
        assert result.assignment["en"] == 1

    def test_unsatisfiable_target(self):
        c = Circuit("k")
        a = c.add_input("a")
        c.g_and(a, c.g_not(a), output="never")
        c.validate()
        result = combinational_atpg(c, {"never": 1})
        assert result.outcome is AtpgOutcome.UNSATISFIABLE

    def test_assignment_covers_all_signals(self):
        c = toggler()
        result = combinational_atpg(c, {"nq": 0})
        assert set(result.assignment) == set(c.signals())


class TestXorEncodingAgainstSim:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_circuit_encoding_matches_simulation(self, seed):
        """SAT models of a 1-frame unrolling agree with the simulator."""
        import random

        rng = random.Random(seed)
        c = Circuit("rand")
        pool = [c.add_input(f"i{k}") for k in range(4)]
        ops = ["and", "or", "xor", "nand", "nor", "xnor", "not", "mux"]
        for k in range(25):
            op = rng.choice(ops)
            if op == "not":
                sig = c.g_not(rng.choice(pool))
            elif op == "mux":
                sig = c.g_mux(*rng.sample(pool, 3))
            else:
                n = rng.randint(2, 3)
                sig = getattr(c, f"g_{op}")(*rng.sample(pool, n))
            pool.append(sig)
        c.validate()
        u = Unroller(c, 1)
        solver = Solver(u.cnf)
        result = solver.solve()
        assert result.is_sat
        frame = u.decode_frame(result.model, 0)
        sim = Simulator(c)
        values = sim.evaluate({}, {k: frame[k] for k in c.inputs})
        for name, value in frame.items():
            assert values[name] == value, name
