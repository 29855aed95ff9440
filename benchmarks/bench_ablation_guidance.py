"""Ablation -- abstract-trace guidance for sequential ATPG (Section 2.3).

The paper claims "sequential ATPG with guidance can search for an order
of magnitude more cycles".  This bench sweeps the planted bug depth of
the sequence-lock design and runs Step 3 twice per depth under the same
conflict budget: once guided by the abstract error trace's cycle cubes,
once with only the depth bound.

Series reported: per depth, the guided and unguided outcome and conflict
counts.  The expected shape: guided conflicts stay near zero while
unguided conflicts grow with depth until the budget kills the search.
"""

from __future__ import annotations

import pytest

from repro.core import RFN, RfnConfig
from repro.core.abstraction import Abstraction
from repro.core.guided import guided_concrete_search
from repro.core.hybrid import HybridTraceEngine
from repro.designs import password_lock
from repro.mc import ImageComputer, SymbolicEncoding, forward_reach
from repro.mc.reach import ReachOutcome
from repro.runtime.budget import Limits
from reporting import emit_table

DEPTHS = [4, 8, 12, 16]
SECRET_WIDTH = 10
SLACK = 8  # extra search depth beyond the trace: where guidance matters
LIMITS = Limits(max_conflicts=20_000)
_ROWS = {}


def abstract_trace_for(circuit, prop):
    """The abstract error trace RFN's Step 2 produces on the full stage
    FSM (data inputs free) -- the guidance source."""
    abstraction = Abstraction.initial(circuit, prop)
    abstraction.refine(
        reg for reg in circuit.registers if reg.startswith("stage")
    )
    model = abstraction.model
    encoding = SymbolicEncoding(model)
    images = ImageComputer(encoding)
    target = encoding.state_cube(dict(prop.target))
    reach = forward_reach(images, encoding.initial_states(), target=target)
    assert reach.outcome is ReachOutcome.TARGET_HIT
    engine = HybridTraceEngine(model, encoding, images)
    trace = engine.build_trace(reach, target)
    # Keep only the *state* cubes: guidance as RFN would have it from a
    # coarser abstraction (a trace with concrete primary inputs would be
    # settled by direct replay, bypassing ATPG entirely).
    state_signals = [
        sig for sig in circuit.registers
    ]
    return trace.restricted_to(state_signals)


@pytest.mark.parametrize("depth", DEPTHS)
def test_guidance_sweep(benchmark, depth):
    circuit, prop = password_lock(
        width=SECRET_WIDTH, secret=(1 << SECRET_WIDTH) - 3, stages=depth
    )
    trace = abstract_trace_for(circuit, prop)

    def run_both():
        guided = guided_concrete_search(
            circuit, prop, [trace], limits=LIMITS,
            use_guidance=True, extra_depth=SLACK,
        )
        unguided = guided_concrete_search(
            circuit, prop, [trace], limits=LIMITS,
            use_guidance=False, extra_depth=SLACK,
        )
        return guided, unguided

    guided, unguided = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert guided.found  # guidance always lands the trace
    assert guided.conflicts <= unguided.conflicts
    _ROWS[depth] = (
        depth,
        "found" if guided.found else "lost",
        guided.conflicts,
        "found" if unguided.found else "budget-out",
        unguided.conflicts,
    )


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    rows = [_ROWS[d] for d in DEPTHS if d in _ROWS]
    if not rows:
        return
    emit_table(
        "ablation_guidance",
        "Ablation (Section 2.3): guided vs unguided sequential ATPG, "
        f"conflict budget {LIMITS.max_conflicts}",
        ["Bug depth", "Guided", "Guided conflicts",
         "Unguided", "Unguided conflicts"],
        rows,
    )
