"""ATPG engines over gate-level designs.

The paper's contract (Section 2): given a design ``M``, a cycle number
``k``, a sequence of cubes ``C1..Ck`` and some resource limits, the ATPG
engine reports one of

1. all cubes are satisfied by a ``k``-cycle trace (and produces it),
2. the cubes cannot be satisfied,
3. some resource limit was exceeded.

A run with one cycle is *combinational*, otherwise *sequential*.  Both are
implemented here by Tseitin-encoding the (unrolled) circuit into CNF and
querying the budgeted CDCL solver from :mod:`repro.sat`:

- :mod:`repro.atpg.encode` -- per-time-frame circuit-to-CNF encoding,
- :mod:`repro.atpg.engine` -- the combinational and sequential engines and
  their three-way result type.
"""

from repro.atpg.encode import Unroller
from repro.atpg.engine import (
    AtpgOutcome,
    AtpgResult,
    combinational_atpg,
    sequential_atpg,
)

__all__ = [
    "AtpgOutcome",
    "AtpgResult",
    "Unroller",
    "combinational_atpg",
    "sequential_atpg",
]
