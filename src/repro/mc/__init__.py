"""BDD-based symbolic model checking.

The formal engine of RFN's Step 2 and the Table-1 baseline:

- :mod:`repro.mc.encode` -- circuit-to-BDD encoding: grouped current/next
  state variables, a DFS static variable order, next-state functions,
- :mod:`repro.mc.images` -- clustered transition relations with early
  quantification; post-image and pre-image operators,
- :mod:`repro.mc.reach` -- forward fixpoint computation with onion rings
  (the per-cycle reachable sets S1..Sk the hybrid engine consumes) and
  on-the-fly target checking,
- :mod:`repro.mc.checker` -- error-trace extraction by a backwards walk
  through the onion rings.

The plain symbolic model checker with cone-of-influence reduction, the
baseline RFN is compared against in Table 1, is the ``bdd`` engine of
:mod:`repro.engine`.
"""

from repro.mc.encode import SymbolicEncoding
from repro.mc.images import ImageComputer
from repro.mc.reach import ReachOutcome, ReachResult, forward_reach

__all__ = [
    "ImageComputer",
    "ReachOutcome",
    "ReachResult",
    "SymbolicEncoding",
    "forward_reach",
]
