"""Approximate reachability by overlapping register partitions.

Section 5 of the paper plans "to prove the property on abstract models
containing hundreds of registers ... [using] the overlapping partition
technique from [5][7]" (Cho et al.'s approximate FSM traversal and
Govindaraju/Dill's overlapping projections).  This module implements that
extension:

- the registers are split into (possibly overlapping) *blocks*;
- each block gets its own forward fixpoint in which all other registers
  are free -- an over-approximation of the real reachable set projected
  onto the block;
- blocks constrain each other: a block's image is computed under the
  conjunction of every other block's current reached set, and the whole
  system is iterated to a simultaneous fixpoint (the "reached product"
  of interacting machine-by-machine traversal);
- the conjunction of the block invariants over-approximates the exact
  reachable states, so an empty intersection with the target states is a
  sound proof of unreachability.

BDD sizes stay bounded by the block width instead of the full register
count, trading precision for capacity.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.bdd import Function
from repro.bdd.manager import BDDNodeLimit
from repro.mc.encode import SymbolicEncoding, next_var_name
from repro.mc.reach import ReachLimits


class ApproxOutcome(enum.Enum):
    PROVED = "proved"  # target states outside the over-approximation
    UNDECIDED = "undecided"  # target intersects the over-approximation
    RESOURCE_OUT = "resource_out"


@dataclass
class ApproxResult:
    outcome: ApproxOutcome
    blocks: List[List[str]]
    block_reached: List[Function] = field(default_factory=list)
    passes: int = 0
    seconds: float = 0.0

    def over_approximation(self) -> Function:
        """The conjunction of the block invariants."""
        if not self.block_reached:
            raise ValueError("no block results available")
        acc = self.block_reached[0]
        for fn in self.block_reached[1:]:
            acc = acc & fn
        return acc


def overlapping_blocks(
    registers: Sequence[str],
    block_size: int = 8,
    overlap: int = 2,
) -> List[List[str]]:
    """Sliding-window partition of the registers with ``overlap`` shared
    variables between neighbouring blocks (in encoding order, which
    follows the circuit's dependency structure)."""
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    if not 0 <= overlap < block_size:
        raise ValueError("overlap must satisfy 0 <= overlap < block_size")
    registers = list(registers)
    if len(registers) <= block_size:
        return [registers] if registers else []
    blocks = []
    stride = block_size - overlap
    start = 0
    while start < len(registers):
        block = registers[start:start + block_size]
        if len(block) < block_size and blocks:
            # Final remnant: extend backwards to full width instead of
            # creating a tiny imprecise block.
            block = registers[-block_size:]
            blocks.append(block)
            break
        blocks.append(block)
        if start + block_size >= len(registers):
            break
        start += stride
    return blocks


class ApproximateReach:
    """Interacting machine-by-machine approximate traversal."""

    def __init__(
        self,
        encoding: SymbolicEncoding,
        blocks: Optional[List[List[str]]] = None,
        block_size: int = 8,
        overlap: int = 2,
    ) -> None:
        self.encoding = encoding
        self.bdd = encoding.bdd
        self.blocks = blocks if blocks is not None else overlapping_blocks(
            encoding.current_vars, block_size=block_size, overlap=overlap
        )
        for block in self.blocks:
            unknown = set(block) - set(encoding.current_vars)
            if unknown:
                raise ValueError(f"unknown block registers: {sorted(unknown)}")
        # Per-block transition relation: conjunction of the block's
        # next-state constraints.
        self._block_relations: List[Function] = []
        for block in self.blocks:
            relation = self.bdd.true
            for reg in block:
                relation = relation & self.bdd.var(
                    next_var_name(reg)
                ).equiv(encoding.next_state_function(reg))
            self._block_relations.append(relation)

    def _project(self, fn: Function, block: List[str]) -> Function:
        keep = set(block)
        others = [
            name for name in self.encoding.current_vars if name not in keep
        ]
        return self.bdd.exists(others, fn)

    def _block_post(
        self, block_index: int, constraint: Function
    ) -> Function:
        """One approximate image of a block under the other blocks'
        invariants: exists(all current + inputs, constraint & T_block)
        renamed back to current variables."""
        block = self.blocks[block_index]
        quantified = list(self.encoding.current_vars) + list(
            self.encoding.input_vars
        )
        image_next = self.bdd.and_exists(
            constraint, self._block_relations[block_index], quantified
        )
        return self.bdd.rename(
            image_next, {next_var_name(r): r for r in block}
        )

    def run(
        self,
        init: Function,
        limits: Optional[ReachLimits] = None,
        max_passes: int = 64,
    ) -> ApproxResult:
        """Iterate all blocks to a simultaneous fixpoint."""
        limits = limits or ReachLimits()
        start = time.monotonic()
        reached = [self._project(init, block) for block in self.blocks]
        passes = 0
        saved_limit = self.bdd.node_limit
        if limits.max_nodes is not None:
            self.bdd.node_limit = max(
                limits.max_nodes * 4,
                len(self.bdd._level) + limits.max_nodes,
            )
        try:
            changed = True
            while changed and passes < max_passes:
                if limits.max_seconds is not None and (
                    time.monotonic() - start > limits.max_seconds
                ):
                    return ApproxResult(
                        ApproxOutcome.RESOURCE_OUT,
                        self.blocks,
                        reached,
                        passes,
                        time.monotonic() - start,
                    )
                passes += 1
                changed = False
                for index, block in enumerate(self.blocks):
                    # Constrain by the neighbouring blocks only: the full
                    # product could be as big as exact reachability, and
                    # dropping constraints is always sound (it merely
                    # loosens the over-approximation).
                    constraint = reached[index]
                    for j in (index - 1, index + 1):
                        if 0 <= j < len(reached):
                            constraint = constraint & reached[j]
                    image = self._block_post(index, constraint)
                    grown = reached[index] | image
                    if grown != reached[index]:
                        reached[index] = grown
                        changed = True
        except BDDNodeLimit:
            return ApproxResult(
                ApproxOutcome.RESOURCE_OUT,
                self.blocks,
                reached,
                passes,
                time.monotonic() - start,
            )
        finally:
            self.bdd.node_limit = saved_limit
        return ApproxResult(
            ApproxOutcome.UNDECIDED,  # refined by check_target below
            self.blocks,
            reached,
            passes,
            time.monotonic() - start,
        )

    def check_target(
        self,
        result: ApproxResult,
        target: Function,
    ) -> ApproxResult:
        """Classify a completed run against the target states: PROVED when
        the over-approximation excludes every target state."""
        if result.outcome is ApproxOutcome.RESOURCE_OUT:
            return result
        intersection = target
        for fn in result.block_reached:
            intersection = intersection & fn
            if intersection.is_false:
                result.outcome = ApproxOutcome.PROVED
                return result
        result.outcome = (
            ApproxOutcome.PROVED
            if intersection.is_false
            else ApproxOutcome.UNDECIDED
        )
        return result


def approximate_check(
    encoding: SymbolicEncoding,
    target: Function,
    block_size: int = 8,
    overlap: int = 2,
    limits: Optional[ReachLimits] = None,
) -> ApproxResult:
    """Convenience wrapper: partition, traverse, classify."""
    approx = ApproximateReach(
        encoding, block_size=block_size, overlap=overlap
    )
    result = approx.run(encoding.initial_states(), limits=limits)
    return approx.check_target(result, target)
