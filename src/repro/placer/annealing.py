"""Simulated-annealing placer.

A sequence-based encoding: the state is a (module order, shape choice)
pair decoded by the bottom-left rule into a concrete placement; moves swap
two modules in the order or switch one module's design alternative.  The
energy is the decoded extent (with a large penalty per unplaced module).
This gives a strong stochastic baseline for ablation A3 and shows that
design alternatives also pay off inside a metaheuristic: with one shape
per module the alternative-switch move vanishes and the reachable state
space shrinks.

The placer implements ``BasePlacer._run`` like every other baseline (it
used to override ``place`` with its own scaffolding): the seeded RNG, the
wall-clock deadline and the free-space ledger all live on the shared
``_State``.  The region's column words are packed once per run; each
decode resets the ledger and asks it for one shape's anchor words per
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.result import Placement
from repro.fabric.masks import first_anchor
from repro.modules.module import Module
from repro.placer.base import BasePlacer, _State


@dataclass
class AnnealingConfig:
    time_limit: float = 5.0
    initial_temperature: float = 8.0
    cooling: float = 0.95
    moves_per_temperature: int = 40
    min_temperature: float = 0.05
    seed: int = 0
    #: energy penalty per unplaced module (dominates any extent term)
    unplaced_penalty: int = 10_000
    #: optional hard cap on decode evaluations; with it set, a run is
    #: fully deterministic per seed regardless of machine load (the
    #: wall-clock limit still applies as a safety net)
    max_evaluations: Optional[int] = None


class AnnealingPlacer(BasePlacer):
    """Simulated annealing over (order, shape-choice) encodings."""

    name = "annealing"

    def __init__(self, config: Optional[AnnealingConfig] = None) -> None:
        self.config = config or AnnealingConfig()
        # mirror onto the uniform BasePlacer knobs: `place` derives the
        # deadline and the state RNG from these
        self.seed = self.config.seed
        self.time_limit = self.config.time_limit

    # ------------------------------------------------------------------
    def _decode(
        self,
        state: _State,
        order: List[int],
        shape_choice: List[int],
    ) -> Tuple[int, List[Placement], List[Module]]:
        """Bottom-left decode; returns (energy, placements, unplaced)."""
        state.reset()
        unplaced: List[Module] = []
        for mi in order:
            si = shape_choice[mi]
            hit = first_anchor(state.anchors(mi, si))
            if hit is None:
                unplaced.append(state.modules[mi])
                continue
            state.commit(mi, si, *hit)
        energy = state.extent() + self.config.unplaced_penalty * len(unplaced)
        return energy, state.placements, unplaced

    def _run(self, state: _State) -> List[Module]:
        cfg = self.config
        rng = state.rng
        modules = state.modules
        n = len(modules)

        order = sorted(range(n), key=lambda i: -modules[i].primary().area)
        shapes = [0] * n
        energy, placements, unplaced = self._decode(state, order, shapes)
        best = (energy, placements, unplaced)

        temperature = cfg.initial_temperature
        evaluations = 1

        def exhausted() -> bool:
            # the wall clock stays on as a safety net even under an
            # evaluation cap: a deterministic run must still terminate
            # within (roughly) its budget on a pathologically slow box
            if state.out_of_budget():
                return True
            return (
                cfg.max_evaluations is not None
                and evaluations >= cfg.max_evaluations
            )

        while temperature > cfg.min_temperature and not exhausted():
            for _ in range(cfg.moves_per_temperature):
                if exhausted():
                    break
                new_order = list(order)
                new_shapes = list(shapes)
                if rng.random() < 0.5 and n >= 2:
                    i, j = rng.sample(range(n), 2)
                    new_order[i], new_order[j] = new_order[j], new_order[i]
                else:
                    mi = rng.randrange(n)
                    n_alt = modules[mi].n_alternatives
                    if n_alt > 1:
                        new_shapes[mi] = rng.randrange(n_alt)
                    elif n >= 2:
                        i, j = rng.sample(range(n), 2)
                        new_order[i], new_order[j] = new_order[j], new_order[i]
                new_energy, new_p, new_u = self._decode(
                    state, new_order, new_shapes
                )
                evaluations += 1
                delta = new_energy - energy
                if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                    order, shapes, energy = new_order, new_shapes, new_energy
                    if new_energy < best[0]:
                        best = (new_energy, new_p, new_u)
            temperature *= cfg.cooling

        _, placements, unplaced = best
        state.reset(placements)
        state.stats["evaluations"] = evaluations
        return unplaced
