"""Differential suite: the runtime manager's pick rules against the
baseline placers.

The manager admits each arrival with a pick rule over the anchor words
of its free-space ledger (:data:`repro.core.runtime.PICK_RULES`): ``cp``
and ``greedy`` pick the bottom-left ``(x, y, shape)``, ``first-fit`` the
first shape that has an anchor.  Each rule must place a module exactly
where its baseline placer places it alone on the residual region of the
same ledger and blocked words (:func:`tests.support.ledger_residual`):
:class:`~repro.placer.greedy.BottomLeftPlacer` for the bottom-left rules
and :class:`~repro.placer.greedy.FirstFitPlacer` for ``first-fit``.  No
anchor and no placement go together.

Two input sets:

* the probes recorded from ``serve-contended``-shaped replays
  (:func:`tests.support.recorded_probes`) under the ``("cp", "greedy")``
  and ``("first-fit",)`` chains, on seeds 0 and 7919, reservation
  replans included; every rule is asked every probe;
* hypothesis residual regions on small fabrics, many with no anchor.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.occupancy import Occupancy
from repro.core.runtime import PICK_RULES
from repro.fabric.masks import pack_columns
from repro.fabric.region import PartialRegion
from repro.placer.greedy import BottomLeftPlacer, FirstFitPlacer
from tests.core.test_one_module_oracle import residuals
from tests.support import ledger_residual, recorded_probes

#: the baseline placer each rule must agree with
ORACLES = {
    "cp": BottomLeftPlacer,
    "greedy": BottomLeftPlacer,
    "first-fit": FirstFitPlacer,
}


def oracle_picks(ledger, blocked, module):
    """Every rule's pick, each checked against its placer on the residual
    region; returns ``{rule: (x, y, shape) or None}``."""
    region = ledger_residual(ledger, blocked)
    words = ledger.anchors(module.shapes, blocked)
    picks = {}
    for rule, placer in ORACLES.items():
        result = placer().place(region, [module])
        want = None
        if result.placements:
            (p,) = result.placements
            want = (p.x, p.y, p.shape_index)
        picks[rule] = PICK_RULES[rule](words)
        assert picks[rule] == want, rule
    return picks


def test_every_rule_has_an_oracle():
    assert set(ORACLES) == set(PICK_RULES)


@pytest.mark.parametrize(
    "chain", [("cp", "greedy"), ("first-fit",)], ids=["cp-greedy", "first-fit"]
)
@pytest.mark.parametrize("seed", [0, 7919])
def test_recorded_probes(seed, chain):
    """Every probe of the replay, reservation replans included: each
    rule equals its placer, and the answer the replay's rule gave is its
    placer's."""
    probes = recorded_probes(500, keep=None, seed=seed, chain=chain)
    assert any(p.replan for p in probes)
    assert {p.rule for p in probes} == {chain[0]}
    fits, differ = set(), False
    for probe in probes:
        picks = oracle_picks(probe.ledger, probe.blocked, probe.module)
        p = probe.placement
        assert picks[probe.rule] == (
            None if p is None else (p.x, p.y, p.shape_index)
        )
        fits.add(p is not None)
        differ |= picks["first-fit"] != picks["cp"]
    # both outcomes occur, and the two rules are told apart
    assert fits == {True, False} and differ


@settings(max_examples=250, deadline=None)
@given(case=residuals())
def test_hypothesis_residuals(case):
    """A residual region drawn as blocked words on a ledger of the whole
    fabric."""
    residual, module = case
    whole = PartialRegion(
        residual.grid, np.ones_like(residual.reconfigurable), "fabric"
    )
    ledger = Occupancy(whole)
    blocked = pack_columns(~residual.reconfigurable)
    np.testing.assert_array_equal(
        ledger_residual(ledger, blocked).reconfigurable,
        residual.reconfigurable,
    )
    oracle_picks(ledger, blocked, module)
