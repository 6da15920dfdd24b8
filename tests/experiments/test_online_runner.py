"""Online service-level experiment (A5) and the CLI runner."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.runtime import RuntimeConfig
from repro.experiments.runner import EXPERIMENTS, main
from repro.experiments.runtime_exp import (
    RuntimeRow,
    format_runtime,
    online_comparison,
    online_trace,
    serve_trace,
)
from repro.fabric.devices import irregular_device
from repro.fabric.region import PartialRegion


def online_config(backend):
    """The A5 serving knobs: admit now or reject, never defrag."""
    return RuntimeConfig(
        chain=(backend,),
        queue_capacity=0,
        defragmenter=None,
        sample_timeline=False,
    )


class TestTrace:
    def test_trace_is_ordered_and_seeded(self):
        a = online_trace(10, seed=4)
        b = online_trace(10, seed=4)
        c = online_trace(10, seed=5)
        assert [r.arrival for r in a] == sorted(r.arrival for r in a)
        assert [(r.module.name, r.arrival) for r in a] == [
            (r.module.name, r.arrival) for r in b
        ]
        assert [r.arrival for r in a] != [r.arrival for r in c] or [
            r.lifetime for r in a
        ] != [r.lifetime for r in c]

    def test_lifetimes_positive(self):
        assert all(r.lifetime > 0 for r in online_trace(20, seed=1))


class TestOnlineSimulation:
    @pytest.fixture(scope="class")
    def setup(self):
        region = PartialRegion.whole_device(irregular_device(40, 12, seed=9))
        trace = online_trace(16, seed=3)
        return region, trace

    def test_kamer_accounts_every_request(self, setup):
        region, trace = setup
        row = serve_trace(region, trace, True, "k", online_config("first-fit"))
        assert row.total == len(trace)
        assert len(row.rejected_names) == row.rejected

    def test_incremental_accounts_every_request(self, setup):
        region, trace = setup
        row = serve_trace(region, trace, True, "cp", online_config("cp"))
        assert row.total == len(trace)
        assert len(row.rejected_names) == row.rejected

    def test_alternatives_never_hurt_acceptance(self, setup):
        region, trace = setup
        without = serve_trace(
            region, trace, False, "w/o", online_config("first-fit")
        )
        with_alts = serve_trace(
            region, trace, True, "with", online_config("first-fit")
        )
        assert with_alts.admitted >= without.admitted

    def test_acceptance_ratio_bounds(self):
        s = RuntimeRow("x", 3, 1, 0.0, 0, 0, 0.0)
        assert s.rejection_ratio == 0.25
        assert RuntimeRow("y", 0, 0, 0.0, 0, 0, 0.0).rejection_ratio == 0.0

    def test_format(self):
        out = format_runtime([RuntimeRow("mgr", 2, 2, 0.5, 0, 0, 0.0)])
        assert "mgr" in out and "50.0%" in out


# A5 rows per (n_requests, seed): label -> (admitted, rejected, blake2b
# of the rejected-name list), captured from the original simulator
A5_GOLDEN = {
    (30, 3): {
        "first-fit (1 shape)": (14, 16, "911ee8160dbe148e32a0f24ba0eeafae"),
        "first-fit (alternatives)": (
            19, 11, "6efd774395139ed59454535a32169876"
        ),
        "cp (1 shape)": (14, 16, "911ee8160dbe148e32a0f24ba0eeafae"),
        "cp (alternatives)": (19, 11, "7951e5963dfa5b33469c2929e021fe62"),
    },
    (40, 3): {
        "first-fit (1 shape)": (18, 22, "f3ae8828609e2fdff37cf3f4fe9c7eac"),
        "first-fit (alternatives)": (
            22, 18, "d41b01748c3d56aeb8f4cc3d7ec08b0b"
        ),
        "cp (1 shape)": (18, 22, "f3ae8828609e2fdff37cf3f4fe9c7eac"),
        "cp (alternatives)": (22, 18, "3f23443a481b9ffc15db060d1707ca9f"),
    },
}


class TestA5Golden:
    @pytest.mark.parametrize("n_requests, seed", sorted(A5_GOLDEN))
    def test_rows_match_golden(self, n_requests, seed):
        rows = online_comparison(n_requests=n_requests, seed=seed)
        got = {
            r.label: (
                r.total - r.rejected,
                r.rejected,
                hashlib.blake2b(
                    json.dumps(r.rejected_names).encode(), digest_size=16
                ).hexdigest(),
            )
            for r in rows
        }
        assert got == A5_GOLDEN[(n_requests, seed)]


class TestRunnerCLI:
    def test_experiment_registry_covers_paper(self):
        assert {"table1", "fig1", "fig3", "fig4", "fig5"} <= set(EXPERIMENTS)
        assert {"a1", "a2", "a3", "a4", "a5"} <= set(EXPERIMENTS)

    def test_fig1_via_cli(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "design alternatives" in out

    def test_fig4_via_cli(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "monotone shrinkage: True" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["nope"])
