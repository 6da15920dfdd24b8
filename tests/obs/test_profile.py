"""SolveProfile: capture, merge, export, schema validation, reporting."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.placer import CPPlacer, PlacerConfig
from repro.fabric.devices import homogeneous_device
from repro.fabric.region import PartialRegion
from repro.modules.footprint import Footprint
from repro.modules.module import Module
from repro.obs import (
    PROFILE_SCHEMA_VERSION,
    PropagatorProfile,
    SolveProfile,
    profile_report,
    profiling_session,
    validate_profile,
)
from repro.obs.context import current
from repro.obs.schema import PROFILE_SCHEMA


def _tiny_instance():
    region = PartialRegion.whole_device(homogeneous_device(6, 3))
    modules = [
        Module("a", [Footprint.rectangle(2, 2)]),
        Module("b", [Footprint.rectangle(2, 1), Footprint.rectangle(1, 2)]),
    ]
    return region, modules


def _solve_with_profile() -> SolveProfile:
    region, modules = _tiny_instance()
    result = CPPlacer(
        PlacerConfig(time_limit=None, profile=True)
    ).place(region, modules)
    assert result.status == "optimal"
    return result.stats["profile"]


class TestPropagatorProfile:
    def test_merge_sums_counters(self):
        a = PropagatorProfile("k", calls=2, time_s=0.5, prunes=3, failures=1)
        b = PropagatorProfile("k", calls=1, time_s=0.25, prunes=4, failures=0)
        c = a + b
        assert (c.calls, c.prunes, c.failures) == (3, 7, 1)
        assert c.time_s == pytest.approx(0.75)

    def test_merge_rejects_different_names(self):
        with pytest.raises(ValueError):
            PropagatorProfile("a") + PropagatorProfile("b")

    def test_dict_round_trip(self):
        a = PropagatorProfile("k", calls=2, time_s=0.5, prunes=3, failures=1)
        assert PropagatorProfile.from_dict(a.to_dict()) == a


class TestSolveProfileCapture:
    def test_capture_from_real_solve(self):
        profile = _solve_with_profile()
        assert profile.nodes > 0
        assert profile.solutions >= 1
        assert profile.propagations > 0
        assert profile.domain_updates > 0
        assert profile.propagators  # per-propagator table populated
        assert profile.meta["placer"] == "cp"
        # sanity: per-propagator calls sum to the engine's total
        assert (
            sum(p.calls for p in profile.propagators.values())
            == profile.propagations
        )

    def test_merge_adds_counts_and_propagators(self):
        p1 = _solve_with_profile()
        p2 = _solve_with_profile()
        merged = p1 + p2
        for key, value in merged.counts().items():
            if key == "max_depth":
                assert value == max(p1.max_depth, p2.max_depth)
            else:
                assert value == p1.counts()[key] + p2.counts()[key]
        for name, rec in merged.propagators.items():
            expect = p1.propagators[name].calls + p2.propagators[name].calls
            assert rec.calls == expect


class TestExportFormats:
    def test_json_round_trip_preserves_counts(self, tmp_path):
        profile = _solve_with_profile()
        path = tmp_path / "profile.json"
        profile.save(path)
        restored = SolveProfile.load(path)
        assert restored.counts() == profile.counts()
        assert set(restored.propagators) == set(profile.propagators)
        for name in profile.propagators:
            assert (
                restored.propagators[name].prunes
                == profile.propagators[name].prunes
            )
        assert restored.meta == profile.meta

    def test_schema_version_checked(self):
        profile = _solve_with_profile()
        doc = profile.to_dict()
        doc["schema_version"] = PROFILE_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            SolveProfile.from_dict(doc)

    def test_exported_doc_validates(self):
        doc = _solve_with_profile().to_dict()
        assert validate_profile(doc) == []
        # and survives an actual json round trip
        assert validate_profile(json.loads(json.dumps(doc))) == []

    def test_validate_flags_problems(self):
        doc = _solve_with_profile().to_dict()
        doc["nodes"] = -1
        del doc["elapsed"]
        problems = validate_profile(doc)
        assert any("nodes" in p for p in problems)
        assert any("elapsed" in p for p in problems)

    def test_csv_export(self):
        profile = _solve_with_profile()
        lines = profile.to_csv().splitlines()
        assert lines[0] == "propagator,calls,time_s,prunes,failures"
        assert len(lines) == 1 + len(profile.propagators)

    def test_table1_profile_counts_word_kernel_rows(self):
        """A Table-I CP solve exports the word kernel's row tests under the
        ``geost_*`` names and no ``bitboard_*`` key."""
        from repro.experiments.config import default_fabric
        from repro.modules.generator import GeneratorConfig, ModuleGenerator

        modules = ModuleGenerator(
            seed=0, config=GeneratorConfig(n_alternatives=4)
        ).generate_set(30)
        result = CPPlacer(
            PlacerConfig(time_limit=None, node_limit=400, profile=True)
        ).place(default_fabric(), modules)
        assert len(result.placements) == 30
        doc = json.loads(result.stats["profile"].to_json())
        assert validate_profile(doc) == []
        assert doc["geost_rows_tested"] > 0
        assert not [key for key in doc if key.startswith("bitboard")]

    def test_report_is_human_readable(self):
        profile = _solve_with_profile()
        text = profile_report(profile)
        assert "nodes" in text
        for name in profile.propagators:
            assert name in text


def _sample_value(f: dataclasses.Field):
    """A non-default value for one SolveProfile field."""
    if f.name == "propagators":
        return {"p": PropagatorProfile("p", 1, 0.5, 2, 0)}
    if f.name == "meta":
        return {"instance": "x"}
    return {int: 3, float: 1.5, str: "done"}[type(f.default)]


class TestSchemaDrift:
    """Every SolveProfile field is exported, schema-required, merged and
    round-tripped — the counter lists derive from the dataclass, so a new
    counter cannot be left out of one of them."""

    @pytest.mark.parametrize(
        "f", dataclasses.fields(SolveProfile), ids=lambda f: f.name
    )
    def test_field_is_covered_everywhere(self, f):
        value = _sample_value(f)
        profile = SolveProfile(**{f.name: value})
        doc = profile.to_dict()
        assert f.name in doc
        assert f.name in PROFILE_SCHEMA
        assert validate_profile(doc) == []
        if type(f.default) is int:
            problems = validate_profile({**doc, f.name: -1})
            assert any(
                repr(f.name) in p and "negative" in p for p in problems
            ), problems
        assert getattr(profile + SolveProfile(), f.name) == value
        assert getattr(SolveProfile() + profile, f.name) == value
        restored = SolveProfile.from_dict(json.loads(json.dumps(doc)))
        assert getattr(restored, f.name) == value

    def test_merge_rules(self):
        a = SolveProfile(nodes=2, max_depth=5, stop_reason="", meta={"k": 1})
        b = SolveProfile(nodes=3, max_depth=4, stop_reason="limit",
                         meta={"k": 2, "j": 3})
        merged = a + b
        assert merged.nodes == 5
        assert merged.max_depth == 5
        assert merged.stop_reason == "limit"
        assert merged.meta == {"k": 1, "j": 3}


class TestProfilingSession:
    def test_session_collects_profiles(self):
        region, modules = _tiny_instance()
        with profiling_session("unit") as session:
            # note: no profile=True — the active session forces capture
            CPPlacer(PlacerConfig(time_limit=None)).place(region, modules)
            CPPlacer(PlacerConfig(time_limit=None)).place(region, modules)
        assert len(session.profiles) == 2
        merged = session.merged()
        assert merged.meta["session"] == "unit"
        assert merged.meta["solves"] == 2
        assert merged.nodes == sum(p.nodes for p in session.profiles)

    def test_session_restores_previous(self):
        assert current() is None
        with profiling_session("outer") as outer:
            with profiling_session("inner"):
                assert current() is not None
            assert current() is outer
        assert current() is None

    def test_no_profile_without_opt_in(self):
        region, modules = _tiny_instance()
        result = CPPlacer(PlacerConfig(time_limit=None)).place(region, modules)
        assert "profile" not in result.stats
