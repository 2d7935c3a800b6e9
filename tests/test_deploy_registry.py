"""Tests for the versioned program registry (`repro.deploy.registry`).

Pinned contract: version 1 of a registry seeded from a weave serves the
same minimal set the pipeline computed; every `redeploy` produces a
minimal set bit-identical to a cold minimize of the edited declared set
(the incremental rebase is an optimization, never a semantic change);
invalid edit batches raise before any registry state changes.
"""

from __future__ import annotations

import json

import pytest

from repro.core.constraints import Constraint
from repro.deploy import ProgramRegistry, load_edits
from repro.core.minimize import minimize_fast


@pytest.fixture(scope="module")
def registry(purchasing_weave):
    return ProgramRegistry.from_weave(purchasing_weave)


def _keys(sc):
    return {(c.source, c.target, c.condition) for c in sc.constraints}


def _redundant(version):
    """Declared edges the minimizer removed — behavior-preserving removals."""
    minimal = _keys(version.minimal)
    return [c for c in version.declared.constraints if
            (c.source, c.target, c.condition) not in minimal]


class TestSeeding:
    def test_v1_matches_the_weave(self, registry, purchasing_weave):
        assert registry.versions() == (1,)
        assert registry.current_version == 1
        v1 = registry.current
        assert v1.version == 1
        assert _keys(v1.minimal) == _keys(purchasing_weave.minimal)
        assert _keys(v1.declared) == _keys(purchasing_weave.asc)

    def test_rejects_port_level_sets(self, purchasing_weave, purchasing_process):
        with pytest.raises(ValueError, match="activity"):
            ProgramRegistry(purchasing_process, purchasing_weave.merged)

    def test_programs_map_serves_runtime_recover(self, registry):
        programs = registry.programs()
        assert set(programs) == set(registry.versions())
        assert programs[1] is registry.version(1).program

    def test_unknown_version_lookup(self, registry):
        with pytest.raises(KeyError, match="no deployed version 99"):
            registry.version(99)


class TestRedeploy:
    def test_incremental_equals_cold(self, purchasing_weave):
        registry = ProgramRegistry.from_weave(purchasing_weave)
        removed = (_redundant(registry.current)[0],)
        result = registry.redeploy(removed=removed)
        assert result.version.version == 2
        cold = minimize_fast(result.version.declared, semantics=registry.semantics)
        assert _keys(result.version.minimal) == _keys(cold)

    def test_versions_accumulate(self, purchasing_weave):
        registry = ProgramRegistry.from_weave(purchasing_weave)
        for index, constraint in enumerate(_redundant(registry.current)[:3]):
            registry.redeploy(removed=(constraint,))
            assert registry.current_version == index + 2
        assert registry.versions() == (1, 2, 3, 4)
        # Old versions stay addressable for in-flight drain cohorts.
        assert registry.version(1).program is not registry.current.program

    def test_unknown_removal_raises_before_publishing(self, purchasing_weave):
        registry = ProgramRegistry.from_weave(purchasing_weave)
        with pytest.raises(ValueError, match="undeclared"):
            registry.redeploy(removed=(Constraint("nope", "also_nope"),))
        assert registry.versions() == (1,)

    def test_unknown_activity_raises_before_publishing(self, purchasing_weave):
        registry = ProgramRegistry.from_weave(purchasing_weave)
        with pytest.raises(ValueError, match="unknown activity"):
            registry.redeploy(added=(Constraint("recClient_po", "martian"),))
        assert registry.versions() == (1,)

    def test_duplicate_addition_is_deduped(self, purchasing_weave):
        registry = ProgramRegistry.from_weave(purchasing_weave)
        existing = registry.current.declared.constraints[0]
        result = registry.redeploy(added=(existing, existing))
        assert _keys(result.version.declared) == _keys(registry.version(1).declared)

    def test_obs_counters(self, purchasing_weave):
        from repro.obs import Observability

        obs = Observability()
        registry = ProgramRegistry.from_weave(purchasing_weave, obs=obs)
        registry.redeploy(removed=(_redundant(registry.current)[0],))
        assert obs.metrics.get("repro_deploy_redeploys_total").value() == 1.0
        histogram = obs.metrics.get("repro_deploy_rebase_seconds")
        assert histogram is not None
        names = [s.name for s in obs.tracer.finished_spans()]
        assert "deploy.redeploy" in names


class TestLoadEdits:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "edits.json"
        path.write_text(json.dumps({
            "add": [{"source": "a", "target": "b", "condition": "T"}],
            "remove": [{"source": "c", "target": "d"}],
        }))
        added, removed = load_edits(str(path))
        assert added == (Constraint("a", "b", "T"),)
        assert removed == (Constraint("c", "d"),)

    def test_missing_keys_default_empty(self, tmp_path):
        path = tmp_path / "edits.json"
        path.write_text("{}")
        assert load_edits(str(path)) == ((), ())

    def test_malformed_entries_raise(self, tmp_path):
        path = tmp_path / "edits.json"
        path.write_text(json.dumps({"add": [{"source": "a"}]}))
        with pytest.raises(ValueError, match="source.*target|'source' and 'target'"):
            load_edits(str(path))

    def test_non_object_payload_raises(self, tmp_path):
        path = tmp_path / "edits.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_edits(str(path))
