"""The construction surface: EngineConfig, the engine constructor,
build_matcher, serve(), the apps' policy swaps, and the removed
surfaces (legacy keyword knobs, the matcher-kind knobs, stride plans)
failing loudly.
"""

from __future__ import annotations

import pytest

from helpers import random_entries, table1_entries
from repro import (
    DEFAULT_CONFIG,
    ClassificationEngine,
    EngineConfig,
    MultibitPalmtrie,
    build_matcher,
    compile_acl,
    parse_acl,
    serve,
)
from repro.apps.conntrack import StatefulFirewall
from repro.apps.firewall import Firewall
from repro.apps.flowmon import FlowMonitor
from repro.apps.l3fwd import L3Forwarder

KEY_LENGTH = 128

ACL = """
permit tcp 10.0.0.0/8 any range 1000 2000
deny ip any 192.0.2.0/24
permit ip any any
"""


class TestEngineConfig:
    def test_defaults_match_module_constant(self):
        assert EngineConfig() == DEFAULT_CONFIG
        assert DEFAULT_CONFIG.cache_size == 4096
        assert DEFAULT_CONFIG.shards == 0

    def test_frozen_and_replace(self):
        config = EngineConfig(cache_size=64)
        with pytest.raises(Exception):  # frozen dataclass
            config.cache_size = 128  # type: ignore[misc]
        derived = config.replace(shards=2)
        assert derived.cache_size == 64 and derived.shards == 2
        assert config.shards == 0  # original untouched

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cache_size": -1},
            {"stride": 0},
            {"stride": 31},
            {"shards": -1},
            {"shard_timeout": 0.0},
            {"shard_max_restarts": -1},
        ],
    )
    def test_validation_fails_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)

    def test_stride_is_bounded_where_the_palmtrie_k_is(self):
        """A stride the Palmtrie_k cannot build fails at the config, not
        three layers down in the build."""
        with pytest.raises(ValueError, match="1..16"):
            EngineConfig(stride=20)
        assert serve("permit ip any any", EngineConfig(stride=16)).lookup(0) is not None

    def test_engine_kwargs_round_trip(self):
        config = EngineConfig(cache_size=7, metrics=True)
        engine = ClassificationEngine(MultibitPalmtrie.build(table1_entries(), 8), config)
        assert engine.config is config
        assert engine.cache.capacity == 7
        assert engine.metrics is not None

    def test_build_matcher_uses_the_config_stride(self):
        entries = random_entries(10, KEY_LENGTH, seed=1)
        assert DEFAULT_CONFIG.stride == 8
        assert build_matcher(DEFAULT_CONFIG, entries, KEY_LENGTH).stride == 8
        strided = build_matcher(EngineConfig(stride=4), entries, KEY_LENGTH)
        assert type(strided) is MultibitPalmtrie and strided.stride == 4


class TestFromConfig:
    """The engine a config describes: one constructor, whatever the
    config says."""

    def test_in_process_engine(self):
        matcher = MultibitPalmtrie.build(table1_entries(), 8)
        engine = ClassificationEngine(matcher, EngineConfig(cache_size=16))
        assert isinstance(engine, ClassificationEngine)
        assert engine.cache.capacity == 16

    def test_none_config_uses_defaults(self):
        matcher = MultibitPalmtrie.build(table1_entries(), 8)
        engine = ClassificationEngine(matcher, None)
        assert engine.config == DEFAULT_CONFIG

    def test_sharded_front_end(self):
        """``shards > 0`` is still one ClassificationEngine: its pool
        resolves the misses, and the cache keeps one worker-cache row
        budget per shard."""
        from repro.shard import ShardedEngine

        matcher = MultibitPalmtrie.build(table1_entries(), 8)
        with ClassificationEngine(
            matcher, EngineConfig(cache_size=16, shards=1)
        ) as engine:
            assert type(engine) is ClassificationEngine
            assert isinstance(engine.pool, ShardedEngine)
            assert engine.pool.shards_alive == 1
            assert engine.cache.capacity == 16


class TestOneServingPath:
    """Every engine serves the frozen plane; there is no knob for the
    interpreted Palmtrie_k."""

    def test_a_default_engine_serves_its_frozen_plane(self):
        engine = serve(ACL)
        report = engine.report()
        assert report["freezes"] == 1 and report["frozen_plane_active"]  # frozen at install
        assert engine.lookup(0) is not None  # the first miss pays no freeze
        assert engine.report()["freezes"] == 1
        assert "auto_freeze" not in report

    def test_auto_freeze_false_is_rejected(self):
        with pytest.raises(ValueError, match="auto_freeze"):
            EngineConfig(auto_freeze=False)
        with pytest.raises(ValueError, match="auto_freeze"):
            DEFAULT_CONFIG.replace(auto_freeze=False)


class TestServeFacade:
    def test_serve_from_text_and_lookup(self):
        engine = serve(ACL, EngineConfig(cache_size=32))
        # the all-zero query falls through to the catch-all permit
        entry = engine.lookup(0)
        assert entry is not None
        assert engine.config.cache_size == 32

    def test_serve_from_rules_and_compiled(self):
        rules = parse_acl(ACL)
        compiled = compile_acl(rules)
        by_rules = serve(rules)
        by_compiled = serve(compiled)
        assert by_rules.lookup(0).value == by_compiled.lookup(0).value

    def test_serve_wraps_bare_matcher(self):
        matcher = MultibitPalmtrie.build(table1_entries(), 8)
        engine = serve(matcher)
        assert engine.matcher is matcher

    def test_serve_rejects_garbage(self):
        with pytest.raises(TypeError):
            serve(12345)


#: every construction surface that once took legacy keyword knobs,
#: built from a compiled ACL plus ``**kwargs``
SURFACES = [
    pytest.param(
        lambda acl, **kw: ClassificationEngine(
            MultibitPalmtrie.build(acl.entries, acl.layout.length), **kw
        ),
        id="ClassificationEngine",
    ),
    pytest.param(lambda acl, **kw: Firewall(acl, **kw), id="Firewall"),
    pytest.param(
        lambda acl, **kw: FlowMonitor(acl.entries, acl.layout.length, **kw),
        id="FlowMonitor",
    ),
    pytest.param(
        lambda acl, **kw: L3Forwarder(acl, [(0x0A, 8, 1)], **kw), id="L3Forwarder"
    ),
    pytest.param(lambda acl, **kw: StatefulFirewall(acl, **kw), id="StatefulFirewall"),
]


class TestRemovedSurfaces:
    """Removed knobs and kinds fail loudly instead of being ignored."""

    @pytest.mark.parametrize("factory", SURFACES)
    def test_legacy_keyword_knob_is_a_type_error(self, factory):
        acl = compile_acl(parse_acl(ACL))
        with pytest.raises(TypeError, match="cache_size"):
            factory(acl, cache_size=8)
        served = factory(acl, config=EngineConfig(cache_size=8))
        engine = getattr(served, "engine", served)
        assert engine.cache.capacity == 8

    @pytest.mark.parametrize(
        "knob",
        [{"matcher": "frozen"}, {"matcher": 42}, {"matcher_kwargs": {}}],
        ids=["matcher", "matcher-int", "matcher_kwargs"],
    )
    def test_matcher_knobs_are_type_errors(self, knob):
        with pytest.raises(TypeError, match=next(iter(knob))):
            EngineConfig(**knob)

    def test_firewall_stride_keyword_is_a_type_error(self):
        acl = compile_acl(parse_acl(ACL))
        with pytest.raises(TypeError, match="stride"):
            Firewall(acl, stride=4)
        firewall = Firewall(acl, EngineConfig(stride=4))
        assert firewall.engine.matcher.stride == 4

    def test_manifest_matcher_key_fails_at_load(self):
        from repro.tenant.manifest import parse_manifest

        doc = {
            "tenants": [
                {"name": "a", "acl": "permit ip any any", "engine": {"matcher": "frozen"}}
            ]
        }
        with pytest.raises(ValueError, match="matcher"):
            parse_manifest(doc)

    def test_manifest_stride_plan_key_fails_at_load(self):
        from repro.tenant.manifest import parse_manifest

        doc = {
            "tenants": [
                {
                    "name": "a",
                    "acl": "permit ip any any",
                    "engine": {"stride_plan": {"root_stride": 8}},
                }
            ]
        }
        with pytest.raises(ValueError, match="stride_plan"):
            parse_manifest(doc)


#: the apps' policy swaps, each rebuilding from a compiled ACL
SWAPS = [
    pytest.param(
        lambda acl, config: FlowMonitor(acl.entries, acl.layout.length, config=config),
        lambda app, acl: app.replace_rules(acl.entries, acl.layout.length),
        id="FlowMonitor",
    ),
    pytest.param(
        lambda acl, config: L3Forwarder(acl, [(0x0A, 8, 1)], config=config),
        lambda app, acl: app.replace_acl(acl),
        id="L3Forwarder",
    ),
    pytest.param(
        lambda acl, config: StatefulFirewall(acl, config=config),
        lambda app, acl: app.replace_acl(acl),
        id="StatefulFirewall",
    ),
]


class TestAppPolicySwaps:
    @pytest.mark.parametrize("build, swap", SWAPS)
    def test_swap_keeps_the_configured_stride(self, build, swap):
        acl = compile_acl(parse_acl(ACL))
        app = build(acl, EngineConfig(stride=4))
        assert app.engine.matcher.stride == 4
        swapped = compile_acl(parse_acl("deny ip any 192.0.2.0/24\npermit ip any any"))
        swap(app, swapped)
        assert app.engine.policy_swaps == 1
        assert app.engine.matcher.stride == 4
        assert len(app.engine.matcher) == len(swapped.entries)
