"""The paper's claims as deterministic work counts.

``profile_lookup`` counts node visits and key comparisons, which do not
flake the way timings do, so a claim about how much work a lookup does
is asserted exactly here rather than read off a benchmark table.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.core.basic import BasicPalmtrie
from repro.core.frozen import freeze
from repro.core.multibit import MultibitPalmtrie
from repro.workloads.classbench import classbench_acl
from repro.workloads.traffic import pareto_trace


def _visits(matcher, queries) -> list[int]:
    visits = []
    for query in queries:
        before = matcher.stats.node_visits
        matcher.profile_lookup(query)
        visits.append(matcher.stats.node_visits - before)
    return visits


@lru_cache(maxsize=None)
def _acl_and_queries(rules: int):
    acl = classbench_acl("acl", rules, seed=2020)
    return acl, tuple(pareto_trace(acl.entries, 500, seed=7))


class TestFig7SubtreeSkipping:
    """Fig. 7: Palmtrie_1 without subtree skipping is the basic Palmtrie
    walked one bit at a time, so it visits exactly the basic trie's
    nodes on every query; subtree skipping (§3.4) strictly cuts them."""

    @pytest.mark.parametrize("rules", [40, 500, 2000])
    def test_stride_one_matches_basic_and_skipping_cuts_visits(self, rules):
        acl, queries = _acl_and_queries(rules)
        length = acl.layout.length
        basic = _visits(BasicPalmtrie.build(acl.entries, length), queries)
        plain = _visits(
            MultibitPalmtrie.build(acl.entries, length, stride=1, subtree_skipping=False),
            queries,
        )
        skipping = _visits(
            MultibitPalmtrie.build(acl.entries, length, stride=1, subtree_skipping=True),
            queries,
        )
        assert plain == basic
        assert all(s <= b for s, b in zip(skipping, basic))
        assert sum(skipping) < sum(basic)


class TestServedPlane:
    """§3.6: the engine serves the frozen plane compiled from its
    Palmtrie_k, so the work claims made on the trie hold for what is
    served: the plane visits exactly its Palmtrie_k's nodes, query by
    query, with or without subtree skipping."""

    @pytest.mark.parametrize("skipping", [True, False], ids=["skipping", "plain"])
    @pytest.mark.parametrize("stride", [1, 4, 8])
    @pytest.mark.parametrize("rules", [40, 500, 2000])
    def test_plane_visits_exactly_its_palmtrie_k_nodes(self, rules, stride, skipping):
        acl, queries = _acl_and_queries(rules)
        trie = MultibitPalmtrie.build(
            acl.entries, acl.layout.length, stride=stride, subtree_skipping=skipping
        )
        assert _visits(freeze(trie), queries) == _visits(trie, queries)

    @pytest.mark.parametrize("rules", [500, 2000])
    def test_skipping_cuts_plane_visits_at_stride_eight(self, rules):
        """Fig. 7 / Table 4 on the served form: subtree skipping cuts the
        plane's total visits by at least 1.3x (1.48x at 500 rules and
        1.81x at 2,000 when this was written)."""
        acl, queries = _acl_and_queries(rules)

        def plane_visits(skipping: bool) -> int:
            trie = MultibitPalmtrie.build(
                acl.entries, acl.layout.length, stride=8, subtree_skipping=skipping
            )
            return sum(_visits(freeze(trie), queries))

        assert plane_visits(False) >= 1.3 * plane_visits(True)
