"""The paper's claims as deterministic work counts.

``profile_lookup`` counts node visits and key comparisons, which do not
flake the way timings do, so a claim about how much work a lookup does
is asserted exactly here rather than read off a benchmark table.
"""

from __future__ import annotations

import pytest

from repro.core.basic import BasicPalmtrie
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


class TestFig7SubtreeSkipping:
    """Fig. 7: Palmtrie_1 without subtree skipping is the basic Palmtrie
    walked one bit at a time, so it visits exactly the basic trie's
    nodes on every query; subtree skipping (§3.4) strictly cuts them."""

    @pytest.mark.parametrize("rules", [40, 500, 2000])
    def test_stride_one_matches_basic_and_skipping_cuts_visits(self, rules):
        acl = classbench_acl("acl", rules, seed=2020)
        length = acl.layout.length
        queries = pareto_trace(acl.entries, 500, seed=7)
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
