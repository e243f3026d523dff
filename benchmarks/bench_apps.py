"""Application-level benchmarks: the packet paths built on Palmtrie.

End-to-end costs of the `repro.apps` pipelines over the same campus
policy and traffic: stateless filtering, connection-tracked filtering
(fast path vs ACL path), the l3fwd ACL+LPM pipeline, and flow-record
accounting.
"""

from __future__ import annotations

import pytest

from repro.acl.rule import Action
from repro.apps.conntrack import StatefulFirewall
from repro.apps.firewall import Firewall
from repro.apps.flowmon import FlowMonitor
from repro.apps.l3fwd import L3Forwarder
from repro.packet.headers import PacketHeader


@pytest.fixture(scope="module")
def headers(campus_uniform):
    return [PacketHeader.from_query(query) for query in campus_uniform]


def test_stateless_firewall_path(benchmark, campus, headers):
    firewall = Firewall(campus)

    def run():
        permits = 0
        for header in headers:
            permits += firewall.check(header) is Action.PERMIT
        return permits

    benchmark(run)


def test_stateful_fast_path(benchmark, campus, headers):
    firewall = StatefulFirewall(campus)
    for i, header in enumerate(headers):  # warm the flow table
        firewall.check(header, float(i))

    def run():
        # within the 300 s idle timeout of the warm-up's stamps, so the
        # warmed connections are still in the table
        for i, header in enumerate(headers):
            firewall.check(header, 100.0 + i)

    benchmark(run)
    assert firewall.fast_path_hits > 0


def test_l3fwd_pipeline(benchmark, campus, headers):
    router = L3Forwarder(campus, routes=[(0x0A, 8, 1), (0, 0, 0)])
    benchmark(router.process_batch, headers)


def test_flow_monitor_accounting(benchmark, campus, headers):
    def run():
        monitor = FlowMonitor(campus.entries, default_class=-1)
        for i, header in enumerate(headers):
            monitor.observe(header, length=64, timestamp=float(i))
        return monitor.active_flows()

    flows = benchmark(run)
    assert flows > 0


def test_fast_path_beats_acl_path(campus, headers):
    """The stateful point: table hits must be cheaper than ACL lookups."""
    import time

    firewall = StatefulFirewall(campus)
    start = time.perf_counter()
    for i, header in enumerate(headers):
        firewall.check(header, float(i))
    cold = time.perf_counter() - start
    start = time.perf_counter()
    for i, header in enumerate(headers):
        firewall.check(header, 1000.0 + i)
    warm = time.perf_counter() - start
    assert warm < cold


def main() -> None:
    from repro.bench.report import Table
    from repro.workloads.campus import campus_acl
    from repro.workloads.traffic import uniform_traffic
    import time

    acl = campus_acl(4)
    headers = [PacketHeader.from_query(q) for q in uniform_traffic(acl.entries, 500)]
    table = Table("Application path throughput (campus D_4)", ["path", "pkt/s"])
    stateless = Firewall(acl)
    router = L3Forwarder(acl, [(0x0A, 8, 1), (0, 0, 0)])
    paths = [
        ("stateless firewall", lambda: [stateless.check(h) for h in headers]),
        ("l3fwd (ACL+LPM)", lambda: router.process_batch(headers)),
    ]
    for name, fn in paths:
        start = time.perf_counter()
        fn()
        table.add_row(name, f"{len(headers) / (time.perf_counter() - start):,.0f}")
    stateful = StatefulFirewall(acl)
    for i, h in enumerate(headers):
        stateful.check(h, float(i))
    start = time.perf_counter()
    for i, h in enumerate(headers):
        stateful.check(h, 1000.0 + i)
    table.add_row("stateful (warm fast path)", f"{len(headers) / (time.perf_counter() - start):,.0f}")
    print(table.render())


if __name__ == "__main__":
    main()
