"""The multi-tenant serving surface: one router, many engines.

:class:`TenantRouter` owns one :class:`Tenant` per manifest entry —
each tenant an independent :class:`~repro.engine.ClassificationEngine`
(with its own shard pool when its ``EngineConfig`` asks for one), its
own admission quotas, last-good checkpoint and :class:`~repro.tenant.rollout.RolloutController` — behind one
``lookup``/``lookup_batch`` surface keyed by tenant name.

Isolation is the contract the bench gates: a tenant exhausting its
rate quota is denied fail-closed (``None``, never a late or wrong
answer), a tenant's bad rollout trips *its* guards and restores *its*
checkpoint, and in both incidents every sibling tenant's verdict
stream stays bit-identical to a solo run, because nothing is shared
between tenants but the Python process (and, optionally, one metrics
registry — where every series carries a ``{"tenant": ...}`` label).
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Iterable, Optional, Sequence

from ..acl.compiler import compile_acl
from ..acl.parser import parse_acl
from ..core.frozen import freeze
from ..core.table import build_matcher
from ..engine import ClassificationEngine
from ..obs.metrics import MetricsRegistry
from .manifest import TenantSpec, load_manifest
from .quotas import MemoryQuota, QuotaExceeded, TokenBucket
from .rollout import RolloutController

__all__ = ["Tenant", "TenantRouter"]


def _compile_spec(spec: TenantSpec) -> Any:
    """The spec's policy as a compiled ACL."""
    return compile_acl(parse_acl(spec.policy_text()))


class Tenant:
    """One tenant's engine, quotas and rollout supervisor.

    ``checkpoint_dir`` (optional) activates the durable half: the
    last-good PLMC lands at ``<dir>/<name>.plmc`` and rollout state at
    ``<dir>/<name>.rollout.json``.  With ``recover=True`` the engine
    boots through :meth:`~repro.engine.ClassificationEngine.
    from_checkpoint` against that PLMC (rebuilding from the manifest's
    ACL source when it is missing or corrupt), and an interrupted
    rollout found in the sidecar is marked ROLLED_BACK — the old
    policy serves, coherently, before the first packet.
    """

    def __init__(
        self,
        spec: TenantSpec,
        *,
        metrics: Optional[MetricsRegistry] = None,
        checkpoint_dir: Optional[str] = None,
        injector: Optional[Any] = None,
        clock: Callable[[], float] = time.monotonic,
        recover: bool = False,
    ) -> None:
        self.spec = spec
        self.name = spec.name
        self.metrics = metrics
        self.bucket = TokenBucket(spec.rate, spec.burst, clock)
        self.quota = MemoryQuota(spec.memory_bytes)
        self.lookups = 0
        last_good = rollout_path = None
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)
            last_good = os.path.join(checkpoint_dir, f"{spec.name}.plmc")
            rollout_path = os.path.join(checkpoint_dir, f"{spec.name}.rollout.json")
        config = spec.engine.replace(last_good_path=last_good)
        compiled = _compile_spec(spec)
        #: the manifest policy as compiled at boot (traffic synthesis,
        #: rebuild-from-source recovery)
        self.compiled = compiled
        self._rebuild = lambda: build_matcher(
            config, compiled.entries, compiled.layout.length
        )
        self.key_length = compiled.layout.length
        if recover and last_good is not None:
            self.engine = ClassificationEngine.from_checkpoint(
                last_good, rebuild=self._rebuild, config=config
            )
        else:
            self.engine = ClassificationEngine(self._rebuild(), config)
        # The quota measures the plane the engine serves (what its
        # checkpoint writes), so a boot-time build and a recovery from
        # its checkpoint read the same bytes.  A recovered policy faces
        # the same ceiling a build does — a checkpoint written before the
        # quota was tightened must not sneak back into service — and an
        # over-quota policy never serves a packet.
        try:
            self.quota.admit(self.engine.current_plane(), tenant=spec.name)
        except QuotaExceeded:
            self.engine.close()
            raise
        self.rollout = RolloutController(
            spec.name,
            self.engine,
            guards=spec.guards,
            state_path=rollout_path,
            injector=injector,
            metrics=metrics,
        )
        if recover and rollout_path is not None:
            doc = RolloutController.read_state(rollout_path)
            if doc is not None:
                self.rollout.state = doc.get("state", "idle")
                self.rollout.canary_pct = doc.get("canary_pct", 0.0)
                self.rollout.seed = doc.get("seed", 0)
                self.rollout.transitions = list(doc.get("transitions", []))
                self.rollout.last_verdict = doc.get("last_verdict")
                if self.rollout.state in ("staged", "canary"):
                    # The crash window: the engine above already came
                    # back from the last-good checkpoint; stamp it.
                    self.rollout.mark_crash_recovered()

    # -- the data plane ----------------------------------------------------

    def lookup_batch(self, queries: Sequence[int]) -> list[Any]:
        """Serve one batch under admission control.

        The rate bucket is checked once per burst: it admits the
        longest prefix it has tokens for, and the denied suffix is
        answered ``None`` (fail-closed) without touching any engine.
        Admitted packets route through the rollout controller while a
        canary window is open, the stable engine otherwise.
        """
        if not isinstance(queries, list):
            queries = list(queries)
        n = len(queries)
        self.lookups += n
        admitted = self.bucket.take_upto(n)
        if not admitted:
            return [None] * n
        if admitted < n:
            queries = queries[:admitted]
        served = (
            self.rollout.route_batch(queries)
            if self.rollout.state == "canary"
            else self.engine.lookup_batch(queries)
        )
        if admitted < n:
            served = list(served) + [None] * (n - admitted)
        return served

    def lookup(self, query: int) -> Any:
        return self.lookup_batch([query])[0]

    # -- the control plane -------------------------------------------------

    def apply_updates(self, ops: Iterable[Any]) -> Any:
        """A quota-guarded update transaction.

        Refused (``RuntimeError``) while a rollout is staged or in its
        canary window: a promote replaces the stable policy wholesale
        and would silently drop the update.

        With a memory quota set, the pre-update policy is stamped
        last-good first; an update that lands the compiled policy over
        quota is undone by restoring that stamp, and
        :class:`QuotaExceeded` propagates — the tenant keeps serving
        the pre-update policy (fail closed, never fail big).  The
        stamp works without a ``checkpoint_dir``: ``mark_last_good``
        falls back to an in-memory blob when no path is configured.
        """
        if self.rollout.state in ("staged", "canary"):
            raise RuntimeError(
                f"cannot update while rollout is {self.rollout.state!r} (finish it first)"
            )
        guarded = self.quota.limit_bytes is not None
        if guarded:
            self.engine.mark_last_good()
        report = self.engine.apply_updates(ops)
        if guarded:
            try:
                self.quota.admit(self.engine.current_plane(), tenant=self.name)
            except QuotaExceeded:
                self.engine.restore_last_good()
                raise
        return report

    def stage_rollout(
        self,
        policy: Any,
        canary_pct: Optional[float] = None,
        seed: int = 2020,
    ) -> None:
        """Stage ``policy`` (ACL text, a CompiledAcl, or a built
        matcher) and open its canary window.  The memory quota is
        enforced on the *candidate's* frozen plane before anything
        serves it."""
        if isinstance(policy, str):
            compiled = compile_acl(parse_acl(policy))
            matcher = build_matcher(
                self.spec.engine, compiled.entries, compiled.layout.length
            )
        elif hasattr(policy, "entries") and hasattr(policy, "layout"):
            matcher = build_matcher(
                self.spec.engine, policy.entries, policy.layout.length
            )
        else:
            matcher = policy
        self.quota.admit(freeze(matcher), tenant=self.name)
        self.rollout.stage(matcher)
        self.rollout.begin_canary(
            canary_pct if canary_pct is not None else self.spec.canary_pct, seed
        )

    # -- observability / lifecycle ----------------------------------------

    @property
    def health(self) -> str:
        return self.engine.health

    def report(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "health": self.health,
            "lookups": self.lookups,
            "rate_quota": self.bucket.report(),
            "memory_quota": self.quota.report(),
            "rollout": self.rollout.report(),
            "engine": self.engine.report(),
        }

    def close(self) -> None:
        self.engine.close()


class TenantRouter:
    """Every tenant behind one lookup surface.

    Construct from specs (or :meth:`from_manifest`); pass a shared
    :class:`~repro.obs.MetricsRegistry` to get the tenant-labeled
    ``tenant_*``/``rollout_*`` series, and ``checkpoint_dir`` to make
    rollouts durable (and ``recover=True`` boots crash-coherent).
    """

    def __init__(
        self,
        specs: Iterable[TenantSpec],
        *,
        metrics: Optional[MetricsRegistry] = None,
        checkpoint_dir: Optional[str] = None,
        injector: Optional[Any] = None,
        clock: Callable[[], float] = time.monotonic,
        recover: bool = False,
    ) -> None:
        self.metrics = metrics
        self.tenants: dict[str, Tenant] = {}
        for spec in specs:
            if spec.name in self.tenants:
                raise ValueError(f"duplicate tenant {spec.name!r}")
            self.tenants[spec.name] = Tenant(
                spec,
                metrics=metrics,
                checkpoint_dir=checkpoint_dir,
                injector=injector,
                clock=clock,
                recover=recover,
            )
        if metrics is not None:
            metrics.add_collector(self._sync_metrics)

    @classmethod
    def from_manifest(cls, path: str, **kwargs: Any) -> "TenantRouter":
        return cls(load_manifest(path), **kwargs)

    # -- routing -----------------------------------------------------------

    def __getitem__(self, name: str) -> Tenant:
        try:
            return self.tenants[name]
        except KeyError:
            raise KeyError(
                f"unknown tenant {name!r}; serving {sorted(self.tenants)}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self.tenants)

    def lookup(self, tenant: str, query: int) -> Any:
        return self[tenant].lookup(query)

    def lookup_batch(self, tenant: str, queries: Sequence[int]) -> list[Any]:
        return self[tenant].lookup_batch(queries)

    # -- observability -----------------------------------------------------

    def _sync_metrics(self) -> None:
        """Registry collector: mirror per-tenant counters into labeled
        series before every export (docs/observability.md)."""
        registry = self.metrics
        if registry is None:  # pragma: no cover - collector unhooked
            return
        for name, tenant in self.tenants.items():
            labels = {"tenant": name}
            registry.counter(
                "tenant_lookups_total",
                "Packets offered to this tenant (admitted or denied).",
                labels=labels,
            ).set_total(tenant.lookups)
            registry.counter(
                "tenant_denied_total",
                "Fail-closed denials, labeled by the quota that said no.",
                labels={"tenant": name, "reason": "rate"},
            ).set_total(tenant.bucket.denied)
            registry.counter(
                "tenant_denied_total",
                "Fail-closed denials, labeled by the quota that said no.",
                labels={"tenant": name, "reason": "memory"},
            ).set_total(tenant.quota.rejected)
            registry.gauge(
                "tenant_policy_memory_bytes",
                "Compiled-policy footprint last shown to the memory quota.",
                labels=labels,
            ).set(float(tenant.quota.last_bytes))
            for state in ("ok", "degraded", "quarantined"):
                registry.gauge(
                    "tenant_engine_health",
                    "One-hot engine health per tenant.",
                    labels={"tenant": name, "state": state},
                ).set(1.0 if tenant.health == state else 0.0)

    def status(self) -> list[dict[str, Any]]:
        """One summary row per tenant (the ``tenants`` CLI surface)."""
        rows = []
        for name in self.names():
            tenant = self.tenants[name]
            rows.append(
                {
                    "tenant": name,
                    "health": tenant.health,
                    "rollout": tenant.rollout.state,
                    "lookups": tenant.lookups,
                    "rate_denied": tenant.bucket.denied,
                    "memory_bytes": tenant.quota.last_bytes,
                    "memory_limit": tenant.quota.limit_bytes,
                    "promotes": tenant.rollout.promotes,
                    "rollbacks": tenant.rollout.rollbacks,
                }
            )
        return rows

    def report(self) -> dict[str, Any]:
        return {name: tenant.report() for name, tenant in sorted(self.tenants.items())}

    def close(self) -> None:
        for tenant in self.tenants.values():
            tenant.close()
