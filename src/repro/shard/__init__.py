"""Multi-process miss resolution over one PLMF image.

The in-process engine caps the frozen plane walk at one core; this
package spreads the walk of an engine's cache misses over worker
processes — parallel lanes over one compiled ruleset (the software
analogue of the FPGA firewall lanes of arXiv 1611.06078):

* :mod:`repro.shard.worker` — the per-process serving loop: decode the
  PLMF image it is sent, answer in leaf indices;
* :mod:`repro.shard.engine` — :class:`ShardedEngine`, the pool a
  :class:`~repro.engine.ClassificationEngine` resolves its misses in.

Each worker decodes its own copy of the plane; nothing is shared
between processes but the pipes.

Entry points: ``EngineConfig(shards=N)`` for any engine
(:class:`~repro.engine.ClassificationEngine`, :func:`repro.serve`); the
CLI's ``replay --shards N``.
"""

from .engine import ShardedEngine, flow_shard

__all__ = ["ShardedEngine", "flow_shard"]
