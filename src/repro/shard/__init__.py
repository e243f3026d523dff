"""Multi-process miss resolution over a shared-memory PLMF image.

The in-process engine caps the frozen plane walk at one core; this
package spreads the walk of an engine's cache misses over worker
processes — parallel lanes over one compiled ruleset (the software
analogue of the FPGA firewall lanes of arXiv 1611.06078, with the
shared read-only forwarding structure argument of arXiv 1804.09254):

* :mod:`repro.shard.plane` — publish one serialized frozen plane into
  ``multiprocessing.shared_memory``; workers map it zero-copy;
* :mod:`repro.shard.worker` — the per-process serving loop (lazy plane
  remap, leaf-index answers);
* :mod:`repro.shard.engine` — :class:`ShardedEngine`, the pool a
  :class:`~repro.engine.ClassificationEngine` resolves its misses in.

Entry points: ``EngineConfig(shards=N)`` for any engine
(:class:`~repro.engine.ClassificationEngine`, :func:`repro.serve`); the
CLI's ``replay --shards N``.
"""

from .engine import ShardedEngine, flow_shard
from .plane import attach_plane, detach_plane, publish_plane

__all__ = [
    "ShardedEngine",
    "flow_shard",
    "publish_plane",
    "attach_plane",
    "detach_plane",
]
