"""TCAM reference model (paper §2 context).

Ternary matching is traditionally solved in hardware: a TCAM compares
a query against *every* entry in parallel and priority-encodes the
first match, in a single memory cycle.  The paper's motivation is that
TCAM "has problems with its power consumption, heat, monetary cost,
and scalability" (§2, refs [1, 5, 17, 37, 39]) — which is why software
ternary matching on commodity CPUs matters at all.

This model provides both halves of that argument:

* a functionally exact TCAM: single-cycle-equivalent lookup semantics
  (position = priority, first match wins), usable as another oracle in
  differential tests;
* a first-order cost model (per-search energy, per-bit area) with
  literature-typical constants, so benchmarks can print the trade the
  paper alludes to: a TCAM answers in one cycle but burns watts and
  dollars per megabit, while Palmtrie+ rides DRAM.

The cost constants are order-of-magnitude figures from the TCAM
literature (Agrawal & Sherwood's model, §2 ref [1]); they parameterize
the model and are not measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from ..core.table import TernaryEntry, TernaryMatcher
from ..core.ternary import TernaryKey

__all__ = ["TcamModel", "TcamCost"]


@dataclass(frozen=True)
class TcamCost:
    """First-order TCAM cost estimate for one configuration."""

    entries: int
    key_bits: int
    #: energy per search operation (nJ)
    search_energy_nj: float
    #: modeled silicon area (mm^2)
    area_mm2: float
    #: power at a given search rate (W)
    watts_at_100mlps: float


class TcamModel(TernaryMatcher):
    """Functionally exact TCAM with a cost model attached.

    Entries occupy TCAM slots in priority order (highest first), the
    way a router driver programs them; lookup scans in slot order and
    returns the first hit — semantically identical to the hardware's
    parallel compare + priority encoder.  ``profile_lookup`` charges
    exactly one "visit" per lookup: the single-cycle hardware model.
    """

    name = "tcam"

    #: nJ per searched bit (order of magnitude from TCAM power models)
    ENERGY_PER_BIT_NJ = 0.001
    #: mm^2 per ternary bit cell (16T cells at a mature process node)
    AREA_PER_BIT_MM2 = 2e-6

    def __init__(self, key_length: int, capacity: int = 4096) -> None:
        super().__init__(key_length)
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._slots: list[TernaryEntry] = []

    def insert(self, entry: TernaryEntry) -> None:
        if entry.key.length != self.key_length:
            raise ValueError(
                f"entry key length {entry.key.length} != TCAM key length {self.key_length}"
            )
        if len(self._slots) >= self.capacity:
            raise OverflowError(
                f"TCAM capacity exhausted ({self.capacity} slots) — the §2 "
                "scalability problem"
            )
        # Program the slot at the priority-ordered position.
        position = 0
        while position < len(self._slots) and self._slots[position].priority >= entry.priority:
            position += 1
        self._slots.insert(position, entry)
        self.generation += 1

    def delete(self, key: TernaryKey) -> bool:
        kept = [e for e in self._slots if e.key != key]
        if len(kept) == len(self._slots):
            return False
        self._slots = kept
        self.generation += 1
        return True

    def lookup(self, query: int) -> Optional[TernaryEntry]:
        for entry in self._slots:
            if entry.key.matches(query):
                return entry
        return None

    def lookup_all(self, query: int) -> list[TernaryEntry]:
        return [e for e in self._slots if e.key.matches(query)]

    def _counted_lookup(self, query: int) -> tuple[Optional[TernaryEntry], int, int]:
        """One visit per lookup: the parallel-compare hardware model."""
        return self.lookup(query), 1, 1

    def __len__(self) -> int:
        return len(self._slots)

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Provisioned ternary bits as bytes (capacity, not occupancy —
        TCAMs are sized up front, another §2 cost)."""
        return self.capacity * self.key_length * 2 // 8

    def cost(self) -> TcamCost:
        """First-order energy/area estimate for this configuration."""
        searched_bits = self.capacity * self.key_length
        energy_nj = searched_bits * self.ENERGY_PER_BIT_NJ
        return TcamCost(
            entries=len(self._slots),
            key_bits=self.key_length,
            search_energy_nj=energy_nj,
            area_mm2=searched_bits * self.AREA_PER_BIT_MM2,
            watts_at_100mlps=energy_nj * 1e-9 * 100e6,
        )

    @classmethod
    def build(
        cls, entries: Iterable[TernaryEntry], key_length: int, **kwargs: Any
    ) -> "TcamModel":
        entries = list(entries)
        capacity = kwargs.pop("capacity", max(4096, len(entries)))
        tcam = cls(key_length, capacity=capacity, **kwargs)
        for entry in entries:
            tcam.insert(entry)
        return tcam
