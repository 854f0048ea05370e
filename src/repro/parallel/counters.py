"""Memory-traffic accounting.

Python wall-clock time ranks kernels by interpreter overhead, not by the
memory traffic that dominates on the paper's machines.  The harness
therefore *counts* the element traffic each kernel actually generates and
reports it alongside wall-clock.  Kernels charge their reads/writes to a
:class:`TrafficCounter` at the same granularity the Section IV model
reasons about: whole fibers, whole factor rows, whole partial-result rows.

The counter also implements the model's cache-capacity rule for factor
matrices (``DM_factor``): a stream of ``x`` row accesses to an ``N×R``
matrix costs ``x·R`` elements when the matrix exceeds cache and
``min(N·R, x·R)`` otherwise.  Keeping that rule *here* means the measured
channel and the analytic model share one definition — the model predicts,
the counter observes, and :mod:`repro.analysis.traffic` compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = [
    "TrafficCounter",
    "NULL_COUNTER",
    "SCATTER_FLOPS_PER_UPDATE",
]

#: Effective operations charged per scattered element update.  Irregular
#: read-modify-writes (atomics / conflict-checked accumulation) sustain a
#: small fraction of streaming FMA throughput; 8 ops/element corresponds
#: to ~4x below the 2-op FMA ideal, in line with measured scatter-add
#: rates on the paper's CPU generation.
SCATTER_FLOPS_PER_UPDATE = 8.0


@dataclass
class TrafficCounter:
    """Accumulates read/write element counts, optionally per category.

    Attributes
    ----------
    cache_elements:
        Cache capacity used for the factor-row reuse rule.  ``None``
        disables the rule (all accesses charged as streaming).
    """

    cache_elements: Optional[int] = None
    reads: float = 0.0
    writes: float = 0.0
    flops: float = 0.0
    by_category: Dict[str, float] = field(default_factory=dict)
    enabled: bool = True

    # ------------------------------------------------------------------
    def _bump(self, kind: str, category: str, amount: float) -> None:
        if not self.enabled or amount <= 0:
            return
        if kind == "r":
            self.reads += amount
        else:
            self.writes += amount
        key = f"{kind}:{category}"
        self.by_category[key] = self.by_category.get(key, 0.0) + amount

    def read(self, elements: float, category: str = "misc") -> None:
        """Charge ``elements`` read from memory."""
        self._bump("r", category, elements)

    def write(self, elements: float, category: str = "misc") -> None:
        """Charge ``elements`` written to memory."""
        self._bump("w", category, elements)

    def flop(self, count: float, category: str = "compute") -> None:
        """Charge ``count`` floating-point operations (the compute leg of
        the roofline time model)."""
        if not self.enabled or count <= 0:
            return
        self.flops += count
        key = f"f:{category}"
        self.by_category[key] = self.by_category.get(key, 0.0) + count

    def scatter_update(
        self,
        accesses: int,
        n_rows: int,
        rank: int,
        num_threads: int,
        category: str = "output",
    ) -> None:
        """Charge a parallel scatter-accumulate into an ``n_rows × rank``
        output with duplicate row indices (the ``Ā^(u)[idx] += ...`` of
        modes ``u > 0``, Algorithm 4 lines 13-14).

        Unlike mode-0's boundary-replicated output, these updates conflict
        across threads; the implementation must either use atomic
        read-modify-writes (a read and a write per update, absorbed by the
        cache only when the whole output is resident) or privatize
        per-thread copies and reduce (≈2·T·N·R).  The cheaper option is
        charged, matching the paper's "either atomic updates are needed,
        or ... privatized".

        Irregular updates also execute far below streaming-FMA throughput
        (gather, multiply, conflict-checked accumulate per element); the
        compute leg charges :data:`SCATTER_FLOPS_PER_UPDATE` per updated
        element — this is the "slow MTTV kernel" cost the paper's STeF2
        sidesteps by re-rooting the leaf mode.
        """
        footprint = float(n_rows * rank)
        stream = float(accesses * rank)
        # The dense N×R result is written in full either way (CP-ALS
        # consumes it); the strategies differ in the conflict overhead.
        if self.cache_elements is not None and footprint <= self.cache_elements:
            rmw_reads = min(footprint, stream)
        else:
            rmw_reads = stream
        atomic_total = footprint + rmw_reads
        priv_total = (2.0 * num_threads + 1.0) * footprint
        if atomic_total <= priv_total or num_threads <= 1:
            self._bump("w", category, footprint)
            self._bump("r", category, rmw_reads)
        else:
            # T zero-initialized private copies written, then reduced.
            self._bump("w", category, (num_threads + 1.0) * footprint)
            self._bump("r", category, num_threads * footprint)
        self.flop(SCATTER_FLOPS_PER_UPDATE * stream, "scatter")

    def read_factor_rows(
        self, accesses: int, n_rows: int, rank: int, category: str = "factor"
    ) -> None:
        """Charge ``accesses`` row reads of an ``n_rows × rank`` factor
        matrix under the DM_factor cache rule (Section IV-C)."""
        footprint = n_rows * rank
        stream = accesses * rank
        if self.cache_elements is not None and footprint <= self.cache_elements:
            charged = min(footprint, stream)
        else:
            charged = stream
        self._bump("r", category, charged)

    def write_factor_rows(
        self, accesses: int, n_rows: int, rank: int, category: str = "factor"
    ) -> None:
        """Write-side counterpart of :meth:`read_factor_rows`."""
        footprint = n_rows * rank
        stream = accesses * rank
        if self.cache_elements is not None and footprint <= self.cache_elements:
            charged = min(footprint, stream)
        else:
            charged = stream
        self._bump("w", category, charged)

    # ------------------------------------------------------------------
    @property
    def total(self) -> float:
        """Total elements moved (reads + writes)."""
        return self.reads + self.writes

    def merge(self, other: "TrafficCounter") -> None:
        """Fold another counter's tallies into this one."""
        self.reads += other.reads
        self.writes += other.writes
        self.flops += other.flops
        for k, v in other.by_category.items():
            self.by_category[k] = self.by_category.get(k, 0.0) + v

    def reset(self) -> None:
        """Zero all tallies (capacity setting is kept)."""
        self.reads = 0.0
        self.writes = 0.0
        self.flops = 0.0
        self.by_category.clear()

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict view for reports."""
        out = {
            "reads": self.reads,
            "writes": self.writes,
            "flops": self.flops,
            "total": self.total,
        }
        out.update(self.by_category)
        return out


class _NullCounter(TrafficCounter):
    """A counter that ignores every charge — the default for hot paths."""

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def _bump(self, kind: str, category: str, amount: float) -> None:  # noqa: D401
        return


#: Shared do-nothing counter; pass a real one to opt into accounting.
NULL_COUNTER = _NullCounter()
