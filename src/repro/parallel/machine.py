"""Machine models for the two evaluation platforms.

The paper's experiments run on an 18-core Intel i9-10980XE (Cascade Lake)
and a 64-core AMD 3990X (Threadripper), both with 128 GB DRAM
(Section VI-A).  Two machine properties drive every decision STeF makes:

* **thread count** — the load-balancing experiments (Fig. 2, Fig. 6.1)
  depend on how many threads must be fed;
* **cache capacity** — the data-movement model's ``DM_factor`` rule
  (Section IV-C) charges a factor-matrix access stream either ``x·R``
  (streaming, matrix exceeds cache) or ``min(N_i·R, x·R)`` (resident).

A :class:`MachineSpec` carries exactly those parameters plus a relative
bandwidth figure used to convert modeled element traffic into a simulated
execution time.  The paper's observation that "the cache sizes and cache
structures are different [so] this phenomenon happens with different
tensors on different machines" falls out of the two presets' different
``cache_bytes``.  The cache also scales how many *execution blocks* —
runs of consecutive simulated threads dispatched as one task — an MTTKRP
kernel runs as (:meth:`MachineSpec.execution_blocks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["MachineSpec", "INTEL_CLX_18", "AMD_TR_64", "MACHINES", "BLOCK_CACHE_DIVISOR"]

#: An execution block's ``nnz / B × R`` elements may fill one
#: ``BLOCK_CACHE_DIVISOR``-th of a core's share of the modelled cache.
#: The figure is fitted to measured set times, not derived from cache
#: fit: small blocks pay one dispatch each, so few blocks win on small
#: tensors.  Measured with uber at rank 16 on intel-clx-18's 18 simulated
#: threads (serial backend, 2-core host): one eighth gives 2 blocks at 2k
#: non-zeros, the fastest count there (1 or 18 blocks took about twice as
#: long), and 18 at 200k, where every count from 2 up ran within noise of
#: the best and one block 50 % slower.  At 20k it gives 15 blocks, ~7.3 ms
#: a set against ~4.3 ms for 3-7 blocks: between 2k and 200k the rule is
#: unverified.
BLOCK_CACHE_DIVISOR = 8


@dataclass(frozen=True)
class MachineSpec:
    """A shared-memory multiprocessor for the simulation substrate.

    Attributes
    ----------
    name:
        Display name used in harness output.
    num_threads:
        Hardware threads the kernels are partitioned across.
    cache_bytes:
        Capacity of the last-level cache.  The Section IV model treats the
        cache as a single capacity threshold; that is deliberately coarse
        (the paper's model is too) and is what the ablation validates.
    element_bytes:
        Bytes per tensor/factor element (double precision = 8).
    dram_gbps:
        Sustained memory bandwidth in GB/s; used only to convert modeled
        byte traffic into simulated seconds for reporting.
    """

    name: str
    num_threads: int
    cache_bytes: int
    element_bytes: int = 8
    dram_gbps: float = 50.0
    gflops: float = 500.0

    @property
    def cache_elements(self) -> int:
        """Cache capacity in elements (the unit the paper's model uses)."""
        return self.cache_bytes // self.element_bytes

    def effective_bandwidth_gbps(self, active_threads: Optional[int] = None) -> float:
        """Bandwidth available to ``active_threads`` concurrent streams.

        A single core cannot saturate DRAM; bandwidth ramps linearly and
        saturates once ~a quarter of the cores are streaming (typical for
        both evaluation machines).
        """
        if active_threads is None:
            return self.dram_gbps
        saturation = max(1.0, 0.25 * self.num_threads)
        return self.dram_gbps * min(1.0, active_threads / saturation)

    def effective_gflops(self, active_threads: Optional[int] = None) -> float:
        """Compute throughput of ``active_threads`` cores (linear)."""
        if active_threads is None:
            return self.gflops
        return self.gflops * min(1.0, active_threads / self.num_threads)

    def traffic_seconds(
        self, elements: float, active_threads: Optional[int] = None
    ) -> float:
        """Simulated time to move ``elements`` doubles to/from DRAM."""
        bw = self.effective_bandwidth_gbps(active_threads)
        return elements * self.element_bytes / (bw * 1e9)

    def compute_seconds(
        self, flops: float, active_threads: Optional[int] = None
    ) -> float:
        """Simulated time to execute ``flops`` floating-point operations."""
        return flops / (self.effective_gflops(active_threads) * 1e9)

    def roofline_seconds(
        self,
        elements: float,
        flops: float,
        active_threads: Optional[int] = None,
    ) -> float:
        """Roofline execution time: the binding resource (memory traffic
        or compute) determines the kernel's duration.  Pass
        ``active_threads`` for thread-scaling studies; omitted, the full
        machine's resources apply."""
        return max(
            self.traffic_seconds(elements, active_threads),
            self.compute_seconds(flops, active_threads),
        )

    def execution_blocks(self, nnz: int, rank: int, num_threads: int) -> int:
        """How many execution blocks ``num_threads`` simulated threads run
        a kernel over ``nnz`` non-zeros at rank ``rank`` as: enough that
        each block's ``nnz / B × R`` elements stay within a budget scaled
        from the cache (:data:`BLOCK_CACHE_DIVISOR`, fitted to measured
        dispatch overhead), at least one and at most one per thread."""
        budget = max(1, self.cache_bytes // (self.num_threads * BLOCK_CACHE_DIVISOR))
        need = nnz * rank * self.element_bytes
        return min(num_threads, max(1, -(-need // budget)))

    def with_threads(self, num_threads: int) -> "MachineSpec":
        """Same machine with a different active thread count (scaling
        studies)."""
        return MachineSpec(
            name=f"{self.name}@{num_threads}t",
            num_threads=num_threads,
            cache_bytes=self.cache_bytes,
            element_bytes=self.element_bytes,
            dram_gbps=self.dram_gbps,
            gflops=self.gflops,
        )

    def with_cache_scale(self, scale: float) -> "MachineSpec":
        """Same machine with its cache scaled by ``scale``.

        The benchmark harness scales each tensor's mode lengths down by a
        per-tensor factor; scaling the cache by the *same* factor
        preserves which factor matrices are cache-resident — the
        relationship the ``DM_factor`` rule and the paper's "sharp
        slow down" cases depend on (DESIGN.md §2).
        """
        if not 0 < scale:
            raise ValueError("scale must be positive")
        return MachineSpec(
            name=self.name if scale == 1.0 else f"{self.name}~c{scale:.3g}",
            num_threads=self.num_threads,
            cache_bytes=max(1, int(self.cache_bytes * scale)),
            element_bytes=self.element_bytes,
            dram_gbps=self.dram_gbps,
            gflops=self.gflops,
        )


#: 18-core Intel i9-10980XE: 24.75 MB L3 (unified victim cache),
#: ~90 GB/s quad-channel DDR4.  ``gflops`` is the *effective* throughput
#: of irregular sparse-gather kernels (~2 ops/cycle/core), not peak FMA —
#: MTTKRP never vectorizes to peak, and using the sustained figure is
#: what lets the compute leg of the roofline discriminate methods the
#: way the paper's wall-clock does.
INTEL_CLX_18 = MachineSpec(
    name="intel-clx-18",
    num_threads=18,
    cache_bytes=24_750_000,
    dram_gbps=90.0,
    gflops=110.0,
)

#: 64-core AMD 3990X: 256 MB total L3 (8 MB per CCX × 32 CCX),
#: ~100 GB/s quad-channel DDR4; same sustained-irregular-throughput
#: convention as the Intel preset.
AMD_TR_64 = MachineSpec(
    name="amd-tr-64",
    num_threads=64,
    cache_bytes=256_000_000,
    dram_gbps=100.0,
    gflops=370.0,
)

#: Presets keyed by harness name.
MACHINES = {m.name: m for m in (INTEL_CLX_18, AMD_TR_64)}
