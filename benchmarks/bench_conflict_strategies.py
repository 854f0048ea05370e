"""Extension: the write-conflict design space of Section II-D.

The paper rejects two standard conflict-handling schemes before proposing
boundary replication: "we could use atomic updates; however, the cost of
atomic operations will degrade the performance.  Another option is to use
privatization ... but it increases the amount of data movement."

This bench quantifies all three for the mode-0 sweep across the Table-I
tensors (T = 18 threads), in extra element traffic beyond the
conflict-free baseline:

* **replication** (STeF): one extra buffer row per shared boundary node
  per level — at most ``T`` rows/level — written and re-read at merge;
* **atomics**: every *accumulation* into a shared level becomes a
  read-modify-write: 2x traffic on all ``m_i·R`` partial updates (plus
  serialization the traffic metric cannot even see);
* **privatization**: each thread owns a full copy of every written level:
  ``T · m_i · R`` zero-init writes + the same volume re-read and reduced.

The outcome — replication smaller by orders of magnitude — is the
quantitative form of the paper's argument.
"""

from common import bench_suite, emit
from repro.core import build_schedule
from repro.tensor import CsfTensor

THREADS = 18
RANK = 32


def _strategy_costs(csf, threads, rank):
    ws = build_schedule(csf, threads, "nnz")
    d = csf.ndim
    # Levels written during the mode-0 sweep: every internal level's
    # partials (transient or saved) + the root output.
    written_levels = list(range(d - 1))
    repl_rows = sum(len(nodes) for nodes in ws.shared_nodes_per_level)
    replication = 2 * repl_rows * rank  # write + merge-read of extras
    atomics = sum(2 * csf.fiber_counts[l] * rank for l in written_levels)
    privatization = sum(
        2 * threads * csf.fiber_counts[l] * rank for l in written_levels
    )
    return replication, atomics, privatization


def test_conflict_strategies(benchmark):
    tensors = {n: t for n, t in bench_suite().items()}

    def run():
        rows = {}
        for name, tensor in tensors.items():
            csf = CsfTensor.from_coo(tensor)
            rows[name] = _strategy_costs(csf, THREADS, RANK)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"Write-conflict strategies: extra element traffic of the mode-0 "
        f"sweep (T={THREADS}, R={RANK})",
        f"{'tensor':22}{'replication':>14}{'atomics':>14}{'privatized':>14}"
        f"{'repl/atomic':>13}",
        "-" * 77,
    ]
    for name, (repl, atom, priv) in rows.items():
        lines.append(
            f"{name:22}{repl:>14.0f}{atom:>14.0f}{priv:>14.0f}"
            f"{repl / max(atom, 1):>13.5f}"
        )
    emit("conflict_strategies.txt", "\n".join(lines))

    for name, (repl, atom, priv) in rows.items():
        assert repl < atom, name          # replication beats atomics
        assert atom < priv, name          # which beats full privatization
        assert repl < 0.05 * atom, name   # ... by a wide margin
