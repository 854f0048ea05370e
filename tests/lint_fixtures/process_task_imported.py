"""Fixture: a ``run_tasks`` task imported from another module.

Its body lives in another file, where no dispatch point vouches for it,
so ``process-task-safety`` must report this one dispatch.
"""

from repro.core.mttkrp import mode0_task


def dispatch(pool, payloads):
    # violation: the task is not a module-level function of this file
    return pool.run_tasks(mode0_task, payloads)
