"""Fixture: every way to hand ``run_tasks`` an unpicklable/stateful task.

Each violation below must trip ``process-task-safety`` exactly once.
"""

TOTALS = {}
SEEN = {}


class Coordinator:
    def __init__(self, pool):
        self.pool = pool
        self.state = 0

    def _bound_task(self, payload):
        return payload

    def dispatch_lambda(self, payloads):
        # violation 1: lambda task
        return self.pool.run_tasks(lambda p: p + 1, payloads)

    def dispatch_bound(self, payloads):
        # violation 2: bound-method task
        return self.pool.run_tasks(self._bound_task, payloads)

    def dispatch_nested(self, payloads):
        def nested_task(payload):
            return payload * 2

        # violation 3: nested def task
        return self.pool.run_tasks(nested_task, payloads)

    def dispatch_stateful(self, payloads):
        return self.pool.run_tasks(stateful_task, payloads)


def stateful_task(payload):
    # violation 4: global declaration in a task body
    global TOTALS
    # violation 5: attribute write to module-level state
    stateful_task.calls = payload
    # violation 6: subscript write into a module-level dict
    SEEN[payload] = payload
    return payload
