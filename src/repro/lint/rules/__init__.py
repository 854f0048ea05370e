"""Built-in rule suite — importing this package registers every rule.

One module per rule family; each ``@register``-decorated class lands in
the framework registry at import time:

* :mod:`.process_safety` — ``process-task-safety``
* :mod:`.counter_discipline` — ``counter-category``
* :mod:`.hot_path` — ``hot-path``
* :mod:`.dtype_discipline` — ``dtype-discipline``
"""

from . import counter_discipline, dtype_discipline, hot_path, process_safety

__all__ = ["counter_discipline", "dtype_discipline", "hot_path", "process_safety"]
