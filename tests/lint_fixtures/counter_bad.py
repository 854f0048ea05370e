"""Fixture: counter-category violations (never imported, AST-only).

One invented category string, one category that is not a literal.
Neither charge sits in a kernel module or a ``run_tasks`` task, so only
the counter-category rule fires.
"""


def account(counter, kind):
    counter.read(8.0, "fibres")  # not in CANONICAL_TRAFFIC_CATEGORIES
    counter.write(4.0, category=kind)  # not statically auditable
