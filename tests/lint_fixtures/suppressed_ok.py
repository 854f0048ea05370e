"""Fixture: a real violation silenced by a line suppression.

Linting this file must exit 0 with exactly one suppressed finding.
"""


def account(counter):
    counter.read(8.0, "fibres")  # lint: disable=counter-category
