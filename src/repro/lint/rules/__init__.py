"""Concrete lint rules.

Importing this package registers every rule; the import order below
fixes the registry (and therefore execution and report) order.
"""

from repro.lint.rules import protocol as protocol  # noqa: F401
from repro.lint.rules import circuit as circuit  # noqa: F401
from repro.lint.rules import implementability as implementability  # noqa: F401
from repro.lint.rules import rates as rates  # noqa: F401
from repro.lint.rules import indicators as indicators  # noqa: F401
from repro.lint.rules import conservation as conservation  # noqa: F401
from repro.lint.rules import reachability as reachability  # noqa: F401
from repro.lint.rules import composition as composition  # noqa: F401
from repro.lint.rules import certificates as certificates  # noqa: F401
