"""The rule registry.

Rules are plain objects grouped by invariant family; adding one means
writing a ``check(ctx, config)`` generator (or ``check_project`` for
whole-program rules) and listing the instance here.  Ids are kebab-case
and double as the pragma suffix (``# lint: allow-<id>(<reason>)``).
"""

from repro.analysis.rules.banned import BannedNameRule
from repro.analysis.rules.discipline import (
    PrivateMutationRule,
    RowIdMintRule,
)
from repro.analysis.rules.excflow import ExceptionEscapeRule
from repro.analysis.rules.exceptions import (
    BroadExceptRule,
    ForeignExceptionBaseRule,
    RaiseForeignRule,
)
from repro.analysis.rules.layering import LayeringRule
from repro.analysis.rules.lifecycle import ResourceLifecycleRule
from repro.analysis.rules.locks import GuardedByRule
from repro.analysis.rules.sharedstate import (
    SharedClassStateRule,
    SharedModuleStateRule,
)

#: Every per-file rule CI runs, in reporting-id order.
ALL_RULES = (
    BannedNameRule(),
    BroadExceptRule(),
    ForeignExceptionBaseRule(),
    GuardedByRule(),
    LayeringRule(),
    PrivateMutationRule(),
    RaiseForeignRule(),
    ResourceLifecycleRule(),
    RowIdMintRule(),
    SharedClassStateRule(),
)

#: Every whole-program rule, run over the project index after all files
#: have been parsed.
ALL_PROJECT_RULES = (
    ExceptionEscapeRule(),
    SharedModuleStateRule(),
)
