"""The rule registry.

Rules are plain objects grouped by invariant family; adding one means
writing a ``check(ctx, config)`` generator (or ``check_project`` for
whole-program rules) and listing the instance here.  Ids are kebab-case
and double as the pragma suffix (``# lint: allow-<id>(<reason>)``).
"""

from repro.analysis.rules.crosspath import CrossPathStateRule
from repro.analysis.rules.determinism import (
    UnseededRandomRule,
    WallClockRule,
)
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
from repro.analysis.rules.hygiene import PrintCallRule
from repro.analysis.rules.layering import LayeringRule, ModuleLayeringRule
from repro.analysis.rules.lifecycle import ResourceLifecycleRule
from repro.analysis.rules.locks import GuardedByRule, LockOrderRule
from repro.analysis.rules.sharedstate import (
    SharedClassStateRule,
    SharedModuleStateRule,
)

#: Every per-file rule CI runs, in reporting-id order.
ALL_RULES = (
    BroadExceptRule(),
    ForeignExceptionBaseRule(),
    GuardedByRule(),
    LayeringRule(),
    ModuleLayeringRule(),
    PrintCallRule(),
    PrivateMutationRule(),
    RaiseForeignRule(),
    ResourceLifecycleRule(),
    RowIdMintRule(),
    SharedClassStateRule(),
    UnseededRandomRule(),
    WallClockRule(),
)

#: Every whole-program rule, run over the project index after all files
#: have been parsed.
ALL_PROJECT_RULES = (
    CrossPathStateRule(),
    ExceptionEscapeRule(),
    LockOrderRule(),
    SharedModuleStateRule(),
)

#: The whole-program dataflow family, selectable with
#: ``--report dataflow``: the concurrency-readiness, resource-lifecycle
#: and exception-flow checks added for the concurrent-serving audit.
DATAFLOW_RULE_IDS = frozenset(
    {
        "cross-path-state",
        "exception-flow",
        "guarded-by",
        "lock-order",
        "resource-lifecycle",
        "shared-class-state",
        "shared-state",
    }
)
