"""Context aliases — the lean alternative to GAV virtual views (§4).

The paper concedes one GAV convenience NETMARK lacks: "If the Budget
section happens to be referred to as 'Cost Details' in another source
then, strictly speaking, in NETMARK we have to specify two Context
queries."  Its position is that full virtual-view machinery is not worth
its schemas and mappings — but nothing stops a *lean* version: a named
alias that expands to context alternatives at query time.

An alias is one declarative line (``Budget -> Budget | Cost Details |
Funding``), lives client-side like everything else in NETMARK, and
involves no schemas: it is exactly the paper's "two Context queries"
folded behind a name.  Aliases expand recursively (an alias may mention
another); a phrase that would re-enter an alias already being expanded is
kept as a literal phrase, so the natural self-including definition
(``Budget -> Budget | Cost Details``) works and expansion always
terminates.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import FederationError
from repro.query.ast import ContextSpec, XdbQuery


class ContextAliasRegistry:
    """Named context expansions, applied by query rewriting."""

    def __init__(self) -> None:
        self._aliases: dict[str, tuple[str, ...]] = {}

    def define(self, name: str, *phrases: str) -> None:
        """Declare ``name`` to stand for the given context phrases."""
        key = name.strip().lower()
        if not key:
            raise FederationError("alias name is empty")
        cleaned = tuple(phrase.strip() for phrase in phrases if phrase.strip())
        if not cleaned:
            raise FederationError(f"alias {name!r} has no expansion phrases")
        if key in self._aliases:
            raise FederationError(f"alias {name!r} already defined")
        self._aliases[key] = cleaned

    def drop(self, name: str) -> None:
        try:
            del self._aliases[name.strip().lower()]
        except KeyError:
            raise FederationError(f"no alias named {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._aliases)

    def __len__(self) -> int:
        return len(self._aliases)

    def __contains__(self, name: str) -> bool:
        return name.strip().lower() in self._aliases

    # -- rewriting -----------------------------------------------------------

    def expand(self, spec: ContextSpec) -> ContextSpec:
        """Expand every aliased phrase; non-aliases pass through."""
        phrases: list[str] = []
        for phrase in spec.phrases:
            for expanded in self._expand_phrase(phrase, seen=set()):
                if expanded not in phrases:
                    phrases.append(expanded)
        return ContextSpec(tuple(phrases))

    def rewrite(self, query: XdbQuery) -> XdbQuery:
        """Return ``query`` with its context specification expanded."""
        if query.context is None or not self._aliases:
            return query
        expanded = self.expand(query.context)
        if expanded == query.context:
            return query
        return replace(query, context=expanded)

    def _expand_phrase(self, phrase: str, seen: set[str]) -> list[str]:
        key = phrase.strip().lower()
        expansion = self._aliases.get(key)
        if expansion is None or key in seen:
            # Not an alias — or an alias already being expanded, which is
            # then meant literally (the self-including common case).
            return [phrase.strip()]
        seen.add(key)
        result: list[str] = []
        for target in expansion:
            for expanded in self._expand_phrase(target, seen):
                if expanded not in result:
                    result.append(expanded)
        seen.discard(key)
        return result
