"""The one string-keyed plugin registry mechanism.

``repro.policies.registry`` and ``repro.workloads.registry`` are each one
:class:`Registry` instance plus its re-exported bound methods; what
differs between them — the noun in the messages, the namespaces, which
modules hold the builtins — is passed as data at construction.  A
registry with a single namespace (workloads) is just that, not a
separate code path: its module binds the namespace once with
``functools.partial``.

Builtins load lazily on the first lookup, mirroring ``rule_registry()``
in :mod:`repro.analysis.engine`, so importing a registry module stays
cheap and cycle-free (``repro.core.config`` imports both for key
validation, and the builtin modules import them for the decorator).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Tuple

__all__ = ["Registry", "RegistryEntry"]


@dataclass(frozen=True)
class RegistryEntry:
    """One registered plugin: its key, value and catalogue metadata."""

    namespace: str
    key: str
    value: Any
    summary: str = ""
    citation: str = ""


class Registry:
    """Namespaced ``key -> value`` tables with pinned error messages.

    ``noun`` names what is registered ("policy", "workload");
    ``label`` is the template naming one namespace's entries in the
    unknown-key and duplicate-key messages (``"{namespace} policy"``,
    or a constant for a one-namespace registry); ``load_builtins``
    imports the modules whose import registers the builtin keys.
    """

    def __init__(
        self,
        noun: str,
        namespaces: Tuple[str, ...],
        label: str,
        load_builtins: Callable[[], None],
    ) -> None:
        self.noun = noun
        self.namespaces = namespaces
        self._label = label
        self._load_builtins = load_builtins
        self._builtins_loaded = False
        self.tables: Dict[str, Dict[str, RegistryEntry]] = {
            namespace: {} for namespace in namespaces
        }

    def _loaded(self, namespace: str) -> Dict[str, RegistryEntry]:
        """The table of ``namespace``, builtins imported first."""
        if not self._builtins_loaded:
            self._builtins_loaded = True
            self._load_builtins()
        return self._table(namespace)

    def _table(self, namespace: str) -> Dict[str, RegistryEntry]:
        table = self.tables.get(namespace)
        if table is None:
            raise KeyError(
                f"unknown {self.noun} namespace {namespace!r}; "
                f"available: {', '.join(self.namespaces)}"
            )
        return table

    def register_value(
        self,
        namespace: str,
        key: str,
        value: Any,
        *,
        summary: str = "",
        citation: str = "",
    ) -> Any:
        """Register ``value`` under ``(namespace, key)``; returns ``value``.

        Raises ``ValueError`` on a duplicate key — entries are registered
        exactly once, so resolution can never depend on registration order.
        """
        table = self._table(namespace)
        if not isinstance(key, str) or not key:
            raise ValueError(
                f"{self.noun} key must be a non-empty string, got {key!r}"
            )
        if key in table:
            raise ValueError(
                f"duplicate {self._label.format(namespace=namespace)} {key!r}"
            )
        table[key] = RegistryEntry(
            namespace=namespace,
            key=key,
            value=value,
            summary=summary,
            citation=citation,
        )
        return value

    def register(
        self,
        namespace: str,
        key: str,
        *,
        summary: str = "",
        citation: str = "",
    ) -> Callable[[Any], Any]:
        """Decorator form of :meth:`register_value`."""
        # Fail fast on an unknown namespace, before the decorated definition.
        self._table(namespace)
        return partial(
            self.register_value, namespace, key, summary=summary, citation=citation
        )

    def available(self, namespace: str) -> List[str]:
        """The registered keys of ``namespace``, sorted."""
        return sorted(self._loaded(namespace))

    def describe(self, namespace: str, key: str) -> RegistryEntry:
        """The :class:`RegistryEntry` behind ``(namespace, key)``.

        The ``KeyError`` for an unknown key lists every valid key
        verbatim, so a typo'd config or CLI flag is self-explaining.
        """
        table = self._loaded(namespace)
        entry = table.get(key)
        if entry is None:
            raise KeyError(
                f"unknown {self._label.format(namespace=namespace)} {key!r}; "
                f"available: {', '.join(sorted(table))}"
            )
        return entry

    def resolve(self, namespace: str, key: str) -> Any:
        """The registered value behind ``(namespace, key)``."""
        return self.describe(namespace, key).value

    def entries(self, namespace: str) -> List[RegistryEntry]:
        """Every :class:`RegistryEntry` of ``namespace``, sorted by key."""
        return [entry for _, entry in sorted(self._loaded(namespace).items())]

    @contextmanager
    def temporary(
        self,
        namespace: str,
        key: str,
        value: Any,
        *,
        summary: str = "",
        citation: str = "",
    ) -> Iterator[RegistryEntry]:
        """Register an entry for the duration of a ``with`` block (tests).

        The entry is removed on exit even when the block raises, so
        property tests can register throwaway entries without polluting
        the process registry.
        """
        self.register_value(
            namespace, key, value, summary=summary, citation=citation
        )
        table = self.tables[namespace]
        try:
            yield table[key]
        finally:
            table.pop(key, None)
