"""The store registry: many closure stores behind one server.

A serving process used to own exactly one ``(library, cost-model)``
store.  Related syntheses -- deeper bounds of the same library, or
entirely different label spaces -- each need their own closure, so
:class:`StoreRegistry` maps a set of opened stores by

* a short **alias** (human routing key: ``repro serve fast=a.rpro
  deep=b.rpro``, defaulting to the file stem), and
* the store header's ``(library_fingerprint, cost_fingerprint)`` pair
  (machine routing key -- what a client that only knows *which closure*
  it wants sends).

Requests carry an optional ``store`` field.  Resolution rules
(:meth:`StoreRegistry.resolve`):

* absent -- the sole store if exactly one is registered, otherwise a
  :class:`~repro.errors.ProtocolError` listing the aliases;
* an exact alias match wins;
* otherwise ``LIBFP:COSTFP`` -- full fingerprints or unique prefixes --
  selects by header fingerprints (ambiguous prefixes, e.g. two depths
  of the *same* library and cost model, error with the candidate
  aliases so the client can re-route by alias).

A registry is immutable once built; SIGHUP builds a whole new registry
(re-opening every named store and re-scanning ``--store-dir``) and the
service swaps it in atomically, exactly like the single-store reload.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.errors import ProtocolError, SpecificationError

#: Aliases must be shell- and JSON-friendly and must not contain the
#: characters the spec/fingerprint grammar uses (``=`` splits
#: ``ALIAS=PATH`` specs, ``:`` splits fingerprint pairs).
_ALIAS_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: File extension ``--store-dir`` scans for.
STORE_SUFFIX = ".rpro"


@dataclass(frozen=True)
class StoreSpec:
    """One requested store: an optional explicit alias plus a path."""

    alias: str | None
    path: str


def parse_store_spec(text: str) -> StoreSpec:
    """Parse one CLI store argument: ``PATH`` or ``ALIAS=PATH``.

    Raises:
        SpecificationError: malformed alias or empty path.
    """
    alias, sep, path = text.partition("=")
    if not sep:
        alias, path = None, text
    elif not _ALIAS_RE.match(alias):
        raise SpecificationError(
            f"bad store alias {alias!r}: use letters, digits, '.', '_' "
            "or '-' (max 64 chars)"
        )
    if not path:
        raise SpecificationError(f"store spec {text!r} names no file")
    return StoreSpec(alias=alias, path=path)


def derive_alias(path: str, taken: set[str]) -> str:
    """A default alias from a store path's stem, deduplicated.

    Characters outside the alias grammar become ``-``; collisions get
    ``-2``, ``-3`` ... suffixes so every store always has a routable
    name.
    """
    stem = Path(path).stem or "store"
    base = re.sub(r"[^A-Za-z0-9._-]", "-", stem).lstrip("._-") or "store"
    base = base[:64]
    alias = base
    suffix = 2
    while alias in taken:
        alias = f"{base[:60]}-{suffix}"
        suffix += 1
    return alias


def scan_store_dir(directory: str) -> list[str]:
    """Every ``*.rpro`` file under *directory*, sorted by name.

    Raises:
        SpecificationError: the directory does not exist.
    """
    root = Path(directory)
    if not root.is_dir():
        raise SpecificationError(f"--store-dir {directory!r} is not a directory")
    return sorted(
        str(entry) for entry in root.iterdir()
        if entry.is_file() and entry.suffix == STORE_SUFFIX
    )


class StoreRegistry:
    """Immutable alias -> opened-store mapping with fingerprint routing.

    Built from ``{alias: state}`` where each *state* is a
    :class:`~repro.server.service.StoreState`; see
    :func:`build_registry` for the blocking open-everything constructor.
    """

    def __init__(self, entries: dict):
        if not entries:
            raise SpecificationError("a store registry needs at least one store")
        self._entries = dict(entries)
        self._by_fingerprint: dict[tuple[str, str], list[str]] = {}
        for alias, state in self._entries.items():
            key = (state.header.library_fingerprint,
                   state.header.cost_fingerprint)
            self._by_fingerprint.setdefault(key, []).append(alias)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.items())

    @property
    def aliases(self) -> list[str]:
        return list(self._entries)

    def get(self, alias: str):
        return self._entries[alias]

    def sole(self):
        """``(alias, state)`` of the only store; None when ambiguous."""
        if len(self._entries) != 1:
            return None
        return next(iter(self._entries.items()))

    def resolve(self, store: object):
        """Resolve a request's ``store`` field to ``(alias, state)``.

        Raises:
            ProtocolError: missing-but-ambiguous, unknown, ill-typed or
                ambiguous-fingerprint selector -- always a structured
                wire error, never a connection drop.
        """
        if store is None:
            only = self.sole()
            if only is None:
                raise ProtocolError(
                    "request names no store but this server serves "
                    f"{len(self._entries)}; pass \"store\" as one of: "
                    + ", ".join(sorted(self._entries))
                )
            return only
        if not isinstance(store, str):
            raise ProtocolError("store must be a string alias or fingerprint")
        state = self._entries.get(store)
        if state is not None:
            return store, state
        alias = self._resolve_fingerprint(store)
        if alias is not None:
            return alias, self._entries[alias]
        raise ProtocolError(
            f"unknown store {store!r}; serving: "
            + ", ".join(sorted(self._entries))
        )

    def _resolve_fingerprint(self, text: str) -> str | None:
        lib, sep, cost = text.partition(":")
        if not sep or not (lib or cost):
            return None
        hits = [
            alias
            for (lib_fp, cost_fp), aliases in self._by_fingerprint.items()
            if lib_fp.startswith(lib) and cost_fp.startswith(cost)
            for alias in aliases
        ]
        if len(hits) > 1:
            raise ProtocolError(
                f"store fingerprint {text!r} is ambiguous between: "
                + ", ".join(sorted(hits))
                + "; route by alias instead"
            )
        return hits[0] if hits else None

    def describe(self) -> dict:
        """Per-alias summary for ``healthz`` (path, bounds, fingerprints)."""
        return {
            alias: {
                "path": state.path,
                "expanded_to": state.header.expanded_to,
                "serving_cost_bound": state.cost_bound,
                "library_fingerprint": state.header.library_fingerprint,
                "cost_fingerprint": state.header.cost_fingerprint,
            }
            for alias, state in self._entries.items()
        }


def resolve_specs(
    stores: Sequence[str], store_dir: str | None
) -> list[StoreSpec]:
    """Expand CLI store arguments + ``--store-dir`` into concrete specs.

    Directory-scanned stores always use derived aliases; explicit specs
    keep theirs.  Duplicate paths are collapsed (first spec wins, so an
    explicit ``ALIAS=PATH`` beats the scan of the same file).

    Raises:
        SpecificationError: no stores at all, or a duplicate alias.
    """
    specs = [parse_store_spec(str(text)) for text in stores]
    seen_paths = {spec.path for spec in specs}
    if store_dir is not None:
        for path in scan_store_dir(store_dir):
            if path not in seen_paths:
                specs.append(StoreSpec(alias=None, path=path))
                seen_paths.add(path)
    if not specs:
        raise SpecificationError(
            "no stores to serve: give store files or --store-dir"
        )
    taken = {spec.alias for spec in specs if spec.alias is not None}
    if len(taken) != sum(1 for spec in specs if spec.alias is not None):
        raise SpecificationError("duplicate store aliases in the store list")
    return specs


def build_registry(
    stores: Sequence[str],
    store_dir: str | None = None,
    cost_bound: int | None = None,
) -> StoreRegistry:
    """Open every requested store and return the registry (blocking).

    This is the heavy half of service start/reload; the service runs it
    on its dedicated opener thread, so the event loop keeps answering
    queries while a SIGHUP reopens the stores.

    Raises:
        StoreError / StoreMismatchError / SpecificationError: any
            unreadable store, over-deep *cost_bound* or alias conflict
            fails the whole build (the service keeps the old registry).
    """
    from repro.server.service import open_store_state

    specs = resolve_specs(stores, store_dir)
    entries: dict = {}
    for spec in specs:
        alias = spec.alias or derive_alias(spec.path, set(entries))
        if alias in entries:
            raise SpecificationError(
                f"store alias {alias!r} is claimed twice "
                f"({entries[alias].path} and {spec.path})"
            )
        entries[alias] = open_store_state(spec.path, cost_bound)
    return StoreRegistry(entries)
