"""Name-keyed backend registry.

Backends register a *factory* (name → callable taking an optional engine
config), so orchestration layers can be configured with plain strings:
the portfolio member list is a declarative list of registered names, and
``--backend`` on the experiment runner selects engines the same way.  Duplicate names are rejected loudly —
silently shadowing an engine is exactly the bug class a registry exists
to prevent — and ``replace=True`` is the explicit escape hatch for tests
and plugins.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.backend.protocol import PlacementBackend

#: factory signature: ``factory(config=None) -> PlacementBackend``
BackendFactory = Callable[..., PlacementBackend]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(
    name: str, factory: BackendFactory, *, replace: bool = False
) -> None:
    """Register a backend factory under ``name``.

    Raises ``ValueError`` on duplicate names unless ``replace=True``.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    if not replace and name in _REGISTRY:
        raise ValueError(
            f"backend {name!r} is already registered; pass replace=True to "
            f"override it deliberately"
        )
    _REGISTRY[name] = factory


def unregister_backend(name: str) -> None:
    """Remove a registered backend (primarily for tests)."""
    _REGISTRY.pop(name, None)


def create_backend(name: str, config=None) -> PlacementBackend:
    """Instantiate the backend registered under ``name``.

    ``config`` is handed to the factory verbatim (an engine-specific
    config object such as ``PlacerConfig`` / ``LNSConfig`` /
    ``PortfolioConfig`` / ``AnnealingConfig``); ``None`` means the
    backend's defaults.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(
            f"unknown placement backend {name!r}; registered: {known}"
        ) from None
    return factory(config)


def backend_capabilities(name: str):
    """Capability flags of a registered backend (instantiates it)."""
    return create_backend(name).capabilities


def available_backends() -> List[str]:
    """Sorted names of every registered backend."""
    return sorted(_REGISTRY)
