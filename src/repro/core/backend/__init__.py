"""Uniform placement-backend protocol, registry and adapters.

Importing this package registers the default backend fleet (``cp``,
``lns``, ``portfolio``, ``greedy``, ``bottom-left``, ``first-fit``,
``best-fit``, ``kamer``, ``annealing``, ``1d-slots``); orchestration
layers address engines by registered name only.
"""

from repro.core.backend.protocol import (
    BackendCapabilities,
    PlacementBackend,
    PlacementRequest,
)
from repro.core.backend.registry import (
    available_backends,
    backend_capabilities,
    create_backend,
    register_backend,
    unregister_backend,
)
from repro.core.backend.adapters import (
    BaselineBackend,
    CPBackend,
    LNSBackend,
    PortfolioBackend,
    register_default_backends,
)

__all__ = [
    "BackendCapabilities",
    "PlacementBackend",
    "PlacementRequest",
    "available_backends",
    "backend_capabilities",
    "create_backend",
    "register_backend",
    "unregister_backend",
    "BaselineBackend",
    "CPBackend",
    "LNSBackend",
    "PortfolioBackend",
    "register_default_backends",
]
