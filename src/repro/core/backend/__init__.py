"""Uniform placement-backend protocol, adapters and the fleet by name.

:data:`BACKENDS` names the fleet (``cp``, ``lns``, ``portfolio``,
``temporal-cp``, ``analytical``, ``annealing``, ``greedy``,
``bottom-left``, ``first-fit``, ``best-fit``, ``kamer``, ``1d-slots``);
orchestration layers address engines by these names only, through
:func:`create_backend`.
"""

from repro.core.backend.protocol import PlacementBackend, PlacementRequest
from repro.core.backend.adapters import (
    BACKENDS,
    BaselineBackend,
    CPBackend,
    LNSBackend,
    PortfolioBackend,
    create_backend,
)

__all__ = [
    "PlacementBackend",
    "PlacementRequest",
    "BACKENDS",
    "create_backend",
    "BaselineBackend",
    "CPBackend",
    "LNSBackend",
    "PortfolioBackend",
]
