"""Thin wrapper around :mod:`logging` with a library-wide namespace."""

from __future__ import annotations

import logging
from typing import Optional

_ROOT_NAME = "repro"
_CONFIGURED = False


def _configure_root() -> None:
    global _CONFIGURED
    if _CONFIGURED:
        return
    root = logging.getLogger(_ROOT_NAME)
    if not root.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s: %(message)s")
        )
        root.addHandler(handler)
    root.setLevel(logging.WARNING)
    _CONFIGURED = True


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """Return a logger under the ``repro`` namespace.

    ``get_logger("hardware.faults")`` returns ``repro.hardware.faults``.
    """
    _configure_root()
    if not name:
        return logging.getLogger(_ROOT_NAME)
    if name.startswith(_ROOT_NAME):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")
