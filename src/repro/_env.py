"""The boolean ``REPRO_*`` environment knobs.

Every on/off knob reads through :func:`env_flag`, so they all accept the
same two values and reject the rest: a typo such as ``REPRO_PSI=false``
raises instead of silently turning the knob on.
"""

from __future__ import annotations

import os

from repro.errors import ConfigError


def env_flag(name: str, default: bool) -> bool:
    """The knob *name*: ``0`` or ``1`` (surrounding whitespace ignored),
    *default* when unset; any other value raises :class:`ConfigError`."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip()
    if value not in ("0", "1"):
        raise ConfigError(f"{name}={raw!r}: expected 0 or 1")
    return value == "1"
