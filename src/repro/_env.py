"""The ``REPRO_*`` environment knobs.

Every on/off knob reads through :func:`env_flag`, so they all accept the
same two values and reject the rest: a typo such as ``REPRO_PSI=false``
raises instead of silently turning the knob on.  The integer and
enumerated knobs read through :func:`env_int` and :func:`env_choice`
under the same rule: a value they cannot use raises
:class:`ConfigError` naming the variable.

Names follow the same rule: ``import repro`` calls
:func:`check_env_names`, which rejects any ``REPRO_*`` variable not in
:data:`KNOWN_NAMES`, so a misspelt or retired knob fails loudly instead
of being ignored.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.errors import ConfigError

#: Every ``REPRO_*`` variable read by the package and its benchmarks
#: (``REPRO_TRIALS`` and ``REPRO_SEED`` by ``benchmarks/conftest.py``).
KNOWN_NAMES: Tuple[str, ...] = (
    "REPRO_DATASET_SHM",
    "REPRO_FAST_ACCESS",
    "REPRO_FAST_ENGINE",
    "REPRO_FAST_FLEET",
    "REPRO_JOBS",
    "REPRO_PSI",
    "REPRO_SEED",
    "REPRO_SPANS",
    "REPRO_SPANS_SAMPLE",
    "REPRO_TRACE_CACHE",
    "REPRO_TRACE_CACHE_CAP_MB",
    "REPRO_TRIALS",
)


def check_env_names() -> None:
    """Raise :class:`ConfigError` naming every ``REPRO_*`` environment
    variable that is not in :data:`KNOWN_NAMES`."""
    unknown = sorted(
        name for name in os.environ
        if name.startswith("REPRO_") and name not in KNOWN_NAMES
    )
    if unknown:
        raise ConfigError(
            f"unknown environment variable(s) {', '.join(unknown)}; "
            f"known REPRO_* names: {', '.join(KNOWN_NAMES)}"
        )


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


def env_int(name: str, default: int, minimum: Optional[int] = None) -> int:
    """The integer knob *name* (surrounding whitespace ignored), *default*
    when unset; a non-integer, or a value below *minimum*, raises
    :class:`ConfigError`."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        raise ConfigError(f"{name}={raw!r}: expected an integer") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name}={raw!r}: expected an integer >= {minimum}")
    return value


def env_choice(name: str, default: str, choices: Tuple[str, ...]) -> str:
    """The knob *name*: one of *choices* (surrounding whitespace
    ignored), *default* when unset; any other value raises
    :class:`ConfigError`."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip()
    if value not in choices:
        raise ConfigError(
            f"{name}={raw!r}: expected one of {', '.join(choices)}"
        )
    return value
