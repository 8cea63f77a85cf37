"""On-disk cache for generated workload datasets and access traces.

Dataset construction (power-law graph generation, CSR layout, per-thread
gather traces, item placement) is fully determined by the workload
class, its parameters, the fixed dataset seed and the generator version
— the paper reruns the identical input binary across reboots (§IV).  So
the arrays can be cached on disk across *processes*: a fresh worker, a
rerun of a figure script, or a CI job re-derives nothing that an earlier
run already built.

Layout: one ``.npz`` file per dataset under the cache root, named
``<name>-<key16>.npz`` where *key* is a SHA-256 content hash of
``(workload class, params, seed, RNG path, generator version)``.  The
full key is stored inside the payload and verified on load, so a hash
prefix collision degrades to a miss, never to wrong data.

Knobs:

- ``REPRO_TRACE_CACHE`` — cache root directory; ``0``, ``off``,
  ``none`` or ``disabled`` (any case) disables the cache entirely;
  ``1``, ``true``, ``on``, ``yes``, ``false`` and ``no`` raise
  ``ConfigError``; default ``~/.cache/repro-traces``.
- ``REPRO_TRACE_CACHE_CAP_MB`` — total size cap, an integer (default
  512; ``0`` or negative means unlimited; anything else raises
  ``ConfigError``); when the cap is exceeded after a store, the
  least-recently-used files (mtime order; loads re-touch) are evicted
  until back under the cap.

Writes are atomic (temp file + ``os.replace``), so concurrent workers
never observe a torn file; a corrupt or unreadable file is treated as a
miss and removed.  Every operation is best-effort: cache failures fall
back to rebuilding, never into the trial.
"""

from __future__ import annotations

import io
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro._env import env_int
from repro.errors import ConfigError

#: Default cache root (under ``$HOME``); override with REPRO_TRACE_CACHE.
DEFAULT_ROOT = "~/.cache/repro-traces"
#: Default size cap in MiB; override with REPRO_TRACE_CACHE_CAP_MB.
DEFAULT_CAP_MB = 512

#: npz entry holding the full content key, verified on load.
_KEY_FIELD = "__repro_key__"

#: REPRO_TRACE_CACHE values (any case) that disable the cache, and the
#: on/off words it rejects instead of reading them as directory names.
_DISABLED = ("0", "off", "none", "disabled")
_SWITCH_WORDS = ("1", "true", "on", "yes", "false", "no")


@dataclass
class CacheStats:
    """Process-global cache counters (asserted by the CI smoke bench)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    errors: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "errors": self.errors,
        }

    def reset(self) -> None:
        self.hits = self.misses = self.stores = self.evictions = 0
        self.errors = 0


#: Module-level stats; `bench_grid` and tests read/reset these.
STATS = CacheStats()


def cache_root() -> Optional[Path]:
    """The active cache directory, or ``None`` when disabled.

    A switch word such as ``1`` or ``true`` raises :class:`ConfigError`
    rather than naming a cache directory after itself.
    """
    raw = os.environ.get("REPRO_TRACE_CACHE", "")
    value = raw.strip()
    word = value.lower()
    if word in _DISABLED:
        return None
    if word in _SWITCH_WORDS:
        raise ConfigError(
            f"REPRO_TRACE_CACHE={raw!r}: expected a directory path or one "
            f"of {', '.join(_DISABLED)}"
        )
    return Path(value or DEFAULT_ROOT).expanduser()


def cache_cap_bytes() -> int:
    """The size cap in bytes (values <= 0 mean unlimited)."""
    return env_int("REPRO_TRACE_CACHE_CAP_MB", DEFAULT_CAP_MB) * (1 << 20)


def _entry_path(root: Path, name: str, key: str) -> Path:
    return root / f"{name}-{key[:16]}.npz"


def load(key: str, name: str) -> Optional[Dict[str, np.ndarray]]:
    """Fetch the dataset for *key*, or ``None`` on a miss.

    Loads eagerly (``np.load`` handles are closed before returning) and
    re-touches the file so LRU eviction sees the use.
    """
    root = cache_root()
    if root is None:
        return None
    path = _entry_path(root, name, key)
    try:
        with np.load(path, allow_pickle=False) as payload:
            stored_key = str(payload[_KEY_FIELD])
            if stored_key != key:
                STATS.misses += 1
                return None
            arrays = {
                field_name: payload[field_name]
                for field_name in payload.files
                if field_name != _KEY_FIELD
            }
    except FileNotFoundError:
        STATS.misses += 1
        return None
    except Exception:
        # Torn/corrupt/alien file: drop it and rebuild.
        STATS.errors += 1
        STATS.misses += 1
        try:
            path.unlink()
        except OSError:
            pass
        return None
    try:
        os.utime(path)
    except OSError:
        pass
    STATS.hits += 1
    return arrays


def store(key: str, name: str, arrays: Dict[str, np.ndarray]) -> bool:
    """Persist *arrays* under *key*; returns True if a file was written.

    The write is atomic: serialized to a temp file in the cache root,
    then renamed over the final path.  Failures (read-only filesystem,
    disk full) are swallowed — the cache is an accelerator, not a
    dependency.
    """
    root = cache_root()
    if root is None:
        return False
    try:
        root.mkdir(parents=True, exist_ok=True)
        buffer = io.BytesIO()
        np.savez(buffer, **arrays, **{_KEY_FIELD: np.str_(key)})
        fd, tmp_name = tempfile.mkstemp(
            prefix=".tmp-", suffix=".npz", dir=root
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(buffer.getvalue())
            os.replace(tmp_name, _entry_path(root, name, key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except Exception:
        STATS.errors += 1
        return False
    STATS.stores += 1
    _evict_over_cap(root)
    return True


def _evict_over_cap(root: Path) -> None:
    """Delete oldest-mtime entries until the cache fits its cap."""
    cap = cache_cap_bytes()
    if cap <= 0:
        return
    try:
        entries = []
        for path in root.glob("*.npz"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in entries)
        if total <= cap:
            return
        for _, size, path in sorted(entries):
            try:
                path.unlink()
            except OSError:
                continue
            STATS.evictions += 1
            total -= size
            if total <= cap:
                return
    except OSError:
        STATS.errors += 1
