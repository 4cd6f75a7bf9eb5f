"""Hardened environment-knob parsing: warn once, fall back to the default.

Every ``REPRO_*`` feature toggle is optional, so a typo in one must never
crash a sweep — and it must not silently disable the feature either. An
invalid value earns exactly one stderr warning per (variable, value) pair
per process and then behaves as if the variable were set to its default.
"""

from __future__ import annotations

import os
import sys
from typing import Optional, Set, Tuple

__all__ = ["env_float", "warn_once", "reset_warnings"]

# (variable, raw value) pairs already warned about; one line per mistake,
# not one per run_grid call.
_WARNED: Set[Tuple[str, str]] = set()


def warn_once(name: str, raw: str, message: str) -> None:
    """Emit one stderr warning per (variable, value) pair per process."""
    key = (name, raw)
    if key in _WARNED:
        return
    _WARNED.add(key)
    print(f"[repro] warning: {message}", file=sys.stderr, flush=True)


def reset_warnings() -> None:
    """Forget warned-about values (test isolation)."""
    _WARNED.clear()


def env_float(
    name: str,
    default: float,
    *,
    minimum: Optional[float] = None,
) -> float:
    """``float(os.environ[name])`` with loud-but-safe failure.

    Unset or empty returns ``default``. Unparsable values — and values
    below ``minimum`` when one is given — warn once and return
    ``default`` instead of disabling (or crashing) the feature.
    """
    raw = os.environ.get(name, "")
    if not raw.strip():
        return default
    try:
        value = float(raw)
    except ValueError:
        warn_once(
            name,
            raw,
            f"ignoring {name}={raw!r} (not a number); using default {default!r}",
        )
        return default
    if minimum is not None and value < minimum:
        warn_once(
            name,
            raw,
            f"ignoring {name}={raw!r} (must be >= {minimum!r}); "
            f"using default {default!r}",
        )
        return default
    return value
