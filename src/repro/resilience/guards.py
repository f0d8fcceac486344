"""Resource guardrails: convert runaway work into typed errors.

A hostile or accidental input — a 10,000-paren expression, a megabyte
"nest", a transformation whose Fourier–Motzkin projection explodes, a
compiled run over a trillion iterations — must come back as a typed
:class:`~repro.util.errors.ReproError` (the service's ``bad-input``
class), never as a raw ``RecursionError``/``MemoryError`` that unwinds
through arbitrary frames or takes the process down.

One :class:`GuardLimits` record holds every limit; the consuming
layers read it through :func:`limits` at use time, so tests and the
CLI can tighten limits per run.  Environment overrides (read once, at
first use)::

    REPRO_MAX_EXPR_DEPTH        expression parser recursion depth (150)
    REPRO_MAX_SOURCE_BYTES      parser input size            (1_000_000)
    REPRO_MAX_NEST_DEPTH        loop-nest nesting depth             (64)
    REPRO_MAX_FME_CONSTRAINTS   Fourier–Motzkin working set       (2000)
    REPRO_MAX_ITERATIONS        compiled-run iteration count (2_000_000)
    REPRO_MAX_FRAME_BYTES       service NDJSON frame size    (1_000_000)
    REPRO_MAX_RSS_MB            soft RSS ceiling, MB          (disabled)

The Fourier–Motzkin limit governs both halves of the one FM core
(:mod:`repro.deps.analysis.linear_system`): past it the dependence
analyzer answers "feasible" (a conservative dependence) and the
Unimodular bounds scanner raises a typed
:class:`~repro.util.errors.CodegenError`.

The RSS guard is *soft*: it is checked between requests (the service
consults :func:`check_rss` before dispatching), so one request may
overshoot, but the next one is refused with a typed error instead of
letting the kernel OOM-kill the server.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.util.errors import ReproError


class ResourceLimitError(ReproError):
    """A guard limit was exceeded; carries which limit and the value."""

    def __init__(self, message: str, limit: Optional[str] = None,
                 value=None):
        super().__init__(message)
        self.limit = limit
        self.value = value


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


class GuardLimits:
    """One record of every resource limit the pipeline enforces."""

    __slots__ = ("max_expr_depth", "max_source_bytes", "max_nest_depth",
                 "max_fme_constraints", "max_iterations",
                 "max_frame_bytes", "max_rss_mb")

    def __init__(self,
                 max_expr_depth: int = 150,
                 max_source_bytes: int = 1_000_000,
                 max_nest_depth: int = 64,
                 max_fme_constraints: int = 2000,
                 max_iterations: int = 2_000_000,
                 max_frame_bytes: int = 1_000_000,
                 max_rss_mb: Optional[int] = None):
        self.max_expr_depth = max_expr_depth
        self.max_source_bytes = max_source_bytes
        self.max_nest_depth = max_nest_depth
        self.max_fme_constraints = max_fme_constraints
        self.max_iterations = max_iterations
        self.max_frame_bytes = max_frame_bytes
        self.max_rss_mb = max_rss_mb

    @classmethod
    def from_env(cls) -> "GuardLimits":
        rss = _env_int("REPRO_MAX_RSS_MB", 0)
        return cls(
            max_expr_depth=_env_int("REPRO_MAX_EXPR_DEPTH", 150),
            max_source_bytes=_env_int("REPRO_MAX_SOURCE_BYTES", 1_000_000),
            max_nest_depth=_env_int("REPRO_MAX_NEST_DEPTH", 64),
            max_fme_constraints=_env_int("REPRO_MAX_FME_CONSTRAINTS", 2000),
            max_iterations=_env_int("REPRO_MAX_ITERATIONS", 2_000_000),
            max_frame_bytes=_env_int("REPRO_MAX_FRAME_BYTES", 1_000_000),
            max_rss_mb=rss or None)

    def replace(self, **overrides) -> "GuardLimits":
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(overrides)
        return GuardLimits(**fields)


_LIMITS: Optional[GuardLimits] = None


def limits() -> GuardLimits:
    """The active limits (env-initialized on first use)."""
    global _LIMITS
    if _LIMITS is None:
        _LIMITS = GuardLimits.from_env()
    return _LIMITS


def set_limits(new: Optional[GuardLimits]) -> None:
    """Install *new* limits process-wide (None = re-read the
    environment on next use).  Tests use this to shrink limits."""
    global _LIMITS
    _LIMITS = new


def check_source_size(text: str, what: str = "input") -> None:
    """Reject oversized parser input before tokenizing it."""
    cap = limits().max_source_bytes
    if len(text) > cap:
        raise ResourceLimitError(
            f"{what} is {len(text)} bytes; the limit is {cap} "
            f"(REPRO_MAX_SOURCE_BYTES)",
            limit="max_source_bytes", value=len(text))


def rss_mb() -> Optional[float]:
    """Current peak RSS in MB, or None where unmeasurable."""
    try:
        import resource
    except ImportError:  # pragma: no cover — non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KB, macOS bytes; normalize heuristically.
    return usage / 1024.0 if usage < 1 << 32 else usage / (1024.0 ** 2)


def check_rss() -> None:
    """Soft RSS ceiling: raise once the process has outgrown it."""
    cap = limits().max_rss_mb
    if not cap:
        return
    current = rss_mb()
    if current is not None and current > cap:
        raise ResourceLimitError(
            f"process RSS {current:.0f} MB exceeds the soft limit "
            f"{cap} MB (REPRO_MAX_RSS_MB)",
            limit="max_rss_mb", value=current)
