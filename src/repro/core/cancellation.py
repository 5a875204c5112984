"""Cooperative cancellation for long-running compilations.

A ``cancel`` callback is a zero-argument callable returning ``True`` once
the caller has abandoned the compile (client disconnected, request timed
out).  The pass driver (:func:`repro.core.passes.run_pipeline`) polls it
via :func:`check_cancel` after every pass and before each SC restart
attempt, and ``compile_program`` polls it once on entry — never
mid-pass, so cancellation can only drop whole intermediate results.

The callback must be cheap and side-effect free: the gateway's process
workers use an ``os.path.exists`` probe on a flag file, in-process callers
use a ``threading.Event``.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["CompilationCancelled", "check_cancel"]


class CompilationCancelled(RuntimeError):
    """The ``cancel`` callback reported the caller abandoned this compile.

    Raised at pass boundaries (cooperative, never mid-pass), so a partially
    built circuit is simply dropped — nothing is cached and no artifact is
    written.  Long-running services use this so an abandoned request stops
    burning a worker within one pass, not one full compile.
    """


def check_cancel(cancel: Optional[Callable[[], bool]], where: str) -> None:
    """Raise :class:`CompilationCancelled` if ``cancel`` fires; no-op when
    ``cancel`` is ``None``."""
    if cancel is not None and cancel():
        raise CompilationCancelled(f"compile abandoned {where}")
