"""Fault-DSL parsing helpers and the shared recovery budgets.

Two small pieces are shared across the repo:

* the compact fault DSL, ``kind:site[@k=v,...];...`` — :func:`split_plan`
  splits a plan string into raw spec triples and
  :func:`deterministic_uniform` turns ``(seed, spec index, site,
  coordinates)`` into a reproducible probabilistic firing decision.  The
  network fault proxy (:mod:`repro.testing.netfaults`) layers its own
  vocabulary on top, so a replayed chaos drill injects exactly the same
  faults;
* :class:`FaultTolerance`, the retry/backoff/deadline budgets used by the
  job service, its HTTP client and the cluster agent.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional


class FaultPlanError(ValueError):
    """A fault-plan string or spec is malformed."""


def split_plan(text: str):
    """Split a ``kind:site[@k=v,...];...`` plan into raw spec triples.

    Returns ``[(kind, site, {key: raw_value}), ...]`` with every value
    still a string; :mod:`repro.testing.netfaults` layers its own
    vocabulary and value typing on top.
    """
    chunks = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, _, conds = chunk.partition("@")
        kind, sep, site = head.partition(":")
        if not sep or not kind.strip() or not site.strip():
            raise FaultPlanError(
                f"fault spec {chunk!r} must look like 'kind:site[@k=v,...]'"
            )
        conditions: Dict[str, str] = {}
        if conds:
            for cond in conds.split(","):
                key, sep, value = cond.partition("=")
                key = key.strip()
                if not sep or not key:
                    raise FaultPlanError(
                        f"condition {cond!r} in {chunk!r} must be key=value"
                    )
                conditions[key] = value.strip()
        chunks.append((kind.strip(), site.strip(), conditions))
    if not chunks:
        raise FaultPlanError("fault plan contains no specs")
    return chunks


def deterministic_uniform(seed, index, site, coords) -> float:
    """A uniform draw in [0, 1) that is a pure function of its inputs.

    ``coords`` is a sequence of ``(key, value)`` pairs.  Probabilistic
    firing decisions route through this one hash so a replay with the
    same seed injects exactly the same faults.
    """
    key = ":".join(
        [str(seed), str(index), str(site)]
        + [f"{k}={v}" for k, v in coords]
    )
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultTolerance:
    """Retry, backoff and deadline budgets for recoverable failures.

    Attributes
    ----------
    task_deadline:
        Default wall-clock seconds a job may run before it times out
        (None disables the deadline).
    task_retries:
        Resubmissions of a failed job (or retry waves of an idempotent
        request) before the failure is final.
    backoff_base / backoff_cap:
        Exponential-backoff sleep between retries:
        ``min(cap, base * 2**(wave - 1))`` seconds.
    """

    task_deadline: Optional[float] = 120.0
    task_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.task_deadline is not None and self.task_deadline <= 0:
            raise ValueError("task_deadline must be positive (or None)")
        if self.task_retries < 0:
            raise ValueError("task_retries must be nonnegative")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff values must be nonnegative")

    def backoff(self, wave: int) -> float:
        """Backoff sleep (seconds) before retry wave ``wave`` (1-based)."""
        return min(self.backoff_cap, self.backoff_base * (2.0 ** max(0, wave - 1)))
