"""Placement policies: which worker gets a job.

The router asks a policy one question — ``choose(spec_hash, workers)``
over the currently-eligible (alive) worker set — and the two shipped
answers bracket the design space:

``hash`` (:class:`ConsistentHashPolicy`)
    Pure content placement on the :class:`~repro.service.cluster.ring.
    HashRing`.  The same spec always lands on the same worker while the
    membership is stable, so worker-local disk caches and checkpoint
    directories stay hot, and a resubmitted spec finds its earlier
    result without any shared state.  Blind to load: a burst of distinct
    hot keys can pile onto one worker.

``capacity`` (:class:`CapacityPolicy`)
    Greedy bin-packing by declared weight and live load: place on the
    worker minimising ``(in_flight + 1) / weight`` — the first-fit-
    decreasing heuristic of the embedding literature (cf. the EC2
    bin-packing embedder referenced by ROADMAP item 1), with the
    consistent-hash owner used as the deterministic tie-break so equal
    loads degrade to ``hash`` behaviour rather than to submission-order
    noise.

Both are pure functions of their inputs — no wall clock, no RNG — so a
placement decision replayed from the journal matches the live one.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.errors import ServiceError
from repro.service.cluster.ring import HashRing

#: Registered policy names (the ``htp route --policy`` choices).
POLICIES = ("hash", "capacity")


class PlacementPolicy:
    """Interface: pick one of ``workers`` for ``spec_hash``.

    ``workers`` is a sequence of :class:`~repro.service.cluster.registry.
    WorkerInfo` records the router already filtered down to alive ones;
    a policy never second-guesses eligibility, only ranks.  Returns the
    chosen worker's id, or None for an empty set.
    """

    name = "abstract"

    def choose(self, spec_hash: str, workers: Sequence) -> Optional[str]:
        raise NotImplementedError

    # Rings depend on the membership snapshot; policies may cache per
    # (ids, weights) signature.  The default implementation rebuilds.
    @staticmethod
    def _ring(workers: Sequence) -> HashRing:
        return HashRing(
            {worker.worker_id: worker.weight for worker in workers}
        )


class ConsistentHashPolicy(PlacementPolicy):
    """Stable content placement on the weighted hash ring."""

    name = "hash"

    def __init__(self) -> None:
        self._cache_signature = None
        self._cache_ring: Optional[HashRing] = None

    def choose(self, spec_hash: str, workers: Sequence) -> Optional[str]:
        if not workers:
            return None
        signature = tuple(
            sorted((w.worker_id, w.weight) for w in workers)
        )
        if signature != self._cache_signature:
            self._cache_signature = signature
            self._cache_ring = self._ring(workers)
        return self._cache_ring.place(spec_hash)


class CapacityPolicy(PlacementPolicy):
    """Greedy weighted bin-packing with a hash-ring tie-break."""

    name = "capacity"

    def __init__(self) -> None:
        self._hash_tiebreak = ConsistentHashPolicy()

    def choose(self, spec_hash: str, workers: Sequence) -> Optional[str]:
        if not workers:
            return None
        def pressure(worker) -> float:
            return (worker.in_flight + 1) / float(worker.weight)
        least = min(pressure(worker) for worker in workers)
        lightest = [
            worker for worker in workers if pressure(worker) == least
        ]
        if len(lightest) == 1:
            return lightest[0].worker_id
        return self._hash_tiebreak.choose(spec_hash, lightest)


def replica_owners(
    key: str,
    workers: Sequence,
    count: int,
    exclude: Sequence[str] = (),
) -> list:
    """The first ``count`` distinct ring owners for ``key`` past ``exclude``.

    This is the replica-set rule both replication tiers share: walk the
    hash ring clockwise from ``key`` and collect worker ids, skipping
    ``exclude`` (normally the primary owner, so replicas never land on
    the copy that already exists).  A cluster smaller than
    ``count + len(exclude)`` simply yields fewer owners — replication
    degrades, it never blocks.  Pure: same membership, same answer.
    """
    if count < 1 or not workers:
        return []
    ring = PlacementPolicy._ring(workers)
    owners: list = []
    excluded = set(exclude)
    while len(owners) < count:
        owner = ring.place(key, exclude=excluded)
        if owner is None:
            break
        owners.append(owner)
        excluded.add(owner)
    return owners


def make_policy(name: str) -> PlacementPolicy:
    """Instantiate a registered policy by name."""
    if name == "hash":
        return ConsistentHashPolicy()
    if name == "capacity":
        return CapacityPolicy()
    raise ServiceError(
        f"unknown placement policy {name!r} (choose from {POLICIES})"
    )
