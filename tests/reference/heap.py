"""Reference indexed binary min-heap that sifts by pairwise swaps.

:class:`repro.algorithms.heap.IndexedHeap` sifts with a hole instead; it
must leave the same item and priority arrays after every operation.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple


class IndexedHeap:
    """Binary min-heap over hashable items with updatable priorities."""

    def __init__(self) -> None:
        self._items: List[Hashable] = []
        self._priorities: List[float] = []
        self._position: Dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._position

    def priority(self, item: Hashable) -> float:
        """Current priority of ``item`` (KeyError if absent)."""
        return self._priorities[self._position[item]]

    def push(self, item: Hashable, priority: float) -> None:
        """Insert ``item``; if present, behave like :meth:`decrease`."""
        if item in self._position:
            self.decrease(item, priority)
            return
        self._items.append(item)
        self._priorities.append(priority)
        self._position[item] = len(self._items) - 1
        self._sift_up(len(self._items) - 1)

    def decrease(self, item: Hashable, priority: float) -> bool:
        """Lower ``item``'s priority; no-op (returns False) if not lower."""
        index = self._position[item]
        if priority >= self._priorities[index]:
            return False
        self._priorities[index] = priority
        self._sift_up(index)
        return True

    def pop(self) -> Tuple[Hashable, float]:
        """Remove and return the ``(item, priority)`` with least priority."""
        if not self._items:
            raise IndexError("pop from empty IndexedHeap")
        top_item = self._items[0]
        top_priority = self._priorities[0]
        last_index = len(self._items) - 1
        self._swap(0, last_index)
        self._items.pop()
        self._priorities.pop()
        del self._position[top_item]
        if self._items:
            self._sift_down(0)
        return top_item, top_priority

    def peek(self) -> Optional[Tuple[Hashable, float]]:
        """The minimum ``(item, priority)`` without removing it."""
        if not self._items:
            return None
        return self._items[0], self._priorities[0]

    # ------------------------------------------------------------------
    def _swap(self, i: int, j: int) -> None:
        self._items[i], self._items[j] = self._items[j], self._items[i]
        self._priorities[i], self._priorities[j] = (
            self._priorities[j],
            self._priorities[i],
        )
        self._position[self._items[i]] = i
        self._position[self._items[j]] = j

    def _sift_up(self, index: int) -> None:
        while index > 0:
            parent = (index - 1) // 2
            if self._priorities[index] < self._priorities[parent]:
                self._swap(index, parent)
                index = parent
            else:
                break

    def _sift_down(self, index: int) -> None:
        size = len(self._items)
        while True:
            left = 2 * index + 1
            right = left + 1
            smallest = index
            if left < size and self._priorities[left] < self._priorities[smallest]:
                smallest = left
            if right < size and self._priorities[right] < self._priorities[smallest]:
                smallest = right
            if smallest == index:
                return
            self._swap(index, smallest)
            index = smallest
