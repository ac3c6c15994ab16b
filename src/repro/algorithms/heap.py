"""An indexed binary min-heap with decrease-key.

Dijkstra and Prim both want a priority queue keyed by node id whose
priorities can be lowered in place.  ``heapq`` cannot do that without lazy
deletion; this structure supports ``push``, ``pop``, ``decrease`` and
membership tests in the classic O(log n) bounds.

Sifts move a hole rather than swapping pairs, with the comparisons of
the textbook swap form: an item rises while it is strictly smaller than
its parent; going down, the right child is taken only when it is
strictly smaller than the left, and the item sinks only below a child
strictly smaller than itself.  Ties therefore land exactly where the
swap form puts them, so the pop order among equal priorities (which
Prim growth, FM and Dijkstra all expose) is unchanged.
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
        items = self._items
        priorities = self._priorities
        position = self._position
        index = position.get(item)
        if index is None:
            index = len(items)
            items.append(item)
            priorities.append(priority)
        elif priority >= priorities[index]:
            return
        # Sift up: move parents down into the hole while the item is
        # strictly smaller than them.
        while index > 0:
            parent = (index - 1) >> 1
            parent_priority = priorities[parent]
            if not priority < parent_priority:
                break
            parent_item = items[parent]
            items[index] = parent_item
            priorities[index] = parent_priority
            position[parent_item] = index
            index = parent
        items[index] = item
        priorities[index] = priority
        position[item] = index

    def decrease(self, item: Hashable, priority: float) -> bool:
        """Lower ``item``'s priority; no-op (returns False) if not lower."""
        if priority >= self._priorities[self._position[item]]:
            return False
        self.push(item, priority)
        return True

    def pop(self) -> Tuple[Hashable, float]:
        """Remove and return the ``(item, priority)`` with least priority."""
        items = self._items
        if not items:
            raise IndexError("pop from empty IndexedHeap")
        priorities = self._priorities
        position = self._position
        top = items[0], priorities[0]
        del position[items[0]]
        item = items.pop()
        priority = priorities.pop()
        size = len(items)
        if not size:
            return top
        # Sift the last item down from the root: move the smaller child
        # (the right one only when strictly smaller than the left) up
        # into the hole while it is strictly smaller than the item.
        index = 0
        child = 1
        while child < size:
            child_priority = priorities[child]
            right = child + 1
            if right < size and priorities[right] < child_priority:
                child = right
                child_priority = priorities[right]
            if not child_priority < priority:
                break
            child_item = items[child]
            items[index] = child_item
            priorities[index] = child_priority
            position[child_item] = index
            index = child
            child = 2 * index + 1
        items[index] = item
        priorities[index] = priority
        position[item] = index
        return top

    def peek(self) -> Optional[Tuple[Hashable, float]]:
        """The minimum ``(item, priority)`` without removing it."""
        if not self._items:
            return None
        return self._items[0], self._priorities[0]
