"""Tree pseudo-LRU replacement policy.

Both the CSLT and the CET use pseudo-LRU eviction (§3.3.4): it harvests
most of LRU's benefit without LRU's hardware cost.  This is the classic
binary-tree PLRU: one direction bit per internal node, flipped away from
the accessed leaf; the victim is found by following the bits.
"""

from __future__ import annotations


class PseudoLRUTree:
    """Tree-PLRU over ``num_ways`` slots (``num_ways`` a power of two)."""

    def __init__(self, num_ways: int) -> None:
        if num_ways < 1 or num_ways & (num_ways - 1):
            raise ValueError(f"num_ways must be a power of two, got {num_ways}")
        self.num_ways = num_ways
        # bits[i] == 0 means "the LRU side is the left subtree of node i".
        self._bits = [0] * max(num_ways - 1, 1)

    def touch(self, way: int) -> None:
        """Record an access to ``way``, protecting it from eviction."""
        if not 0 <= way < self.num_ways:
            raise ValueError(f"way {way} out of range")
        node = 0
        low, high = 0, self.num_ways
        while high - low > 1:
            mid = (low + high) // 2
            if way < mid:
                self._bits[node] = 1  # the LRU side is now the right subtree
                node, high = 2 * node + 1, mid
            else:
                self._bits[node] = 0
                node, low = 2 * node + 2, mid

    def victim(self) -> int:
        """The slot the policy would evict next."""
        if self.num_ways == 1:
            return 0
        node = 0
        low, high = 0, self.num_ways
        while high - low > 1:
            mid = (low + high) // 2
            if self._bits[node] == 0:
                node = 2 * node + 1
                high = mid
            else:
                node = 2 * node + 2
                low = mid
        return low

    def reset(self) -> None:
        self._bits = [0] * max(self.num_ways - 1, 1)
