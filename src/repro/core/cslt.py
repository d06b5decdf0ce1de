"""The Choke Sensor Lookup Table (CSLT): ICSLT and ACSLT variants.

The CSLT is DCS' record of unique timing-error instances (§3.3.3):

* **ICSLT** (Independent CSLT): every four-part tag occupies its own
  tuple; the structure behaves like a fully-associative cache with
  pseudo-LRU replacement.  Its drawback is redundancy: the same errant
  (opcode, OWM) pair can occupy many tuples.
* **ACSLT** (Associative CSLT): one tuple per errant (opcode, OWM) pair
  holding up to ``associativity`` previous-cycle (opcode, OWM) pairs --
  a set-associative organisation that eliminates the redundancy.

Both variants expose the same interface: ``lookup`` (the decode-stage
probe; the hardware fronts it with a Bloom filter, which cannot change
a lookup's outcome and is not modelled) and ``insert`` (the
error-sensing path).
"""

from __future__ import annotations

from repro.core.plru import PseudoLRUTree
from repro.core.tags import DcsTag


class IndependentCSLT:
    """Fully-associative CSLT: one independent tuple per tag."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1 or capacity & (capacity - 1):
            raise ValueError(f"capacity must be a power of two, got {capacity}")
        self.capacity = capacity
        self._slots: list[DcsTag | None] = [None] * capacity
        self._index: dict[DcsTag, int] = {}
        self._plru = PseudoLRUTree(capacity)
        self.unique_insertions = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, tag: DcsTag) -> bool:
        return tag in self._index

    def lookup(self, tag: DcsTag) -> bool:
        """Decode-stage probe; a hit marks the tuple recently used."""
        slot = self._index.get(tag)
        if slot is None:
            return False
        self._plru.touch(slot)
        return True

    def insert(self, tag: DcsTag) -> None:
        """Record a newly-sensed error instance."""
        if tag in self._index:
            self._plru.touch(self._index[tag])
            return
        self.unique_insertions += 1
        if len(self._index) < self.capacity:
            slot = next(i for i, entry in enumerate(self._slots) if entry is None)
        else:
            slot = self._plru.victim()
            victim_tag = self._slots[slot]
            if victim_tag is not None:
                del self._index[victim_tag]
                self.evictions += 1
        self._slots[slot] = tag
        self._index[tag] = slot
        self._plru.touch(slot)

    def tags(self) -> list[DcsTag]:
        return [tag for tag in self._slots if tag is not None]


class _AcsltSet:
    """One ACSLT tuple: an errant pair plus its previous-pair ways."""

    __slots__ = ("ways", "plru", "_slots")

    def __init__(self, associativity: int) -> None:
        self.ways: dict[tuple[int, bool], int] = {}
        self.plru = PseudoLRUTree(associativity)
        self._slots: list[tuple[int, bool] | None] = [None] * associativity

    # way bookkeeping mirrors the top-level table's slot bookkeeping
    def lookup(self, way_key: tuple[int, bool]) -> bool:
        slot = self.ways.get(way_key)
        if slot is None:
            return False
        self.plru.touch(slot)
        return True

    def insert(self, way_key: tuple[int, bool], capacity: int) -> None:
        if way_key in self.ways:
            self.plru.touch(self.ways[way_key])
            return
        if len(self.ways) < capacity:
            slot = next(i for i, entry in enumerate(self._slots) if entry is None)
        else:
            slot = self.plru.victim()
            victim = self._slots[slot]
            if victim is not None:
                del self.ways[victim]
        self._slots[slot] = way_key
        self.ways[way_key] = slot
        self.plru.touch(slot)


class AssociativeCSLT:
    """Set-associative CSLT: tuples keyed by the errant (opcode, OWM)."""

    def __init__(self, num_entries: int, associativity: int) -> None:
        if num_entries < 1 or num_entries & (num_entries - 1):
            raise ValueError(f"num_entries must be a power of two, got {num_entries}")
        if associativity < 1 or associativity & (associativity - 1):
            raise ValueError(
                f"associativity must be a power of two, got {associativity}"
            )
        self.num_entries = num_entries
        self.associativity = associativity
        self._sets: dict[tuple[int, bool], _AcsltSet] = {}
        self._slots: list[tuple[int, bool] | None] = [None] * num_entries
        self._slot_of: dict[tuple[int, bool], int] = {}
        self._plru = PseudoLRUTree(num_entries)
        self.unique_insertions = 0
        self.evictions = 0

    def __len__(self) -> int:
        return sum(len(entry.ways) for entry in self._sets.values())

    def lookup(self, tag: DcsTag) -> bool:
        entry = self._sets.get(tag.set_key)
        if entry is None:
            return False
        self._plru.touch(self._slot_of[tag.set_key])
        return entry.lookup(tag.way_key)

    def insert(self, tag: DcsTag) -> None:
        set_key = tag.set_key
        entry = self._sets.get(set_key)
        if entry is None:
            self.unique_insertions += 1
            if len(self._sets) < self.num_entries:
                slot = next(
                    i for i, existing in enumerate(self._slots) if existing is None
                )
            else:
                slot = self._plru.victim()
                victim = self._slots[slot]
                if victim is not None:
                    del self._sets[victim]
                    del self._slot_of[victim]
                    self.evictions += 1
            entry = _AcsltSet(self.associativity)
            self._sets[set_key] = entry
            self._slots[slot] = set_key
            self._slot_of[set_key] = slot
        self._plru.touch(self._slot_of[set_key])
        entry.insert(tag.way_key, self.associativity)
