"""Event-compressed replay kernels for the CSLT and CET lookup tables.

DCS and Trident probe a pseudo-LRU table on every cycle, but the table's
*resident set* only changes when an errant cycle misses: the tag is
learned, possibly evicting a victim.  The kernels replay only those
misses, in order, and settle every other cycle with array operations:

* **Encoding.**  :func:`encode` maps each cycle's tag to a dense int
  code, so table state is O(distinct tags), not O(tag space).
* **Segments.**  Between two misses the resident set is fixed, so a
  cycle hits exactly when its code is resident.  Once the insertions
  (code, learned at, evicted at) are known, :func:`resident_insert`
  resolves every cycle in one sorted gather.
* **Last-touch lemma.**  A tree-PLRU's bits after any run of touches
  depend only on each slot's last touch: every node's bit is written by
  the latest touch below it.  Each cycle whose tag is resident touches
  its slot, and a tag is learned at one of its own occurrences, so a
  slot's last touch before cycle ``j`` is the last occurrence of its
  tag before ``j`` (:class:`Occurrences`); the victim follows from
  those times alone (:func:`plru_victim`).  The occurrences come from
  one stable sort of the codes, which runs as a radix sort on a 16-bit
  copy whenever the dense codes fit one (NumPy's stable sort of keys
  of 16 bits or fewer).
* **Closed form.**  When the distinct errant tags fit the table nothing
  is ever evicted: each tag is learned at its first errant occurrence
  and stays, and no replay loop runs at all.

The per-cycle loops these kernels replace are kept as the exact
reference in :mod:`repro.qa.scheme_reference`; the
``scheme_kernel_vs_reference`` QA oracle requires equal results and
equal audit streams.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Inserts(NamedTuple):
    """A table's insertions in cycle order: the tag code, the cycle it
    was learned at, and the cycle that evicted it (``n`` if none)."""

    code: np.ndarray
    start: np.ndarray
    end: np.ndarray


def encode(*columns: np.ndarray) -> np.ndarray:
    """Dense int code (0 .. distinct-1) per cycle of the column tuple.

    The columns are opcodes and flags, so their mixed-radix key cannot
    overflow int64.
    """
    n = len(columns[0])
    key = np.zeros(n, dtype=np.int64)
    if n == 0:
        return key
    for column in columns:
        column = np.asarray(column).astype(np.int64)
        low = int(column.min())
        key = key * (int(column.max()) - low + 1) + (column - low)
    span = int(key.max()) + 1
    if span <= 4 * n:  # a small key space ranks by presence, without a sort
        present = np.zeros(span, dtype=bool)
        present[key] = True
        return (np.cumsum(present) - 1)[key]
    return np.unique(key, return_inverse=True)[1].astype(np.int64)


def first_of_code(codes: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Cycles that are the first ``mask`` cycle of their code."""
    cycles = np.flatnonzero(mask)
    _, first = np.unique(codes[cycles], return_index=True)
    out = np.zeros(len(codes), dtype=bool)
    out[cycles[first]] = True
    return out


class Occurrences:
    """The last occurrence of each of many dense codes before a given cycle."""

    def __init__(self, codes: np.ndarray) -> None:
        self.stride = len(codes) + 1
        # A stable sort of 16-bit keys is a radix sort: same order, a
        # fraction of the time of the int64 merge sort.
        keys = codes.astype(np.uint16) if codes.max(initial=0) < 1 << 16 else codes
        order = np.argsort(keys, kind="stable")
        self.keys = codes[order] * self.stride + order  # (code, cycle), sorted
        self.previous = np.concatenate(([-1], order))  # the cycle of the key before

    def last_before(self, codes: np.ndarray, cycle: int) -> np.ndarray:
        """Every code must occur before ``cycle`` (resident codes do)."""
        return self.previous[self.keys.searchsorted(codes * self.stride + cycle)]


def plru_victim(last_touch: np.ndarray) -> int:
    """The slot a full tree-PLRU evicts, given each slot's last touch.

    A node's bit points away from the side its latest touch came from,
    so the walk goes away from the subtree holding the newest touch.
    """
    low, high = 0, len(last_touch)
    while high - low > 1:
        mid = (low + high) // 2
        if low + last_touch[low:high].argmax() < mid:
            low = mid
        else:
            high = mid
    return low


def set_associative_inserts(
    set_codes: np.ndarray,
    codes: np.ndarray,
    errant: np.ndarray,
    num_sets: int,
    ways: int,
) -> tuple[Inserts, int]:
    """Way insertions of a table of ``num_sets`` tree-PLRU sets (keyed by
    ``set_codes``) of ``ways`` tree-PLRU ways each, and the number of
    sets it allocated.  A probe touches its set whenever the set is
    held, hit or not, so a set's last touch is its code's last
    occurrence too."""
    n = len(codes)
    err_codes = codes[errant]
    learned, first = np.unique(err_codes, return_index=True)
    sets, per_set = np.unique(set_codes[errant[first]], return_counts=True)
    if len(sets) <= num_sets and per_set.max(initial=0) <= ways:  # closed form
        start = np.sort(errant[first])
        inserts = Inserts(codes[start], start, np.full(len(start), n, dtype=np.int64))
        return inserts, len(sets)
    set_occurrences = Occurrences(set_codes)
    way_occurrences = Occurrences(codes)
    held = [False] * (int(learned[-1]) + 1)  # code -> held
    set_slot = [-1] * (int(sets[-1]) + 1)  # set code -> slot, -1 if not held
    top = np.zeros(num_sets, dtype=np.int64)  # slot -> set code
    way_code = np.zeros((num_sets, ways), dtype=np.int64)  # slot, way -> code
    rows: list[list[int]] = []  # slot -> insertion index per way
    allocated = 0
    code: list[int] = []
    start: list[int] = []
    end: list[int] = []
    for j, s, c in zip(errant.tolist(), set_codes[errant].tolist(), err_codes.tolist()):
        if held[c]:
            continue
        slot = set_slot[s]
        if slot < 0:
            if len(rows) < num_sets:
                slot = len(rows)
                rows.append([])
            else:
                slot = plru_victim(set_occurrences.last_before(top, j))
                set_slot[top[slot]] = -1
                for k in rows[slot]:
                    held[code[k]] = False
                    end[k] = j
                rows[slot] = []
            allocated += 1
            set_slot[s] = slot
            top[slot] = s
        row = rows[slot]
        if len(row) < ways:
            way = len(row)
            row.append(len(code))
        else:
            way = plru_victim(way_occurrences.last_before(way_code[slot], j))
            held[code[row[way]]] = False
            end[row[way]] = j
            row[way] = len(code)
        way_code[slot, way] = c
        held[c] = True
        code.append(c)
        start.append(j)
        end.append(n)
    inserts = Inserts(*(np.asarray(a, dtype=np.int64) for a in (code, start, end)))
    return inserts, allocated


def lru_inserts(codes: np.ndarray, errant: np.ndarray, capacity: int) -> Inserts:
    """Insertions of a fully-associative tree-PLRU table of ``capacity``
    slots that learns the code of every errant cycle it misses on: the
    one-set case of :func:`set_associative_inserts`."""
    return set_associative_inserts(np.zeros_like(codes), codes, errant, 1, capacity)[0]


def resident_insert(codes: np.ndarray, inserts: Inserts) -> np.ndarray:
    """Per cycle, the index of the insertion holding its code when it is
    probed, or -1 on a miss.  A code is held from the cycle after it is
    learned until the cycle that evicts it."""
    n = len(codes)
    if not len(inserts.code):
        return np.full(n, -1, dtype=np.int64)
    cycles = np.arange(n, dtype=np.int64)
    stride = n + 1
    order = np.lexsort((inserts.start, inserts.code))
    keys = inserts.code[order] * stride + inserts.start[order]
    index = np.searchsorted(keys, codes * stride + cycles) - 1
    k = order[np.maximum(index, 0)]
    held = (index >= 0) & (inserts.code[k] == codes) & (cycles < inserts.end[k])
    return np.where(held, k, -1)
