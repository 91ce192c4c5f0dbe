"""Numpy mirror of one L1's tag and EID state for columnar classification.

The columnar interpreter (:meth:`repro.sim.simulator.Simulation.
_run_single_core_vector` under ``REPRO_VECTOR``) classifies a lookahead
window of references at once: set indices and an L1 tag probe in numpy.
Python dicts cannot be probed array-at-a-time, so the single core's L1
carries this mirror — a ``(n_sets, assoc)`` int64 tag table plus a parallel
EID table.

The mirror is **lazily coherent**. Keeping it exact at every miss fill /
eviction / retag costs a function call on the cache's hottest paths — a tax
paid even while the interpreter is disengaged on a miss-heavy phase, and
measured at roughly a third of the columnar loop's overhead. Instead, the
hot paths only append the affected line to one of three queues (plain
``list.append``, no call into the mirror):

* :attr:`pending` — lines that became resident (miss fills),
* :attr:`evictq` — lines that left (evictions, back-invalidations),
* :attr:`eidq` — resident lines whose EID tag may have moved (stores,
  sync refreshes, merge retags).

:meth:`sync` drains the queues immediately before each window
classification, so the tag table is exact at the only moments it is read.
Way slots are tracked on the lines themselves (``CacheLine._vslot``),
claimed at sync time from per-set free lists.

Between a classification and the end of its window the mirror goes stale
again as residual references mutate the cache. Two staleness directions
matter, and only one is dangerous:

* **Stale-negative** (classified miss, line is actually resident — e.g. a
  ref later in the window hits a line an earlier residual just filled):
  safe, because residual references replay through the exact
  per-reference path, which handles hits and misses alike.
* **Stale-positive** (classified hit, but a mid-window eviction removed
  the line): unsafe for the bulk path, so every eviction *also* appends
  the victim's address to :attr:`removed` — the one eager hook — and the
  interpreter demotes the victim's remaining classified-fast references
  back to the exact path after every residual span.

Tags are line addresses (always ``>= 0``); empty ways hold ``-1``. The EID
table is only consulted for ways whose tag matched, so its value for empty
ways is irrelevant.
"""

import numpy as np

#: Sentinel tag for an empty way (line addresses are non-negative).
EMPTY = -1


class L1TagMirror:
    """Array mirror of the single core's L1 residency and EID tags."""

    __slots__ = (
        "n_sets",
        "assoc",
        "_line_shift",
        "_set_mask",
        "tags",
        "eids",
        "tags2d",
        "eids2d",
        "_free",
        "pending",
        "evictq",
        "eidq",
        "removed",
        "stale",
    )

    def __init__(self, n_sets, assoc, line_shift, set_mask):
        self.n_sets = n_sets
        self.assoc = assoc
        self._line_shift = line_shift
        self._set_mask = set_mask
        self.tags = np.full(n_sets * assoc, EMPTY, dtype=np.int64)
        self.eids = np.zeros(n_sets * assoc, dtype=np.int64)
        #: 2-D views over the same storage for fancy-indexed row reads.
        self.tags2d = self.tags.reshape(n_sets, assoc)
        self.eids2d = self.eids.reshape(n_sets, assoc)
        #: Free ways per set (way indices; order is irrelevant).
        self._free = [list(range(assoc)) for _ in range(n_sets)]
        #: Lines that became resident since the last sync.
        self.pending = []
        #: Lines that left the cache since the last sync.
        self.evictq = []
        #: Lines whose EID tag may have changed since the last sync.
        self.eidq = []
        #: Addresses evicted since the interpreter last drained this list;
        #: the columnar loop demotes their remaining classified-hit
        #: references to the exact path (stale-positive demotion). Eager,
        #: unlike the slot queues: it guards *within* a window.
        self.removed = []
        #: True when events happened that no queue recorded — the
        #: interpreter detaches the mirror entirely (``l1._vec = None``)
        #: for disengaged scalar bursts, so even the queue appends cost
        #: nothing, then sets this on re-attach. The next sync must
        #: rebuild from the live tags.
        self.stale = False

    def sync(self, l1_tags):
        """Drain the queues so the tag table matches the live cache.

        Order matters: evictions free ways before fills claim them (the
        same addr may have been evicted and refilled as a new line), and
        EID refreshes run last so they see the slots fills just claimed.
        ``l1_tags`` is the cache's live tag dict — a queued line only
        claims a way if it is *still* the resident line for its address.

        When the mirror was detached (``stale``) or more events queued up
        than the cache holds lines, replaying history is pointless (or
        impossible): rebuild the table from the live tag dict instead,
        which bounds every sync at O(resident).
        """
        evictq = self.evictq
        if self.stale or (
            len(self.pending) + len(evictq) + len(self.eidq)
            > len(l1_tags)
        ):
            self.rebuild(l1_tags)
            return
        if evictq:
            tags = self.tags
            free = self._free
            assoc = self.assoc
            for line in evictq:
                slot = line._vslot
                if slot >= 0:
                    line._vslot = -1
                    tags[slot] = EMPTY
                    free[slot // assoc].append(slot % assoc)
            evictq.clear()
        pending = self.pending
        if pending:
            tags = self.tags
            eids = self.eids
            shift = self._line_shift
            mask = self._set_mask
            assoc = self.assoc
            free = self._free
            for line in pending:
                addr = line.addr
                if line._vslot < 0 and l1_tags.get(addr) is line:
                    set_index = (addr >> shift) & mask
                    slot = set_index * assoc + free[set_index].pop()
                    line._vslot = slot
                    tags[slot] = addr
                    eids[slot] = line.eid
            pending.clear()
        eidq = self.eidq
        if eidq:
            eids = self.eids
            for line in eidq:
                slot = line._vslot
                if slot >= 0:
                    eids[slot] = line.eid
            eidq.clear()

    def rebuild(self, l1_tags):
        """Re-derive the whole table from the live tag dict.

        Queued lines that died before this point keep a stale ``_vslot``;
        that is harmless — a dead line is never re-inserted (every fill
        creates a fresh CacheLine), so its slot is never read again.
        """
        tags = self.tags
        eids = self.eids
        tags.fill(EMPTY)
        assoc = self.assoc
        shift = self._line_shift
        mask = self._set_mask
        free = self._free = [list(range(assoc)) for _ in range(self.n_sets)]
        for addr, line in l1_tags.items():
            set_index = (addr >> shift) & mask
            slot = set_index * assoc + free[set_index].pop()
            line._vslot = slot
            tags[slot] = addr
            eids[slot] = line.eid
        self.pending.clear()
        self.evictq.clear()
        self.eidq.clear()
        self.stale = False

    def clear(self):
        """Power loss / invalidate_all: every way empties at once.

        The caller resets ``_vslot`` on the dropped lines (it is already
        sweeping them to sever their home pointers).
        """
        self.tags.fill(EMPTY)
        self._free = [list(range(self.assoc)) for _ in range(self.n_sets)]
        self.pending.clear()
        self.evictq.clear()
        self.eidq.clear()
        self.removed.clear()
        self.stale = False

    def __len__(self):
        return int((self.tags != EMPTY).sum())
