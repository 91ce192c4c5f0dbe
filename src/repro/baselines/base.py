"""Scheme interface and shared machinery.

A crash-consistency scheme is the hierarchy's eviction sink plus the
driver's epoch-boundary handler plus a recovery procedure:

* ``on_store(core, line, now)`` — called before each store's value is
  applied to the line. PiCL detects cross-epoch stores here; redo schemes
  track their write set and may force an early commit on translation-table
  overflow.
* ``write_back(line_addr, token, now)`` — every dirty write-back to memory
  (LLC eviction or flush) routes through the scheme. Returns issuer stall
  cycles.
* ``fill_token(line_addr)`` — redo schemes snoop their buffer on fills.
* ``on_epoch_boundary(now)`` — the scheduled end of an epoch; returns the
  stop-the-world stall the driver charges to every core.
* ``recover()`` — run after :meth:`repro.cpu.system.System.crash`; rebuilds
  a consistent memory image from the durable state and returns it together
  with the commit id it corresponds to.

The commit-id convention: commits are numbered 0, 1, 2, … in order,
regardless of whether they were scheduled or overflow-forced;
``System.record_commit`` snapshots the architectural state under that id so
property tests can check recovery exactly.
"""

from repro.common.stats import StatCounters


class CrashConsistencyScheme:
    """Abstract base for every scheme (including PiCL)."""

    name = "abstract"

    def __init__(self, system):
        self.system = system
        self.controller = system.controller
        self.hierarchy = system.hierarchy
        self.stats = system.stats
        self.commit_id = 0
        #: Armed crash plan (None outside fault injection — see repro.fault).
        self.fault_plan = None
        system.hierarchy.attach_sink(self)

    # ------------------------------------------------------------------
    # eviction-sink protocol (defaults: write in place, no snoop, no hook)
    # ------------------------------------------------------------------

    def write_back(self, line_addr, token, now):
        """Default: write the line in place (undo-scheme behaviour)."""
        _completion, stall = self.controller.writeback(line_addr, token, now)
        return stall

    def fill_token(self, line_addr):
        """Default: no redo buffer to snoop on fills."""
        return None

    def on_store(self, core, line, now):
        """Default: stores carry no scheme work."""
        return 0

    def on_store_repeat(self, core, line, count, now):
        """Batch ``count`` repeated stores when each is a provable no-op.

        The coalescing fast path (CacheHierarchy.access_repeat) calls this
        for the tail of a same-line store run. Returning 0 asserts that
        ``count`` consecutive ``on_store`` calls on this line would each
        have returned 0 without any observable state change (beyond the
        idempotent bookkeeping this method applies itself); returning None
        makes the hierarchy fall back and replay them exactly, and must
        leave the scheme untouched. The default only batches when
        ``on_store`` is the inherited no-op — a scheme that overrides
        ``on_store`` must opt in with its own override here.
        """
        if type(self).on_store is CrashConsistencyScheme.on_store:
            return 0
        return None

    def store_dispatch(self):
        """How the miss-chain drain dispatches stores until the next boundary.

        The engine (:mod:`repro.cache.miss_engine`) asks once per epoch
        segment — from one epoch/crash boundary to the next, on every
        core — and the answer fixes how the drain treats that segment's
        stores. ``True``: every store is scheme-silent (``on_store``
        would return 0 and change no state), so the drain skips the
        call. ``False``: the drain calls :meth:`on_store` at the exact
        scalar call site for every store. An int EID: PiCL's plain mode,
        whose :meth:`on_store` body the drain transcribes inline (a store
        to a line tagged with that EID takes the cheap same-epoch
        branch). Re-evaluated after every boundary, never cached across
        one. The default mirrors :meth:`on_store_repeat`: silent iff
        ``on_store`` is the inherited no-op.
        """
        return type(self).on_store is CrashConsistencyScheme.on_store

    def miss_engine_profile(self):
        """Which scheme callbacks the batched miss-chain engine may inline.

        The engine (:mod:`repro.cache.miss_engine`) fuses the scalar
        L2/LLC/NVM chain into one drain loop; scheme callbacks that are
        provably the base-class bodies are transcribed inline, everything
        else stays an attribute call at the exact scalar call site. The
        booleans report method identity against this base class — a
        subclass that overrides a hook is automatically reported, so a
        new scheme degrades to the safe (call) mode without touching the
        engine.
        """
        base = CrashConsistencyScheme
        cls = type(self)
        return {
            "on_store": cls.on_store is not base.on_store,
            "on_store_repeat": cls.on_store_repeat is not base.on_store_repeat,
            "write_back": cls.write_back is not base.write_back,
            "fill_token": cls.fill_token is not base.fill_token,
            "picl_plain": False,
        }

    # ------------------------------------------------------------------
    # driver protocol
    # ------------------------------------------------------------------

    def on_epoch_boundary(self, now):
        """Scheduled epoch end; returns stop-the-world stall cycles."""
        raise NotImplementedError

    def finalize(self, now):
        """End of simulation: let the scheme settle (drain, last commit)."""
        return 0

    # ------------------------------------------------------------------
    # recovery protocol
    # ------------------------------------------------------------------

    def recover(self):
        """Rebuild a consistent image after a crash.

        Returns ``(image_dict, commit_id)`` where ``commit_id`` is the
        commit whose architectural snapshot the image must equal
        (-1 denotes the initial, pre-execution state).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _commit_now(self):
        """Record a commit and return its id."""
        this_commit = self.commit_id
        self.system.record_commit(this_commit)
        self.commit_id += 1
        return this_commit

    def _flush_all_dirty(self, now, write_back_fn=None):
        """Write back every dirty line and stall until the drain completes.

        This is the synchronous, stop-the-world cache flush of prior work.
        Returns the stall in cycles (drain time plus per-line backpressure).
        """
        write_back_fn = write_back_fn or self.write_back
        stall = 0
        lines = self.hierarchy.collect_dirty_lines()
        for line in lines:
            # Issue each write at the stalled clock: backpressure waits
            # really do let the queue drain, so time must advance with them.
            stall += write_back_fn(line.addr, line.token, now + stall)
            line.dirty = False
        stall += self.controller.drain(now + stall)
        self.stats.add("flush.synchronous")
        self.stats.add("flush.lines_written", len(lines))
        return stall


class TranslationTable:
    """Fixed-capacity set-associative address-tracking table.

    Journaling, Shadow-Paging, and ThyNVM all rely on one of these to map
    addresses to their redo-buffer/shadow copies. The table is the
    scalability bottleneck the paper attacks: when a set fills up, the
    epoch must commit early. Configured per the paper's methodology:
    6144 entries at 16-way set-associative.
    """

    def __init__(self, n_entries, assoc=16, granularity_bytes=64):
        if n_entries % assoc != 0:
            raise ValueError("entries must divide evenly into ways")
        self.n_entries = n_entries
        self.assoc = assoc
        self.granularity = granularity_bytes
        self.n_sets = n_entries // assoc
        self._sets = [dict() for _ in range(self.n_sets)]
        self.size = 0

    def _key(self, addr):
        block = addr // self.granularity
        return block % self.n_sets, block

    def lookup(self, addr):
        """Return the entry tracking ``addr`` (None if untracked)."""
        set_idx, block = self._key(addr)
        return self._sets[set_idx].get(block)

    def insert(self, addr, value=True):
        """Insert a tracking entry; returns False on set overflow.

        Overflow means the caller must commit the epoch early ("on each
        buffer overflow, the system is forced to abort the current epoch
        prematurely").
        """
        set_idx, block = self._key(addr)
        table_set = self._sets[set_idx]
        if block in table_set:
            table_set[block] = value
            return True
        if len(table_set) >= self.assoc:
            return False
        table_set[block] = value
        self.size += 1
        return True

    def insert_with_eviction(self, addr, value, evictable):
        """Insert, evicting a victim for which ``evictable(value)`` is True.

        Returns ``(inserted, evicted_addr)``. Shadow-Paging uses this to
        retain clean entries across epochs yet still reclaim them on a set
        conflict; only when every way holds a non-evictable (dirty) entry
        must the epoch commit early.
        """
        set_idx, block = self._key(addr)
        table_set = self._sets[set_idx]
        if block in table_set:
            table_set[block] = value
            return True, None
        if len(table_set) < self.assoc:
            table_set[block] = value
            self.size += 1
            return True, None
        for victim_block, victim_value in table_set.items():
            if evictable(victim_value):
                del table_set[victim_block]
                table_set[block] = value
                return True, victim_block * self.granularity
        return False, None

    def remove(self, addr):
        """Drop the entry tracking ``addr`` (no-op if absent)."""
        set_idx, block = self._key(addr)
        if block in self._sets[set_idx]:
            del self._sets[set_idx][block]
            self.size -= 1

    def items(self):
        """Yield (base_address, value) for every tracked entry."""
        for table_set in self._sets:
            for block, value in table_set.items():
                yield block * self.granularity, value

    def clear(self):
        """Empty the table (done at every commit)."""
        for table_set in self._sets:
            table_set.clear()
        self.size = 0

    def __len__(self):
        return self.size


#: Table II of the paper: feature comparison of software-transparent WAL.
FEATURE_MATRIX = {
    "FRM": {
        "async_cache_flush": False,
        "single_commit_overlap": False,
        "multi_commit_overlap": False,
        "undo_coalescing": False,
        "redo_page_coalescing": None,
        "second_scale_epochs": False,
        "no_translation_layer": True,
        "mem_ctrl_complexity": "Medium",
    },
    "Journaling": {
        "async_cache_flush": False,
        "single_commit_overlap": False,
        "multi_commit_overlap": False,
        "undo_coalescing": None,
        "redo_page_coalescing": False,
        "second_scale_epochs": False,
        "no_translation_layer": False,
        "mem_ctrl_complexity": "Medium",
    },
    "ThyNVM": {
        "async_cache_flush": False,
        "single_commit_overlap": True,
        "multi_commit_overlap": False,
        "undo_coalescing": None,
        "redo_page_coalescing": True,
        "second_scale_epochs": False,
        "no_translation_layer": False,
        "mem_ctrl_complexity": "High",
    },
    "PiCL": {
        "async_cache_flush": True,
        "single_commit_overlap": True,
        "multi_commit_overlap": True,
        "undo_coalescing": True,
        "redo_page_coalescing": None,
        "second_scale_epochs": True,
        "no_translation_layer": True,
        "mem_ctrl_complexity": "Low",
    },
}
