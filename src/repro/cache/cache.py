"""A set-associative cache with LRU replacement.

Sets are kept in MRU-first order; lookups move the hit line to the front and
insertions evict from the back. This is the textbook LRU the paper's
evaluation assumes (PiCL explicitly leaves the eviction policy unmodified).

Structure: alongside the per-set MRU lists (which exist only to decide
replacement order), one dict maps every resident line address to its line,
so the hit/miss check is a single hash probe instead of a linear scan of
the set. The cache also keeps a dirty-line dict — insertions, removals,
and dirty-bit flips (via :class:`repro.cache.line.CacheLine`'s ``_home``
back-pointer) maintain it — so flush and sync paths touch only the dirty
lines instead of sweeping every set; the shared LLC additionally carries an
:class:`repro.cache.eid_index.EidIndex` (attached by the hierarchy) that
buckets tagged lines by EID for the ACS engine. ``REPRO_BRUTE_SCAN=1``
keeps the original full-sweep paths alive as a differential oracle.
"""

import os

from repro.common.address import LINE_SIZE
from repro.common.errors import ConfigurationError
from repro.common.stats import StatCounters
from repro.common.units import is_power_of_two


class SetAssocCache:
    """Set-associative, LRU, write-back cache structure."""

    def __init__(
        self,
        name,
        size_bytes,
        assoc,
        line_size=LINE_SIZE,
        hit_latency=1,
        stats=None,
    ):
        if size_bytes <= 0 or size_bytes % (assoc * line_size) != 0:
            raise ConfigurationError(
                "%s: size %d not divisible into %d-way sets of %d B lines"
                % (name, size_bytes, assoc, line_size)
            )
        n_sets = size_bytes // (assoc * line_size)
        if not is_power_of_two(n_sets):
            raise ConfigurationError(
                "%s: %d sets is not a power of two" % (name, n_sets)
            )
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_size = line_size
        self.hit_latency = hit_latency
        self.n_sets = n_sets
        self._set_mask = n_sets - 1
        self._line_shift = line_size.bit_length() - 1
        self._sets = [[] for _ in range(n_sets)]
        #: line_addr -> CacheLine for every resident line (the tag index).
        self._tags = {}
        #: line_addr -> CacheLine for every dirty resident line — the
        #: "dirty array" the flush/sync paths read instead of sweeping
        #: (see CacheLine.dirty). Insertion-ordered like every dict.
        self._dirty_lines = {}
        #: Optional EID-array analogue (the hierarchy attaches one to the
        #: LLC); None for private caches, which only need dirty tracking.
        self.eid_index = None
        #: Differential escape hatch: recompute dirty_lines() by the
        #: original full sweep so tests can diff the indexed paths.
        self._brute_scan = os.environ.get("REPRO_BRUTE_SCAN", "") == "1"
        self.stats = stats if stats is not None else StatCounters()
        self._evictions = self.stats.slot("%s.evictions" % name)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def set_index(self, line_addr):
        """Index of the set a line address maps to."""
        return (line_addr >> self._line_shift) & self._set_mask

    def lookup(self, line_addr, touch=True):
        """Return the line at ``line_addr`` or None; ``touch`` updates LRU."""
        line = self._tags.get(line_addr)
        if line is None:
            return None
        if touch:
            cache_set = self._sets[
                (line_addr >> self._line_shift) & self._set_mask
            ]
            if cache_set[0] is not line:
                cache_set.remove(line)
                cache_set.insert(0, line)
        return line

    def contains(self, line_addr):
        """Presence check without LRU side effects."""
        return line_addr in self._tags

    def mru_lookup(self, line_addr):
        """Return the line only if it is resident *and* already MRU.

        A repeated access to an MRU line cannot reorder the set, so the
        coalescing fast path (see CacheHierarchy.access_repeat) is exact
        precisely when this returns a line; any other case must replay
        accesses one by one. No LRU side effects.
        """
        line = self._tags.get(line_addr)
        if line is None:
            return None
        cache_set = self._sets[(line_addr >> self._line_shift) & self._set_mask]
        if cache_set[0] is not line:
            return None
        return line

    # ------------------------------------------------------------------
    # insertion / removal
    # ------------------------------------------------------------------

    def insert(self, line):
        """Insert ``line`` as MRU; returns the evicted victim line or None.

        The caller is responsible for handling the victim (write-back,
        back-invalidation); the cache only applies LRU. The line must not
        already be resident (callers always lookup first).
        """
        addr = line.addr
        cache_set = self._sets[(addr >> self._line_shift) & self._set_mask]
        cache_set.insert(0, line)
        self._tags[addr] = line
        line._home = self
        if line._dirty:
            self._dirty_lines[addr] = line
        index = self.eid_index
        if index is not None and (line.eid >= 0 or line.sub_eids is not None):
            index.add(line)
        victim = None
        if len(cache_set) > self.assoc:
            victim = cache_set.pop()
            del self._tags[victim.addr]
            victim._home = None
            if victim._dirty:
                del self._dirty_lines[victim.addr]
            if index is not None and (
                victim.eid >= 0 or victim.sub_eids is not None
            ):
                index.discard(victim)
            self._evictions.value += 1
        return victim

    def remove(self, line_addr):
        """Remove and return the line at ``line_addr`` (None if absent)."""
        line = self._tags.pop(line_addr, None)
        if line is None:
            return None
        cache_set = self._sets[(line_addr >> self._line_shift) & self._set_mask]
        cache_set.remove(line)
        line._home = None
        if line._dirty:
            del self._dirty_lines[line_addr]
        index = self.eid_index
        if index is not None and (line.eid >= 0 or line.sub_eids is not None):
            index.discard(line)
        return line

    def invalidate_all(self):
        """Drop every line (models power loss: SRAM contents vanish)."""
        for line in self._tags.values():
            line._home = None
        for cache_set in self._sets:
            cache_set.clear()
        self._tags.clear()
        self._dirty_lines.clear()
        if self.eid_index is not None:
            self.eid_index.clear()

    # ------------------------------------------------------------------
    # iteration (flush engines, ACS, statistics)
    # ------------------------------------------------------------------

    def iter_lines(self):
        """Iterate over every resident line (no LRU side effects).

        This is the brute-force sweep — O(capacity) — kept for tests and
        as the ``REPRO_BRUTE_SCAN=1`` differential oracle; production
        paths read the dirty dict / EID index instead.
        """
        for cache_set in self._sets:
            for line in cache_set:
                yield line

    def dirty_lines(self):
        """List the dirty lines in ``iter_lines()`` order (a snapshot).

        Visit order matters: flush engines issue NVM writes per line, and
        multi-channel timing depends on issue order. The dirty dict knows
        *which* lines are dirty in O(dirty); regrouping them by set and
        walking each touched set in MRU order reconstructs the exact order
        the brute-force sweep would have produced, so index-backed flushes
        stay bit-identical to the oracle.
        """
        if self._brute_scan:
            return [line for line in self.iter_lines() if line.dirty]
        dirty = self._dirty_lines
        if not dirty:
            return []
        shift = self._line_shift
        mask = self._set_mask
        sets = self._sets
        out = []
        for set_id in sorted({(addr >> shift) & mask for addr in dirty}):
            for line in sets[set_id]:
                if line._dirty:
                    out.append(line)
        return out

    def dirty_count(self):
        """Number of dirty resident lines (dict size, O(1))."""
        return len(self._dirty_lines)

    def resident_count(self):
        """Number of resident lines (running count, O(1))."""
        return len(self._tags)

    def __len__(self):
        return len(self._tags)
