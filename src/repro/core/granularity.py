"""Tracking-granularity support (the OpenPiton 16 B trade-off, §V-A).

The paper's FPGA prototype tracks modifications at 16 B sub-block
granularity because OpenPiton's private caches use 16 B lines, paying four
EID tags per 64 B LLC line in exchange for smaller undo entries. The
default model tracks whole 64 B lines; this module supplies the sub-block
variant used by the granularity ablation bench.

Sub-block entries are smaller on the NVM log (24 B vs 72 B) but a line
whose sub-blocks are written in the same epoch produces up to four entries
instead of one.
"""

from repro.common.eid import EpochId
from repro.core.undo import ENTRY_BYTES, SUBBLOCK_ENTRY_BYTES


class GranularityPolicy:
    """Line-granularity tracking (the evaluation default)."""

    name = "64B"
    entry_bytes = ENTRY_BYTES
    sub_block_mode = False

    def needs_undo(self, line, system_eid, store_hint):
        """Return the undo ``valid_from`` EID, or None when no undo needed."""
        if line.eid == system_eid:
            return None
        return line.eid

    def apply_store(self, line, system_eid, store_hint):
        """Tag the line with the executing epoch.

        Inlined ``CacheLine.set_eid`` (this runs on every cross-epoch
        store, twice — private line and LLC copy): when the line is the
        LLC copy (undo forwarding retags it without dirtying it), its
        EID-index bucket must move with the tag; for private lines the
        guard falls through in three attribute loads.
        """
        old = line.eid
        if system_eid == old:
            return
        line.eid = system_eid
        if line.sub_eids is None:
            home = line._home
            if home is not None and home.eid_index is not None:
                home.eid_index.retag(line, old)


class SubBlockPolicy(GranularityPolicy):
    """16 B sub-block tracking: four EID tags per 64 B line."""

    name = "16B"
    entry_bytes = SUBBLOCK_ENTRY_BYTES
    sub_block_mode = True

    #: Sub-blocks per 64 B line at 16 B granularity.
    SUB_BLOCKS = 4

    def _sub_index(self, store_hint):
        # Which 16 B sub-block a store touches; the trace is line-granular,
        # so a deterministic mix of the store sequence stands in for the
        # low address bits.
        return store_hint % self.SUB_BLOCKS

    def needs_undo(self, line, system_eid, store_hint):
        """Per-sub-block cross-epoch detection (same contract as the base)."""
        if line.sub_eids is None:
            line.init_sub_eids(self.SUB_BLOCKS)
        sub = self._sub_index(store_hint)
        tagged = line.sub_eids[sub]
        if tagged == system_eid:
            return None
        return tagged

    def apply_store(self, line, system_eid, store_hint):
        """Tag the stored sub-block (and the line) with the executing epoch.

        The None→list switch goes through ``init_sub_eids`` so the LLC
        copy moves to the index's dedicated sub-block bucket; once there
        its membership is keyed by residency alone, so the per-sub-block
        tags and the whole-line ``eid`` can be written raw.
        """
        if line.sub_eids is None:
            line.init_sub_eids(self.SUB_BLOCKS)
        line.sub_eids[self._sub_index(store_hint)] = system_eid
        line.eid = system_eid


def make_policy(tracking_granularity):
    """Build the policy for a 64 B or 16 B tracking granularity."""
    if tracking_granularity == 64:
        return GranularityPolicy()
    if tracking_granularity == 16:
        return SubBlockPolicy()
    raise ValueError(
        "tracking granularity must be 64 or 16, not %r" % tracking_granularity
    )
