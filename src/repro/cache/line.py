"""Cache line state.

Lines carry the MESI-lite coherence state, the dirty bit, the functional
token of their current contents, and the PiCL EID tag (Fig 5b of the paper).
The ``eid`` field is ``EpochId.NONE`` for lines that have never been stored
to since they were filled — "a line loaded from the memory to the LLC
initially has no EID associated".

For the OpenPiton-style sub-block tracking ablation, a line can also carry
per-sub-block EIDs (``sub_eids``); the default 64 B tracking granularity
leaves it ``None``.

Lines keep their resident cache up to date through the ``_home``
back-pointer: dirty-bit flips maintain the cache's dirty-line dict, and
EID retags (via :meth:`set_eid` / :meth:`init_sub_eids`) maintain the
LLC's :class:`repro.cache.eid_index.EidIndex` — which is how the index
stays exact without ever being rebuilt by a scan.
"""

from repro.common.eid import EpochId


class LineState:
    """MESI-lite states (we never distinguish E from M beyond the dirty bit)."""

    INVALID = 0
    SHARED = 1
    EXCLUSIVE = 2
    MODIFIED = 3


class CacheLine:
    """One cache line: tag, coherence state, dirty bit, token, EID tag."""

    __slots__ = (
        "addr",
        "state",
        "_dirty",
        "token",
        "eid",
        "owner",
        "sub_eids",
        "_home",
    )

    def __init__(self, addr, token=0, state=LineState.EXCLUSIVE, owner=None):
        self.addr = addr
        self.state = state
        self._dirty = False
        self.token = token
        self.eid = EpochId.NONE
        #: Core id that holds private copies (LLC bookkeeping); None if none.
        self.owner = owner
        #: Optional per-sub-block EIDs for 16 B tracking granularity.
        self.sub_eids = None
        #: The SetAssocCache this line currently resides in (None if none);
        #: maintained by the cache so dirty flips and EID retags can keep
        #: its dirty-line dict and EID index exact without scanning.
        self._home = None

    @property
    def dirty(self):
        return self._dirty

    @dirty.setter
    def dirty(self, value):
        value = bool(value)
        if value != self._dirty:
            self._dirty = value
            home = self._home
            if home is not None:
                if value:
                    home._dirty_lines[self.addr] = self
                else:
                    del home._dirty_lines[self.addr]

    def set_eid(self, eid):
        """Retag the line, keeping its home cache's EID index exact.

        Only meaningful for lines at 64 B granularity (``sub_eids is
        None``); sub-block lines live in the index's dedicated sub bucket
        regardless of their whole-line ``eid``, so their membership never
        moves on a retag.
        """
        old = self.eid
        if eid == old:
            return
        self.eid = eid
        if self.sub_eids is None:
            home = self._home
            if home is not None and home.eid_index is not None:
                home.eid_index.retag(self, old)

    def init_sub_eids(self, n_sub_blocks):
        """Switch the line to sub-block tracking (all sub-EIDs unset).

        Moves the line from its whole-line EID bucket to the index's
        dedicated sub-block bucket, so it is neither scanned twice nor
        missed once per-sub-block EIDs take over matching.
        """
        old_eid = self.eid
        self.sub_eids = [EpochId.NONE] * n_sub_blocks
        home = self._home
        if home is not None and home.eid_index is not None:
            home.eid_index.refresh(self, old_eid, False)

    def copy_fill(self, addr):
        """Create a new line for an upper level, copying data and EID tag.

        Fills propagate the EID tag along with the data so that the private
        caches can detect cross-epoch stores without consulting the LLC.
        """
        # Built via __new__ with every slot assigned directly: this runs on
        # every fill, and skipping __init__ avoids double-writing the slots
        # the copy overrides.
        line = CacheLine.__new__(CacheLine)
        line.addr = addr
        line.state = LineState.EXCLUSIVE
        line._dirty = False
        line.token = self.token
        line.eid = self.eid
        line.owner = None
        sub_eids = self.sub_eids
        line.sub_eids = list(sub_eids) if sub_eids is not None else None
        line._home = None
        return line

    def __repr__(self):
        return "CacheLine(addr=%#x, dirty=%s, token=%d, eid=%d)" % (
            self.addr,
            self.dirty,
            self.token,
            self.eid,
        )
