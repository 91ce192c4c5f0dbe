"""Outside-in spans around the calls into each layer of the simulator.

The benchmark never edits ``src/``: it times a layer by swapping the
module or class attribute through which callers reach it for a thin
wrapper that records a span (name, start, end, parent) and calls the
original. Spans are kept in memory and written out when the run ends.

Some attributes must never be swapped, because the program dispatches on
their identity and a wrapper would silently select a different engine:

* the scheme hooks the batched miss engine inlines when they are the
  base-class bodies (``on_store``, ``on_store_repeat``, ``write_back``,
  ``fill_token``) and ``miss_engine_profile``, which reports them;
* every method of the memory controller and of ``NvmDevice``, which the
  engine transcribes inline after checking ``type(device) is NvmDevice``.

:class:`Patcher` refuses those names, and :func:`identity_snapshot` lets
a run prove after the fact that none of them changed.
"""

import inspect
import time

FORBIDDEN_ATTRS = frozenset(
    ("on_store", "on_store_repeat", "write_back", "fill_token", "miss_engine_profile")
)

#: The scheme classes as :func:`repro.sim.simulator.build_scheme` names them.
SCHEME_CLASSES = ("IdealNvm", "Journaling", "ShadowPaging", "Frm", "ThyNvm", "PiclScheme")


class Span:
    """One timed call: ``parent`` is the index of the enclosing span or -1."""

    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = attrs

    def to_json(self):
        return [self.name, self.start, self.end, self.parent, self.attrs]

    @classmethod
    def from_json(cls, row):
        name, start, end, parent, attrs = row
        span = cls(name, start, parent, attrs)
        span.end = end
        return span

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """An in-memory span stack for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    def begin(self, name, attrs=None):
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent, attrs or {}))
        index = len(self.spans) - 1
        self._open.append(index)
        return self.spans[index]

    def end(self, span):
        span.end = self.clock()
        self._open.pop()


def is_forbidden(owner, attr):
    """Whether swapping ``owner.attr`` could change which code path runs."""
    from repro.mem.controller import MemoryController
    from repro.mem.nvm import NvmDevice

    if attr in FORBIDDEN_ATTRS:
        return True
    return isinstance(owner, type) and issubclass(owner, (MemoryController, NvmDevice))


def identity_snapshot():
    """Object ids of every attribute the engine dispatches on."""
    from repro.baselines.base import CrashConsistencyScheme
    from repro.mem.controller import MemoryController
    from repro.mem.nvm import NvmDevice
    from repro.sim import simulator

    schemes = [CrashConsistencyScheme] + [getattr(simulator, name) for name in SCHEME_CLASSES]
    watched = [(owner, FORBIDDEN_ATTRS) for owner in schemes]
    for owner in (MemoryController, NvmDevice):
        watched.append((owner, [attr for attr in dir(owner) if not attr.startswith("__")]))
    # getattr_static returns the stored descriptor, not a fresh bound method.
    return {
        "%s.%s" % (owner.__name__, attr): id(inspect.getattr_static(owner, attr))
        for owner, attrs in watched
        for attr in attrs
    }


class Patcher:
    """Swaps attributes for span-recording wrappers and restores them."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._saved = []

    def wrap(self, owner, attr, name, before=None, after=None):
        """Record a ``name`` span around every call of ``owner.attr``.

        ``before(args, kwargs)`` returns the span's initial attributes and
        runs inside the span; ``after(span, args, kwargs, result)`` may add
        to them and runs once the span has ended.
        """
        original = self._original(owner, attr)
        recorder = self.recorder

        def wrapper(*args, **kwargs):
            span = recorder.begin(name, before(args, kwargs) if before else None)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                recorder.end(span)
                raise
            recorder.end(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        self._swap(owner, attr, original, wrapper)

    def call_first(self, owner, attr, hook):
        """Call ``hook()`` before every call of ``owner.attr``, outside any
        span installed on it earlier."""
        original = self._original(owner, attr)

        def wrapper(*args, **kwargs):
            hook()
            return original(*args, **kwargs)

        self._swap(owner, attr, original, wrapper)

    def _original(self, owner, attr):
        if is_forbidden(owner, attr):
            raise ValueError(
                "refusing to wrap %s.%s: the engine dispatches on its identity"
                % (getattr(owner, "__name__", owner), attr)
            )
        return getattr(owner, attr)

    def _swap(self, owner, attr, original, wrapper):
        wrapper.__wrapped__ = original
        # An inherited method is restored by deleting the subclass's wrapper.
        own = not isinstance(owner, type) or attr in owner.__dict__
        self._saved.append((owner, attr, original, own))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
