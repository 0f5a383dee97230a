"""Spans around calls into fbttr's modules, recorded from outside the package.

Each module imports its collaborators by name (``bttr.ace``,
``federated.f_mpstd``, ``sparse_tucker.multilinear_product``,
``transport.encode_message`` ...), so a call is intercepted by replacing
the name in the *calling* module's namespace; :meth:`Tracer.patch` does
that and :meth:`Tracer.restore` puts every original back.  Nothing under
``src/fbttr`` is modified.

A span is (id, parent, name, start, end).  Spans nest per thread; a span
opened with an explicit ``parent`` from another thread (a client thread of
the TCP workload) links to it without charging its time to that parent's
self time, because the two run concurrently.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "parent", "local_parent", "name", "start", "end", "child_s", "root",
                 "block", "attrs", "error")

    def __init__(self, sid, parent, local_parent, name, root, block):
        self.id = sid
        self.parent = parent
        self.local_parent = local_parent
        self.name = name
        self.root = root
        self.block = block
        self.start = time.perf_counter()
        self.end = None
        self.child_s = 0.0
        self.attrs = {}
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder with call interception by name replacement."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, parent=None) -> Span:
        stack = self._stack()
        local_parent = stack[-1] if stack else None
        up = local_parent or parent
        span = Span(next(self._ids), up.id if up else None, local_parent, name,
                    up.root if up else None, up.block if up else None)
        if span.root is None:
            span.root = span
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.local_parent is not None:
            span.local_parent.child_s += span.duration
        self.spans.append(span)

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def ancestors(self):
        """Open spans of the calling thread, innermost first."""
        return reversed(self._stack())

    @contextmanager
    def span(self, name, parent: Span = None):
        s = self._open(name, parent)
        try:
            yield s
        except BaseException as e:
            s.error = type(e).__name__
            raise
        finally:
            self._close(s)

    def wrap(self, fn, name, on_enter=None, on_exit=None):
        def traced(*args, **kwargs):
            s = self._open(name)
            if on_enter is not None:
                on_enter(self, s, args, kwargs)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                s.error = type(e).__name__
                raise
            finally:
                self._close(s)
            if on_exit is not None:
                on_exit(s, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, on_enter=None, on_exit=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper; fails loudly if the name is gone."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, on_enter, on_exit))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tself_s\tblock\terror\n")
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(f"{s.id}\t{s.parent or ''}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t"
                         f"{s.self_s:.9f}\t{s.block or ''}\t{s.error or ''}\n")
