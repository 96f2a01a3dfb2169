"""In-memory span tracer that wraps library functions at their import sites.

A wrapped function is a pure pass-through: it calls the original with the
same arguments and returns its result (or re-raises its exception), and
records one span (name, start, end, parent, instance) around the call.
Hooks attached to a wrapper add counts from the call's arguments and
result.  Spans stay in memory until ``write_csv`` at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict


class Tracer:
    """Records nested spans and named counts; install/uninstall wrappers."""

    def __init__(self, package):
        self.package = package
        # one row per span: [name, start, end, parent index or -1, instance]
        self.spans = []
        self.counts = defaultdict(float)
        self.instance = None
        self.absent = set()
        self._stack = []
        self._undo = []

    # -- recording --------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.instance])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def parent_name(self):
        """Name of the innermost open span (the caller's layer), or None."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, key, value=1.0):
        self.counts[key] += value

    # -- installing wrappers ----------------------------------------------

    def wrap_function(self, name, module_name, attr, hook=None):
        """Wrap ``module_name.attr`` wherever the package holds a reference.

        Every module of the package that imported the function by name
        gets the wrapper, so calls through any import site are traced.
        A function that no longer exists is recorded in ``absent``.
        """
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module else None
        if not callable(original):
            self.absent.add(name)
            return
        wrapper = self._make_wrapper(name, original, hook)
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def wrap_method(self, name, cls, attr, hook=None):
        """Wrap a plain method on its class; absent if the class lost it."""
        original = cls.__dict__.get(attr) if cls is not None else None
        if not callable(original):
            self.absent.add(name)
            return
        setattr(cls, attr, self._make_wrapper(name, original, hook))
        self._undo.append((cls, attr, original))

    def _make_wrapper(self, name, original, hook):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = tracer.parent_name()
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                tracer._close(idx)
                if hook is not None:
                    hook(tracer, parent, args, kwargs, None, exc)
                raise
            tracer._close(idx)
            if hook is not None:
                hook(tracer, parent, args, kwargs, result, None)
            return result

        return wrapper

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.uninstall()
        return False

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def write_csv(self, path):
        """Write every span as gzipped CSV, times relative to the first."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start_s,end_s,parent,instance\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for idx, (name, start, end, parent, inst) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start - t0!r},{end - t0!r},{parent},{inst}\n")
