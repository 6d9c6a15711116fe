"""Span tracer for the besovpde benchmark.

While installed, the tracer replaces the module-level functions of the
``besovpde`` submodules (public ones, and private ones another submodule
imports), the public ``TorusGrid`` methods, ``SpectralField.sup_norm`` and
the ``numpy.fft`` transform entry points with wrappers that record one
span (name, start, end, parent) per call and a few counters.  The package
imports with ``from .x import y``, so one function is bound under several
names (``solver.drift_term`` and ``paraproduct.drift_term``, the
``cli._COMMANDS`` table, ...); every binding that holds the original
object is replaced, and restored on exit.

A sampling thread checks the attribution: every few milliseconds it looks
at the main thread's innermost frame that belongs to the package (or to
``numpy.fft``) and compares that frame's layer with the layer of the
innermost open span.  The share of samples where they differ is
``unattributed_frac``; a missed wrapper shows up there.

Spans stay in memory; ``write_spans`` dumps them at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import numpy.fft

FFT_ENTRY_POINTS = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
                    "rfft", "irfft", "rfftn", "irfftn", "rfft2", "irfft2",
                    "hfft", "ihfft")
BYTES_PER_POINT = 32  # one complex128 read plus one written, per point

NORM_SPANS = ("lp.besov_norm", "lp.dc_norm", "lp.c1plus_norm")
IO_WRITE_SPANS = ("grid.save_field", "calibration.save_calibration")
IO_READ_SPANS = ("grid.load_field", "calibration.load_calibration")
PACKAGE = "besovpde"


class Tracer:
    """Records spans and counters for calls into the package's layers.

    Span ``i`` is (``names[span_name[i]]``, ``span_start[i]``,
    ``span_end[i]``, ``span_parent[i]``), with parent -1 for a root.  Spans
    live in flat arrays: a container object per span would be tracked by
    the garbage collector, whose collections then slow the traced run.
    Counters hold quantities measured at the same boundaries (FFT points,
    Picard iterations, file bytes).
    """

    def __init__(self, sample_interval=0.01):
        self.sample_interval = sample_interval
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.stack = []
        self.counters = Counter()
        self.samples = Counter()   # "matched" / "unattributed"
        self.misattributed = Counter()  # "span layer <- frame layer.function"
        self._drift_objects = {}   # id -> array, kept alive while counted
        self._restore = []
        self._layer_of_file = {}

    def __len__(self):
        return len(self.span_start)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            starts.append(clock())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def reset_op(self):
        """Start a new op: counters and distinct-drift tracking restart."""
        self.counters = Counter()
        self._drift_objects = {}

    @property
    def distinct_drifts(self) -> int:
        """Distinct drift-component arrays passed to bony_product this op."""
        return len(self._drift_objects)

    # -- after-call hooks --------------------------------------------------

    def _after_fft(self, args, kwargs, result):
        points = max(np.size(args[0]) if args else 0, np.size(result))
        self.counters["fft.points"] += points

    def _after_solve_mild(self, args, kwargs, result):
        self.counters["solver.picard_iterations"] += result.iterations
        self.counters["solver.useful_ratios"] += len(result.ratios)
        self.counters["solver.ratio_slots"] += max(result.iterations - 1, 0)

    def _after_bony(self, args, kwargs, result):
        g = args[2] if len(args) > 2 else kwargs["g"]
        base = g.coeffs
        while base.base is not None:
            base = base.base
        key = (id(base), g.coeffs.__array_interface__["data"][0])
        self._drift_objects[key] = base

    def _after_io(self, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.counters["io.bytes"] += os.path.getsize(path)

    # -- installation ------------------------------------------------------

    @staticmethod
    def _package_modules():
        return {name: mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == PACKAGE
                                        or name.startswith(PACKAGE + "."))}

    def _wrappers(self, modules):
        """id -> (original, wrapper) for every traced package function.

        Traced: module-level functions of the package's submodules that are
        public, or private ones another submodule imports (such as
        ``grid._embed_axis``), since those are layer boundaries too.
        """
        hooks = {"solver.solve_mild": self._after_solve_mild,
                 "paraproduct.bony_product": self._after_bony}
        hooks.update(dict.fromkeys(IO_WRITE_SPANS + IO_READ_SPANS,
                                   self._after_io))
        imported = {id(obj) for name, mod in modules.items()
                    for obj in vars(mod).values()
                    if getattr(obj, "__module__", name) != name}
        out = {}
        for modname, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != modname
                        or (attr.startswith("_") and id(obj) not in imported)):
                    continue
                name = f"{modname[len(PACKAGE) + 1:]}.{attr}"
                out[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name)))
        return out

    def _swap(self, container, key, new, is_dict):
        old = container[key] if is_dict else getattr(container, key)
        self._restore.append((container, key, old, is_dict))
        if is_dict:
            container[key] = new
        else:
            setattr(container, key, new)

    def _install(self):
        modules = self._package_modules()
        wrappers = self._wrappers(modules)

        def wrapper_of(obj):
            hit = wrappers.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if wrapper_of(obj) is not None:
                    self._swap(mod, attr, wrapper_of(obj), False)
                elif isinstance(obj, dict):   # e.g. cli._COMMANDS
                    for key, value in list(obj.items()):
                        if wrapper_of(value) is not None:
                            self._swap(obj, key, wrapper_of(value), True)
        grid = modules[PACKAGE + ".grid"]
        self._swap(grid.SpectralField, "sup_norm",
                   self._wrap("grid.sup_norm", grid.SpectralField.sup_norm),
                   False)
        # the lattice arrays other layers ask the grid for on every call
        for attr, fn in list(vars(grid.TorusGrid).items()):
            if inspect.isfunction(fn) and not attr.startswith("_"):
                self._swap(grid.TorusGrid, attr,
                           self._wrap(f"grid.{attr}", fn), False)
        for name in FFT_ENTRY_POINTS:
            fn = getattr(numpy.fft, name)
            self._swap(numpy.fft, name,
                       self._wrap(f"fft.{name}", fn, self._after_fft), False)

    def _uninstall(self):
        while self._restore:
            container, key, old, is_dict = self._restore.pop()
            if is_dict:
                container[key] = old
            else:
                setattr(container, key, old)

    @contextmanager
    def installed(self):
        """Trace every call made inside the block; sample attribution."""
        self._install()
        stop = threading.Event()
        sampler = threading.Thread(target=self._sample_loop,
                                   args=(threading.get_ident(), stop),
                                   daemon=True)
        sampler.start()
        try:
            yield self
        finally:
            stop.set()
            sampler.join()
            self._uninstall()

    # -- attribution sampling ----------------------------------------------

    def _frame_layer(self, filename):
        layer = self._layer_of_file.get(filename, False)
        if layer is not False:
            return layer
        p = Path(filename)
        parts = p.parts
        layer = None
        if len(parts) >= 2 and parts[-2] == PACKAGE:
            layer = p.stem
        elif (len(parts) >= 2 and parts[-2] == "fft" and "numpy" in parts
              and p.stem == "_pocketfft"):  # the transforms, not fftfreq
            layer = "fft"
        self._layer_of_file[filename] = layer
        return layer

    def _sample_loop(self, main_ident, stop):
        while not stop.wait(self.sample_interval):
            frame = sys._current_frames().get(main_ident)
            try:
                span_layer = layer_of(
                    self.names[self.span_name[self.stack[-1]]])
            except IndexError:  # no open span: the benchmark's own code
                continue
            while frame is not None:
                layer = self._frame_layer(frame.f_code.co_filename)
                if layer is not None:
                    if layer == span_layer:
                        self.samples["matched"] += 1
                    else:
                        self.samples["unattributed"] += 1
                        self.misattributed[
                            f"{span_layer} <- {layer}.{frame.f_code.co_name}"] += 1
                    break
                frame = frame.f_back
            del frame

    @property
    def unattributed_frac(self) -> float:
        total = self.samples["matched"] + self.samples["unattributed"]
        return self.samples["unattributed"] / total if total else 0.0

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        """One JSON line per span: [index, parent, name, start, end]."""
        with open(path, "w") as fh:
            for i in range(len(self)):
                fh.write(json.dumps([i, self.span_parent[i],
                                     self.names[self.span_name[i]],
                                     self.span_start[i], self.span_end[i]])
                         + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(tr: Tracer, lo: int = 0, hi: int = None) -> dict:
    """Aggregate spans lo..hi-1 of one traced region.

    Returns per-span-name ``calls`` and ``self`` (seconds not covered by
    direct children), per-layer self seconds ``layer_self`` and the summed
    duration of the region's roots, ``root_s``.  Every span's parent lies
    in the region or is -1.
    """
    hi = len(tr) if hi is None else hi
    starts, ends, parents = tr.span_start, tr.span_end, tr.span_parent
    child = defaultdict(float)
    for i in range(lo, hi):
        if parents[i] >= lo:
            child[parents[i]] += ends[i] - starts[i]
    calls, self_s, layer_self = Counter(), defaultdict(float), defaultdict(float)
    root_s = 0.0
    for i in range(lo, hi):
        name = tr.names[tr.span_name[i]]
        dur = ends[i] - starts[i]
        own = dur - child[i]
        calls[name] += 1
        self_s[name] += own
        layer_self[layer_of(name)] += own
        if parents[i] < lo:
            root_s += dur
    return {"calls": calls, "self": self_s, "layer_self": layer_self,
            "root_s": root_s}


def outermost_incl(tr: Tracer, names, lo: int = 0, hi: int = None) -> float:
    """Inclusive seconds of spans named in ``names`` with no such ancestor."""
    hi = len(tr) if hi is None else hi
    ids = {tr.name_ids[n] for n in names if n in tr.name_ids}
    parents = tr.span_parent
    total = 0.0
    for i in range(lo, hi):
        if tr.span_name[i] not in ids:
            continue
        p = parents[i]
        while p >= lo and tr.span_name[p] not in ids:
            p = parents[p]
        if p < lo:
            total += tr.span_end[i] - tr.span_start[i]
    return total
