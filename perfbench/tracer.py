"""Per-layer tracer for the fdlab benchmark.

The tracer wraps methods of the solver's layers from outside the program,
for the length of one traced solve, and puts the originals back afterwards.
A layer is one module of the program:

* ``propagate``   -- public methods of the classes in ``fdlab.propagate``
* ``constraints`` -- ``propagate`` of every ``Propagator`` subclass, per class
* ``domain``      -- public methods of the classes in ``fdlab.domain``
* ``restore``     -- public methods of the classes in ``fdlab.restore``
* ``search``      -- the solve span itself; its self time is everything in
  ``solve()``/``minimize()`` not spent inside another layer, which is the
  branching bookkeeping of ``fdlab.search``.

Every wrapped call adds its count, its inclusive time and its self time
(inclusive time minus the time of wrapped calls made inside it) to an
aggregate held in memory.  The solve, fixpoint, open_node and backtrack_to
boundaries are also kept as spans (solve id, span id, parent span id, name,
start, end), written out when the run ends.  Self times telescope, so the
self times of all layers add up to the solve span; ``self_time_ratio``
checks that no wrapper lost or double-counted time.

Methods are found by walking the modules, not from a fixed list, so a
renamed or removed method simply stops showing up (its named metric then
reads 0) instead of breaking the traced run.
"""

from __future__ import annotations

import inspect
import json
import time

LAYERS = ("search", "propagate", "constraints", "domain", "restore")

SPAN_METHODS = {"fixpoint", "open_node", "backtrack_to"}
QUERY_METHODS = {"min", "max", "size", "value", "is_assigned", "contains", "domain_values"}

#: Nominal size of one trail entry (variable reference plus old value), used
#: only for the computed ``restore.peak_retained_bytes``.
TRAIL_ENTRY_BYTES = 16


class Tracer:
    """Wraps the solver's layers for one traced solve at a time."""

    def __init__(self, fdlab):
        import fdlab.constraints
        import fdlab.domain
        import fdlab.propagate
        import fdlab.restore

        self._fd = fdlab
        self._failed = fdlab.domain.FAILED
        self._prop_failed = fdlab.propagate.PROP_FAILED
        self._subsumed = fdlab.propagate.SUBSUMED
        self._targets = list(self._find_targets())
        self._patches = []
        self._clock = time.perf_counter
        # Per-solve state, reset by begin().
        self.entries = {}  # (layer, name) -> [calls, total_s, self_s, extra counts...]
        self._stack = [0.0]  # child-time accumulators, innermost last
        self._span_stack = [-1]
        self.spans = []  # every span of the run: (solve, id, parent, name, t0, t1)
        self.solve_id = -1
        self._next_span = 0
        self.max_depth = 0
        self.peak_retained = 0
        self._bookkeeping_s = 0.0
        self._backend = None  # last backend seen, for the memory held at the end

    # -- discovery ------------------------------------------------------

    def _find_targets(self):
        """Yield (owner class, attribute, layer, metric name, kind)."""
        fd = self._fd
        for layer, module in (
            ("propagate", fd.propagate),
            ("domain", fd.domain),
            ("restore", fd.restore),
        ):
            for cls in _module_classes(module):
                for attr, fn in vars(cls).items():
                    if attr.startswith("_") or not inspect.isfunction(fn):
                        continue
                    if layer == "propagate" and issubclass(cls, fd.propagate.Propagator):
                        continue
                    kind = "span" if attr in SPAN_METHODS else attr
                    yield cls, attr, layer, f"{cls.__name__}.{attr}", kind
        for cls in _all_subclasses(fd.propagate.Propagator):
            if "propagate" in vars(cls):
                yield cls, "propagate", "constraints", cls.__name__, "propagator"

    # -- install / remove -----------------------------------------------

    def install(self):
        for _, _, layer, name, _ in self._targets:
            self.entries.setdefault((layer, name), [0, 0.0, 0.0, 0, 0, 0])
        self._narrow_entry = next(
            (v for (layer, name), v in self.entries.items()
             if layer == "domain" and name.endswith(".narrow")),
            [0, 0.0, 0.0, 0, 0, 0],
        )
        for cls, attr, layer, name, kind in self._targets:
            original = vars(cls)[attr]
            entry = self.entries[(layer, name)]
            if kind == "span":
                wrapper = self._span_wrapper(original, entry, f"{layer}.{attr}")
            elif kind == "propagator":
                wrapper = self._propagator_wrapper(original, entry)
            elif kind == "narrow" and layer == "domain":
                wrapper = self._narrow_wrapper(original, entry)
            elif kind == "push":
                wrapper = self._push_wrapper(original, entry)
            else:
                wrapper = self._plain_wrapper(original, entry)
            self._patches.append((cls, attr, original))
            setattr(cls, attr, wrapper)

    def remove(self):
        while self._patches:
            cls, attr, original = self._patches.pop()
            setattr(cls, attr, original)

    # -- wrappers -------------------------------------------------------
    # Each wrapper pushes a child-time accumulator, times the call, and on
    # the way out charges its duration to the caller's accumulator.  The
    # variants are written out in full so that the hot ones (queries, narrow,
    # push) pay for no extra hook call.

    def _plain_wrapper(self, fn, entry):
        stack = self._stack
        clock = self._clock

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                stack[-1] += dt
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - children

        return wrapper

    def _narrow_wrapper(self, fn, entry):
        """entry[3] counts narrowings that changed a domain, entry[4] those
        that would have emptied one."""
        stack = self._stack
        clock = self._clock
        failed = self._failed

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            r = None
            try:
                r = fn(*args, **kwargs)
                return r
            finally:
                dt = clock() - t0
                children = stack.pop()
                stack[-1] += dt
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - children
                if r is failed:
                    entry[4] += 1
                elif r is not None:
                    entry[3] += 1

        return wrapper

    def _push_wrapper(self, fn, entry):
        """entry[3] counts pushes of a propagator already pending."""
        stack = self._stack
        clock = self._clock

        def wrapper(queue, pid, *args, **kwargs):
            if pid in queue:
                entry[3] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(queue, pid, *args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                stack[-1] += dt
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - children

        return wrapper

    def _propagator_wrapper(self, fn, entry):
        """entry[3] counts runs that changed a domain, entry[4] failures and
        entry[5] subsumptions."""
        stack = self._stack
        clock = self._clock
        prop_failed = self._prop_failed
        subsumed = self._subsumed
        narrow_entry = self._narrow_entry

        def wrapper(*args, **kwargs):
            before = narrow_entry[3]
            stack.append(0.0)
            t0 = clock()
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            finally:
                dt = clock() - t0
                children = stack.pop()
                stack[-1] += dt
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - children
                if narrow_entry[3] != before:
                    entry[3] += 1
                if outcome == prop_failed:
                    entry[4] += 1
                elif outcome == subsumed:
                    entry[5] += 1

        return wrapper

    def _span_wrapper(self, fn, entry, span_name):
        stack = self._stack
        clock = self._clock
        span_stack = self._span_stack
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            if span_name == "restore.backtrack_to":
                # The tracer's own bookkeeping: kept out of the caller's self
                # time, and added back for the self-time check.
                b0 = clock()
                tracer._note_retained(args[0])
                b1 = clock() - b0
                stack[-1] += b1
                tracer._bookkeeping_s += b1
            span_id = tracer._next_span
            tracer._next_span += 1
            parent = span_stack[-1]
            span_stack.append(span_id)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                children = stack.pop()
                stack[-1] += dt
                span_stack.pop()
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - children
                spans.append((tracer.solve_id, span_id, parent, span_name, t0, t1))
                if span_name == "restore.open_node":
                    tracer._backend = args[0]
                    depth = len(getattr(args[0], "frames", ()))
                    if depth > tracer.max_depth:
                        tracer.max_depth = depth

        return wrapper

    def _note_retained(self, backend):
        """Computed memory the backend holds: snapshots times the region
        size, plus trail entries at a nominal size."""
        frames = getattr(backend, "frames", ())
        snapshots = sum(1 for f in frames if getattr(f, "snapshot", None) is not None)
        store = getattr(backend, "store", None)
        region = getattr(store, "region_bytes", 0)
        trail = len(getattr(backend, "trail", ()))
        retained = snapshots * region + trail * TRAIL_ENTRY_BYTES
        if retained > self.peak_retained:
            self.peak_retained = retained

    # -- one traced solve -----------------------------------------------

    def begin(self):
        """Start a traced solve: reset the aggregates and open its span."""
        self.solve_id += 1
        for entry in self.entries.values():
            entry[:] = [0, 0.0, 0.0, 0, 0, 0]
        self.max_depth = 0
        self.peak_retained = 0
        self._bookkeeping_s = 0.0
        self._stack[:] = [0.0, 0.0]
        self._span_stack[:] = [-1, self._next_span]
        self._solve_span = self._next_span
        self._next_span += 1
        self._t0 = self._clock()

    def end(self):
        """Close the solve span; returns its duration in seconds."""
        t1 = self._clock()
        if self._backend is not None:
            self._note_retained(self._backend)
            self._backend = None
        dt = t1 - self._t0
        children = self._stack.pop()
        self._search_self = dt - children
        self._span_stack.pop()
        self.spans.append((self.solve_id, self._solve_span, -1, "search.solve", self._t0, t1))
        return dt

    def layer_metrics(self, wall_s):
        """Per-layer metrics of the solve just ended, as name -> value."""
        e = self.entries

        def pick(layer, method, field):
            return sum(v[field] for (lay, name), v in e.items()
                       if lay == layer and name.rsplit(".", 1)[-1] == method)

        def pick_set(layer, methods, field):
            return sum(pick(layer, m, field) for m in methods)

        m = {}
        self_by_layer = {layer: 0.0 for layer in LAYERS}
        self_by_layer["search"] = self._search_self
        for (layer, _), v in e.items():
            self_by_layer[layer] += v[2]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_by_layer[layer]
        m["search.max_depth"] = self.max_depth

        m["propagate.fixpoint_calls"] = pick("propagate", "fixpoint", 0)
        m["propagate.fixpoint_s"] = pick("propagate", "fixpoint", 1)
        m["propagate.dispatch_calls"] = pick("propagate", "dispatch", 0)
        m["propagate.dispatch_s"] = pick("propagate", "dispatch", 1)
        m["propagate.queue_pushes"] = pick("propagate", "push", 0)
        m["propagate.queue_dedup"] = pick("propagate", "push", 3)

        for (layer, name), v in e.items():
            if layer != "constraints" or v[0] == 0:
                continue
            m[f"constraints.{name}.runs"] = v[0]
            m[f"constraints.{name}.self_s"] = v[2]
            m[f"constraints.{name}.pruning_runs"] = v[3]
            m[f"constraints.{name}.failures"] = v[4]
            m[f"constraints.{name}.subsumed"] = v[5]

        m["domain.narrow_calls"] = pick("domain", "narrow", 0)
        m["domain.narrow_changed"] = pick("domain", "narrow", 3)
        m["domain.narrow_failed"] = pick("domain", "narrow", 4)
        m["domain.narrow_s"] = pick("domain", "narrow", 2)
        m["domain.query_calls"] = pick_set("domain", QUERY_METHODS, 0)
        m["domain.query_s"] = pick_set("domain", QUERY_METHODS, 2)
        m["domain.snapshot_calls"] = pick("domain", "snapshot_blob", 0)
        m["domain.snapshot_s"] = pick("domain", "snapshot_blob", 2)
        m["domain.load_calls"] = pick("domain", "load_blob", 0)
        m["domain.load_s"] = pick("domain", "load_blob", 2)
        m["domain.restore_raw_calls"] = pick("domain", "restore_raw", 0)
        m["domain.restore_raw_s"] = pick("domain", "restore_raw", 2)

        m["restore.open_node_s"] = pick("restore", "open_node", 1)
        m["restore.backtrack_s"] = pick("restore", "backtrack_to", 1)
        m["restore.replay_s"] = self._replay_s()
        m["restore.peak_retained_bytes"] = self.peak_retained

        layer_sum = sum(self_by_layer.values()) + self._bookkeeping_s
        m["trace.self_time_ratio"] = layer_sum / wall_s if wall_s > 0 else 0.0
        return m

    def _replay_s(self):
        """Time of fixpoint spans run inside a backtrack: recomputation."""
        names = {}
        total = 0.0
        for solve, sid, parent, name, t0, t1 in reversed(self.spans):
            if solve != self.solve_id:
                break
            names[sid] = name
        for solve, sid, parent, name, t0, t1 in reversed(self.spans):
            if solve != self.solve_id:
                break
            if name == "propagate.fixpoint" and names.get(parent) == "restore.backtrack_to":
                total += t1 - t0
        return total

    def top_entries(self, count=12):
        """The wrapped methods with the largest self time, for the log."""
        rows = sorted(self.entries.items(), key=lambda kv: -kv[1][2])
        return [(f"{layer}.{name}", v[0], v[2]) for (layer, name), v in rows[:count] if v[0]]

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for solve, sid, parent, name, t0, t1 in self.spans:
                out.write(json.dumps({"solve": solve, "id": sid, "parent": parent,
                                      "name": name, "start": t0, "end": t1}) + "\n")


def _module_classes(module):
    for obj in vars(module).values():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            yield obj


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)

