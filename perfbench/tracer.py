"""Spans around the calls into each ffgscon layer, recorded from outside.

The tracer wraps public functions of the package where they are called: for
each wrapped function object it rebinds every name in every loaded
``ffgscon`` module that refers to it (``from .states import project_onto``
makes a second binding that patching ``states`` alone would miss).  Methods
are patched on their class.  A name that no longer exists is reported as
absent instead of failing, so later refactors can delete or rename layer
functions without editing the benchmark.

Every call records a span ``(id, key, start, end, parent id, op id)``.  The
key is the layer function plus whatever its arguments say about the work
(test id, mode, precision).  Totals per ``(phase, key, parent key)`` are kept
for every call; raw spans are kept in memory up to ``keep`` and written out
when the run ends.  Self time is a span's duration minus its children's.
Single-threaded use only: the span stack is shared.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter


def _precision(witnesses) -> str:
    first = getattr(witnesses, "u", None)
    if first is None:
        try:
            first = witnesses[0]
        except (TypeError, IndexError, KeyError):
            return "unknown"
    state = getattr(first, "state", None)
    return "ext" if getattr(state, "extended", False) else "f64"


def _key_run_test(a, kw):
    test_id, witnesses = a[0], a[1] if len(a) > 1 else kw.get("witnesses")
    return f"verifier.{kw.get('mode', 'exact')}_t{test_id}_{_precision(witnesses)}"


def _key_round(a, kw):
    witnesses = a[0] if a else kw.get("witnesses")
    return f"verifier.round_{kw.get('mode', 'exact')}_{_precision(witnesses)}"


def _key_extended(name):
    return lambda a, kw: f"witnesses.{name}_{'ext' if kw.get('extended', False) else 'f64'}"


def _items_trials(a, kw):
    trials = a[2] if len(a) > 2 else kw.get("trials", ())
    return len(trials)


# (module, attribute path, key function or fixed key, work-item counter)
LAYER_FUNCTIONS = [
    ("ffgscon.harness", "run_monte_carlo", "harness.run_monte_carlo", None),
    ("ffgscon.harness", "run_lemma_suite", "harness.run_lemma_suite", None),
    ("ffgscon.harness", "sampling_plan", "harness.sampling_plan", None),
    ("ffgscon.harness", "sample_test", "harness.sample_test", None),
    ("ffgscon.harness", "sample_round", "harness.sample_round", None),
    ("ffgscon.harness", "RunReport.to_json", "harness.report_to_json", None),
    ("ffgscon._kernels", "uniforms", "_kernels.uniforms", _items_trials),
    ("ffgscon._kernels", "tally_bernoulli", "_kernels.tally_bernoulli", _items_trials),
    ("ffgscon._kernels", "tally_chain", "_kernels.tally_chain", _items_trials),
    ("ffgscon._kernels", "tally_unique", "_kernels.tally_unique", _items_trials),
    ("ffgscon._kernels", "tally_boundary", "_kernels.tally_boundary", _items_trials),
    ("ffgscon._kernels", "tally_low", "_kernels.tally_low", _items_trials),
    ("ffgscon._kernels", "select", "_kernels.select", _items_trials),
    ("ffgscon.verifier", "run_test", _key_run_test, None),
    ("ffgscon.verifier", "run_protocol_round", _key_round, None),
    ("ffgscon.states", "swap_test_reject_prob", "states.swap_test_reject_prob", None),
    ("ffgscon.states", "project_onto", "states.project_onto", None),
    ("ffgscon.states", "conditional_state", "states.conditional_state", None),
    ("ffgscon.witnesses", "build_honest_U", _key_extended("build_honest"), None),
    ("ffgscon.witnesses", "build_honest_S", _key_extended("build_honest"), None),
    ("ffgscon.witnesses", "forge_adversary", _key_extended("forge_adversary"), None),
    ("ffgscon.witnesses", "forge_composed", _key_extended("forge_composed"), None),
    ("ffgscon.rng", "CounterStream.uniform", "rng.uniform", None),
    ("ffgscon.ledger", "derive_parameters", "ledger.derive_parameters", None),
    ("ffgscon.instances", "validate_instance", "instances.validate_instance", None),
]


class Tracer:
    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.spans: list[tuple] = []
        self.dropped = 0
        # (phase, key, parent key) -> [calls, total s, self s, items]
        self.totals: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.absent: list[str] = []
        self._stack: list[list] = []  # frames: [span id, key, child seconds(, root start)]
        self._phase = None
        self._op = None
        self._next_id = 0
        self._bindings: list[tuple] = []  # (owner, name, original, wrapper)

    # -- roots -------------------------------------------------------------

    def begin(self, phase: str, op_id=None):
        """Open a root span; ``phase`` is 'op' for timed ops, 'setup' otherwise."""
        self._phase, self._op = phase, op_id
        self._stack.append([self._new_id(), phase, 0.0, perf_counter()])

    def end(self) -> float:
        span_id, key, child, t0 = self._stack.pop()
        t1 = perf_counter()
        self._record(span_id, key, None, t0, t1, child, 0)
        self._phase = self._op = None
        return t1 - t0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _record(self, span_id, key, parent, t0, t1, child, items):
        dur = t1 - t0
        tot = self.totals[(self._phase, key, parent[1] if parent else None)]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        tot[3] += items
        if parent is not None:
            parent[2] += dur
        if len(self.spans) < self.keep:
            self.spans.append((span_id, key, t0, t1, parent[0] if parent else None, self._op))
        else:
            self.dropped += 1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, key, items):
        tracer = self
        key_of = key if callable(key) else (lambda a, kw: key)

        @functools.wraps(fn)
        def traced(*a, **kw):
            stack = tracer._stack
            if not stack:  # outside any root: not part of the measurement
                return fn(*a, **kw)
            parent = stack[-1]
            frame = [tracer._new_id(), key_of(a, kw), 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._record(frame[0], frame[1], parent, t0, t1, frame[2], items(a, kw) if items else 0)

        return traced

    def prepare(self):
        """Build a wrapper for every layer function that exists; note the absent ones."""
        for module_name, path, key, items in LAYER_FUNCTIONS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapped = self._wrap(fn, key, items)
            if owner_name:
                self._bindings.append((owner, attr, fn, wrapped))
                continue
            for mod in [m for n, m in sys.modules.items() if n == "ffgscon" or n.startswith("ffgscon.")]:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._bindings.append((mod, name, fn, wrapped))

    def install(self):
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, fn, _ in self._bindings:
            setattr(owner, attr, fn)

    # -- queries -----------------------------------------------------------

    def agg(self, match, *, phase="op", parent=None):
        """Summed [calls, total s, self s, items] over keys that ``match``.

        ``match`` is a key or a predicate on keys; ``phase`` None means any
        phase; ``parent`` restricts to spans whose parent has that key.
        """
        want = match if callable(match) else (lambda k: k == match)
        out = [0, 0.0, 0.0, 0]
        for (ph, key, par), tot in self.totals.items():
            if (phase is None or ph == phase) and (parent is None or par == parent) and want(key):
                for i in range(4):
                    out[i] += tot[i]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "key", "start", "end", "parent", "op"],
                                 "spans": len(self.spans), "dropped": self.dropped, "absent": self.absent}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
