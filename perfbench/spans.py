"""Span tracer for the traced run.

Wraps the program's layer functions by reassigning module attributes: the
defining module, every ``expansive`` module that bound the same object by
``from .x import name``, and class attributes such as ``QMatrix.__matmul__``.
Spans (name, start, end, parent) are kept in flat arrays in memory and
written out when the run ends; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

# module -> functions with a span; "Class.method" patches the class
SPANNED = {
    "exact": ("QMatrix.__matmul__", "char_poly", "rref", "kernel", "coordinates_in_span", "solve_exact",
              "is_positive_semidefinite", "minimal_poly", "poly_gcd"),
    "spectral": ("unit_disk_profile", "single_expansive", "circle_root_count"),
    "orbits": ("find_expansive_word", "jsr_bounds", "_bounded_directions", "certify_bounded", "invariant_closure",
               "_proper_invariant_subspaces", "_split_analysis", "_word_prescreen"),
    "weights": ("weight_decomposition", "find_expansive_element"),
    "torus": ("torus_expansive", "irreducibility_check", "algebra_dimension", "certified_infinite_word"),
    "solenoid": ("enumerate_basis", "regular_chain", "_pair_relation", "lift", "span_restriction",
                 "solenoid_expansive"),
    "cli": ("verify_report", "check_certificate", "emit"),
}
# spans reported as calls only
CALLS_ONLY = {"orbits._split_analysis", "solenoid._pair_relation"}
# spans reported as neither (their counters are reported instead)
UNREPORTED = {"orbits._word_prescreen"}


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = ["cli.import_s"]
    for mod, funcs in SPANNED.items():
        for fn in funcs:
            label = f"{mod}.{fn}"
            if label in UNREPORTED:
                continue
            names.append(f"{label}.calls")
            if label not in CALLS_ONLY:
                names.append(f"{label}.self_s")
        if mod == "orbits":
            names += [
                "orbits.iter_words.words",
                "orbits._word_prescreen.calls",
                "orbits._word_prescreen.rejects",
                "orbits.prescreen_reject_ratio",
                "orbits.char_poly_per_word",
                "orbits.word_budget_exhausted",
            ]
    return names + ["bench.trace_overhead_s"]


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self.start = array.array("d")
        self.end = array.array("d")
        self.name = array.array("i")
        self.parent = array.array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.in_word_search = 0
        self.patches: list[tuple[object, str, object, object]] = []

    # ---------------------------------------------------------- wrappers

    def _spanned(self, label: str, fn, on_result=None):
        nid = len(self.labels)
        self.labels.append(label)
        start, end, names, parents, stack = self.start, self.end, self.name, self.parent, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(tracer, out)
            return out

        return wrapper

    def _word_search(self, fn):
        inner = self._spanned("orbits.find_expansive_word", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.in_word_search += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self.in_word_search -= 1

        return wrapper

    def _char_poly(self, fn):
        inner = self._spanned("exact.char_poly", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.in_word_search:
                self.counts["search.char_poly"] += 1
            return inner(*args, **kwargs)

        return wrapper

    def _iter_words(self, fn):
        @functools.wraps(fn)
        def wrapper(action, max_len, budget):
            in_search = self.in_word_search > 0
            emitted = 0
            for item in fn(action, max_len, budget):
                emitted += 1
                self.counts["orbits.iter_words.words"] += 1
                if in_search:
                    self.counts["search.words"] += 1
                yield item
            if in_search and emitted >= budget:
                self.counts["orbits.word_budget_exhausted"] += 1

        return wrapper

    @staticmethod
    def _prescreen_result(tracer, out) -> None:
        if not out:
            tracer.counts["orbits._word_prescreen.rejects"] += 1

    # ---------------------------------------------------------- install

    def _bindings(self, original) -> list[tuple[object, str]]:
        """Every (module, attribute) of the package bound to `original`."""
        out = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "expansive" or mod_name.startswith("expansive."):
                out += [(mod, attr) for attr, value in vars(mod).items() if value is original]
        return out

    def _build(self) -> None:
        """Make every wrapper once, so installing is a few attribute writes."""
        for mod_name, funcs in SPANNED.items():
            mod = sys.modules[f"expansive.{mod_name}"]
            for fn_name in funcs:
                label = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    self.patches.append((cls, meth, original, self._spanned(label, original)))
                    continue
                original = getattr(mod, fn_name)
                if label == "orbits.find_expansive_word":
                    wrapper = self._word_search(original)
                elif label == "exact.char_poly":
                    wrapper = self._char_poly(original)
                elif label == "orbits._word_prescreen":
                    wrapper = self._spanned(label, original, self._prescreen_result)
                else:
                    wrapper = self._spanned(label, original)
                self.patches += [(owner, attr, original, wrapper) for owner, attr in self._bindings(original)]
        iter_words = sys.modules["expansive.orbits"].iter_words
        wrapper = self._iter_words(iter_words)
        self.patches += [(owner, attr, iter_words, wrapper) for owner, attr in self._bindings(iter_words)]

    def __enter__(self) -> "Tracer":
        if not self.patches:
            self._build()
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    # ---------------------------------------------------------- results

    def metrics(self) -> dict[str, float]:
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            label = self.labels[self.name[i]]
            calls[label] += 1
            self_s[label] += (self.end[i] - self.start[i]) - child[i]
        out: dict[str, float] = {}
        for label in self.labels:
            out[f"{label}.calls"] = calls[label]
            out[f"{label}.self_s"] = self_s[label]
        c = self.counts
        prescreens, rejects = calls["orbits._word_prescreen"], c["orbits._word_prescreen.rejects"]
        out.update({
            "orbits.iter_words.words": c["orbits.iter_words.words"],
            "orbits._word_prescreen.rejects": rejects,
            "orbits.prescreen_reject_ratio": rejects / prescreens if prescreens else 0.0,
            "orbits.char_poly_per_word": c["search.char_poly"] / c["search.words"] if c["search.words"] else 0.0,
            "orbits.word_budget_exhausted": c["orbits.word_budget_exhausted"],
        })
        return {name: out[name] for name in per_layer_names() if name in out}

    def write(self, directory: Path, stem: str) -> None:
        """Spans as four flat binary arrays plus a JSON index of labels."""
        directory.mkdir(parents=True, exist_ok=True)
        for field in ("start", "end", "name", "parent"):
            with open(directory / f"{stem}.{field}.bin", "wb") as fh:
                getattr(self, field).tofile(fh)
        index = {"labels": self.labels, "spans": len(self.name),
                 "arrays": {"start": "d", "end": "d", "name": "i", "parent": "i"}}
        (directory / f"{stem}.json").write_text(json.dumps(index, indent=1) + "\n")
