"""Per-layer tracing for the benchmark, installed from outside the library.

`Tracer.install()` replaces each listed public function of subsumlab with a
timing wrapper, in every subsumlab module namespace that holds a reference to
it, and counts calls of `GroupSpec.translate_mask` and `GSequence.__init__`.
Wrappers record only while `active` is true, so the benchmark's own input
generation and output checks stay out of the layer figures.
Spans (name, start, end, parent, request id) are kept in memory; self time is
a span's duration minus the time covered by its direct child spans, and is
accumulated exactly for every span even after the stored-span cap is reached.
`uninstall()` restores every original reference.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function) pairs that get a span; the metric prefix is
# "<module>.<function>"
SPANNED = (
    ("groups", "sumset"),
    ("groups", "stabilizer"),
    ("groups", "subgroup_generated"),
    ("groups", "quotient_decompose"),
    ("groups", "quotient_cached"),
    ("sequences", "subsum_table"),
    ("sequences", "subsum_profile"),
    ("sequences", "push_forward"),
    ("sequences", "build_s_star"),
    ("setpartitions", "partition_solve"),
    ("setpartitions", "partition_verify"),
    ("setpartitions", "main_pipeline"),
    ("setpartitions", "main_verify"),
    ("verifiers", "check_subsum_kneser"),
    ("verifiers", "check_lemma_extra"),
    ("search", "run_audit"),
)

# spans stored for writing out; aggregates cover every span regardless
SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.failed: dict[str, int] = {}
        self.cache_misses = 0
        self.spans: list[tuple] = []
        self.request_id = 0
        self.active = False
        self._stack: list[list] = []   # [span id, name, start, child time]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        perf = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, name, perf(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                # a verified negative answer is raised, but it is not a failure
                if type(exc).__name__ != "HypothesesUnmetError":
                    self.failed[name] = self.failed.get(name, 0) + 1
                raise
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[2]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                    if name == "groups.quotient_decompose" \
                            and stack[-1][1] == "groups.quotient_cached":
                        self.cache_misses += 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((sid, name, frame[2], end, parent,
                                       self.request_id))
        return wrapper

    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        from subsumlab.groups import GroupSpec
        from subsumlab.sequences import GSequence

        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "subsumlab" or k.startswith("subsumlab."))]
        for mod_name, fn_name in SPANNED:
            orig = getattr(sys.modules[f"subsumlab.{mod_name}"], fn_name)
            wrapped = self._span_wrapper(f"{mod_name}.{fn_name}", orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        for cls, attr, name in ((GroupSpec, "translate_mask", "groups.translate_mask"),
                                (GSequence, "__init__", "sequences.GSequence")):
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self._count_wrapper(name, orig))

    def start_request(self) -> None:
        self.request_id += 1
        self.active = True

    def stop_request(self) -> None:
        self.active = False

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- output ---------------------------------------------------------------

    def add(self, other: dict) -> None:
        """Merge what `export()` wrote in another process; its spans join
        this tracer's current request."""
        for sid, name, start, end, parent, _ in other["spans"]:
            if len(self.spans) >= SPAN_CAP:
                break
            self.spans.append((sid, name, start, end, parent, self.request_id))
        for key in ("calls", "failed"):
            mine = getattr(self, key)
            for k, v in other[key].items():
                mine[k] = mine.get(k, 0) + v
        for k, v in other["self_s"].items():
            self.self_s[k] = self.self_s.get(k, 0.0) + v
        self.cache_misses += other["cache_misses"]

    def export(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "failed": self.failed,
                "cache_misses": self.cache_misses, "spans": self.spans}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "request": rid}) + "\n")
