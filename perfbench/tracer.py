"""Run one znbases CLI command with its public library functions traced.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py spectrum --n 14 --exhaustive

The command behaves exactly like ``znbases <args>``: same stdout, same exit
code.  Before it runs, every traced function is replaced, in each znbases
module that binds it, by a wrapper that records a span (name, start, end,
parent) in memory.  The span tree is reduced once the command has finished,
and one summary line, prefixed with ``SUMMARY_PREFIX``, is written to stderr:
per span name the call count and self time (duration minus the time covered
by child spans), plus the counters the per-layer metrics need.  The command
itself is the root span ``cli``, so its self time is argument parsing and
rendering.  Like ``launch.py``, the process times the calibration loop
before and after the command, so that ``run.py`` can scale the traced wall
time to the reference machine speed for ``trace.overhead_s``.
"""

import atexit
import sys
import time
from array import array

import launch

SUMMARY_PREFIX = "perfbench-trace "

# Span name -> (module, function).  Generators are traced per next() call.
TRACED = {
    "sumsets.order": ("sumsets", "order"),
    "sumsets.add_sets": ("sumsets", "add_sets"),
    "sumsets.h_fold": ("sumsets", "h_fold"),
    "affine.is_canonical": ("affine", "is_canonical"),
    "affine.canonical_form": ("affine", "canonical_form"),
    "spectrum.enumerate_bases": ("spectrum", "enumerate_bases"),
    "spectrum.spectrum": ("spectrum", "spectrum"),
    "spectrum.verify_conjecture": ("spectrum", "verify_conjecture"),
    "core.is_basis": ("core", "is_basis"),
    "core.canonical_sort_key": ("core", "canonical_sort_key"),
    "bounds.kl_bound": ("bounds", "kl_bound"),
    "bounds.lower_bound_family": ("bounds", "lower_bound_family"),
    "bounds.min_gap_to_fractions": ("bounds", "min_gap_to_fractions"),
    "structure.pipeline_trace": ("structure", "pipeline_trace"),
    "structure.df_analyze": ("structure", "df_analyze"),
    "structure.ap_cover": ("structure", "ap_cover"),
    "structure.project": ("structure", "project"),
    "structure.coset_profile": ("structure", "coset_profile"),
}
GENERATORS = {"spectrum.enumerate_bases"}
# Modules whose namespaces are searched for bindings of the traced functions.
BINDING_MODULES = ("sumsets", "affine", "core", "spectrum", "bounds", "structure", "cli")
ROOT = "cli"


class Tracer:
    """Spans kept in flat arrays: name id, parent index, start and end time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.current = -1
        self.counters: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.current = idx
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.current = self.parent[idx]

    def count(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def summary(self) -> dict:
        """Per-name calls and self time, plus counters keyed on the parent."""
        n_spans = len(self.start)
        covered = [0.0] * n_spans
        for i in range(n_spans):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        spans = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        under: dict[str, int] = {}
        for i in range(n_spans):
            name = self.names[self.name_of[i]]
            entry = spans[name]
            entry["calls"] += 1
            entry["self_s"] += self.end[i] - self.start[i] - covered[i]
            p = self.parent[i]
            if p >= 0:
                key = f"{name}<{self.names[self.name_of[p]]}"
                under[key] = under.get(key, 0) + 1
        return {"spans": spans, "counters": self.counters, "under": under}


def _observe_order(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("sumsets.order.mask_bits", args[0].modulus)
    if result is None:
        tracer.count("sumsets.order.inf", 1)
    else:
        tracer.count("sumsets.order.finite_levels", result)


def _observe_is_canonical(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("affine.is_canonical.accepted", 1 if result else 0)


def _observe_verify(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("spectrum.verify_conjecture.exceeders", len(result.exceeders))


OBSERVERS = {
    "sumsets.order": _observe_order,
    "affine.is_canonical": _observe_is_canonical,
    "spectrum.verify_conjecture": _observe_verify,
}


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    begin, finish = tracer.begin, tracer.finish
    observe = OBSERVERS.get(name)

    if name in GENERATORS:
        def traced_generator(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = begin(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    finish(idx)
                tracer.count(f"{name}.yielded", 1)
                yield item
        return traced_generator

    def traced(*args, **kwargs):
        idx = begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            finish(idx)
        if observe is not None:
            observe(tracer, args, result)
        return result
    return traced


def install(tracer: Tracer) -> None:
    """Rebind every traced function in every module that holds a reference."""
    modules = {m: sys.modules[f"znbases.{m}"] for m in BINDING_MODULES}
    for name, (mod, attr) in TRACED.items():
        original = getattr(modules[mod], attr)
        wrapper = _wrap(tracer, name, original)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    import znbases.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    root = tracer.begin(tracer.name_id(ROOT))
    code = 0
    try:
        znbases.cli.main(args=argv, prog_name="znbases")
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.finish(root)
        sys.stdout.flush()
    import json

    summary = tracer.summary()
    summary["import_s"] = import_s
    sys.stderr.write(SUMMARY_PREFIX + json.dumps(summary, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    atexit.register(launch.report, launch.timed_calibration())
    sys.exit(main(sys.argv[1:]))
