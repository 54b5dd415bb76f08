"""Per-layer spans from outside the program.

The traced run swaps every public function of the qclock layer modules (and
every public method of their classes) for a timing wrapper, on the defining
module and on every qclock module that imported the name, so that e.g.
``qclock.measurement.grid_amplitudes`` and ``qclock.cli.read_spectrum`` are
traced too.  Nothing in the package changes: ``Patches.install`` and
``Patches.uninstall`` only rebind module and class attributes.

A span records its layer-qualified name, start, end, parent span and op id.
Spans stay in memory until the run ends.  A span's self time is its duration
minus the time its child spans cover; the root span of each op is the
harness's own, so the self times of one op add up to its traced duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from time import perf_counter

LAYERS = ("spectrum", "clockstates", "measurement", "bounds", "cli", "units")
ROOT_SPAN = "harness.op"

# Per-layer metrics made of several functions; any other traced
# function keeps its own name.
GROUPS = {
    "spectrum.build_equally_spaced": "spectrum.build",
    "spectrum.build_rational": "spectrum.build",
    "spectrum.rationalized_spectrum": "spectrum.build",
    "spectrum.read_spectrum": "spectrum.read",
    "spectrum.write_spectrum": "spectrum.write",
}

# Every metric below with a self_s owns the self time of the same-layer
# helpers it calls (parse_spectrum under read, simplest_fraction_between under
# rationalize, the bounds helpers under bound_report, the argparse and JSON
# code under cli.main); time in other traced layers stays with those layers.
TIMED = (
    "clockstates.grid_amplitudes", "clockstates.identity_residual",
    "clockstates.frame_operator", "clockstates.continuous_identity_residual",
    "clockstates.hermitian_time_operator", "clockstates.first_orthogonal_time",
    "clockstates.overlap_magnitude", "clockstates.time_state",
    "measurement.outcome_probabilities", "measurement.sample",
    "measurement.circular_mean", "spectrum.build", "spectrum.rationalize",
    "spectrum.read", "spectrum.write", "bounds.bound_report", "cli.main",
    "units.resolve_constants",
)
CALLS_ONLY = ("bounds.fundamental_resolution",)
COUNTED = ("clockstates.grid_amplitudes.elements", "clockstates.grid_amplitudes.bytes",
           "clockstates.first_orthogonal_time.scan_points", "measurement.sample.shots",
           "measurement.failures", "cli.main.exit_nonzero", "cli.output_bytes")
OUTPUT_FLAGS = ("--out", "--csv", "--out-csv", "--spectrum-out")


# --- counts taken at the boundary, from arguments and results ---------------

def _grid_counts(bound, result):
    elements = bound.arguments["spec"].dimension * (bound.arguments["z"] + 1)
    return {"clockstates.grid_amplitudes.elements": elements,
            "clockstates.grid_amplitudes.bytes": 16 * elements}


def _scan_counts(bound, result):
    spec = bound.arguments["spec"]
    n_grid = max(512, bound.arguments["samples_per_cycle"] * (spec.r[-1] + 1))
    return {"clockstates.first_orthogonal_time.scan_points": n_grid * spec.dimension}


def _shots(bound, result):
    return {"measurement.sample.shots": bound.arguments["shots"]}


def _spectrum_bits(bound, result):
    return {"spectrum.r_max_bits": result.r[-1].bit_length()}


def _cli_counts(bound, result):
    """Exit status and bytes written: stdout (a fresh buffer per call) plus files."""
    argv = bound.arguments["argv"]
    written = sum(os.path.getsize(argv[k + 1]) for k, arg in enumerate(argv[:-1])
                  if arg in OUTPUT_FLAGS and os.path.exists(argv[k + 1]))
    stdout = sys.stdout.getvalue() if hasattr(sys.stdout, "getvalue") else ""
    return {"cli.main.exit_nonzero": int(result != 0), "cli.output_bytes": len(stdout) + written}


COUNTERS = {
    "clockstates.grid_amplitudes": _grid_counts,
    "clockstates.first_orthogonal_time": _scan_counts,
    "measurement.sample": _shots,
    "spectrum.build_equally_spaced": _spectrum_bits,
    "spectrum.build_rational": _spectrum_bits,
    "spectrum.rationalized_spectrum": _spectrum_bits,
    "spectrum.read_spectrum": _spectrum_bits,
    "cli.main": _cli_counts,
}


def _bind(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound


class Tracer:
    """In-memory spans: [name, start, end, parent, op, counts, raised]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a function calling itself (to_json, simplest_fraction_between)
            # stays inside its outermost span
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self._op, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SystemExit as exc:  # cli.main on a usage error
                span[6] = True
                if counter:
                    span[5] = counter(_bind(signature, args, kwargs), exc.code)
                raise
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter:
                span[5] = counter(_bind(signature, args, kwargs), result)
            return result

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Call fn as one traced op under a root span owned by the harness."""
        self._op = op_id
        try:
            return self.wrap(ROOT_SPAN, fn)(*args)
        finally:
            self._op = None

    def write(self, path: str, t0: float) -> None:
        """One JSON array per line; the first line names the fields, times are from t0."""
        fields = ["span", "name", "start", "end", "parent", "op", "counts", "raised"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(fields) + "\n")
            for k, (name, start, end, parent, op, counts, raised) in enumerate(self.spans):
                fh.write(json.dumps([k, name, round(start - t0, 9), round(end - t0, 9),
                                     parent, op, counts, raised]) + "\n")


class Patches:
    """Timing wrappers for every public callable of the layer modules."""

    def __init__(self, tracer: Tracer, package):
        modules = [sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS]
        holders = [package, *modules,
                   *(m for name, m in sys.modules.items()
                     if m is not None and name.startswith(package.__name__ + ".")
                     and m not in modules)]
        originals = {}
        self._swaps = []   # (holder, attribute, original, wrapper)
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    originals[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._swaps.append(
                                (obj, meth, fn, tracer.wrap(f"{layer}.{attr}.{meth}", fn)))
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._swaps.append((holder, attr, obj, originals[id(obj)][1]))

    def install(self) -> None:
        for holder, attr, _, wrapper in self._swaps:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._swaps:
            setattr(holder, attr, original)


def layer_metrics(spans: list, timed_ops: list, counted_ops: list) -> dict:
    """Per-op means: self times over ``timed_ops``, counts over ``counted_ops``."""
    timed, counted = set(timed_ops), set(counted_ops)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start
    owners = [None] * len(spans)
    times = {f"{key}.self_s": 0.0 for key in (*TIMED, *LAYERS, "harness")}
    times["trace.op_s"] = 0.0
    counts = {f"{key}.calls": 0 for key in (*TIMED, *CALLS_ONLY)}
    counts.update({key: 0 for key in COUNTED})
    r_max_bits = 0
    for k, (name, start, end, parent, op, span_counts, raised) in enumerate(spans):
        layer = name.split(".", 1)[0]
        metric = GROUPS.get(name, name)
        if metric in TIMED:
            owners[k] = metric
        elif parent is not None and spans[parent][0].split(".", 1)[0] == layer:
            owners[k] = owners[parent]
        if op in timed:
            self_s = end - start - child_time[k]
            times[f"{layer}.self_s"] += self_s
            if owners[k]:
                times[owners[k] + ".self_s"] += self_s
            if name == ROOT_SPAN:
                times["trace.op_s"] += end - start
        if op in counted:
            if metric + ".calls" in counts:
                counts[metric + ".calls"] += 1
            counts["measurement.failures"] += raised and layer == "measurement"
            for key, value in (span_counts or {}).items():
                if key == "spectrum.r_max_bits":
                    r_max_bits = max(r_max_bits, value)
                else:
                    counts[key] += value
    out = {key: value / len(timed_ops) for key, value in times.items()}
    out.update({key: value / len(counted_ops) for key, value in counts.items()})
    out["spectrum.r_max_bits"] = r_max_bits
    return out
