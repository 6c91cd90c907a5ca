"""Spans and counts around calls into the package's modules, kept in memory.

Used only by the traced passes of a `--trace 1` run.  `Tracer.install`
replaces module attributes of the package with wrappers and `remove` puts
the originals back, so the package's source is never touched.  Because a
module's functions look each other up through the module at call time, a
call from one wrapped function to another (`verify_all` into
`verify_theorem1` into `image_of_iterate`) nests as a child span.  A
function that recurses through its own module attribute (`iterated_lift`,
`canonical_preimage`) is counted at every level but gets a span only for
the outermost call.  The per-permutation kernels used inside the image
scans are not module attributes of the scans' callers and are never
wrapped.
"""

from __future__ import annotations

import inspect
import math
from collections import Counter
from time import perf_counter

# (module, attribute): every public entry point a workload reaches
WRAPPED = (
    ("lab", "verify_all"), ("lab", "verify_theorem1"),
    ("lab", "verify_theorem2"), ("lab", "verify_prop2"),
    ("lab", "verify_thm3_count"), ("lab", "verify_catalan"),
    ("lab", "verify_west_zeilberger"), ("lab", "image_of_iterate"),
    ("lab", "count_t_stack_sortable"), ("lab", "count_avoiders"),
    ("lab", "characterize_membership_rule"),
    ("stacksort", "stack_sort_iterate"), ("stacksort", "trace_stack_sort"),
    ("patterns", "find_barred_3241"), ("patterns", "callan_partition"),
    ("constructions", "iterated_lift"),
    ("constructions", "canonical_preimage"),
    ("cli", "run"), ("cli", "parse_args"), ("cli", "execute"),
    ("perm", "parse_permutation"),
)
LAYERS = ("lab", "stacksort", "patterns", "constructions", "cli", "perm")
CLAIMS = ("theorem1", "theorem2", "prop2", "thm3_count", "catalan",
          "west_zeilberger")


class Tracer:
    """Spans are `[name, start, end, parent, op]` lists: `parent` indexes
    the enclosing span (-1 at top level) and `op` is the id of the workload
    operation that caused it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._open: list[int] = []
        self._active: set[str] = set()
        self._saved: list[tuple] = []

    def install(self, mods) -> None:
        for mod_name, attr in WRAPPED:
            module = getattr(mods, mod_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, f"{mod_name}.{attr}"))

    def remove(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        note = NOTES.get(name)
        signature = inspect.signature(fn) if note is not None else None

        def traced(*args, **kwargs):
            self.counts[name] += 1
            if name in self._active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1,
                    self.op]
            self._open.append(len(self.spans))
            self.spans.append(span)
            self._active.add(name)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()
                self._active.discard(name)
            if note is not None:
                note(self, span, lambda: _arguments(signature, args, kwargs),
                     result)
            return result
        return traced


def _arguments(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _note_image(tracer: Tracer, span, arguments, report) -> None:
    # the brute engine enumerates all of S_n except for the count-only
    # 0-fold image, which it answers as n! without a scan
    args = arguments()
    if args["t"] or args["keep_elements"]:
        tracer.counts["lab.perms_scanned"] += math.factorial(args["n"])
    tracer.counts["lab.image_elements"] += report.count


def _note_characterize(tracer: Tracer, span, arguments, result) -> None:
    rule = "fallback" if result[1] == "oracle-fallback" else "thm"
    span[0] = f"lab.characterize_{rule}"


NOTES = {"lab.image_of_iterate": _note_image,
         "lab.characterize_membership_rule": _note_characterize}


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple]:
    """Per-layer metrics as {name: (value, unit)}: sums and counts per pass,
    means per call.  A layer the workload never calls reads 0."""
    total: Counter = Counter()
    calls: Counter = Counter()
    self_time: Counter = Counter()
    children: Counter = Counter()
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            children[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(tracer.spans):
        total[name] += end - start
        calls[name] += 1
        self_time[name] += end - start - children[i]

    def per_pass(value):
        return value / passes

    def mean(name, scale):
        return total[name] / calls[name] * scale if calls[name] else 0.0

    def layer_calls(layer):
        return per_pass(sum(tracer.counts[f"{mod}.{attr}"]
                            for mod, attr in WRAPPED if mod == layer))

    perms = tracer.counts["lab.perms_scanned"]
    elements = tracer.counts["lab.image_elements"]
    m = {
        "lab.image_s": (per_pass(total["lab.image_of_iterate"]), "s"),
        "lab.image_calls": (per_pass(calls["lab.image_of_iterate"]), "count"),
        "lab.perms_scanned": (per_pass(perms), "count"),
        "lab.image_elements": (per_pass(elements), "count"),
        "lab.dedupe_ratio": (elements / perms if perms else 0.0, "ratio"),
        "lab.count_sortable_s":
            (per_pass(total["lab.count_t_stack_sortable"]), "s"),
        "lab.count_avoiders_s": (per_pass(total["lab.count_avoiders"]), "s"),
        "lab.claims_self_s": (per_pass(sum(
            v for k, v in self_time.items() if k.startswith("lab.verify_"))),
            "s"),
    }
    for claim in CLAIMS:
        m[f"lab.verify_{claim}_s"] = (
            per_pass(total[f"lab.verify_{claim}"]), "s")
    m.update({
        "lab.characterize_thm_us": (mean("lab.characterize_thm", 1e6), "us"),
        "lab.characterize_fallback_ms":
            (mean("lab.characterize_fallback", 1e3), "ms"),
        "stacksort.sort_us": (mean("stacksort.stack_sort_iterate", 1e6), "us"),
        "stacksort.trace_us": (mean("stacksort.trace_stack_sort", 1e6), "us"),
        "stacksort.calls": (layer_calls("stacksort"), "count"),
        "patterns.find_barred_us":
            (mean("patterns.find_barred_3241", 1e6), "us"),
        "patterns.callan_us": (mean("patterns.callan_partition", 1e6), "us"),
        "patterns.calls": (layer_calls("patterns"), "count"),
        "constructions.lift_us":
            (mean("constructions.iterated_lift", 1e6), "us"),
        "constructions.preimage_us":
            (mean("constructions.canonical_preimage", 1e6), "us"),
        "constructions.lift_levels":
            (per_pass(tracer.counts["constructions.iterated_lift"]), "count"),
        "cli.parse_us": (mean("cli.parse_args", 1e6), "us"),
        "cli.run_us": (mean("cli.run", 1e6), "us"),
        "perm.parse_us": (mean("perm.parse_permutation", 1e6), "us"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (per_pass(sum(
            v for k, v in self_time.items() if k.startswith(layer + "."))),
            "s")
    m["trace.spans"] = (per_pass(len(tracer.spans)), "count")
    return m


def exact_counts(tracer: Tracer, passes: int) -> dict[str, float]:
    """Every count the tracer keeps, per pass: these must repeat exactly
    across runs of the same code and seed."""
    return {k: v / passes for k, v in sorted(tracer.counts.items())}
