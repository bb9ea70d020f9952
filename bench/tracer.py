"""Per-layer spans for a traced benchmark run, recorded from outside the
program.

Each wrapped function is a call into one layer of silkcheck.  The tracer
rebinds it at every import site: ``cli``, ``schema`` and ``translate`` import
names directly, so replacing the attribute on the defining module alone would
miss most calls.  Every call becomes a span (layer, function, start, end,
parent span, op id); a span's self time is its duration minus the time its
direct child spans cover, so per op the self times of all spans, including
the op's root ``cli`` span, add up to the op's traced wall time.

``syntax`` has no boundary a caller crosses, so its cost lands in the self
time of whichever layer called it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter

# Layer -> wrapped functions.  ``parse_*`` is expanded from the module at
# install time.
LAYERS = {
    "parser": ("parse_*", "load_theory", "check_arities"),
    "rewrite": ("normalize", "equivalent", "sequent_equivalent", "eval_numeric", "validate_theory"),
    "schema": ("check_schema", "evaluate", "evaluate_and_check"),
    "kernel": ("check_proof", "apply_rule", "count_inferences"),
    "silk": ("check_script", "apply_step"),
    "translate": ("to_ppsnf", "silk_to_schema", "interpret"),
    "printer": ("print_proof_tree", "print_schema", "print_script", "stats_table"),
}

# Inclusive time of one function, reported as its own metric.
INCLUSIVE_MS = {
    "check_arities": "parser.arity_ms",
    "validate_theory": "rewrite.validate_ms",
    "check_schema": "schema.check_ms",
    "check_proof": "kernel.check_ms",
    "interpret": "translate.interpret_ms",
}

# Self time of one function, reported as its own metric.
SELF_MS = {
    "evaluate": "schema.evaluate_self_ms",
    "to_ppsnf": "translate.ppsnf_self_ms",
    "silk_to_schema": "translate.schema_self_ms",
}

# Counters that must repeat exactly for one op list, whatever the hash seed.
COUNTERS = (
    "parser.calls",
    "parser.bytes",
    "rewrite.calls",
    "rewrite.steps",
    "rewrite.cache_entries",
    "schema.evaluate_calls",
    "schema.expansions",
    "schema.expanded_nodes",
    "schema.normal_nodes",
    "kernel.calls",
    "kernel.inferences",
    "silk.calls",
    "silk.steps",
    "printer.bytes",
)


def proof_nodes(proof) -> int:
    """Nodes of a proof tree, counted with multiplicity."""
    n = 0
    stack = [proof]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.premises)
    return n


class Tracer:
    """Installs span-recording wrappers into the loaded ``silkcheck`` modules.

    Use ``with tracer.op(op_id):`` around one CLI operation; ``finish_op``
    returns that op's per-layer totals.  Spans stay in ``self.spans`` until
    ``write_spans``.
    """

    def __init__(self):
        self.spans: list = []  # (op, index, parent, layer, name, start, end, self)
        self._child_time: list = []
        self._layer_of: list = []
        self._stack: list = []
        self._restore: list = []
        self._op_id = None
        self._op_first = 0
        self._counts: Counter = Counter()
        self._theories: dict = {}
        self._traces: list = []

    # -- installation ---------------------------------------------------

    def install(self):
        import silkcheck.cli  # noqa: F401  (loads every layer)

        modules = {n: m for n, m in sys.modules.items() if n == "silkcheck" or n.startswith("silkcheck.")}
        wrappers = {}
        for layer, names in LAYERS.items():
            mod = modules[f"silkcheck.{layer}"]
            for name in self._expand(mod, names):
                fn = getattr(mod, name)
                if inspect.isgeneratorfunction(fn):
                    raise TypeError(f"cannot time generator {layer}.{name}")
                wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for mod in modules.values():
            space = vars(mod)
            for key, value in list(space.items()):
                hit = wrappers.get(id(value))
                if hit is not None:
                    space[key] = hit[1]
                    self._restore.append((space, key, value))
        return self

    def uninstall(self):
        for space, key, value in reversed(self._restore):
            space[key] = value
        self._restore.clear()

    @staticmethod
    def _expand(mod, names):
        for name in names:
            if name.endswith("*"):
                prefix = name[:-1]
                yield from sorted(
                    n
                    for n, f in vars(mod).items()
                    if n.startswith(prefix) and inspect.isfunction(f) and f.__module__ == mod.__name__
                )
            else:
                yield name

    def _wrap(self, layer, name, fn):
        spans, child_time, layer_of, stack = self.spans, self._child_time, self._layer_of, self._stack
        clock = time.perf_counter
        observe = _parsed if name.startswith("parse_") else _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            child_time.append(0.0)
            layer_of.append(layer)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent >= 0:
                    child_time[parent] += end - start
                spans[index] = (self._op_id, index, parent, layer, name, start, end, end - start - child_time[index])
            if observe is not None:
                observe(self, args, kwargs, result, layer_of[parent] if parent >= 0 else None)
            return result

        return wrapper

    # -- one op ----------------------------------------------------------

    @contextlib.contextmanager
    def op(self, op_id):
        """Root ``cli`` span around one CLI operation."""
        self._op_id = op_id
        self._op_first = root = len(self.spans)
        self._counts = Counter()
        self._theories = {}
        self._traces = []
        self.spans.append(None)
        self._child_time.append(0.0)
        self._layer_of.append("cli")
        self._stack.append(root)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if self._stack.pop() != root or self._stack:
                raise RuntimeError("unbalanced spans")
            self.spans[root] = (op_id, root, -1, "cli", "main", start, end, end - start - self._child_time[root])

    def finish_op(self) -> dict:
        """Per-layer totals of the op just closed; runs outside the timed region."""
        ops = self.spans[self._op_first :]
        out = Counter(self._counts)
        root = ops[0]
        wall = root[6] - root[5]
        self_sum = 0.0
        for _, _, _, layer, name, start, end, self_s in ops:
            self_sum += self_s
            out[f"{layer}.self_ms"] += self_s * 1e3
            if layer != "cli":
                out[f"{layer}.calls"] += 1
            if name in INCLUSIVE_MS:
                out[INCLUSIVE_MS[name]] += (end - start) * 1e3
            if name in SELF_MS:
                out[SELF_MS[name]] += self_s * 1e3
            if name == "evaluate":
                out["schema.evaluate_calls"] += 1
        for trace in self._traces:
            out["schema.expanded_nodes"] += proof_nodes(trace.expanded)
            out["schema.normal_nodes"] += proof_nodes(trace.proof)
        out["rewrite.cache_entries"] = max((len(t._nf_cache) for t in self._theories.values()), default=0)
        out["wall_ms"] = wall * 1e3
        out["self_sum_ms"] = self_sum * 1e3
        self._theories = {}
        self._traces = []
        return dict(out)

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tlayer\tfunction\tstart_s\tend_s\tself_s\n")
            for op_id, index, parent, layer, name, start, end, self_s in self.spans:
                fh.write(f"{op_id}\t{index}\t{parent}\t{layer}\t{name}\t{start:.9f}\t{end:.9f}\t{self_s:.9f}\n")


# -- counters read off arguments and results --------------------------------


def _parsed(tracer, args, kwargs, result, parent_layer):
    if parent_layer != "parser" and args and isinstance(args[0], str):
        tracer._counts["parser.bytes"] += len(args[0].encode())


def _printed(tracer, args, kwargs, result, parent_layer):
    if parent_layer != "printer":
        tracer._counts["printer.bytes"] += len(result.encode())


def _normalized(tracer, args, kwargs, result, parent_layer):
    tracer._counts["rewrite.steps"] += result.steps_used
    theory = args[1] if len(args) > 1 else kwargs["theory"]
    tracer._theories[id(theory)] = theory


def _evaluated(tracer, args, kwargs, result, parent_layer):
    tracer._counts["schema.expansions"] += len(result.expansions)
    tracer._traces.append(result)


def _checked(tracer, args, kwargs, result, parent_layer):
    tracer._counts["kernel.inferences"] += sum(result.counts.values())


def _stepped(tracer, args, kwargs, result, parent_layer):
    tracer._counts["silk.steps"] += 1


_OBSERVERS = {
    "print_proof_tree": _printed,
    "print_schema": _printed,
    "print_script": _printed,
    "stats_table": _printed,
    "normalize": _normalized,
    "evaluate": _evaluated,
    "check_proof": _checked,
    "apply_step": _stepped,
}
