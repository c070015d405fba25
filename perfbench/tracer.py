"""Span tracer that wraps the public functions of each contactforge module.

The wrappers live here, in the benchmark, so the program itself is unchanged.
Every call of a traced function records one span: name, start, end, parent
span and whether a typed error left it. A layer's self time is the duration
of its spans minus the part of each span covered by child spans. Operation
counts that cannot be read from timings (term pairs, division steps, output
sizes) are taken from the arguments and results at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

CALLS_SELF = ("calls", "self_s")


def _count_mul(counts, args, result):
    a, b = args[0], args[1]
    # a Poly times a scalar visits each term once
    counts["term_pairs"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
    counts["out_terms"] += len(result.terms)
    counts["out_terms_max"] = max(counts["out_terms_max"], len(result.terms))


def _count_divmod(counts, args, result):
    q, r = result
    counts["steps"] += len(q.terms) + len(r.terms)
    counts["pairs"] += len(q.terms) * (len(args[1].terms) - 1)


def _count_rank(counts, args, result):
    a = args[0]
    counts["entries"] += len(a) * (len(a[0]) if a else 0)


# (layer, span name, module, attribute path, emitted metrics, counter)
TARGETS = (
    ("polyring", "mul", "polyring", "Poly.__mul__",
     ("calls", "self_s", "term_pairs", "out_terms_max", "out_per_pair"), _count_mul),
    ("polyring", "divmod", "polyring", "divmod_principal",
     ("calls", "self_s", "steps", "pairs"), _count_divmod),
    ("polyring", "determinant", "polyring", "determinant", CALLS_SELF, None),
    ("polyring", "add", "polyring", "Poly.__add__", CALLS_SELF, None),
    ("polyring", "diff", "polyring", "Poly.diff", CALLS_SELF, None),
    ("polyring", "evaluate", "polyring", "Poly.evaluate", CALLS_SELF, None),
    ("exterior", "wedge", "exterior", "wedge",
     ("calls", "self_s", "term_pairs", "out_terms_max", "out_per_pair"), _count_mul),
    ("exterior", "ext_d", "exterior", "ext_d", CALLS_SELF, None),
    ("exterior", "interior_product", "exterior", "interior_product", CALLS_SELF, None),
    ("exterior", "lie_derivative", "exterior", "lie_derivative", CALLS_SELF, None),
    ("exterior", "vf_bracket", "exterior", "vf_bracket", CALLS_SELF, None),
    ("exterior", "covector_transport", "exterior", "covector_transport", CALLS_SELF, None),
    ("linalg", "rank", "linalg", "rank", ("calls", "self_s", "entries"), _count_rank),
    ("linalg", "rref", "linalg", "rref", CALLS_SELF, None),
    ("linalg", "mat_mul", "linalg", "mat_mul", CALLS_SELF, None),
    ("liealg", "cartan_class", "liealg", "cartan_class", CALLS_SELF, None),
    ("liealg", "cartan_class_wedge", "liealg", "cartan_class_wedge", CALLS_SELF, None),
    ("liealg", "class_survey", "liealg", "class_survey", CALLS_SELF, None),
    ("liealg", "build", "liealg", "build_algebra", CALLS_SELF, None),
    ("numeric", "pointwise_class", "numeric", "pointwise_class", CALLS_SELF, None),
    ("numeric", "contact_scan", "numeric", "contact_scan", CALLS_SELF, None),
    ("slcontact", "build_frame", "slcontact", "build_frame", CALLS_SELF, None),
    ("slcontact", "verify_contact_identity", "slcontact", "verify_contact_identity", ("self_s",), None),
    ("slcontact", "reeb_field", "slcontact", "reeb_field", ("self_s",), None),
    ("slcontact", "structural_checks", "slcontact", "structural_checks", ("self_s",), None),
    ("slcontact", "invariance_loci", "slcontact", "invariance_loci", ("self_s",), None),
    ("slcontact", "h_algebra", "slcontact", "h_algebra", ("self_s",), None),
    ("slcontact", "u_decomposition", "slcontact", "u_decomposition", ("self_s",), None),
    ("orthogroup", "so3_contact_check", "orthogroup", "so3_contact_check", ("self_s",), None),
    ("report", "as_dict", "report", "VerifyReport.as_dict", CALLS_SELF, None),
    ("cli", "main", "cli", "main", CALLS_SELF, None),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))
PACKAGE = "contactforge"

# Deterministic counts: equal on every traced pass of one workload and seed.
COUNT_SUFFIXES = ("calls", "term_pairs", "out_terms_max", "steps", "pairs", "entries")


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for layer in LAYERS:
        for t_layer, name, _, _, emitted, _ in TARGETS:
            if t_layer == layer:
                names += [f"{layer}.{name}.{m}" for m in emitted]
        if layer == "report":
            names.append("report.bytes")
        names.append(f"{layer}.failed")
    names.append("trace.overhead_s")
    return names


def self_times(spans) -> dict[int, float]:
    """Total self time per span name.

    `spans` is a sequence of (name, start, end, parent, ...) with parent the
    index of the enclosing span or -1. Self time is the span's duration minus
    the union of its children's intervals, clipped to the span.
    """
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    totals: dict = defaultdict(float)
    for idx, span in enumerate(spans):
        name, start, end = span[0], span[1], span[2]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] += (end - start) - covered
    return dict(totals)


def _resolve(module, path: str):
    owner = module
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


class Tracer:
    """Wraps every binding of the traced functions; restores them on uninstall."""

    def __init__(self):
        self.spans: list = []
        self.counts = [defaultdict(int) for _ in TARGETS]
        self._stack: list[int] = []
        self._patched: list = []
        # imported here: run.py loads this module without contactforge on the path
        from contactforge.errors import ContactforgeError

        self._typed_error = ContactforgeError

    def _wrap(self, target_id: int, fn, counter):
        spans, stack, typed_error = self.spans, self._stack, self._typed_error
        clock = time.perf_counter
        counts = self.counts[target_id]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (target_id, start, clock(), parent, int(isinstance(exc, typed_error)))
                stack.pop()
                raise
            spans[idx] = (target_id, start, clock(), parent, 0)
            stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def _owners(self):
        """Every loaded module of the package, and the classes they bind."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        owners = list(modules)
        for module in modules:
            for value in vars(module).values():
                if inspect.isclass(value) and value.__module__.startswith(PACKAGE):
                    if value not in owners:
                        owners.append(value)
        return owners

    def install(self) -> None:
        owners = self._owners()
        for target_id, (_, _, module_name, path, _, counter) in enumerate(TARGETS):
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            original = _resolve(module, path)
            wrapper = self._wrap(target_id, original, counter)
            # patch every binding: names imported with `from .x import y`
            # and class aliases such as Poly.__rmul__ = __mul__
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)
                        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded spans, except report.bytes and
        trace.overhead_s, which the caller measures."""
        own = self_times(self.spans)
        calls = defaultdict(int)
        failed = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
            if span[4]:
                parent = span[3]
                # count an error once per layer it leaves, at the outermost span
                if parent < 0 or TARGETS[self.spans[parent][0]][0] != TARGETS[span[0]][0]:
                    failed[TARGETS[span[0]][0]] += 1
        out: dict[str, float] = {}
        for target_id, (layer, name, _, _, emitted, _) in enumerate(TARGETS):
            counts = self.counts[target_id]
            values = {
                "calls": calls[target_id],
                "self_s": own.get(target_id, 0.0),
                "out_per_pair": (counts["out_terms"] / counts["term_pairs"]
                                 if counts["term_pairs"] else 0.0),
            }
            for metric in emitted:
                out[f"{layer}.{name}.{metric}"] = values.get(metric, counts[metric])
        for layer in LAYERS:
            out[f"{layer}.failed"] = failed[layer]
        return out

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON: names plus (name, start, end, parent, error) rows."""
        names = [f"{t[0]}.{t[1]}" for t in TARGETS]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": self.spans}, fh)
