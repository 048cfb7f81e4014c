"""Spans around the calls into each so3tqft layer, recorded from outside.

`Tracer.install()` replaces the public callables named in TARGETS with
timing wrappers, in every loaded ``so3tqft.*`` namespace that binds them
(``from .x import y`` copies included), and `Tracer.restore()` puts the
originals back.  Spans are kept in memory as
``(id, parent, name, start, end)`` tuples and written out as JSONL once the
traced command has finished; `summarize` turns them into per-layer calls,
self time and inclusive time.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

ROOT = 0  # parent id of a span opened outside every other span
OBSERVE = "trace.observe"  # span of the tracer's own reads of operands and results


def _bits(x) -> int:
    """Largest bit length among the coefficients and denominator of x."""
    if not hasattr(x, "max_abs_coeff"):
        return 0
    return max(x.max_abs_coeff().bit_length(), x.den.bit_length())


def _observe_operands(tracer, args, result):
    bits = max(_bits(a) for a in args)
    if bits > tracer.counters["cyclo.max_coeff_bits"]:
        tracer.counters["cyclo.max_coeff_bits"] = bits


def _observe_closure(tracer, args, result):
    tracer.counters["finite_image.closure.elements"] += result.order


def _observe_dixon(tracer, args, result):
    prime = result.dixon_prime
    if prime > tracer.counters["sl2_char.dixon_prime"]:
        tracer.counters["sl2_char.dixon_prime"] = prime


# (module, attribute path, span name, observer of (args, result))
TARGETS = (
    ("so3tqft.cyclo", "get_field", "cyclo.get_field", None),
    ("so3tqft.cyclo", "CycNumber.__init__", "cyclo.new", None),
    ("so3tqft.cyclo", "CycNumber.__add__", "cyclo.add", None),
    ("so3tqft.cyclo", "CycNumber.__radd__", "cyclo.add", None),
    ("so3tqft.cyclo", "CycNumber.__mul__", "cyclo.mul", _observe_operands),
    ("so3tqft.cyclo", "CycNumber.__rmul__", "cyclo.mul", _observe_operands),
    ("so3tqft.cyclo", "CycNumber.inv", "cyclo.inv", _observe_operands),
    ("so3tqft.cyclo", "CycNumber.conj", "cyclo.conj", None),
    ("so3tqft.cycmatrix", "CycMatrix.__matmul__", "cycmatrix.matmul", None),
    ("so3tqft.cycmatrix", "CycMatrix.scalar_mul", "cycmatrix.scalar_mul", None),
    ("so3tqft.cycmatrix", "CycMatrix.conj_transpose", "cycmatrix.conj_transpose", None),
    ("so3tqft.modular_data", "build_modular_data", "modular_data.build_modular_data", None),
    ("so3tqft.weil", "build_weil", "weil.build_weil", None),
    (
        "so3tqft.weil",
        "verify_odd_block_identification",
        "weil.verify_odd_block_identification",
        None,
    ),
    ("so3tqft.fusion_dims", "dim_space", "fusion_dims.dim_space", None),
    ("so3tqft.fusion_dims", "verlinde_dim", "fusion_dims.verlinde_dim", None),
    ("so3tqft.finite_image", "closure", "finite_image.closure", _observe_closure),
    ("so3tqft.finite_image", "so3_closure", "finite_image.closure", None),
    ("so3tqft.finite_image", "weil_closure", "finite_image.closure", None),
    ("so3tqft.finite_image", "canonicalize", "finite_image.canonicalize", None),
    ("so3tqft.finite_image", "mod_r_graph_report", "finite_image.mod_r_graph_report", None),
    ("so3tqft.finite_image", "linear_lift_report", "finite_image.linear_lift_report", None),
    ("so3tqft.finite_image", "identify_group", "finite_image.identify_group", None),
    ("so3tqft.sl2_char", "sl2_group", "sl2_char.group", None),
    ("so3tqft.sl2_char", "borel_group", "sl2_char.group", None),
    ("so3tqft.sl2_char", "FiniteGroup.__init__", "sl2_char.group", None),
    ("so3tqft.sl2_char", "FiniteGroup.class_mult_tensor", "sl2_char.class_mult_tensor", None),
    ("so3tqft.sl2_char", "dixon_char_table", "sl2_char.dixon_char_table", _observe_dixon),
    ("so3tqft.sl2_char", "tensor_decompose", "sl2_char.tensor_decompose", None),
    ("so3tqft.sl2_char", "borel_check", "sl2_char.borel_check", None),
    (
        "so3tqft.sl2_char",
        "regular_congruence_check",
        "sl2_char.regular_congruence_check",
        None,
    ),
    ("so3tqft.mfld3", "tau", "mfld3.tau", None),
    ("so3tqft.mfld3", "heegaard_tau", "mfld3.heegaard_tau", None),
)

COUNTERS = ("cyclo.max_coeff_bits", "finite_image.closure.elements", "sl2_char.dixon_prime")


class Tracer:
    """Records spans for one traced command (one op) in memory."""

    def __init__(self, op: int):
        self.op = op
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [ROOT]
        self._next_id = 1
        self._patched = []  # (owner, attribute, original), in patch order

    def wrap(self, fn, name, observe=None):
        spans = self.spans
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    # a child span, so the observation is in neither this
                    # span's self time nor its parent's
                    mid = perf_counter()
                    observe(tracer, args, result)
                    oid = tracer._next_id
                    tracer._next_id = oid + 1
                    spans.append((oid, sid, OBSERVE, mid, perf_counter()))
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            return result

        return traced

    def install(self):
        """Wrap every target wherever a so3tqft namespace binds it."""
        for module_name, path, name, observe in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[attr]
                self._patch(owner, attr, original, self.wrap(original, name, observe))
                continue
            original = getattr(module, path)
            wrapper = self.wrap(original, name, observe)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == "so3tqft" or mod_name.startswith("so3tqft.")
                ):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path, **header):
        """Write a header line (op, counters, extra fields) and one line per span."""
        op = self.op
        with open(path, "w") as fh:
            head = {"op": op, "counters": self.counters, **header}
            head["fields"] = ["op", "id", "parent", "name", "start", "end"]
            fh.write(json.dumps(head, sort_keys=True) + "\n")
            fh.writelines(
                f'[{op},{sid},{parent},"{name}",{start!r},{end!r}]\n'
                for sid, parent, name, start, end in self.spans
            )


def read_trace(path):
    """(header, spans) from a file written by `Tracer.write`."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        spans = []
        for line in fh:
            _op, sid, parent, name, start, end = json.loads(line)
            spans.append((sid, parent, name, start, end))
    return header, spans


def summarize(spans):
    """Per span name: [calls, self_s, total_s].

    `self_s` is a span's duration minus the time its child spans cover;
    children of one span run one after another on a single thread, so the
    covered time is the sum of their durations.  `total_s` counts only the
    outermost span of a name, so nested spans of the same name (a cached
    builder calling another) are not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    covered = defaultdict(float)
    for _sid, parent, _name, start, end in spans:
        if parent in by_id:
            covered[parent] += end - start
    stats = {}
    for sid, parent, name, start, end in spans:
        row = stats.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (end - start) - covered.get(sid, 0.0)
        p = parent
        while p in by_id and by_id[p][2] != name:
            p = by_id[p][1]
        if p not in by_id:
            row[2] += end - start
    return stats


def count_containing(spans, outer, inner):
    """Number of spans named in `outer` with a descendant span named `inner`."""
    by_id = {s[0]: s for s in spans}
    hit = set()
    for _sid, parent, name, _start, _end in spans:
        if name != inner:
            continue
        p = parent
        while p in by_id:
            if by_id[p][2] in outer:
                hit.add(p)
            p = by_id[p][1]
    return len(hit)
