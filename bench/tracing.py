"""Per-layer call counts and self times, measured from outside jetfree.

:class:`Tracer` wraps the public functions in :data:`TARGETS`.  A module
function is replaced in every ``jetfree`` module whose namespace holds
it (``freeness`` calls the ``nullspace`` it imported from ``linalg``),
a method is replaced on its class.  A wrapped call's self time is its
own span minus the spans of the wrapped calls made inside it.  The
wrappers for ``linalg.nullspace`` and ``linalg.rank`` also record the
cells (rows x columns) and the largest numerator or denominator bit
length of their input matrices; that bookkeeping is left out of every
span.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, function or Class.method) in layer order
TARGETS = (
    ("symkernel", "poly_gcd"),
    ("symkernel", "Expr.subst"),
    ("symkernel", "Expr.eval"),
    ("jetspace", "JetContext.total_derivative"),
    ("jetspace", "JetContext.phihat_coeffs"),
    ("jetspace", "JetContext.uhat"),
    ("detsys", "declared_linear_system"),
    ("detsys", "prolong_linear_system"),
    ("detsys", "evaluated_rows"),
    ("detsys", "fiber_basis"),
    ("detsys", "prolong_determining_system"),
    ("prolong", "prolong_at_point"),
    ("prolong", "act_on_jet"),
    ("freeness", "local_freeness"),
    ("freeness", "persistence_sweep"),
    ("freeness", "isotropy_jets_triangular"),
    ("linalg", "nullspace"),
    ("linalg", "rank"),
    ("linalg", "solve_affine"),
    ("stagesolve", "solve_affine_exprs"),
    ("stagesolve", "extract_affine"),
    ("frames", "check_transversality"),
    ("frames", "MovingFrameChart.result"),
    ("frames", "invariants"),
    ("sampling", "lift_jet_point"),
    ("dsl", "parse_spec"),
    ("cli", "point_from_document"),
)

LABELS = tuple(f"{module}.{name}" for module, name in TARGETS)


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(LABELS, 0)
        self.self_s = dict.fromkeys(LABELS, 0.0)
        self.cells = 0
        self.max_entry_bits = 0
        self._stack: list[list[float]] = []  # child time of each open span

    def _matrix_stats(self, rows, ncols: int) -> None:
        self.cells += len(rows) * ncols
        bits = self.max_entry_bits
        for row in rows:
            for c in row:
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        self.max_entry_bits = bits

    def _wrap(self, label: str, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        stats = None
        if label == "linalg.nullspace":
            stats = lambda args: self._matrix_stats(args[0], args[1])  # noqa: E731
        elif label == "linalg.rank":
            stats = lambda args: self._matrix_stats(args[0], len(args[0][0]) if args[0] else 0)  # noqa: E731

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = perf_counter()
            if stats is not None:
                stats(args)
            child = [0.0]
            stack.append(child)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                calls[label] += 1
                self_s[label] += end - start - child[0]
                if stack:
                    stack[-1][0] += end - outer

        return wrapper

    def install(self) -> None:
        """Patch every target; jetfree.cli must already be imported."""
        modules = [m for name, m in sys.modules.items() if name == "jetfree" or name.startswith("jetfree.")]
        for module_name, name in TARGETS:
            module = sys.modules[f"jetfree.{module_name}"]
            label = f"{module_name}.{name}"
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(label, cls.__dict__[meth]))
                continue
            original = getattr(module, name)
            wrapper = self._wrap(label, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def layers(self) -> dict:
        return {
            label: {"calls": self.calls[label], "self_s": self.self_s[label]} for label in LABELS
        }
