"""Per-layer tracing from outside the package.

:class:`Tracer` wraps public functions of gregory's modules and patches every
binding of each one in the loaded ``gregory`` modules, so callers that did
``from .stirling import stirling_triangle`` see the wrapper too.  A wrapper
records calls and self time (its duration minus that of wrapped callees) and,
for kernels and routes, the largest bit length of a numerator or denominator
it returned.  Bit scans and bookkeeping run outside the timed interval, so
they count as nobody's self time.

Tables the program builds are instrumented for waste: the rows of each
Stirling triangle and a(n,k) table, and the coefficients of each b_n series,
are wrapped in a list that records which indices were read.  Wrapping a table
is bookkeeping, outside every span; recording a read is not, so it is charged
to the function that reads (``bernoulli2_nemes`` reading triangle rows, say)
and shows in ``trace_overhead_frac``.

A hook whose module or name no longer exists is skipped with a note; its
metrics are simply absent.  The wrappers are built once and patched in only
inside :meth:`Tracer.enabled`, so traced and untraced operations can
alternate in one process.
"""

import contextlib
import functools
import importlib
import sys
from fractions import Fraction
from time import perf_counter

# Layer names are the module names; ``kernels`` is gregory._kernels, which
# dispatches to _core_py (or the compiled _core).  (layer, module, attribute,
# record max_bits)
HOOKS = (
    ("kernels", "gregory._kernels", "stirling_rows", True),
    ("kernels", "gregory._kernels", "nested_sum_table", True),
    ("kernels", "gregory._kernels", "series_mul_pairs", True),
    ("kernels", "gregory._kernels", "series_div_pairs", True),
    ("stirling", "gregory.stirling", "stirling_triangle", True),
    ("stirling", "gregory.stirling", "stirling_nested_sum", True),
    ("stirling", "gregory.stirling", "stirling_column_recurrence", True),
    ("stirling", "gregory.stirling", "stirling_closed_form", True),
    ("stirling", "gregory.stirling", "harmonic_from_stirling", True),
    ("series", "gregory.series", "bernoulli2_series", True),
    ("series", "gregory.series", "series_div", True),
    ("series", "gregory.series", "series_mul", False),
    ("series", "gregory.series", "series_pow", False),
    ("series", "gregory.series", "stirling_gf_coeff", True),
    ("asequence", "gregory.asequence", "ASequence.from_triangle", True),
    ("asequence", "gregory.asequence", "ASequence.build", False),
    ("asequence", "gregory.asequence", "a_nested_sum", True),
    ("asequence", "gregory.asequence", "probe_row", False),
    ("bernoulli", "gregory.bernoulli", "bernoulli2_nemes", True),
    ("bernoulli", "gregory.bernoulli", "bernoulli2_theorem", True),
    ("bernoulli", "gregory.bernoulli", "bernoulli2_ank", True),
    ("bernoulli", "gregory.bernoulli", "bernoulli2_report", False),
    ("exact", "gregory.exact", "harmonic", True),
    ("exact", "gregory.exact", "format_rational", False),
    ("calculus", "gregory.calculus", "reciprocal_log_derivative_coeffs", True),
    ("cli", "gregory.cli", "main", False),
    ("cli", "gregory.cli", "build_parser", False),
    ("cli", "gregory.cli", "emit", False),
)
LAYERS = ("kernels", "stirling", "series", "asequence", "bernoulli", "exact", "calculus", "cli")

# Tables whose reads are tracked: hook attribute -> (table name, counter).
TRACKED = {
    "stirling_triangle": ("stirling", "rows"),
    "ASequence.from_triangle": ("asequence", "rows"),
    "bernoulli2_series": ("series", "coeffs"),
}


def metric_units():
    """Every per-layer metric name with its unit and better direction."""
    units = {}
    for layer, _, attr, bits in HOOKS:
        name = "%s.%s" % (layer, attr.rsplit(".", 1)[-1])
        units[name + ".calls"] = ("1/op", "lower")
        units[name + ".self_s"] = ("s/op", "lower")
        if bits:
            units[name + ".max_bits"] = ("bits", "lower")
    for layer in LAYERS + ("harness",):
        units[layer + ".self_s"] = ("s/op", "lower")
        units[layer + ".share"] = ("ratio", "lower")
    for table, counter in TRACKED.values():
        if counter == "rows":
            units["%s.rows_built" % table] = ("1/op", "lower")
        units["%s.%s_used_ratio" % (table, counter)] = ("ratio", "higher")
    units["trace_overhead_frac"] = ("ratio", "lower")
    return units


def max_bits(value):
    """Largest numerator/denominator bit length inside a returned value."""
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, (list, tuple)):
        return max(map(max_bits, value), default=0)
    for attr in ("_rows", "coeffs"):
        inner = getattr(value, attr, None)
        if inner is not None:
            return max_bits(inner)
    return 0


class _TrackedList(list):
    """A list that records which indices were read."""

    __slots__ = ("used",)

    def __init__(self, items, used):
        super().__init__(items)
        self.used = used

    def __getitem__(self, i):
        if isinstance(i, slice):
            self.used.update(range(*i.indices(len(self))))
        else:
            self.used.add(i if i >= 0 else i + len(self))
        return list.__getitem__(self, i)


class _Stat:
    __slots__ = ("layer", "bits", "calls", "self_s", "max_bits")

    def __init__(self, layer, bits):
        self.layer = layer
        self.bits = bits
        self.calls = 0
        self.self_s = 0.0
        self.max_bits = 0


class Tracer:
    def __init__(self, hooks=HOOKS):
        self.notes = []
        self.stats = {}  # metric prefix -> _Stat, for hooks that exist
        self.harness_self_s = 0.0
        self.instrument_s = 0.0  # bit scans and table wrapping, outside every span
        self.tables = {}  # (table, counter) -> [(size, used set)], for hooks that exist
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)
        self._resolve(hooks)

    # -- patching

    def _resolve(self, hooks):
        for layer, module_name, attr, bits in hooks:
            name = "%s.%s" % (layer, attr.rsplit(".", 1)[-1])
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                self.notes.append("missing hook %s.%s: %s.* not reported" % (module_name, attr, name))
                continue
            stat = self.stats[name] = _Stat(layer, bits)
            post = self._tracker(attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, stat, post))
                self._patches.append((owner, leaf, original, wrapped))
            else:
                self._bind_everywhere(original, self._wrap(original, stat, post))

    def _bind_everywhere(self, original, wrapper):
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "gregory" or module_name.startswith("gregory.")):
                continue
            for attr, value in vars(module).items():
                if value is original:
                    self._patches.append((module, attr, original, wrapper))

    @contextlib.contextmanager
    def enabled(self):
        """Patch every wrapper in for the duration of the block."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def _tracker(self, attr):
        if attr not in TRACKED:
            return None
        table = self.tables.setdefault(TRACKED[attr], [])

        def track(result):
            used = set()
            if isinstance(result, list):
                table.append((len(result), used))
                return _TrackedList(result, used)
            table.append((len(result._rows), used))
            result._rows = _TrackedList(result._rows, used)
            return result

        return track

    def _wrap(self, func, stat, post):
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            t1 = None
            try:
                result = func(*args, **kwargs)
                t1 = perf_counter()
                if stat.bits:
                    stat.max_bits = max(stat.max_bits, max_bits(result))
                if post is not None:
                    result = post(result)
                return result
            finally:
                end = perf_counter()
                if t1 is None:
                    t1 = end
                self.instrument_s += end - t1
                stat.calls += 1
                stat.self_s += t1 - t0 - stack.pop()
                if stack:
                    stack[-1] += end - t0

        return wrapper

    # -- operations

    def run(self, func, *args):
        """Call func(*args) as one traced operation (the root span)."""
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            return func(*args)
        finally:
            self.harness_self_s += perf_counter() - t0 - self._stack.pop()

    def charge_harness(self, seconds):
        """Count time the harness spent inside the open span (writes to its
        stdout sink) as harness time, not as the span's self time."""
        self.harness_self_s += seconds
        if self._stack:
            self._stack[-1] += seconds

    def metrics(self, ops):
        """Per-layer metrics, with counts and times per operation."""
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            out[name + ".calls"] = stat.calls / ops
            out[name + ".self_s"] = stat.self_s / ops
            if stat.bits:
                out[name + ".max_bits"] = stat.max_bits
            layer_self[stat.layer] += stat.self_s
        layer_self["harness"] = self.harness_self_s
        total = sum(layer_self.values())
        for layer, self_s in layer_self.items():
            out[layer + ".self_s"] = self_s / ops
            out[layer + ".share"] = self_s / total if total else 0.0
        for (table, counter), built_tables in self.tables.items():
            built = sum(size for size, _ in built_tables)
            used = sum(len(u) for _, u in built_tables)
            if counter == "rows":
                out["%s.rows_built" % table] = built / ops
            out["%s.%s_used_ratio" % (table, counter)] = used / built if built else 0.0
        return out
