"""Outside-in tracing of mullsem's public layers.

The tracer wraps public functions and constructors of the ``mullsem``
modules from the outside: every module binding that callers look a
function up through (``mullsem.relmodel.interpret_carrier`` and the
``interpret_carrier`` imported into ``mullsem.totality`` alike) is
replaced by one wrapper, and constructors are wrapped through their
``__init__``.  ``src/`` is never edited.

Each wrapped call records a span (name, start, end, parent span, job id)
in memory.  Self time is a span's duration minus the time covered by its
child spans.  Counting-only wrappers (``sort_key``, ``FunExpr.eval``)
record a call count and no span, so their cost stays in the caller's
self time.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict

KERNELS = ("minimize_family", "minimal_transversals", "phase_orthogonal",
           "is_antichain")
# kernel calls kept per kernel for the twin replay
CAPTURE_LIMIT = 20000

# (metric prefix, module, attribute path) of every timed layer entry point
TIMED = (
    ("formula.parse", "formula", "parse"),
    ("formula.check_variance", "formula", "check_variance"),
    ("relmodel.Carrier", "relmodel", "Carrier.__init__"),
    ("relmodel.Relation", "relmodel", "Relation.__init__"),
    ("relmodel.interpret_carrier", "relmodel", "interpret_carrier"),
    ("totality.interpret_totality", "totality", "interpret_totality"),
    ("totality.UpFamily", "totality", "UpFamily.__init__"),
    ("totality.orthogonal", "totality", "orthogonal"),
    ("totality.biclosure", "totality", "biclosure"),
    ("phase.enumerate_commutative_monoids", "phase",
     "enumerate_commutative_monoids"),
    ("phase.PhaseSpace", "phase", "PhaseSpace.__init__"),
    ("phase.holds", "phase", "holds"),
    ("phase.interpret_phase", "phase", "interpret_phase"),
    ("phase.search_counter_model", "phase", "search_counter_model"),
    ("wrel.kleene_fixpoint", "wrel", "kleene_fixpoint"),
    ("wrel.SemiringMatrix", "wrel", "SemiringMatrix.__init__"),
    ("wrel.bipolar_member", "wrel", "bipolar_member"),
    ("wrel.is_admissible_pole", "wrel", "is_admissible_pole"),
    ("simplex.simplex_maximize", "simplex", "simplex_maximize"),
    ("cli.main", "cli", "main"),
) + tuple((f"kernels.{k}", "_kernels", k) for k in KERNELS)

# (metric name, module, attribute path) of count-only entry points
COUNTED = (
    ("relmodel.sort_key.calls", "relmodel", "sort_key"),
    ("wrel.FunExpr.eval.calls", "wrel", "FunExpr.eval"),
)

# counters that must repeat exactly on a second run with the same seed
COUNT_SUFFIXES = (".calls", ".elems", ".iterations", ".out_items",
                  ".max_bits", ".minima", ".spaces_tried")


def _bits(value):
    """Items in a kernel result: tuple length, set bits, or truth."""
    if isinstance(value, tuple):
        return len(value)
    if isinstance(value, bool):
        return int(value)
    return value.bit_count()


def _materialized(kernel):
    """The kernel with its first argument turned into a tuple, so the
    counters and the twin replay see the same input as the kernel."""
    def call(first, *rest):
        return kernel(tuple(first), *rest)
    return call


class Tracer:
    """Span recorder that installs wrappers on a loaded mullsem package."""

    def __init__(self, package):
        self.pkg = package
        self._restore = []
        self.names = []
        self._name_ids = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self._child = []
        self._stack = []
        self.job = -1
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.captured = {k: [] for k in KERNELS}

    # -- wrapper factories -------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def timed(self, name, fn, after=None):
        """Wrap fn in a span; ``after(args, result)`` adds counters."""
        nid = self._name_id(name)
        clock = time.perf_counter
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else -1
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(parent)
            self.span_job.append(self.job)
            self._child.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if after is not None:
                    after(args, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end
                dur = end - start
                self.self_s[name] += dur - self._child[idx]
                if parent >= 0:
                    self._child[parent] += dur
                self.counts[calls] += 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def job_span(self, job_id, fn):
        """Run fn as the root span of one job."""
        self.job = job_id
        try:
            return self.timed("job", fn)()
        finally:
            self.job = -1

    # -- counters attached to particular layers ----------------------------

    def _after_carrier(self, args, result):
        if not isinstance(result, BaseException):
            self.counts["relmodel.Carrier.elems"] += len(args[0].elems)

    def _after_upfamily(self, args, result):
        if not isinstance(result, BaseException):
            self.counts["totality.minima"] += len(args[0].minima)

    def _after_kleene(self, args, result):
        if isinstance(result, BaseException):
            last = getattr(result, "result", None)
            if last is not None:
                self.counts["wrel.kleene.iterations"] += last.iterations
        else:
            self.counts["wrel.kleene.iterations"] += result.iterations

    def _after_kernel(self, kernel):
        prefix = f"kernels.{kernel}"
        captured = self.captured[kernel]

        def after(args, result):
            if isinstance(result, BaseException):
                return
            if kernel in ("minimize_family", "is_antichain"):
                width = max((m.bit_length() for m in args[0]), default=0)
            else:  # minimal_transversals(masks, nbits), phase_orthogonal(t, n, ..)
                width = args[1]
            key = prefix + ".max_bits"
            if width > self.counts[key]:
                self.counts[key] = width
            self.counts[prefix + ".out_items"] += _bits(result)
            if len(captured) < CAPTURE_LIMIT:
                captured.append((args, result))
        return after

    # -- installation ------------------------------------------------------

    def _modules(self):
        prefix = self.pkg.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix
                                      or name.startswith(prefix + "."))]

    def _rebind(self, original, wrapper):
        """Replace original at every module binding that refers to it."""
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def _replace(self, module_name, path, wrap):
        """Wrap a function (at every binding) or a method (on its class)."""
        owner = getattr(self.pkg, module_name)
        *parts, attr = path.split(".")
        for part in parts:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        if isinstance(owner, type):
            setattr(owner, attr, wrap(original))
            self._restore.append((owner, attr, original))
        else:
            self._rebind(original, wrap(original))

    def install(self):
        afters = {
            "relmodel.Carrier": self._after_carrier,
            "totality.UpFamily": self._after_upfamily,
            "wrel.kleene_fixpoint": self._after_kleene,
        }
        for kernel in KERNELS:
            afters[f"kernels.{kernel}"] = self._after_kernel(kernel)
        for name, module, path in TIMED:
            prepare = _materialized if module == "_kernels" else (lambda f: f)
            self._replace(module, path, lambda f, n=name, p=prepare:
                          self.timed(n, p(f), afters.get(n)))
        for name, module, path in COUNTED:
            self._replace(module, path, lambda f, n=name: self.counted(n, f))
        self._wrap_space_enumeration()

    def _wrap_space_enumeration(self):
        original = self.pkg.phase.enumerate_spaces
        counts = self.counts

        def enumerate_spaces(max_size):
            for space in original(max_size):
                counts["phase.spaces_tried"] += 1
                yield space

        self._rebind(original, enumerate_spaces)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- results -----------------------------------------------------------

    def job_seconds(self):
        nid = self._name_ids.get("job")
        total = 0.0
        for i, n in enumerate(self.span_name):
            if n == nid:
                total += self.span_end[i] - self.span_start[i]
        return total

    def layer_metrics(self):
        """Self time per layer (``<name>.s``) and all counters."""
        out = {}
        for name in self.names:
            if name != "job":
                out[name + ".s"] = self.self_s.get(name, 0.0)
        out.update(self.counts)
        return out

    def write_spans(self, path):
        """Spans as gzip'd tab-separated lines: name start end parent job."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                         f"{self.span_parent[i]}\t{self.span_job[i]}\n")


def counts_only(metrics):
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}
