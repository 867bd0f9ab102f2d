"""Layer tracing for the benchmark's traced run.

``Tracer.install()`` wraps, from outside the package, the public functions
and methods of every kcert module, plus the operator methods
(``__add__``, ``__matmul__``, ``__eq__``, ...).  Every wrapped call is a
span: name, start, end, parent span and request id.  Spans are kept in
memory (up to ``SPAN_CAP``; later ones are only aggregated) and written by
``dump()`` when the run ends.  Self time is a span's duration minus the
time its child spans cover.  Self and group times are multiplied by
``scale``, the host-speed factor the caller sets before each request, so
they read like the end-to-end times; span timestamps stay raw.

The hottest operations are counted, not spanned: rational arithmetic on
``fractions.Fraction`` and the truth tests of ``Poly``/``QuotElem``.
A few spans carry probes (matmul operand counts, entry growth, identical
algebra comparisons).  A probe runs only after its call has returned, so it
never sees operands the call would reject, and its own time is excluded
from every span.
``uninstall()`` restores every patched attribute.

Tracing must not change behaviour: the wrappers return what the wrapped
callable returns and re-raise what it raises.
"""

import functools
import gzip
import importlib
import inspect
import json
import time
from array import array
from fractions import Fraction

MODULES = (
    "scalars", "algebras", "matrices", "identities", "boundary", "mv",
    "kclasses", "drivers", "specdoc", "cli",
)
OPERATORS = {"__add__", "__sub__", "__neg__", "__mul__", "__matmul__", "__eq__"}
RAT_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)
ZERO_TESTS = ("scalars.Poly.__bool__", "scalars.QuotElem.__bool__")
# Spans kept for dump(); later calls are only aggregated.
SPAN_CAP = 400_000
SEGMENT_NAMES = (
    "k0_middle", "boundary_zero", "boundary_zero_oshape",
    "i_after_boundary", "kernel_boundary", "kernel_i",
)

# Groups whose inclusive time is reported: only outermost spans count, so
# nested members are not added twice.  A member ending in "." is a prefix.
GROUPS = {
    "specdoc.parse": ("specdoc.",),
    "boundary.forms": (
        "boundary.boundary_first_form", "boundary.boundary_second_form",
        "boundary.boundary_extended_form",
    ),
    "boundary.lift_independence": (
        "boundary.verify_lift_independence_a", "boundary.verify_lift_independence_b",
    ),
}


def _bits(value):
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def payload_growth(payload):
    """(largest numerator/denominator bit length, polynomial degree) of one
    matrix entry, read through duck typing so no kcert API is needed."""
    if hasattr(payload, "rep"):
        payload = payload.rep
    if hasattr(payload, "coeffs"):
        coeffs = payload.coeffs
        return max((_bits(c) for c in coeffs), default=0), len(coeffs) - 1
    if hasattr(payload, "table"):
        return max((_bits(v) for v in payload.table.values()), default=0), 0
    return _bits(payload), 0


class Tracer:
    """Spans, counters and probes for one traced run; see the module doc."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.calls = []
        self.self_s = []
        self.raised = []
        self.groups = dict(GROUPS)
        self.group_s = {}
        self._group_depth = {}
        self._groups_of = {}
        self.stack = []
        self.request = 0
        # Host-speed factor applied to the self and group times of the
        # current request (see run.host_probe); spans keep raw timestamps.
        self.scale = 1.0
        self.dropped = 0
        self.rat_ops = [0]
        self.zero_tests = [0]
        self.matmul_mults = 0
        self.matmul_nonzero = 0
        self.max_entry_bits = 0
        self.max_poly_degree = 0
        self.eq_identical = 0
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patched = []
        self._probes = {
            "matrices.FilteredMatrix.__matmul__": self._matmul_probe,
            "algebras.LocalizedAlgebra.__eq__": self._eq_probe,
        }

    # -- registry ------------------------------------------------------------

    def _sid(self, name):
        sid = self.ids.get(name)
        if sid is None:
            sid = len(self.names)
            self.ids[name] = sid
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.raised.append(0)
            self._groups_of[sid] = tuple(
                g for g, members in self.groups.items()
                if any(name == m or (m.endswith(".") and name.startswith(m)) for m in members)
            )
        return sid

    # -- probes (their time is excluded from every span) -----------------------

    def _matmul_probe(self, args, result):
        a, b = args[0], args[1]
        saved = self.zero_tests[0]
        n = len(a.rows)
        self.matmul_mults += n ** 3
        col_nnz = [sum(1 for row in a.rows if row[k]) for k in range(n)]
        row_nnz = [sum(1 for p in row if p) for row in b.rows]
        self.matmul_nonzero += sum(c * r for c, r in zip(col_nnz, row_nnz))
        self.zero_tests[0] = saved
        for row in result.rows:
            for p in row:
                bits, deg = payload_growth(p)
                if bits > self.max_entry_bits:
                    self.max_entry_bits = bits
                if deg > self.max_poly_degree:
                    self.max_poly_degree = deg

    def _eq_probe(self, args, _result):
        if args[0] is args[1]:
            self.eq_identical += 1

    # -- wrappers --------------------------------------------------------------

    def span(self, name, fn):
        sid = self._sid(name)
        groups = self._groups_of[sid]
        probe = self._probes.get(name)
        stack = self.stack
        clock = time.perf_counter
        calls, self_s, raised = self.calls, self.self_s, self.raised
        group_s, depth = self.group_s, self._group_depth
        for g in groups:
            group_s.setdefault(g, 0.0)
            depth.setdefault(g, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(sid, stack)
            frame = [0.0, idx]
            stack.append(frame)
            for g in groups:
                depth[g] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[sid] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[sid] += 1
                self_s[sid] += (dur - frame[0]) * self.scale
                for g in groups:
                    depth[g] -= 1
                    if not depth[g]:
                        group_s[g] += dur * self.scale
                if idx >= 0:
                    self.span_start[idx] = t0
                    self.span_end[idx] = t1
                if stack:
                    stack[-1][0] += dur
            if probe is not None:
                p0 = clock()
                probe(args, result)
                if stack:
                    stack[-1][0] += clock() - p0
            return result

        return wrapper

    def _open(self, sid, stack):
        idx = len(self.span_name)
        if idx >= SPAN_CAP:
            self.dropped += 1
            return -1
        parent = stack[-1][1] if stack else -1
        self.span_name.append(sid)
        self.span_parent.append(parent)
        self.span_request.append(self.request)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        return idx

    @staticmethod
    def count(cell, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {m: importlib.import_module(f"kcert.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[obj] = self.span(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(f"{short}.{attr}", obj)
        # Functions imported by name into other modules are replaced there too.
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        self._install_tables(mods)
        for op in RAT_OPS:
            self._patch(Fraction, op, self.count(self.rat_ops, Fraction.__dict__[op]))

    def _install_class(self, qual, cls):
        for attr, obj in list(cls.__dict__.items()):
            name = f"{qual}.{attr}"
            if name in ZERO_TESTS:
                self._patch(cls, attr, self.count(self.zero_tests, obj))
                continue
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            if inspect.isfunction(obj):
                self._patch(cls, attr, self.span(name, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(self.span(name, obj.__func__)))

    def _install_tables(self, mods):
        """The identity drivers and exactness segment generators are private
        functions reached through module-level tables; wrap the entries."""
        identities, drivers = mods["identities"], mods["drivers"]
        table = getattr(identities, "IDENTITY_DRIVERS", None)
        if table is not None:
            self._patch(identities, "IDENTITY_DRIVERS", tuple(
                (name, self.span(f"identities.driver.{name}", fn)) for name, fn in table
            ))
        table = getattr(drivers, "SEGMENTS", None)
        if table is not None:
            rows = []
            for name, gen, *rest in table:
                qual = f"drivers.segment.{name}"
                self.groups[qual] = (qual,)
                rows.append((name, self.span(qual, gen), *rest))
            self._patch(drivers, "SEGMENTS", tuple(rows))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def _sum(self, pick, names):
        return sum(pick[self.ids[n]] for n in names if n in self.ids)

    def _matching(self, pred):
        return [n for n in self.names if pred(n)]

    def layer_metrics(self):
        """The per-layer metrics, totalled over every traced request."""
        calls = lambda *ns: self._sum(self.calls, ns)  # noqa: E731
        self_s = lambda *ns: self._sum(self.self_s, ns)  # noqa: E731
        module = lambda m: self._matching(lambda n: n.split(".")[0] == m)  # noqa: E731

        def ratio(num, den):
            return num / den if den else 0.0

        invert = "scalars.QuotElem.invert"
        eq = "algebras.LocalizedAlgebra.__eq__"
        matmul = "matrices.FilteredMatrix.__matmul__"
        verify = ("matrices.InvertibleCert.verify", "matrices.IdempotentCert.verify")
        block = tuple(
            f"matrices.{c}{op}" for c in ("FilteredMatrix.", "")
            for op in ("direct_sum", "pad", "sub_block", "block2", "split2")
        )
        sampler = self._matching(lambda n: n.startswith("identities.Sampler."))
        report = self._matching(lambda n: n.startswith("identities.IdentityReport."))
        hom = ("algebras.FilteredHom.apply_payload", "algebras.FilteredHom.apply",
               "algebras.hom_apply")
        out = {
            "scalars.rat_ops": self.rat_ops[0],
            "scalars.zero_tests": self.zero_tests[0],
            "scalars.poly_mul_calls": calls("scalars.Poly.__mul__"),
            "scalars.poly_mul_self_s": self_s("scalars.Poly.__mul__"),
            "scalars.poly_divmod_calls": calls("scalars.Poly.divmod_by"),
            "scalars.poly_divmod_self_s": self_s("scalars.Poly.divmod_by"),
            "scalars.quot_mul_calls": calls("scalars.QuotElem.__mul__"),
            "scalars.quot_mul_self_s": self_s("scalars.QuotElem.__mul__"),
            "scalars.quot_invert_calls": calls(invert),
            "scalars.quot_invert_fail_ratio": ratio(
                self._sum(self.raised, (invert,)), calls(invert)),
            "algebras.eq_calls": calls(eq),
            "algebras.eq_self_s": self_s(eq),
            "algebras.eq_identical_ratio": ratio(self.eq_identical, calls(eq)),
            "algebras.kernel_mul_calls": calls("algebras.Kernel.__mul__"),
            "algebras.kernel_mul_self_s": self_s("algebras.Kernel.__mul__"),
            "algebras.kernel_add_self_s": self_s("algebras.Kernel.__add__"),
            "algebras.degree_calls": calls("algebras.LocalizedAlgebra.degree"),
            "algebras.degree_self_s": self_s("algebras.LocalizedAlgebra.degree"),
            "algebras.hom_apply_calls": calls(hom[0]),
            "algebras.hom_apply_self_s": self_s(*hom),
            "matrices.matmul_calls": calls(matmul),
            "matrices.matmul_self_s": self_s(matmul),
            "matrices.matmul_mults": self.matmul_mults,
            "matrices.matmul_nonzero_ratio": ratio(self.matmul_nonzero, self.matmul_mults),
            "matrices.max_entry_bits": self.max_entry_bits,
            "matrices.max_poly_degree": self.max_poly_degree,
            "matrices.cert_verify_calls": calls(*verify),
            "matrices.cert_verify_self_s": self_s(*verify),
            "matrices.cert_failures": self._sum(self.raised, verify),
            "matrices.block_self_s": self_s(*block),
            "matrices.addsub_self_s": self_s(*(
                f"matrices.FilteredMatrix.{op}" for op in ("__add__", "__sub__", "__neg__")
            )),
            "identities.samples": calls("identities.IdentityReport.record"),
            "identities.sampler_self_s": self_s(*sampler),
            "identities.driver_self_s": self_s(*(
                n for n in module("identities") if n not in sampler and n not in report
            )),
            "mv.glue_calls": calls(*(n for n in module("mv") if ".glue_" in n)),
            "mv.self_s": self_s(*module("mv")),
            "boundary.forms_s": self.group_s.get("boundary.forms", 0.0),
            "boundary.lift_independence_s": self.group_s.get(
                "boundary.lift_independence", 0.0),
            "boundary.self_s": self_s(*module("boundary")),
            "kclasses.exactness_calls": calls(
                *(n for n in module("kclasses") if ".exactness_" in n)),
            "kclasses.self_s": self_s(*module("kclasses")),
        }
        for seg in SEGMENT_NAMES:
            out[f"drivers.segment.{seg}_s"] = self.group_s.get(f"drivers.segment.{seg}", 0.0)
        out["drivers.self_s"] = self_s(*module("drivers"))
        out["specdoc.parse_s"] = self.group_s.get("specdoc.parse", 0.0)
        out["cli.self_s"] = self_s(*module("cli"))
        return out

    def dump(self, path):
        """Write the recorded spans and the per-name totals as gzipped JSON."""
        doc = {
            "names": self.names,
            "totals": {
                n: {"calls": self.calls[i], "self_s": self.self_s[i], "raised": self.raised[i]}
                for i, n in enumerate(self.names)
            },
            "dropped_spans": self.dropped,
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "request": self.span_request.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            },
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)
