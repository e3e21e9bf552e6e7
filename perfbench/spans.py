"""In-memory span recorder for the traced benchmark run.

``Recorder.install()`` wraps, at run time, every public function of the
layer modules and rebinds it in every ``k3lat`` namespace that holds it,
since ``from .qseries import psi_m`` gives ``k3lat.cli.psi_m`` its own
binding. It also wraps four methods: ``FracSeries.__mul__`` (and its alias
``__rmul__``), ``FracSeries.inverse``, ``CycMatrix.__mul__`` and
``CycMatrix.inverse``. Each call becomes a span: name, start, end, parent
span and job id. Generator functions get one span per resumption.

Not wrapped, on purpose: ``FiniteQuadraticForm.q``, ``FiniteQuadraticForm.b``
and ``CycEight`` arithmetic, which run up to millions of times per job; a
wrapper there would change what is measured. Their time is part of the
calling span's self time.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "exactalg", "lattice", "finiteform", "geography", "vectors",
          "qseries", "weil", "audit")

UNWRAPPED_NOTE = ("FiniteQuadraticForm.q, FiniteQuadraticForm.b and CycEight "
                  "arithmetic are not wrapped; their time is in the calling "
                  "span's self time")

METHODS = (
    ("qseries", "FracSeries", ("__mul__", "__rmul__", "inverse")),
    ("weil", "CycMatrix", ("__mul__", "inverse")),
)

RESUME = "#next"  # suffix of a span that resumes a generator


class Recorder:
    """Spans and counters of one traced pass. Only records while ``on``."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        # one list per span: [name id, start, end, parent index, job, failed]
        self.spans = []
        self._stack = [-1]
        self.job = -1
        self.on = False
        self.counts = Counter()
        self.disc_a_max = 0
        self._undo = []

    # -- installing -------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"k3lat.{layer}") for layer in LAYERS}
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != "k3lat" and not modname.startswith("k3lat."):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, name, hit[1])
        for layer, clsname, methods in METHODS:
            cls = getattr(modules[layer], clsname)
            done = {}
            for meth in methods:
                fn = cls.__dict__[meth]
                if id(fn) not in done:  # __rmul__ is __mul__: one wrapper
                    done[id(fn)] = self._wrap(f"{layer}.{clsname}.{meth}", fn)
                self._patch(cls, meth, done[id(fn)])
        lattice_cls = modules["lattice"].Lattice
        self._patch(lattice_cls, "__init__",
                    self._counting(lattice_cls.__init__, "lattice.forms_built"))
        return self

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        self.on = False

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrappers ---------------------------------------------------------

    def _counting(self, fn, counter):
        rec = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if rec.on:
                rec.counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        rec = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        name_id = self._name_id(name)
        post = _post_hook(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            span = [name_id, 0.0, 0.0, stack[-1], rec.job, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if post is not None:
                post(rec, args, result)
            return result
        return traced

    def _wrap_generator(self, name, fn):
        rec = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        call_id = self._name_id(name)
        resume_id = self._name_id(name + RESUME)
        on_yield = _yield_hook(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            t = clock()
            spans.append([call_id, t, t, stack[-1], rec.job, False])
            return resumed(fn(*args, **kwargs))

        def resumed(gen):
            while True:
                span = [resume_id, 0.0, 0.0, stack[-1], rec.job, False]
                stack.append(len(spans))
                spans.append(span)
                span[1] = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException:
                    span[5] = True
                    raise
                finally:
                    span[2] = clock()
                    stack.pop()
                if on_yield is not None:
                    on_yield(rec, item)
                yield item
        return traced

    # -- results ----------------------------------------------------------

    def self_times(self):
        """Self time of each span: its duration minus its children's."""
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def metrics(self):
        """Per-layer metrics of this pass, keyed by metric name."""
        names = self.names
        self_t = self.self_times()
        by_name = Counter()
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.errors"] = 0
        glue = self._name_ids.get("geography.find_isogeny_glue", -2)
        quotient = self._name_ids.get("finiteform.quotient_form", -2)
        glue_attempts = 0
        for i, (nid, _, _, parent, _, failed) in enumerate(self.spans):
            name = names[nid]
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += self_t[i]
            out[f"{layer}.errors"] += failed
            if name.endswith(RESUME):
                continue
            by_name[name] += 1
            out[f"{layer}.calls"] += 1
            if nid == quotient and parent >= 0 and self.spans[parent][0] == glue:
                glue_attempts += 1
        c = self.counts
        out.update({
            "cli.bytes_out": c["cli.bytes_out"],
            "exactalg.det_calls": by_name["exactalg.det"],
            "exactalg.snf_calls": by_name["exactalg.smith_normal_form"],
            "exactalg.det_dim_sum": c["exactalg.det_dim_sum"],
            "lattice.forms_built": c["lattice.forms_built"],
            "lattice.disc_a_max": self.disc_a_max,
            "finiteform.subgroups_yielded": c["finiteform.subgroups_yielded"],
            "finiteform.elements_sum": c["finiteform.elements_sum"],
            "geography.glue_attempts": glue_attempts,
            "geography.glue_hits": c["geography.glue_hits"],
            "vectors.vectors_out": c["vectors.vectors_out"],
            "qseries.mul_calls": (by_name["qseries.FracSeries.__mul__"]
                                  + by_name["qseries.FracSeries.__rmul__"]),
            "qseries.inverse_calls": by_name["qseries.FracSeries.inverse"],
            "qseries.terms_out": c["qseries.terms_out"],
            "qseries.prec_units_sum": c["qseries.prec_units_sum"],
            "weil.s_builds": by_name["weil.weil_S"],
            "weil.t_builds": by_name["weil.weil_T"],
            "weil.matmuls": by_name["weil.CycMatrix.__mul__"],
            "weil.unitarity_checks": by_name["weil.CycMatrix.inverse"],
            "weil.entries_built": c["weil.entries_built"],
            "audit.reports": by_name["audit.case1_report"] + by_name["audit.case2_report"],
        })
        return out

    def dump(self, path, meta):
        """Write every span as [name, start, end, parent, job, failed]."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(meta, note=UNWRAPPED_NOTE, names=self.names,
                   fields=["name", "start_s", "end_s", "parent", "job", "failed"],
                   spans=[[n, round(s - t0, 7), round(e - t0, 7), p, j, int(f)]
                          for n, s, e, p, j, f in self.spans])
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- counters recorded at the layer boundaries ----------------------------
# Sums over sizes (det_dim_sum, elements_sum, terms_out, prec_units_sum,
# entries_built) are computed from arguments and results, not counted
# inside the program.

def _post_hook(name):
    layer, _, func = name.partition(".")
    if name == "exactalg.det":
        def post(rec, args, result):
            rec.counts["exactalg.det_dim_sum"] += len(args[0])
        return post
    if name == "lattice.discriminant_form":
        def post(rec, args, result):
            rec.disc_a_max = max(rec.disc_a_max, result.a)
        return post
    if name == "geography.find_isogeny_glue":
        def post(rec, args, result):
            rec.counts["geography.glue_hits"] += result is not None
        return post
    if name == "vectors.short_vectors":
        def post(rec, args, result):
            rec.counts["vectors.vectors_out"] += len(result)
        return post
    if name == "vectors.witness_vector":
        def post(rec, args, result):
            rec.counts["vectors.vectors_out"] += result is not None
        return post
    if layer == "finiteform":
        from k3lat.finiteform import FiniteQuadraticForm

        def post(rec, args, result):
            if args and isinstance(args[0], FiniteQuadraticForm):
                rec.counts["finiteform.elements_sum"] += 1 << args[0].a
        return post
    if layer == "qseries":
        from k3lat.qseries import FracSeries

        def post(rec, args, result):
            if isinstance(result, FracSeries):
                rec.counts["qseries.terms_out"] += len(result.coeffs)
                rec.counts["qseries.prec_units_sum"] += result.prec_units
        return post
    if layer == "weil":
        from k3lat.weil import CycMatrix

        def post(rec, args, result):
            if isinstance(result, CycMatrix):
                rec.counts["weil.entries_built"] += result.n * result.n
        return post
    return None


def _yield_hook(name):
    if name == "finiteform.iter_isotropic_subgroups":
        def on_yield(rec, item):
            rec.counts["finiteform.subgroups_yielded"] += 1
        return on_yield
    return None
