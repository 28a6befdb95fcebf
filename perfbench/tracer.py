"""Outside-in tracer for isolab's layers.

Nothing under src/ is edited. Each public function of a layer is replaced,
in every isolab namespace that holds a reference to it, by a wrapper that
counts calls and measures time with time.perf_counter. Install it only for
the traced round; `uninstall` puts the originals back.

Three kinds of wrapper:

* kernel ops (MultiPoly mul/add/pow/divexact and poly_gcd): every call that
  returns a result is counted; busy time is added only at the outermost
  kernel call, so a product inside poly_gcd adds to the gcd's time but still
  counts as a mul call;
* composite algebra ops (RatFunc normalisation, FactoredFrac.__add__): busy
  time includes the kernel calls they make;
* spans at module boundaries (builders, residuals, oracle, Garnier, periods,
  Liouville, CLI commands): each records (id, parent id, job id, name,
  start, end) in memory. A span's self time is its duration minus the time
  covered by child spans and by outermost algebra calls made inside it.

Busy time of a span layer counts only its outermost span of that name, so a
recursive or nested call is not counted twice.
"""

import json
import sys
import time
from collections import defaultdict

# Where each layer metric is expected to read nonzero. The traced run fails
# if one of these reads 0 on the workload named here (see README.md).
EXERCISED = {
    "exact-inmemory": [
        "algebra.mul.calls", "algebra.mul.busy_s", "algebra.add.calls",
        "algebra.add.busy_s", "algebra.pow.calls", "algebra.pow.busy_s",
        "algebra.divexact.calls", "algebra.divexact.busy_s",
        "algebra.ffadd.calls", "algebra.ffadd.busy_s",
        "schlesinger.build.busy_s", "schlesinger.residual.busy_s",
        "schlesinger.residual.self_s", "painleve.build.busy_s",
        "painleve.residual.busy_s", "painleve.residual.self_s",
        "curves.oracle.calls", "curves.oracle.busy_s", "curves.oracle.self_s",
    ],
    "cli-documents": [
        "algebra.mul.calls", "algebra.mul.term_pairs", "algebra.max_terms",
        "algebra.add.calls", "algebra.add.busy_s", "algebra.pow.calls",
        "algebra.divexact.calls", "algebra.divexact.busy_s",
        "algebra.ffadd.calls", "algebra.ffadd.busy_s",
        "algebra.gcd.calls", "algebra.gcd.busy_s",
        "algebra.ratfunc_norm.calls", "algebra.ratfunc_norm.busy_s",
        "schlesinger.to_json.busy_s", "schlesinger.from_json.busy_s",
        "cli.generate.busy_s", "cli.verify.busy_s", "cli.parse.busy_s",
        "cli.doc_bytes",
    ],
    "numeric": [
        "algebra.gcd.calls", "algebra.gcd.busy_s",
        "algebra.ratfunc_norm.calls", "algebra.ratfunc_norm.busy_s",
        "painleve.zeros.busy_s", "garnier.pm.calls", "garnier.pm.busy_s",
        "garnier.pm.useful_share", "garnier.roots.calls",
        "garnier.residual.busy_s", "periods.integrate.calls",
        "periods.integrate.busy_s", "periods.advance.calls",
        "periods.halvings", "liouville.eval.busy_s",
    ],
}

# Counts that must repeat exactly for the same code, workload and seed.
EXACT_REPEAT = ("algebra.mul.calls", "algebra.mul.term_pairs",
                "algebra.gcd.calls", "garnier.pm.calls", "periods.halvings")


def _n_terms(p):
    # MultiPoly has no public term count; its term dict is read, never written.
    return len(p._terms)


class Tracer:
    """Counters and spans for one traced round."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.extra = defaultdict(float)
        self.spans = []
        self.job = None
        self._stack = []            # open spans: [id, name, start, covered]
        self._depth = defaultdict(int)
        self._kernel_depth = 0      # nesting among kernel ops
        self._algebra_depth = 0     # nesting among all algebra ops
        self._next_id = 0
        self._pm_keys = set()
        self._patched = []          # (owner, attribute, original)

    # ------------------------------------------------------------------
    # job and span bookkeeping

    def begin_job(self, job_id, name):
        self.job = job_id
        self._open(f"job:{name}")

    def end_job(self):
        self._close()
        self.job = None

    def note(self, name, value):
        self.extra[name] += value

    def _open(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def _close(self):
        end = time.perf_counter()
        sid, name, start, covered = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((sid, parent[0] if parent else None, self.job,
                           name, start, end))
        return duration, covered

    def _covered(self, dt):
        if self._stack:
            self._stack[-1][3] += dt

    # ------------------------------------------------------------------
    # wrappers

    def kernel(self, name, fn, after=None):
        tracer = self
        calls, busy, clock = self.calls, self.busy, time.perf_counter

        def wrapper(*args, **kwargs):
            outer_kernel = tracer._kernel_depth == 0
            outer_algebra = tracer._algebra_depth == 0
            tracer._kernel_depth += 1
            tracer._algebra_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer._kernel_depth -= 1
                tracer._algebra_depth -= 1
                if outer_kernel:
                    busy[name] += dt
                if outer_algebra:
                    tracer._covered(dt)
            if result is not NotImplemented:
                calls[name] += 1
                if after is not None:
                    after(args, result)
            return result
        return wrapper

    def composite(self, name, fn, skip=None):
        tracer = self
        calls, busy, depth, clock = (self.calls, self.busy, self._depth,
                                     time.perf_counter)

        def wrapper(*args, **kwargs):
            if skip is not None and skip(args, kwargs):
                return fn(*args, **kwargs)
            calls[name] += 1
            outer = depth[name] == 0
            outer_algebra = tracer._algebra_depth == 0
            depth[name] += 1
            tracer._algebra_depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[name] -= 1
                tracer._algebra_depth -= 1
                if outer:
                    busy[name] += dt
                if outer_algebra:
                    tracer._covered(dt)
        return wrapper

    def span(self, name, fn, on_call=None, errors=None):
        tracer = self
        calls, busy, self_time, depth = (self.calls, self.busy,
                                         self.self_time, self._depth)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if on_call is not None:
                on_call(args)
            outer = depth[name] == 0
            depth[name] += 1
            tracer._open(name)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                # count an error once, at the innermost span it leaves
                if errors is not None and not getattr(exc, "_traced", False):
                    tracer.extra[errors] += 1
                    exc._traced = True
                raise
            finally:
                depth[name] -= 1
                duration, covered = tracer._close()
                self_time[name] += duration - covered
                if outer:
                    busy[name] += duration
        return wrapper

    def counter(self, name, fn, on_call=None):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if on_call is not None:
                on_call(args)
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------------
    # patching

    def _patch_attr(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, fn, wrapper):
        """Replace fn in every isolab namespace that binds it by name."""
        found = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "isolab"
                                   or modname.startswith("isolab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch_attr(mod, attr, wrapper)
                    found += 1
        if not found:
            raise RuntimeError(f"tracer found no binding of {fn.__qualname__}")

    def _patch_method(self, cls, attrs, make):
        original = cls.__dict__[attrs[0]]
        if isinstance(original, classmethod):
            wrapper = classmethod(make(original.__func__))
        else:
            wrapper = make(original)
        for attr in attrs:
            self._patch_attr(cls, attr, wrapper)

    def install(self):
        from isolab import (cli, curves, garnier, liouville, painleve,
                            periods, schlesinger)
        from isolab.algebra import factored, multipoly, ratfunc
        MultiPoly = multipoly.MultiPoly

        def max_terms(args, result):
            n = _n_terms(result)
            if n > self.extra["algebra.max_terms"]:
                self.extra["algebra.max_terms"] = n

        def mul_done(args, result):
            a, b = args
            self.extra["algebra.mul.term_pairs"] += _n_terms(a) * (
                _n_terms(b) if isinstance(b, MultiPoly) else 1)
            max_terms(args, result)

        def gcd_done(args, result):
            if result.is_constant():
                self.extra["algebra.gcd.trivial"] += 1

        self._patch_method(MultiPoly, ("__mul__", "__rmul__"), lambda f: self.kernel(
            "algebra.mul", f, after=mul_done))
        self._patch_method(MultiPoly, ("__add__", "__radd__"), lambda f: self.kernel(
            "algebra.add", f, after=max_terms))
        self._patch_method(MultiPoly, ("__pow__",),
                           lambda f: self.kernel("algebra.pow", f))
        self._patch_method(MultiPoly, ("divexact",),
                           lambda f: self.kernel("algebra.divexact", f))
        self._patch_function(multipoly.poly_gcd, self.kernel(
            "algebra.gcd", multipoly.poly_gcd, after=gcd_done))

        def already_normal(args, kwargs):
            return kwargs.get("_normalized") or (len(args) > 3 and args[3])
        self._patch_method(ratfunc.RatFunc, ("__init__",), lambda f: self.composite(
            "algebra.ratfunc_norm", f, skip=already_normal))
        self._patch_method(factored.FactoredFrac, ("__add__", "__radd__"),
                           lambda f: self.composite("algebra.ffadd", f))

        layers = {
            "schlesinger.build": [schlesinger.build_polynomial_solution,
                                  schlesinger.build_rational_solution],
            "schlesinger.residual": [schlesinger.residual_is_zero,
                                     schlesinger.schlesinger_residual,
                                     schlesinger.sum_constraint,
                                     schlesinger.cross_terms],
            "painleve.build": [painleve.thm5_solution, painleve.thm6_family,
                               painleve.thm7_solution, painleve.thm8_family,
                               painleve.pq_polynomials],
            "painleve.residual": [painleve.pvi_residual],
            "painleve.zeros": [painleve.polynomial_zeros],
            "curves.oracle": [curves.residue_series_oracle],
            "garnier.residual": [garnier.garnier_residual_m2],
            "liouville.eval": [liouville.liouvillian_eval],
            "cli.generate": [cli.cmd_generate],
            "cli.verify": [cli.cmd_verify],
            "cli.parse": [ratfunc.parse_ratfunc],
        }
        for layer, fns in layers.items():
            for fn in fns:
                self._patch_function(fn, self.span(layer, fn))
        for fn in (periods.integrate_omega, periods.period_matrix,
                   periods.isomonodromy_fd_check, periods.continue_w):
            name = ("periods.integrate" if fn is periods.integrate_omega
                    else "periods.check")
            self._patch_function(fn, self.span(name, fn,
                                               errors="periods.errors"))
        self._patch_function(garnier.u_roots,
                             self.counter("garnier.roots", garnier.u_roots))

        Sol = schlesinger.TriangularSolution
        self._patch_method(Sol, ("to_json_dict",),
                           lambda f: self.span("schlesinger.to_json", f))
        self._patch_method(Sol, ("from_json_dict",),
                           lambda f: self.span("schlesinger.from_json", f))

        def pm_key(args):
            self._pm_keys.add(tuple(args[0].b))
        self._patch_method(garnier.GarnierAlgebraicSolution, ("pm_coefficients",),
                           lambda f: self.span("garnier.pm", f, on_call=pm_key))

        def halving(args):
            if len(args) > 2 and args[2] > 0:
                self.extra["periods.halvings"] += 1
        self._patch_method(periods.BranchTracker, ("advance",),
                           lambda f: self.counter("periods.advance", f,
                                                  on_call=halving))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # results

    def metrics(self):
        """Every per-layer metric except trace.overhead_s, by name."""
        c, b, s, x = self.calls, self.busy, self.self_time, self.extra
        gcd_calls = c["algebra.gcd"]
        pm_calls = c["garnier.pm"]
        out = {}
        for op in ("mul", "add", "pow", "divexact", "ffadd", "gcd",
                   "ratfunc_norm"):
            out[f"algebra.{op}.calls"] = c[f"algebra.{op}"]
            out[f"algebra.{op}.busy_s"] = b[f"algebra.{op}"]
        out["algebra.mul.term_pairs"] = int(x["algebra.mul.term_pairs"])
        out["algebra.max_terms"] = int(x["algebra.max_terms"])
        out["algebra.gcd.trivial_share"] = (
            x["algebra.gcd.trivial"] / gcd_calls if gcd_calls else 0.0)
        for layer in ("schlesinger.build", "schlesinger.residual",
                      "schlesinger.to_json", "schlesinger.from_json",
                      "painleve.build", "painleve.residual", "painleve.zeros",
                      "curves.oracle", "garnier.pm", "garnier.residual",
                      "periods.integrate", "liouville.eval", "cli.generate",
                      "cli.verify", "cli.parse"):
            out[f"{layer}.busy_s"] = b[layer]
        for layer in ("schlesinger.residual", "painleve.residual",
                      "curves.oracle"):
            out[f"{layer}.self_s"] = s[layer]
        out["curves.oracle.calls"] = c["curves.oracle"]
        out["garnier.pm.calls"] = pm_calls
        out["garnier.pm.useful_share"] = (
            len(self._pm_keys) / pm_calls if pm_calls else 0.0)
        out["garnier.roots.calls"] = c["garnier.roots"]
        out["periods.integrate.calls"] = c["periods.integrate"]
        out["periods.advance.calls"] = c["periods.advance"]
        out["periods.halvings"] = int(x["periods.halvings"])
        out["periods.errors"] = int(x["periods.errors"])
        out["cli.doc_bytes"] = int(x["cli.doc_bytes"])
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, job, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
