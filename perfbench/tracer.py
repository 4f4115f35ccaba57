"""Spans around the public functions of each aoiq layer, installed from outside.

``Tracer`` replaces module attributes and class methods of the imported
``aoiq`` package with thin wrappers and puts the originals back on exit;
the package itself is not modified. Every wrapped call becomes a span
(name, start, end, parent span, pass id) kept in memory and written out
as JSON lines at the end of the run.

Jet arithmetic is the exception: it runs hundreds of thousands of
sub-microsecond operations per pass, so it is counted (multiplications,
divisions, additions/subtractions) and timed as one busy total instead
of being recorded as spans. Its time therefore stays inside the self
time of the calling span (mostly ``analytic.*``).

Work done in the process-pool children of ``aoiq.sim.run`` is not seen
by the wrappers; it shows only as the duration of the parent's
``sim.run`` span.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
from time import perf_counter


class Span:
    __slots__ = ("id", "parent", "pass_id", "name", "start", "end", "dur", "attrs")

    def __init__(self, span_id, parent, pass_id, name, start):
        self.id = span_id
        self.parent = parent
        self.pass_id = pass_id
        self.name = name
        self.start = start
        self.end = start
        self.dur = 0.0
        self.attrs = {}

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "pass": self.pass_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "dur": self.dur,
            **{k: v for k, v in self.attrs.items() if not k.startswith("_")},
        }


def _effective_policy(policy) -> tuple:
    """Policy as the simulator sees it: probabilistic theta 0 and 1 are the
    non-preemptive and self-preemptive policies, the others ignore theta."""
    kind = policy.kind.value
    if kind == "probabilistic":
        if policy.theta == 0.0:
            return ("non_preemptive",)
        if policy.theta == 1.0:
            return ("self_preemptive",)
        return (kind, policy.theta)
    return (kind,)


def _note_run(span, args, kwargs, report):
    cfg, policy, sim = args[:3]
    workers = args[3] if len(args) > 3 else kwargs.get("workers", 1)
    collect = args[4] if len(args) > 4 else kwargs.get("collect_deliveries", False)
    span.attrs["arrivals"] = sum(s.arrivals for s in report.per_source)
    span.attrs["replications"] = sim.replications
    span.attrs["pool"] = workers > 1 and sim.replications > 1
    span.attrs["identity_violations"] = sum(
        s.arrivals != s.delivered + s.preempted + s.discarded + s.in_flight
        for s in report.per_source
    )
    span.attrs["_key"] = (_effective_policy(policy), cfg.arrival_rates, cfg.service, sim, collect)


def _verdicts(span, statuses):
    for status in ("pass", "skip", "fail"):
        span.attrs[status] = sum(1 for s in statuses if s == status)


def _note_checks(span, args, kwargs, summary):
    _verdicts(span, [r.status for r in summary.results])


def _note_validation(span, args, kwargs, report):
    _verdicts(span, [c.status for c in report.checks])
    gaps = [c.discrepancy for c in report.checks if c.name.startswith("closed_form_vs_graph")]
    span.attrs["graph_gap"] = max(gaps, default=0.0)


def _note_moments(span, args, kwargs, result):
    cfg, source = args[0], args[1]
    span.attrs["source"] = source
    span.attrs["_key"] = cfg


def _note_routes(span, args, kwargs, result):
    span.attrs["gap"] = result[2]


def _note_main(span, args, kwargs, rc):
    argv = list(args[0])  # the harness always passes argv
    span.attrs["command"] = argv[0]
    span.attrs["rc"] = rc
    span.attrs["dump"] = "--dump-samples" in argv


# (module, attribute, note) of every traced module-level function; the
# span is named after the module's last component and the attribute.
FUNCTIONS = (
    ("aoiq.analytic", "moments", _note_moments),
    ("aoiq.analytic", "moments_both_routes", _note_routes),
    ("aoiq.analytic", "interdeparture_mgf_jet", None),
    ("aoiq.semimarkov", "build_interdeparture_graph", None),
    ("aoiq.semimarkov", "transfer_functions", None),
    ("aoiq.sim", "run", _note_run),
    ("aoiq.sim", "empirical_checks", _note_checks),
    ("aoiq.sweep", "write_rows", None),
    ("aoiq.validate", "validation_suite", _note_validation),
    ("aoiq.config", "build_spec", None),
    ("aoiq.cli", "main", _note_main),
)
GENERATORS = (("aoiq.sweep", "iter_sweep_rows"),)
JET_OPS = (
    ("__add__", "addsub"),
    ("__radd__", "addsub"),
    ("__sub__", "addsub"),
    ("__rsub__", "addsub"),
    ("__mul__", "mul"),
    ("__rmul__", "mul"),
    ("__truediv__", "div"),
    ("__rtruediv__", "div"),
)


class Tracer:
    """Installs the wrappers on ``__enter__`` and removes them on ``__exit__``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = None
        self.jets: dict = {}  # pass id -> {"mul", "div", "addsub", "s"}
        self._stack: list[Span] = []
        self._patches: list = []
        self._seen_requests: set = set()
        self._jet_depth = 0
        self._default_order = None  # aoiq.jets.DEFAULT_ORDER, set on entry

    # -- passes ---------------------------------------------------------------

    def begin_pass(self, pass_id) -> None:
        self.pass_id = pass_id
        self._seen_requests = set()
        self.jets[pass_id] = {"mul": 0, "div": 0, "addsub": 0, "s": 0.0}

    def end_pass(self) -> None:
        self.pass_id = None

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.pass_id, name, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        span.dur = span.end - span.start
        self._stack.pop()

    def _function(self, name, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        return traced

    def _generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._iterate(name, fn(*args, **kwargs))

        return traced

    def _iterate(self, name, gen):
        # Opened at the consumer's first next(); ``dur`` sums the time spent
        # inside the generator only, not the consumer's work between items.
        span = self._open(name)
        span.attrs["rows"] = 0
        resumed = span.start
        try:
            for item in gen:
                span.dur += perf_counter() - resumed
                span.attrs["rows"] += 1
                self._stack.pop()
                try:
                    yield item
                finally:
                    self._stack.append(span)
                    resumed = perf_counter()
            span.dur += perf_counter() - resumed
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _jet_op(self, kind, fn):
        @functools.wraps(fn)
        def counted(a, b):
            if self._jet_depth:
                return fn(a, b)
            self._jet_depth = 1
            start = perf_counter()
            try:
                return fn(a, b)
            finally:
                totals = self.jets.get(self.pass_id)
                if totals is not None:
                    totals["s"] += perf_counter() - start
                    totals[kind] += 1
                self._jet_depth = 0

        return counted

    def _request(self, name, fn):
        """Span for a service-jet request, marked when its (law, shift,
        order) was already requested in the same pass."""

        @functools.wraps(fn)
        def traced(dist, t0, *rest, **kwargs):
            order = rest[0] if rest else kwargs.get("order", self._default_order)
            key = (name, dist, t0, order)
            span = self._open(name)
            span.attrs["repeat"] = key in self._seen_requests
            self._seen_requests.add(key)
            try:
                return fn(dist, t0, *rest, **kwargs)
            finally:
                self._close(span)

        return traced

    # -- installation -----------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every ``aoiq`` module attribute bound to ``original`` at
        ``replacement``; modules import names directly from each other."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "aoiq" or mod_name.startswith("aoiq.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_class(self, cls, attr, replacement) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        from aoiq import jets, service

        self._default_order = jets.DEFAULT_ORDER
        for mod_name, attr, note in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            name = f"{mod_name.rsplit('.', 1)[1]}.{attr}"
            self._rebind(original, self._function(name, original, note))
        for mod_name, attr in GENERATORS:
            original = getattr(sys.modules[mod_name], attr)
            name = f"{mod_name.rsplit('.', 1)[1]}.{attr}"
            self._rebind(original, self._generator(name, original))
        for cls in (service.Exponential, service.Gamma, service.Deterministic, service.LogNormal):
            self._patch_class(cls, "mgf_jet", self._request("service.mgf_jet", cls.mgf_jet))
            self._patch_class(
                cls, "sample_n", self._function("service.sample_n", cls.sample_n, None)
            )
        base = service.ServiceDistribution
        self._patch_class(
            base,
            "survival_mgf_jet",
            self._request("service.survival_mgf_jet", base.survival_mgf_jet),
        )
        for attr, kind in JET_OPS:
            self._patch_class(jets.Jet, attr, self._jet_op(kind, jets.Jet.__dict__[attr]))

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------------

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")

    def pass_metrics(self, pass_id) -> dict:
        spans = [s for s in self.spans if s.pass_id == pass_id]
        return layer_metrics(spans, self.jets.get(pass_id, {}))


class _Tree:
    """Parent links and per-name statistics of the spans of one pass."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        # span id -> time covered by the nearest spans of other layers below
        # it; they never overlap in a single thread
        self.foreign: dict = {}
        for s in spans:
            parent = self.by_id.get(s.parent)
            if parent is None or _layer(parent) == _layer(s):
                continue
            layer = _layer(parent)
            while parent is not None and _layer(parent) == layer:
                self.foreign[parent.id] = self.foreign.get(parent.id, 0.0) + s.dur
                parent = self.by_id.get(parent.parent)

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def nearest(self, span, name):
        """The closest ancestor of ``span`` called ``name``, or None."""
        parent = self.by_id.get(span.parent)
        while parent is not None and parent.name != name:
            parent = self.by_id.get(parent.parent)
        return parent

    def stats(self, name) -> tuple[int, float, float]:
        """Calls, busy time and self time of the spans called ``name``.

        Busy time skips spans nested in a span of the same name, so
        recursion is not counted twice. Self time is the part of a span
        that spans of other layers below it do not cover.
        """
        spans = self.named(name)
        busy = sum(s.dur for s in spans if self.nearest(s, name) is None)
        own = sum(s.dur - self.foreign.get(s.id, 0.0) for s in spans)
        return len(spans), busy, own


def _layer(span) -> str:
    return span.name.split(".", 1)[0]


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _redundant(tree, spans, keep) -> tuple[int, int]:
    """Spans kept by ``keep`` inside sweeps, and how many of them repeat
    the ``_key`` of an earlier one in the same sweep."""
    seen: dict = {}
    total = repeats = 0
    for s in spans:
        sweep = tree.nearest(s, "sweep.iter_sweep_rows")
        if sweep is None or not keep(s):
            continue
        keys = seen.setdefault(sweep.id, set())
        total += 1
        repeats += s.attrs["_key"] in keys
        keys.add(s.attrs["_key"])
    return total, repeats


def _verdict_counts(out, prefix, spans) -> None:
    for status in ("pass", "skip", "fail"):
        out[f"{prefix}.{status}"] = sum(s.attrs.get(status, 0) for s in spans)


def layer_metrics(spans, jets: dict) -> dict:
    """Per-layer metrics of one traced pass; the names are the
    ``per_layer`` metrics of BENCHMARK.json, bar those run.py adds."""
    tree = _Tree(spans)
    out: dict = {}

    def timed(name, with_self=False):
        calls, busy, own = tree.stats(name)
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = busy
        if with_self:
            out[f"{name}.self_s"] = own

    timed("service.mgf_jet")
    timed("service.survival_mgf_jet")
    requests = tree.named("service.mgf_jet") + tree.named("service.survival_mgf_jet")
    out["service.requests"] = len(requests)
    out["service.repeat_share"] = _share(sum(s.attrs["repeat"] for s in requests), len(requests))
    timed("service.sample_n")

    out["jets.mul.calls"] = jets.get("mul", 0)
    out["jets.div.calls"] = jets.get("div", 0)
    out["jets.addsub.calls"] = jets.get("addsub", 0)
    out["jets.s"] = jets.get("s", 0.0)

    timed("analytic.moments", with_self=True)
    timed("analytic.interdeparture_mgf_jet")
    routes = tree.named("analytic.moments_both_routes")
    out["analytic.route_gap_max"] = max((s.attrs.get("gap", 0.0) for s in routes), default=0.0)

    timed("semimarkov.build_interdeparture_graph")
    timed("semimarkov.transfer_functions")
    suites = tree.named("validate.validation_suite")
    out["semimarkov.graph_gap_max"] = max((s.attrs.get("graph_gap", 0.0) for s in suites), default=0.0)

    runs = tree.named("sim.run")
    timed("sim.run", with_self=True)
    out["sim.arrivals"] = sum(s.attrs.get("arrivals", 0) for s in runs)
    out["sim.run.arrivals_per_s"] = _share(out["sim.arrivals"], out["sim.run.s"])
    out["sim.replications"] = sum(s.attrs.get("replications", 0) for s in runs)
    out["sim.pools_created"] = sum(bool(s.attrs.get("pool")) for s in runs)
    out["sim.counter_identity_violations"] = sum(s.attrs.get("identity_violations", 0) for s in runs)
    timed("sim.empirical_checks")
    _verdict_counts(out, "sim.checks", tree.named("sim.empirical_checks"))

    sweeps = tree.named("sweep.iter_sweep_rows")
    out["sweep.rows"] = sum(s.attrs.get("rows", 0) for s in sweeps)
    out["sweep.iter_sweep_rows.s"] = sum(s.dur for s in sweeps)
    # CSV writing alone: write_rows minus the row generator it drains
    out["sweep.write_rows.s"] = sum(
        w.dur - sum(r.dur for r in sweeps if r.parent == w.id)
        for w in tree.named("sweep.write_rows")
    )
    out["sweep.sim_runs"], repeats = _redundant(tree, runs, lambda s: True)
    out["sweep.redundant_sim_share"] = _share(repeats, out["sweep.sim_runs"])
    # a closed-form block is one policy's moments for every source; it
    # starts with source 0
    out["sweep.analytic_blocks"], repeats = _redundant(
        tree, tree.named("analytic.moments"), lambda s: s.attrs.get("source") == 0
    )
    out["sweep.redundant_analytic_share"] = _share(repeats, out["sweep.analytic_blocks"])

    out["validate.validation_suite.s"] = sum(s.dur for s in suites)
    _verdict_counts(out, "validate.checks", suites)
    out["validate.sim_s"] = sum(
        s.dur for s in runs if tree.nearest(s, "validate.validation_suite") is not None
    )

    timed("cli.main")
    mains = tree.named("cli.main")
    # a main() that raised has no "rc": the user sees a nonzero exit
    out["cli.exit_nonzero"] = sum(s.attrs.get("rc") != 0 for s in mains)
    dumps = [s for s in mains if s.attrs.get("dump")]
    dump_runs = [
        s for s in runs
        if (m := tree.nearest(s, "cli.main")) is not None and m.attrs.get("dump")
    ]
    out["cli.sim_runs_per_dump"] = _share(len(dump_runs), len(dumps))
    timed("config.build_spec")
    out["trace.spans"] = len(spans)
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    """Metric-wise median over passes; every pass reports the same keys."""
    if not per_pass:
        return {}
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
