"""Span tracer for the traced benchmark run.

The tracer wraps public module-level functions of the brandalign package
from outside: every module binding that refers to a wrapped function is
replaced, so callers that imported the name into their own namespace
(``repro`` binds evaluate's functions, ``model`` binds
``build_epoch_stream``) are traced too. Nothing under ``src/`` is edited and
every binding is restored on ``uninstall``.

A span records its duration and its self time (duration minus the time of
the spans it encloses). Spans are aggregated in memory by (scope, name),
where the scope is the benchmark phase ("setup", "timed" or "check"), and
turned into per-layer metrics at the end of the run.

A wrapped function that is missing, or whose arguments or result no longer
have the shape the wrapper reads, is recorded; the metrics that depend on it
are reported as absent while the call itself still runs untouched.
"""

import contextlib
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("synth", "data", "pairs", "model", "evaluate", "align", "repro")

_clock = time.perf_counter


@dataclass
class Agg:
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0
    units: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, source_brand: str):
        self.source_brand = source_brand
        self.scope = "setup"
        self.aggs: dict[tuple[str, str], Agg] = {}
        self.missing: set[str] = set()     # wrapped functions not found
        self.reshaped: set[str] = set()    # functions whose shape changed
        self.paused = False
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def enter(self) -> list:
        frame = [_clock(), 0.0]
        self._stack.append(frame)
        return frame

    def leave(self, frame: list, name: str, units: dict | None = None):
        end = _clock()
        self._stack.pop()
        dur = end - frame[0]
        if self._stack:
            self._stack[-1][1] += dur
        key = (self.scope, name)
        agg = self.aggs.get(key)
        if agg is None:
            agg = self.aggs[key] = Agg()
        agg.count += 1
        agg.total += dur
        agg.self_time += dur - frame[1]
        if units:
            for unit, n in units.items():
                agg.units[unit] = agg.units.get(unit, 0) + n

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        frame = self.enter()
        try:
            yield
        finally:
            self.leave(frame, name)

    # -- installation -------------------------------------------------------

    def install(self):
        for label, names, make in _SPECS:
            module_name, attr = label.split(".")
            module = importlib.import_module(f"brandalign.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.add(label)
                continue
            wrapper = make(self, original, label, names[0])
            for mod in [m for n, m in list(sys.modules.items())
                        if n == "brandalign" or n.startswith("brandalign.")]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()

    # -- queries ------------------------------------------------------------

    def agg(self, name: str, scope: str | None = None) -> Agg:
        """Spans named `name` or `name.<kind>`, in one scope or all."""
        out = Agg()
        for (sc, nm), a in self.aggs.items():
            if ((nm == name or nm.startswith(name + "."))
                    and (scope is None or sc == scope)):
                out.count += a.count
                out.total += a.total
                out.self_time += a.self_time
                for unit, n in a.units.items():
                    out.units[unit] = out.units.get(unit, 0) + n
        return out

    def layer_self(self, layer: str, scope: str) -> float:
        return sum(a.self_time for (sc, nm), a in self.aggs.items()
                   if sc == scope and nm.split(".", 1)[0] == layer)


# ---------------------------------------------------------------------------
# wrapper factories

def _plain(describe=None):
    """Time every call as one span. describe(tracer, arguments, result)
    returns (span name or None for the spec's first name, units) and raises
    if the shape it reads has changed."""
    def make(tracer, fn, label, name):
        sig = inspect.signature(fn) if describe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame = tracer.enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.leave(frame, name)
                raise
            span_name, units = name, None
            if describe is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span_name, units = describe(tracer, bound.arguments, result)
                    span_name = span_name or name
                except Exception:
                    tracer.reshaped.add(label)
            tracer.leave(frame, span_name, units)
            return result
        return wrapper
    return make


def _stream(tracer, fn, label, name):
    """build_epoch_stream: every next() on the returned stream is a span."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stream = fn(*args, **kwargs)
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            skip_counter = bound.arguments["skip_counter"]
        except Exception:
            tracer.reshaped.add(label)
            skip_counter = None
        return _TracedStream(tracer, iter(stream), skip_counter, name)
    return wrapper


class _TracedStream:
    _ONE = {"pairs": 1}

    def __init__(self, tracer, inner, skip_counter, name):
        self.tracer = tracer
        self.inner = inner
        self.skip_counter = skip_counter
        self.name = name

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        frame = tracer.enter()
        try:
            item = next(self.inner)
        except StopIteration:
            skipped = None
            if self.skip_counter is not None:
                skipped = {"skipped": int(self.skip_counter[0])}
            tracer.leave(frame, self.name, skipped)
            raise
        tracer.leave(frame, self.name, self._ONE)
        return item


def _curve_factory(tracer, fn, label, name):
    """repro's curve-sink factory: the sinks it returns become spans."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sink = fn(*args, **kwargs)

        def traced_sink(*a, **kw):
            frame = tracer.enter()
            try:
                return sink(*a, **kw)
            finally:
                tracer.leave(frame, name)
        return traced_sink
    return wrapper


def _train_kind(tracer, args, result):
    if args["cfg"].lam > 0:
        kind = "target_da"
    elif args["train_sessions"].brand == tracer.source_brand:
        kind = "source"
    else:
        kind = "target_plain"
    return f"model.train.{kind}", None


def _eval_kind(cross):
    def describe(tracer, args, report):
        if args["pool"] == "global":
            kind = "global"
        elif args["mode"] == "model":
            kind = "model"
        else:
            kind = "cross_brand" if cross else "in_brand"
        first = next(iter(report.rows.values()))
        meta = report.metadata
        return f"evaluate.{kind}", {
            "events": first["n_events"],
            "skipped": meta.get("skipped_events", 0),
            "missing": meta["missing_candidates"],
        }
    return describe


def _count_result(unit):
    return lambda tracer, args, result: (None, {unit: len(result)})


def _count_arg(unit, arg):
    return lambda tracer, args, result: (None, {unit: len(args[arg])})


# (wrapped function, span names it records, wrapper factory); the first
# component of a span name is the layer the span is charged to
_EVAL_NAMES = ("evaluate.model", "evaluate.global")
_SPECS = [
    ("synth.generate_world", ("synth.world",), _plain()),
    ("synth.generate_sessions", ("synth.sessions",), _plain(_count_result("sessions"))),
    ("synth.write_sessions", ("synth.write_sessions",),
     _plain(_count_arg("sessions", "session_set"))),
    ("synth.write_catalog", ("synth.write_catalog",), _plain()),
    ("synth.write_mapping", ("synth.write_mapping",), _plain()),
    ("data.load_catalog", ("data.load_catalog",), _plain()),
    ("data.load_sessions", ("data.load_sessions",), _plain(_count_result("sessions"))),
    ("data.load_mapping", ("data.load_mapping",), _plain()),
    ("data.split_sessions", ("data.split",), _plain()),
    ("pairs.build_epoch_stream", ("pairs.stream",), _stream),
    ("model.train", ("model.train",), _plain(_train_kind)),
    ("model.gradients", ("model.gradients",), _plain()),
    ("model.export_embeddings", ("model.export",), _plain()),
    ("model.write_embeddings", ("model.write_embeddings",), _plain()),
    ("model.read_embeddings", ("model.read_embeddings",), _plain()),
    ("evaluate.evaluate", ("evaluate.in_brand",) + _EVAL_NAMES,
     _plain(_eval_kind(False))),
    ("evaluate.cross_brand_evaluate", ("evaluate.cross_brand",) + _EVAL_NAMES,
     _plain(_eval_kind(True))),
    ("evaluate.make_events", ("evaluate.make_events",), _plain(_count_result("events"))),
    ("align.common_rows", ("align.common_rows",), _plain()),
    ("align.fit_linear_projection", ("align.fit_lp",), _plain()),
    ("align.fit_procrustes", ("align.fit_procrustes",), _plain()),
    ("align.apply_projection", ("align.apply",), _plain()),
    ("align.write_projection", ("align.write_projection",), _plain()),
    ("align.read_projection", ("align.read_projection",), _plain()),
    ("repro.run_repro", ("repro.run",), _plain()),
    ("repro._curve_sink", ("evaluate.curve",), _curve_factory),
]


def calibrate_overhead(n: int = 20_000) -> float:
    """Seconds one span adds, from a wrapped no-op against the bare call."""
    tracer = Tracer(source_brand="")

    def noop():
        return None

    wrapped = _plain()(tracer, noop, "calibrate", "calibrate")
    best = float("inf")
    for _ in range(3):
        t0 = _clock()
        for _ in range(n):
            noop()
        t1 = _clock()
        for _ in range(n):
            wrapped()
        t2 = _clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)


# ---------------------------------------------------------------------------
# per-layer metrics

class _Absent(Exception):
    pass


def layer_metrics(tracer: Tracer, walls: list) -> tuple[dict, dict]:
    """Per-layer metrics from the aggregates.

    Rates use every span of the run (set-up, timed phase and checks). Counts
    and training times are per pass of the run: its one traced set-up, one
    repetition of the timed phase and its check, so they do not grow with
    the number of repetitions that fit in the run's seconds. Self times are
    per repetition of the timed phase, and shares are of its traced wall
    time. Returns (metrics as {name: (value, unit)}, absent as
    {name: reason}).
    """
    metrics: dict = {}
    absent: dict = {}
    traced_wall_s = sum(walls)
    reps = len(walls)

    def need(span_name, scope=None):
        for label in [label for label, names, _ in _SPECS
                      if any(span_name == n or span_name.startswith(n + ".")
                             for n in names)]:
            if label in tracer.missing:
                raise _Absent(f"{label} is missing")
            if label in tracer.reshaped:
                raise _Absent(f"{label} changed shape")
        a = tracer.agg(span_name, scope)
        if a.count == 0:
            raise _Absent("not exercised by this workload")
        return a

    def per_unit(span_name, unit, scale):
        a = need(span_name)
        n = a.units.get(unit, 0)
        if n <= 0:
            raise _Absent(f"no {unit} counted")
        return scale * a.total / n

    def per_call(span_name, scale):
        a = need(span_name)
        return scale * a.total / a.count

    def per_pass(span_name):
        a = tracer.agg(span_name)
        timed = tracer.agg(span_name, "timed")
        out = Agg(count=a.count,
                  total=a.total - timed.total + timed.total / reps,
                  self_time=a.self_time - timed.self_time + timed.self_time / reps)
        out.units = {unit: n - timed.units.get(unit, 0) + timed.units.get(unit, 0) / reps
                     for unit, n in a.units.items()}
        return out

    def once(span_name):
        need(span_name)
        return per_pass(span_name)

    def pairs_emitted():
        return once("pairs.stream").units.get("pairs", 0)

    def update_us():
        return 1e6 * once("model.train").self_time / pairs_emitted()

    def eval_counts(unit):
        total = 0
        seen = False
        for kind in ("in_brand", "cross_brand", "model", "global"):
            a = per_pass(f"evaluate.{kind}")
            if a.count:
                seen = True
                total += a.units.get(unit, 0)
        if not seen:
            need("evaluate.in_brand")
        return total

    def useful_ratio():
        a = once("pairs.stream")
        emitted = a.units.get("pairs", 0)
        skipped = a.units.get("skipped", 0)
        if emitted + skipped == 0:
            raise _Absent("no pairs")
        return emitted / (emitted + skipped)

    def skipped_pairs():
        return once("pairs.stream").units.get("skipped", 0)

    def timed_self(layer):
        if not any(sc == "timed" and nm.split(".", 1)[0] == layer
                   for sc, nm in tracer.aggs):
            raise _Absent("not in this workload's timed phase")
        return tracer.layer_self(layer, "timed") / reps

    def share(*layers):
        return reps * sum(timed_self(layer) for layer in layers) / traced_wall_s

    def accounted():
        return sum(tracer.layer_self(layer, "timed")
                   for layer in LAYERS) / traced_wall_s

    table = [
        ("pairs.stream_us_per_pair", "us",
         lambda: per_unit("pairs.stream", "pairs", 1e6)),
        ("pairs.pairs_emitted", "count", pairs_emitted),
        ("pairs.pairs_skipped", "count", skipped_pairs),
        ("pairs.useful_ratio", "ratio", useful_ratio),
        ("model.gradients_us_per_pair", "us",
         lambda: per_call("model.gradients", 1e6)),
        ("model.update_us_per_pair", "us", update_us),
        ("model.train_s.source", "s",
         lambda: once("model.train.source").total),
        ("model.train_s.target_plain", "s",
         lambda: once("model.train.target_plain").total),
        ("model.train_s.target_da", "s",
         lambda: once("model.train.target_da").total),
        ("model.export_ms_per_catalog", "ms",
         lambda: per_call("model.export", 1e3)),
        ("model.write_embeddings_ms", "ms",
         lambda: per_call("model.write_embeddings", 1e3)),
        ("model.read_embeddings_ms", "ms",
         lambda: per_call("model.read_embeddings", 1e3)),
        ("evaluate.in_brand_us_per_event", "us",
         lambda: per_unit("evaluate.in_brand", "events", 1e6)),
        ("evaluate.model_us_per_event", "us",
         lambda: per_unit("evaluate.model", "events", 1e6)),
        ("evaluate.cross_brand_us_per_event", "us",
         lambda: per_unit("evaluate.cross_brand", "events", 1e6)),
        ("evaluate.global_us_per_event", "us",
         lambda: per_unit("evaluate.global", "events", 1e6)),
        ("evaluate.curve_ms_per_checkpoint", "ms",
         lambda: per_call("evaluate.curve", 1e3)),
        ("evaluate.make_events_us_per_event", "us",
         lambda: per_unit("evaluate.make_events", "events", 1e6)),
        ("evaluate.skipped_events", "count", lambda: eval_counts("skipped")),
        ("evaluate.missing_candidates", "count", lambda: eval_counts("missing")),
        ("data.load_catalog_ms", "ms", lambda: per_call("data.load_catalog", 1e3)),
        ("data.load_mapping_ms", "ms", lambda: per_call("data.load_mapping", 1e3)),
        ("data.split_ms", "ms", lambda: per_call("data.split", 1e3)),
        ("data.load_sessions_us_per_session", "us",
         lambda: per_unit("data.load_sessions", "sessions", 1e6)),
        ("synth.world_ms", "ms", lambda: per_call("synth.world", 1e3)),
        ("synth.sessions_us_per_session", "us",
         lambda: per_unit("synth.sessions", "sessions", 1e6)),
        ("synth.write_sessions_us_per_session", "us",
         lambda: per_unit("synth.write_sessions", "sessions", 1e6)),
        ("align.fit_lp_ms", "ms", lambda: per_call("align.fit_lp", 1e3)),
        ("align.fit_procrustes_ms", "ms",
         lambda: per_call("align.fit_procrustes", 1e3)),
        ("align.apply_ms", "ms", lambda: per_call("align.apply", 1e3)),
        ("align.write_projection_ms", "ms",
         lambda: per_call("align.write_projection", 1e3)),
        ("align.read_projection_ms", "ms",
         lambda: per_call("align.read_projection", 1e3)),
    ]
    table += [(f"{layer}.self_s", "s", (lambda layer=layer: timed_self(layer)))
              for layer in LAYERS]
    timed_spans = sum(a.count for (scope, _), a in tracer.aggs.items()
                      if scope == "timed")
    table += [
        ("share.pairs_model", "ratio", lambda: share("pairs", "model")),
        ("trace.accounted_share", "ratio", accounted),
        ("trace.overhead_share_est", "ratio",
         lambda: timed_spans * calibrate_overhead() / traced_wall_s),
        ("trace.wall_s", "s", lambda: traced_wall_s / reps),
        ("bench.self_s", "s",
         lambda: tracer.agg("bench.timed", "timed").self_time / reps),
    ]

    for name, unit, fn in table:
        try:
            metrics[name] = (float(fn()), unit)
        except _Absent as exc:
            absent[name] = str(exc)
    return metrics, absent
