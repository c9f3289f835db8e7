"""Process-global metrics registry: labelled counters, gauges, histograms.

Everything in this module runs on plain Python floats on purpose: the
instruments sit on the service's request path, where one histogram
observation costs about 12 µs this way, while pushing one value through
the NumPy P² bank costs about ten times that (NumPy's per-call overhead
dominates one-element arrays).  Histogram quantiles past the exact buffer
run a scalar P² marker sketch whose arithmetic is that of one lane of the
vectorised :class:`repro.engine.streaming._P2Bank`.

Design contract, shared with :mod:`repro.obs.tracing`:

* **one kill-switch** — ``REPRO_METRICS=0`` (or ``false``/``off``/``no``)
  at process start makes every factory hand out a *shared no-op object*
  and every already-created instrument refuse to record, so hot kernels
  pay one attribute check per instrumentation site and nothing else.  The
  bench ceiling in ``benchmarks/bench_engine.py`` (``telemetry`` section,
  schema v9) enforces that the disabled path stays within 5% of calling
  the raw kernels;
* **merge-exact deltas** — every instrument accumulates a *pending* delta
  alongside its value.  :meth:`MetricsRegistry.drain_deltas` atomically
  takes the pending state (a picklable dict) and
  :meth:`MetricsRegistry.merge_deltas` folds it into another process's
  registry, summing counters and histogram tallies **exactly once** per
  drained payload — this is how pool workers piggyback their telemetry
  onto the shard results of :func:`repro.engine.run_shards`, which
  :func:`repro.engine.parallel_map` also runs through (a crashed worker's
  undelivered pending state dies with it; the retried attempt records
  afresh, so nothing double-counts);
* **thread-safe instruments** — each counter, gauge and histogram holds
  its own lock across an update, so the service's request threads never
  lose a tally or corrupt a sketch;
* **histogram accuracy regimes** — fixed log buckets are exact tallies;
  quantiles are exact (order-statistic interpolation, NumPy's linear
  rule) while the observation count is within ``exact_buffer`` and P²
  marker estimates beyond.  Worker deltas carry raw samples up to
  :data:`SAMPLE_CAP` per drain; bucket/count/sum merging is always exact,
  sketch feeding is exact up to the cap (census/ensemble chunks observe
  a handful of kernel timings each, far below it).

Exposition: :meth:`MetricsRegistry.to_json` snapshots everything as plain
data and :func:`prometheus_from_snapshot` renders the standard text
format (histograms as cumulative ``_bucket{le=...}`` series plus
``_sum``/``_count``); :meth:`MetricsRegistry.to_prometheus` composes the
two, so a snapshot saved to JSON re-renders bit-identically later
(``repro stats`` relies on this).
"""

from __future__ import annotations

import bisect
import math
import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: Environment kill-switch; any of these values disables telemetry.
METRICS_ENV = "REPRO_METRICS"
_FALSEY = ("0", "false", "off", "no")

#: Default histogram log-buckets (seconds-flavoured: 1µs … 1000s).
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0
)

#: Quantiles a histogram tracks by default.
DEFAULT_QUANTILES = (0.5, 0.9, 0.99)

#: Observation count below which histogram quantiles are exact.
DEFAULT_EXACT_BUFFER = 64

#: Raw observations shipped per histogram per drain (see module docstring).
SAMPLE_CAP = 4096

#: Snapshot schema tag (written into every to_json payload).
SNAPSHOT_SCHEMA = "repro-metrics"
SNAPSHOT_VERSION = 1


class _State:
    """Mutable module state (a class so instruments share one lookup)."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = (
            os.environ.get(METRICS_ENV, "1").strip().lower() not in _FALSEY
        )


_STATE = _State()


def metrics_enabled() -> bool:
    """Whether telemetry records anything in this process."""
    return _STATE.enabled


def set_metrics_enabled(enabled: bool) -> bool:
    """Flip the kill-switch at runtime; returns the previous value.

    Existing instruments stop (or resume) recording immediately; factory
    calls made while disabled return the shared no-op objects.  The
    environment variable is only read once, at import — this is the
    programmatic override (tests, benchmarks).
    """
    previous = _STATE.enabled
    _STATE.enabled = bool(enabled)
    return previous


# --------------------------------------------------------------------------- #
# No-op instruments (shared singletons handed out while disabled)
# --------------------------------------------------------------------------- #


class _NoopTimer:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


class NoopInstrument:
    """Absorbs every instrument method; one shared instance per kind."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time(self) -> _NoopTimer:
        return NOOP_TIMER

    def quantile(self, q: float) -> float:
        return float("nan")


NOOP_TIMER = _NoopTimer()
NOOP_COUNTER = NoopInstrument()
NOOP_GAUGE = NoopInstrument()
NOOP_HISTOGRAM = NoopInstrument()


# --------------------------------------------------------------------------- #
# Instruments
# --------------------------------------------------------------------------- #


class _Timer:
    """Context manager feeding one wall-clock duration into a histogram."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: "Histogram") -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self):
        import time

        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        import time

        self._histogram.observe(time.perf_counter() - self._start)
        return False


class Counter:
    """Monotonically increasing value (plus its pending merge delta)."""

    kind = "counter"
    __slots__ = ("name", "help", "labels", "_value", "_pending", "_lock")

    def __init__(self, name: str, help: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels)
        self._value = 0.0
        self._pending = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if not _STATE.enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount
            self._pending += amount

    def _drain(self) -> Optional[dict]:
        with self._lock:
            if self._pending == 0.0:
                return None
            delta, self._pending = self._pending, 0.0
        return {"value": delta}

    def _merge(self, delta: dict) -> None:
        # Merged amounts stay pending too, so a mid-tier coordinator that
        # is itself drained forwards its workers' contributions upward.
        with self._lock:
            self._value += delta["value"]
            self._pending += delta["value"]

    def _snapshot(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "labels": dict(self.labels),
            "value": self._value,
        }


class Gauge:
    """A value that can go both ways (pool depth, heartbeat timestamps)."""

    kind = "gauge"
    __slots__ = ("name", "help", "labels", "_value", "_dirty", "_lock")

    def __init__(self, name: str, help: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels)
        self._value = 0.0
        self._dirty = False
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        if not _STATE.enabled:
            return
        with self._lock:
            self._value = float(value)
            self._dirty = True

    def inc(self, amount: float = 1.0) -> None:
        if not _STATE.enabled:
            return
        with self._lock:
            self._value += amount
            self._dirty = True

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def _drain(self) -> Optional[dict]:
        with self._lock:
            if not self._dirty:
                return None
            self._dirty = False
            return {"value": self._value}

    def _merge(self, delta: dict) -> None:
        # Gauges are instantaneous readings: the merged (worker) value
        # wins, matching Prometheus' last-write semantics.
        with self._lock:
            self._value = delta["value"]
            self._dirty = True

    def _snapshot(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "labels": dict(self.labels),
            "value": self._value,
        }


class _ScalarP2Bank:
    """One P² 5-marker sketch per quantile, fed scalar-at-a-time.

    The single-position form of the vectorised
    :class:`repro.engine.streaming._P2Bank`, in plain floats: the same
    marker arithmetic in the same order as each of the bank's lanes, so
    every estimate is bit-identical to the bank's, at a few microseconds
    per observation (a request-path histogram observes on every query).
    The ensemble aggregator's tests use it as the per-lane oracle.
    """

    __slots__ = ("_quantiles", "_steps", "_heights", "_positions", "_init", "_fin")

    def __init__(self, quantiles: Sequence[float]) -> None:
        self._quantiles = tuple(quantiles)
        self._steps = [
            (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0) for q in self._quantiles
        ]
        self._heights: List[List[float]] = []
        self._positions: List[List[int]] = []
        self._init: List[float] = []
        self._fin = 0

    def add(self, value: float) -> None:
        self._fin += 1
        if self._fin <= 5:
            self._init.append(value)
            if self._fin == 5:
                self._heights = [sorted(self._init) for _ in self._quantiles]
                self._positions = [[1, 2, 3, 4, 5] for _ in self._quantiles]
            return
        for heights, positions, steps in zip(
            self._heights, self._positions, self._steps
        ):
            _p2_step(heights, positions, steps, value, self._fin)

    def estimate(self, q: float) -> float:
        if self._fin == 0:
            return float("nan")
        if self._fin < 5:
            return _exact_quantile(sorted(self._init), q)
        for quantile, heights in zip(self._quantiles, self._heights):
            if quantile == q:
                return heights[2]
        raise ValueError(
            f"quantile {q} is not tracked by this histogram "
            f"(tracked: {self._quantiles})"
        )


def _p2_step(
    h: List[float], n: List[int], steps: Tuple[float, ...], v: float, count: int
) -> None:
    """Fold finite ``v`` (observation ``count``) into one P² sketch in place."""
    # Locate the cell; clamp the extremes into the end cells.
    count_le = sum(1 for height in h if height <= v)
    if count_le == 0:
        h[0] = v
    elif count_le == 5:
        h[4] = v
    k = min(max(count_le - 1, 0), 3)
    for i in range(k + 1, 5):
        n[i] += 1
    desired = [1.0 + (count - 1.0) * step for step in steps]
    for i in (1, 2, 3):
        d = desired[i] - n[i]
        if d >= 1.0 and n[i + 1] - n[i] > 1:
            s = 1.0
        elif d <= -1.0 and n[i - 1] - n[i] < -1:
            s = -1.0
        else:
            continue
        ni, nim, nip = float(n[i]), float(n[i - 1]), float(n[i + 1])
        hi, him, hip = h[i], h[i - 1], h[i + 1]
        parab = hi + s / (nip - nim) * (
            (ni - nim + s) * (hip - hi) / (nip - ni)
            + (nip - ni - s) * (hi - him) / (ni - nim)
        )
        if him < parab < hip:
            h[i] = parab
        elif s > 0.0:
            h[i] = hi + s * (hip - hi) / (nip - ni)
        else:
            h[i] = hi + s * (him - hi) / (nim - ni)
        n[i] += int(s)


def _exact_quantile(sorted_values: List[float], q: float) -> float:
    """NumPy's linear-interpolation quantile of an already sorted list."""
    k = len(sorted_values)
    if k == 0:
        return float("nan")
    rank = q * (k - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return sorted_values[lo]
    frac = rank - lo
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * frac


class Histogram:
    """Fixed log-buckets + regime-split quantiles (exact, then P² sketch).

    Observations below ``exact_buffer`` are buffered and quantiles are
    exact order statistics; past the buffer the values flush into one P²
    sketch per tracked quantile (bucket tallies, count, sum, min and max
    stay exact forever).  Non-finite observations count toward
    ``count``/``sum``/extrema and the overflow bucket but never feed the
    sketches.  One lock covers every update and read of that state, so
    concurrent request threads neither lose an observation nor catch the
    buffer half-flushed.
    """

    kind = "histogram"
    __slots__ = (
        "name", "help", "labels", "buckets", "quantiles", "exact_buffer",
        "count", "sum", "min", "max", "_bucket_counts", "_buffer", "_bank",
        "_pending", "_lock",
    )

    def __init__(
        self,
        name: str,
        help: str,
        labels: Dict[str, str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        exact_buffer: int = DEFAULT_EXACT_BUFFER,
    ) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        self.quantiles = tuple(float(q) for q in quantiles)
        self.exact_buffer = int(exact_buffer)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        # One tally per bound plus the +inf overflow slot.
        self._bucket_counts = [0] * (len(self.buckets) + 1)
        self._buffer: Optional[List[float]] = []
        self._bank: Optional[_ScalarP2Bank] = None
        self._pending = self._empty_delta()
        self._lock = threading.Lock()

    def _empty_delta(self) -> dict:
        return {
            "count": 0,
            "sum": 0.0,
            "min": float("inf"),
            "max": float("-inf"),
            "bucket_counts": [0] * (len(self.buckets) + 1),
            "samples": [],
        }

    def observe(self, value: float) -> None:
        if not _STATE.enabled:
            return
        value = float(value)
        with self._lock:
            self._record(value)
            pending = self._pending
            pending["count"] += 1
            pending["sum"] += value
            if value < pending["min"]:
                pending["min"] = value
            if value > pending["max"]:
                pending["max"] = value
            pending["bucket_counts"][self._bucket_index(value)] += 1
            if len(pending["samples"]) < SAMPLE_CAP:
                pending["samples"].append(value)

    def time(self) -> _Timer:
        """``with histogram.time(): ...`` observes the block's wall time."""
        if not _STATE.enabled:
            return NOOP_TIMER
        return _Timer(self)

    def _bucket_index(self, value: float) -> int:
        if value != value:  # NaN lands in the overflow slot
            return len(self.buckets)
        return bisect.bisect_left(self.buckets, value)

    def _record(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._bucket_counts[self._bucket_index(value)] += 1
        if not math.isfinite(value):
            return
        if self._buffer is not None:
            self._buffer.append(value)
            if len(self._buffer) > self.exact_buffer:
                self._flush_buffer()
            return
        self._feed_bank(value)

    def _flush_buffer(self) -> None:
        buffered, self._buffer = self._buffer, None
        for value in buffered:
            self._feed_bank(value)

    def _feed_bank(self, value: float) -> None:
        if self._bank is None:
            self._bank = _ScalarP2Bank(self.quantiles)
        self._bank.add(value)

    # ---------------------------- queries ----------------------------- #

    def quantile(self, q: float) -> float:
        """The q-quantile estimate under the regime-split contract."""
        q = float(q)
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantiles live in [0, 1]")
        with self._lock:
            return self._estimate(q)

    def _estimate(self, q: float) -> float:
        if self._buffer is not None:
            return _exact_quantile(sorted(self._buffer), q)
        # The buffer flushes only with values in it, so the bank exists.
        return self._bank.estimate(q)

    # ------------------------- drain / merge -------------------------- #

    def _drain(self) -> Optional[dict]:
        with self._lock:
            if self._pending["count"] == 0:
                return None
            delta, self._pending = self._pending, self._empty_delta()
        delta["buckets"] = self.buckets
        delta["quantiles"] = self.quantiles
        return delta

    def _merge(self, delta: dict) -> None:
        if tuple(delta.get("buckets", self.buckets)) != self.buckets:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge deltas with "
                "different bucket bounds"
            )
        with self._lock:
            self.count += delta["count"]
            self.sum += delta["sum"]
            if delta["min"] < self.min:
                self.min = delta["min"]
            if delta["max"] > self.max:
                self.max = delta["max"]
            for index, tally in enumerate(delta["bucket_counts"]):
                self._bucket_counts[index] += tally
            for value in delta["samples"]:
                if math.isfinite(value):
                    if self._buffer is not None:
                        self._buffer.append(value)
                        if len(self._buffer) > self.exact_buffer:
                            self._flush_buffer()
                    else:
                        self._feed_bank(value)
            pending = self._pending
            pending["count"] += delta["count"]
            pending["sum"] += delta["sum"]
            if delta["min"] < pending["min"]:
                pending["min"] = delta["min"]
            if delta["max"] > pending["max"]:
                pending["max"] = delta["max"]
            for index, tally in enumerate(delta["bucket_counts"]):
                pending["bucket_counts"][index] += tally
            room = SAMPLE_CAP - len(pending["samples"])
            if room > 0:
                pending["samples"].extend(delta["samples"][:room])

    def _snapshot(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "kind": self.kind,
                "help": self.help,
                "labels": dict(self.labels),
                "count": self.count,
                "sum": self.sum,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None,
                "buckets": list(self.buckets),
                "bucket_counts": list(self._bucket_counts),
                "quantiles": {
                    str(q): self._estimate(q) for q in self.quantiles
                },
            }


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create home of every instrument, keyed by (name, labels)."""

    def __init__(self) -> None:
        self._instruments: Dict[tuple, object] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, help: str, labels: Dict[str, str], **options):
        if not _STATE.enabled:
            return _NOOPS[cls.kind]
        key = (name, tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = cls(name, help, labels, **options)
                    self._instruments[key] = instrument
        if not isinstance(instrument, cls):
            raise ValueError(
                f"metric {name!r} is already registered as a "
                f"{instrument.kind}, not a {cls.kind}"
            )
        return instrument

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        exact_buffer: int = DEFAULT_EXACT_BUFFER,
        **labels,
    ) -> Histogram:
        return self._get(
            Histogram, name, help, labels,
            buckets=buckets, quantiles=quantiles, exact_buffer=exact_buffer,
        )

    def __len__(self) -> int:
        return len(self._instruments)

    def clear(self) -> None:
        """Drop every instrument (tests and cold-start benchmarks)."""
        with self._lock:
            self._instruments.clear()

    # ------------------------- drain / merge -------------------------- #

    def drain_deltas(self) -> Optional[dict]:
        """Take (and reset) every instrument's pending delta.

        Returns a picklable ``{(name, labels_tuple): payload}`` dict, or
        ``None`` when nothing changed since the last drain — the envelope
        pool workers piggyback onto their chunk results.
        """
        if not _STATE.enabled:
            return None
        out = {}
        with self._lock:
            instruments = list(self._instruments.items())
        for key, instrument in instruments:
            delta = instrument._drain()
            if delta is not None:
                delta["kind"] = instrument.kind
                delta["help"] = instrument.help
                out[key] = delta
        return out or None

    def merge_deltas(self, deltas: Optional[dict]) -> None:
        """Fold a :meth:`drain_deltas` payload into this registry.

        Missing instruments are created with the payload's configuration,
        so a coordinator that never touched a metric still aggregates its
        workers' series.  A ``None`` payload is a no-op.
        """
        if not deltas or not _STATE.enabled:
            return
        for (name, label_items), payload in deltas.items():
            kind = payload["kind"]
            labels = dict(label_items)
            if kind == "histogram":
                instrument = self.histogram(
                    name,
                    help=payload.get("help", ""),
                    buckets=payload.get("buckets", DEFAULT_BUCKETS),
                    quantiles=payload.get("quantiles", DEFAULT_QUANTILES),
                    **labels,
                )
            elif kind == "gauge":
                instrument = self.gauge(name, help=payload.get("help", ""), **labels)
            else:
                instrument = self.counter(name, help=payload.get("help", ""), **labels)
            instrument._merge(payload)

    # --------------------------- exposition --------------------------- #

    def to_json(self) -> dict:
        """Plain-data snapshot of every instrument (JSON-serialisable)."""
        with self._lock:
            instruments = list(self._instruments.values())
        return {
            "schema": SNAPSHOT_SCHEMA,
            "version": SNAPSHOT_VERSION,
            "enabled": _STATE.enabled,
            "metrics": [
                instrument._snapshot() for instrument in instruments
            ],
        }

    def to_prometheus(self) -> str:
        """The Prometheus text exposition of the current state."""
        return prometheus_from_snapshot(self.to_json())


_NOOPS = {
    "counter": NOOP_COUNTER,
    "gauge": NOOP_GAUGE,
    "histogram": NOOP_HISTOGRAM,
}


# --------------------------------------------------------------------------- #
# Prometheus text rendering (pure function of a snapshot)
# --------------------------------------------------------------------------- #


def _label_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _escape(value) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_from_snapshot(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.to_json` snapshot as exposition text.

    Families are emitted name-sorted with one ``# HELP``/``# TYPE`` header
    each; histograms follow the standard cumulative-bucket convention
    (``name_bucket{le="..."}`` plus ``name_sum`` / ``name_count``).
    Quantile estimates live only in the JSON snapshot — Prometheus users
    derive quantiles from the buckets via ``histogram_quantile``.
    """
    families: Dict[str, List[dict]] = {}
    for entry in snapshot.get("metrics", []):
        families.setdefault(entry["name"], []).append(entry)
    lines: List[str] = []
    for name in sorted(families):
        members = families[name]
        kind = members[0]["kind"]
        help_text = next((m["help"] for m in members if m.get("help")), "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for member in sorted(
            members, key=lambda m: sorted(m["labels"].items())
        ):
            labels = member["labels"]
            if kind == "histogram":
                running = 0
                for bound, tally in zip(
                    member["buckets"], member["bucket_counts"]
                ):
                    running += tally
                    bucket_labels = dict(labels, le=_format_value(bound))
                    lines.append(
                        f"{name}_bucket{_label_text(bucket_labels)} {running}"
                    )
                total = running + member["bucket_counts"][-1]
                inf_labels = dict(labels, le="+Inf")
                lines.append(f"{name}_bucket{_label_text(inf_labels)} {total}")
                lines.append(
                    f"{name}_sum{_label_text(labels)} "
                    f"{_format_value(member['sum'])}"
                )
                lines.append(f"{name}_count{_label_text(labels)} {total}")
            else:
                lines.append(
                    f"{name}{_label_text(labels)} "
                    f"{_format_value(member['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------------- #
# The process-global registry + module-level conveniences
# --------------------------------------------------------------------------- #


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry every instrumentation site records into."""
    return _REGISTRY


def counter(name: str, help: str = "", **labels) -> Counter:
    """Get-or-create a counter in the global registry."""
    return _REGISTRY.counter(name, help=help, **labels)


def gauge(name: str, help: str = "", **labels) -> Gauge:
    """Get-or-create a gauge in the global registry."""
    return _REGISTRY.gauge(name, help=help, **labels)


def histogram(name: str, help: str = "", **options) -> Histogram:
    """Get-or-create a histogram in the global registry."""
    return _REGISTRY.histogram(name, help=help, **options)


#: The one histogram family every engine kernel reports wall seconds into.
KERNEL_SECONDS = "repro_kernel_seconds"
KERNEL_SECONDS_HELP = "Wall seconds per vectorised-kernel call"


def timed_kernel(name: str):
    """Decorator: time each call into ``repro_kernel_seconds{kernel=name}``.

    The wrapper costs one flag check when telemetry is disabled and keeps
    the raw function reachable as ``__wrapped__`` — the benchmark overhead
    ceiling compares the two.
    """
    import functools

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _STATE.enabled:
                return fn(*args, **kwargs)
            with _REGISTRY.histogram(
                KERNEL_SECONDS, help=KERNEL_SECONDS_HELP, kernel=name
            ).time():
                return fn(*args, **kwargs)

        return wrapper

    return decorate
