"""Span tracer for the benchmark's traced mode.

The tracer wraps public hollowlink functions at the module attributes
their callers look up (``hollowlink.twtt.extract_delay`` is the name
``run_session`` calls), so the program runs unchanged while each call
records a span: name, parent span, start, end and a few counts. Spans
stay in memory; ``layer_metrics`` derives the per-layer figures from one
round's spans, and ``run.py`` writes all spans out as JSON at the end.
"""

from __future__ import annotations

import importlib
import os
import statistics
import threading
import time
import tracemalloc

from hollowlink.coincidence import DelayExtractionConfig

_WIDE_RANGE_PS = DelayExtractionConfig().search_range_ps


def _streams_out(args, result):
    return {"tags": sum(len(s) for s in result)}


def _dead_time(args, result):
    return {"tags_in": len(args[0]), "tags_out": len(result)}


def _csv_written(args, result):
    return {"tags": sum(len(s) for s in args[1])}


def _binary_written(args, result):
    return {"tags": len(args[1])}


def _binary_read(args, result):
    return {"tags": len(result)}


def _extract(args, result):
    cfg = args[2] if len(args) > 2 else None
    wide = cfg is None or cfg.search_range_ps >= _WIDE_RANGE_PS
    return {"wide": int(wide)}


def _session(args, result):
    return {"intervals": len(result)}


def _samples(args, result):
    return {"samples": int(args[0].x_s.size)}


_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class RssSampler:
    """Peak resident memory a call adds, sampled every millisecond from a
    helper thread. Used where tracemalloc cannot be: it slows the
    simulator's pure-Python dead-time loop about twentyfold."""

    def __enter__(self):
        self.base = self.peak = _rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self):
        while not self._stop.wait(0.001):
            self.peak = max(self.peak, _rss_bytes())

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _rss_bytes())
        self.added_mb = (self.peak - self.base) / 2**20


# (module, attribute, span name, count probe, memory: "rss", "tracemalloc"
# or None). Attributes are the names the callers resolve at call time;
# cli.py binds several functions by name at import, so those are wrapped
# on cli itself.
WRAPPED = (
    ("hollowlink.cli", "run_scenario", "event_sim.run_scenario", _streams_out, "rss"),
    ("hollowlink.twtt", "run_scenario", "event_sim.run_scenario", _streams_out, "rss"),
    ("hollowlink.event_sim", "apply_dead_time", "event_sim.apply_dead_time", _dead_time, None),
    ("hollowlink.cli", "write_timetags_csv", "event_sim.write_csv", _csv_written, None),
    ("hollowlink.cli", "write_timetags_binary", "event_sim.write_binary", _binary_written, None),
    ("hollowlink.event_sim", "read_timetags_csv", "event_sim.read_csv", _streams_out, None),
    ("hollowlink.event_sim", "read_timetags_binary", "event_sim.read_binary", _binary_read, None),
    ("hollowlink.twtt", "extract_delay", "coincidence.extract_delay", _extract, "tracemalloc"),
    ("hollowlink.coincidence", "extract_delay", "coincidence.extract_delay", _extract, "tracemalloc"),
    ("hollowlink.coincidence", "fit_peak", "coincidence.fit_peak", None, None),
    ("hollowlink.coincidence", "empirical_car", "coincidence.empirical_car", None, None),
    ("hollowlink.cli", "run_session", "twtt.run_session", _session, None),
    ("hollowlink.cli", "car", "coexistence.car", None, None),
    ("hollowlink.coexistence", "car", "coexistence.car", None, None),
    ("hollowlink.cli", "max_distance", "coexistence.max_distance", None, None),
    ("hollowlink.stability", "adev", "stability.adev", _samples, None),
    ("hollowlink.stability", "tdev", "stability.tdev", _samples, None),
    ("hollowlink.config", "load_preset", "config.load", None, None),
    ("hollowlink.config", "load_config", "config.load", None, None),
)

NAME, PARENT, START, END, COUNTS = range(5)


class Tracer:
    """Records spans ``[name, parent index, start ns, end ns, counts]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def call(self, name, fn, args=(), kwargs=None, probe=None, memory=None):
        """Run ``fn`` inside a span; ``memory`` adds the peak memory the
        call allocates, in MB, to the span's counts."""
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, 0, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter_ns()
        try:
            if memory == "rss":
                with RssSampler() as sampler:
                    result = fn(*args, **(kwargs or {}))
                peak_mb = sampler.added_mb
            elif memory == "tracemalloc":
                tracemalloc.start()
                try:
                    result = fn(*args, **(kwargs or {}))
                    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                finally:
                    tracemalloc.stop()
            else:
                result = fn(*args, **(kwargs or {}))
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.pop()
        counts = probe(args, result) if probe else {}
        if memory:
            counts["peak_mb"] = peak_mb
        span[COUNTS] = counts or None
        return result

    def _wrapper(self, name, fn, probe, memory):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, probe, memory)

        return traced

    def install(self):
        for module_name, attr, name, probe, memory in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original, probe, memory))

    def uninstall(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


PER_LAYER = (
    ("event_sim.run_scenario_s", "s"),
    ("event_sim.tags_per_s", "1/s"),
    ("event_sim.generate_self_s", "s"),
    ("event_sim.apply_dead_time_s", "s"),
    ("event_sim.dead_time_tags_per_s", "1/s"),
    ("event_sim.dead_time_kept_ratio", "ratio"),
    ("event_sim.run_scenario_peak_mb", "MB"),
    ("event_sim.write_csv_s", "s"),
    ("event_sim.read_csv_s", "s"),
    ("event_sim.write_binary_s", "s"),
    ("event_sim.read_binary_s", "s"),
    ("event_sim.csv_tags_per_s", "1/s"),
    ("coincidence.extract_delay_calls", "count"),
    ("coincidence.extract_delay_s", "s"),
    ("coincidence.extract_delay_ms_p50", "ms"),
    ("coincidence.extract_delay_ms_p95", "ms"),
    ("coincidence.wide_search_s", "s"),
    ("coincidence.extract_delay_peak_mb", "MB"),
    ("coincidence.fit_peak_calls", "count"),
    ("coincidence.weighted_mean_calls", "count"),
    ("coincidence.empirical_car_s", "s"),
    ("twtt.run_session_self_s", "s"),
    ("twtt.intervals", "count"),
    ("coexistence.car_calls", "count"),
    ("coexistence.car_us_per_cell", "us"),
    ("coexistence.max_distance_ms", "ms"),
    ("coexistence.max_distance_car_calls", "count"),
    ("car_cells_per_s", "cells/s"),
    ("stability.adev_s", "s"),
    ("stability.tdev_s", "s"),
    ("stability.samples_per_s", "1/s"),
    ("cli.self_s", "s"),
    ("config.load_s", "s"),
    ("trace.overhead_s", "s"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer figures of one round. A layer the round never called
    reads 0; self time is a span's duration less its direct children's."""
    dur = [(s[END] - s[START]) * 1e-9 for s in spans]
    child_time = [0.0] * len(spans)
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[i]
            children[s[PARENT]].append(i)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def ids(name):
        return by_name.get(name, [])

    def total(name):
        return sum(dur[i] for i in ids(name))

    def self_time(name):
        return sum(dur[i] - child_time[i] for i in ids(name))

    def count(name, key):
        return sum((spans[i][COUNTS] or {}).get(key, 0) for i in ids(name))

    def peak(name):
        return max([(spans[i][COUNTS] or {}).get("peak_mb", 0.0) for i in ids(name)] or [0.0])

    sim_s = total("event_sim.run_scenario")
    dead_s = total("event_sim.apply_dead_time")
    write_csv_s = total("event_sim.write_csv")
    read_csv_s = total("event_sim.read_csv")
    extract = ids("coincidence.extract_delay")
    narrow_ms = sorted(dur[i] * 1e3 for i in extract if not spans[i][COUNTS]["wide"])
    cars = ids("coexistence.car")
    max_dist = ids("coexistence.max_distance")
    in_max_dist = set(max_dist)
    scan_spans = ids("cli.car-scan")
    scan_cells = sum(
        1 for i in scan_spans for c in children[i] if spans[c][NAME] == "coexistence.car"
    )
    stab_s = total("stability.adev") + total("stability.tdev")
    cli_spans = [i for i, s in enumerate(spans) if s[NAME].startswith("cli.")]

    def pct(values, q):
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0]
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

    return {
        "event_sim.run_scenario_s": sim_s,
        "event_sim.tags_per_s": _ratio(count("event_sim.run_scenario", "tags"), sim_s),
        "event_sim.generate_self_s": self_time("event_sim.run_scenario"),
        "event_sim.apply_dead_time_s": dead_s,
        "event_sim.dead_time_tags_per_s": _ratio(
            count("event_sim.apply_dead_time", "tags_in"), dead_s
        ),
        "event_sim.dead_time_kept_ratio": _ratio(
            count("event_sim.apply_dead_time", "tags_out"),
            count("event_sim.apply_dead_time", "tags_in"),
        ),
        "event_sim.run_scenario_peak_mb": peak("event_sim.run_scenario"),
        "event_sim.write_csv_s": write_csv_s,
        "event_sim.read_csv_s": read_csv_s,
        "event_sim.write_binary_s": total("event_sim.write_binary"),
        "event_sim.read_binary_s": total("event_sim.read_binary"),
        "event_sim.csv_tags_per_s": _ratio(
            count("event_sim.write_csv", "tags"), write_csv_s + read_csv_s
        ),
        "coincidence.extract_delay_calls": len(extract),
        "coincidence.extract_delay_s": total("coincidence.extract_delay"),
        "coincidence.extract_delay_ms_p50": pct(narrow_ms, 50),
        "coincidence.extract_delay_ms_p95": pct(narrow_ms, 95),
        "coincidence.wide_search_s": sum(dur[i] for i in extract if spans[i][COUNTS]["wide"]),
        "coincidence.extract_delay_peak_mb": peak("coincidence.extract_delay"),
        "coincidence.fit_peak_calls": len(ids("coincidence.fit_peak")),
        "coincidence.weighted_mean_calls": sum(
            1
            for i in extract
            if not any(spans[c][NAME] == "coincidence.fit_peak" for c in children[i])
        ),
        "coincidence.empirical_car_s": total("coincidence.empirical_car"),
        "twtt.run_session_self_s": self_time("twtt.run_session"),
        "twtt.intervals": count("twtt.run_session", "intervals"),
        "coexistence.car_calls": len(cars),
        "coexistence.car_us_per_cell": _ratio(sum(dur[i] for i in cars), len(cars)) * 1e6,
        "coexistence.max_distance_ms": _ratio(
            sum(dur[i] for i in max_dist), len(max_dist)
        ) * 1e3,
        "coexistence.max_distance_car_calls": sum(
            1 for i in cars if spans[i][PARENT] in in_max_dist
        ),
        "car_cells_per_s": _ratio(scan_cells, sum(dur[i] for i in scan_spans)),
        "stability.adev_s": total("stability.adev"),
        "stability.tdev_s": total("stability.tdev"),
        "stability.samples_per_s": _ratio(
            count("stability.adev", "samples") + count("stability.tdev", "samples"), stab_s
        ),
        "cli.self_s": sum(dur[i] - child_time[i] for i in cli_spans),
        "config.load_s": total("config.load"),
    }
