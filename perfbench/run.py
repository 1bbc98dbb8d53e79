"""Benchmark of the hollowlink CLI.

Runs one workload through ``hollowlink.cli.main`` in this process, in
whole rounds of CLI commands until ``--seconds`` are used up, checks the
outputs, and prints one JSON object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of untraced rounds.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones plus the tracing overhead; it also
writes every span to ``.perfbench/trace-<workload>-seed<seed>.json``.

    python3 perfbench/run.py --workload twtt-122km --seed 1 --seconds 30 --trace 0

See perfbench/README.md for the workloads and metrics.
"""

import os
import time

_START = time.perf_counter()  # set-up time runs from here (plus interpreter start)


def _process_age_s() -> float:
    """Seconds from process creation to now, at clock-tick resolution;
    0 where /proc is unavailable."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


_AGE_AT_START = _process_age_s()

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
try:
    from hollowlink import cli
    import workloads
    from tracer import PER_LAYER, Tracer, layer_metrics
except ImportError as exc:  # no program in this checkout: refuse to run
    cli, _IMPORT_ERROR = None, exc


class RoundContext:
    """Runs a round's CLI commands, capturing stdout and exit codes; in a
    traced round each command is a root span named ``cli.<command>``."""

    def __init__(self, cli_main, tracer=None):
        self.cli_main = cli_main
        self.tracer = tracer
        self.exit_codes: dict[str, int] = {}
        self.stdout: dict[str, str] = {}

    def cli(self, op: str, argv: list[str]) -> int:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if self.tracer is None:
                rc = self.cli_main(argv)
            else:
                rc = self.tracer.call(f"cli.{argv[0]}", self.cli_main, (argv,))
        self.exit_codes[op] = rc
        self.stdout[op] = buf.getvalue()
        return rc


def _digest(paths, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if cli is None:
        print(f"perfbench: cannot import hollowlink from {ROOT / 'src'}: {_IMPORT_ERROR}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(cli.__file__).resolve().parents:
        print(f"perfbench: hollowlink was imported from {cli.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed)
        setup_s = _AGE_AT_START + time.perf_counter() - _START
        result, spans = _measure(wl, args, Tracer() if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        out = scratch / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                   "fields": ["name", "parent", "start_ns", "end_ns", "counts"],
                                   "rounds": spans}))
    else:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result))
    return 0


def _measure(wl, args, tracer):
    """Run whole rounds until the next one would overrun ``--seconds``
    (at least one; in traced mode one untraced and one traced)."""
    walls = {False: [], True: []}
    layers, spans = [], []
    attempted = failed = 0
    correct = True
    reference = None  # per-op digests of the first round's outputs
    t_begin = time.perf_counter()
    round_totals = []
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        ctx = RoundContext(cli.main, tracer if traced else None)
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            outputs = wl.run_round(ctx)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        print(f"perfbench: round {len(round_totals) + 1} {'traced ' if traced else ''}"
              f"wall {wall:.3f} s", file=sys.stderr)
        outputs["stdout"] = ctx.stdout
        attempted += len(wl.ops)
        ok_ops = [op for op in wl.ops if ctx.exit_codes.get(op) == 0]
        failed += len(wl.ops) - len(ok_ops)
        digests = {op: _digest(wl.files[op], ctx.stdout[op]) for op in ok_ops}
        if reference is None:
            try:
                fails = wl.check(outputs)
            except Exception:  # a malformed output is a failed check
                fails = {op: [traceback.format_exc()] for op in ok_ops}
            reference, first_outputs = digests, outputs
        else:
            fails = {op: ["output differs from the first round's"]
                     for op in ok_ops if digests[op] != reference.get(op)}
        for op in ok_ops:
            for msg in fails.get(op, []):
                print(f"perfbench: {args.workload} {op}: {msg}", file=sys.stderr)
            if fails.get(op):
                failed += 1
                correct = False
        if traced:
            round_spans = tracer.take()
            spans.append(round_spans)
            layers.append(layer_metrics(round_spans))
            if not failed:
                for msg in wl.check_trace(layers[-1], first_outputs):
                    print(f"perfbench: {args.workload} trace: {msg}", file=sys.stderr)
                    correct = False
        elapsed = time.perf_counter() - t_begin
        round_totals.append(elapsed - sum(round_totals))
        done = elapsed + statistics.median(round_totals) > args.seconds
        if done and (tracer is None or walls[True]):
            break

    wall_s = statistics.median(walls[False])
    if tracer is None:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "sim_s_per_wall_s": {"value": wl.sim_seconds / wall_s, "unit": "s/s"},
        }
    else:
        metrics = {
            name: {"value": statistics.median(round_[name] for round_ in layers), "unit": unit}
            for name, unit in PER_LAYER if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = {
            "value": statistics.median(walls[True]) - wall_s, "unit": "s"}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, spans


if __name__ == "__main__":
    sys.exit(main())
