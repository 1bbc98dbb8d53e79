"""The benchmark's four workloads.

A workload turns ``--seed`` into CLI arguments once (set-up), runs one
round of CLI commands per ``run_round`` (timed), and checks a round's
outputs against computations made apart from the program (closed forms
in ``closed_forms.py``) or against properties the method must have.
Every round of a run repeats the same commands on the same inputs.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.stats import chi2

from hollowlink import event_sim

import closed_forms

PS_PER_S = 10**12
# Agreement bounds, in standard deviations of the compared estimate.
K_SIGMA = 5.0
# Two-sided tail probability at which a chi-square scatter test fails.
CHI2_TAIL = 1e-6


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([salt, seed])))


class Workload:
    """Shared plumbing: ``ops`` names the CLI commands of one round in
    order; ``files`` maps each to the output files a repeat round must
    reproduce byte for byte."""

    ops: tuple[str, ...] = ()
    sim_seconds = 0.0  # simulated seconds one round produces

    def __init__(self):
        self.files: dict[str, list[Path]] = {op: [] for op in self.ops}

    def check_trace(self, layers: dict, outputs: dict) -> list[str]:
        """Compare a traced round's call counts with figures derived from
        the round's outputs."""
        return []


def preset_values(root: Path, name: str) -> dict:
    path = root / "src" / "hollowlink" / "presets" / f"{name}.cfg"
    return closed_forms.parse_values(path.read_text())


def _count_mismatches(layers, expected) -> list[str]:
    return [
        f"traced {name} = {layers[name]}, expected {want}"
        for name, want in expected.items()
        if layers[name] != want
    ]


# --------------------------------------------------------------- twtt


def read_offsets(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if lines[0] != "epoch_s,offset_ps,stderr_ps":
        raise ValueError(f"unexpected offset CSV header {lines[0]!r}")
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]]).reshape(-1, 3)


def check_offsets(rows, duration_s, interval_s, offset_ps, drift_ps_per_s) -> list[str]:
    """Sample count and epochs, then a weighted straight-line fit that
    must recover the injected offset and drift, with a scatter about the
    line that the per-sample stderrs explain."""
    fails = []
    n_expected = math.floor(Fraction(str(duration_s)) / Fraction(str(interval_s)))
    if len(rows) != n_expected:
        return [f"{len(rows)} samples, expected floor({duration_s}/{interval_s}) = {n_expected}"]
    epochs, offsets, stderrs = rows.T
    if not np.allclose(epochs, (np.arange(len(rows)) + 0.5) * interval_s, rtol=0, atol=1e-9):
        fails.append("epochs are not interval midpoints")
    if not np.all(np.isfinite(stderrs) & (stderrs > 0)):
        return fails + ["non-positive or non-finite stderr"]
    weights = 1.0 / stderrs**2
    design = np.column_stack([np.ones_like(epochs), epochs])
    cov = np.linalg.inv(design.T @ (design * weights[:, None]))
    (x0, drift) = cov @ (design.T @ (weights * offsets))
    for name, got, true, var in (
        ("offset", x0, offset_ps, cov[0, 0]),
        ("drift", drift, drift_ps_per_s, cov[1, 1]),
    ):
        if abs(got - true) > K_SIGMA * math.sqrt(var):
            fails.append(f"{name} {got:.3f} vs injected {true:.3f} (> {K_SIGMA} sigma)")
    dof = len(rows) - 2
    if dof > 0:
        chi_sq = float(np.sum(weights * (offsets - x0 - drift * epochs) ** 2))
        p = chi2.cdf(chi_sq, dof)
        if not CHI2_TAIL < p < 1.0 - CHI2_TAIL:
            fails.append(f"scatter chi2 {chi_sq:.1f} on {dof} dof is inconsistent with the stderrs")
    return fails


class TwttWorkload(Workload):
    """One ``twtt`` session with a seeded clock offset and drift."""

    ops = ("twtt",)

    def __init__(self, workdir, seed, source_args, values, duration_s):
        super().__init__()
        rng = _rng(seed, 11)
        self.sim_seed = int(rng.integers(1, 2**31))
        self.offset_ps = round(float(rng.uniform(-2000.0, 2000.0)), 3)
        self.drift = round(float(rng.choice([-1, 1]) * rng.uniform(10.0, 20.0)), 4)
        self.duration_s = duration_s
        self.interval_s = values["interval_s"]
        self.sim_seconds = duration_s
        self.out = workdir / "offsets.csv"
        self.files["twtt"] = [self.out]
        self.argv = [
            "twtt", *source_args,
            "--duration", str(duration_s),
            "--seed", str(self.sim_seed),
            "--offset-ps", repr(self.offset_ps),
            "--drift-ps-per-s", repr(self.drift),
            "--out", str(self.out),
            "--no-timestamp",
        ]

    def run_round(self, ctx):
        ctx.cli("twtt", self.argv)
        return {}

    def check(self, outputs) -> dict:
        rows = read_offsets(self.out.read_text())
        outputs["rows"] = len(rows)
        return {"twtt": check_offsets(rows, self.duration_s, self.interval_s, self.offset_ps, self.drift)}

    def check_trace(self, layers, outputs):
        # one wide search per direction, then both directions per interval
        return _count_mismatches(layers, {
            "twtt.intervals": outputs["rows"],
            "coincidence.extract_delay_calls": 2 * outputs["rows"] + 2,
        })


def twtt_122km(root, workdir, seed):
    """The paper's 122 km link at its preset 4 s interval."""
    values = preset_values(root, "paper-122km")
    return TwttWorkload(workdir, seed, ["--preset", "paper-122km"], values, 12.0)


def twtt_desk_fast(root, workdir, seed):
    """A desk link cut into many 0.2 s intervals."""
    cfg = Path(__file__).resolve().parent / "desk-fast.cfg"
    values = closed_forms.parse_values(cfg.read_text())
    return TwttWorkload(workdir, seed, ["--config", str(cfg)], values, 10.0)


# ------------------------------------------------------- simulate / csv


def _car_sigma(coinc, accidental, duration_s, background_windows):
    """Counting error of (N_window - B) / B, with B fitted from
    ``background_windows`` windows' worth of flat background."""
    n_true, n_bg = coinc * duration_s, accidental * duration_s
    n_win = n_true + n_bg
    return math.sqrt(n_win / n_bg**2 + (n_win / n_bg) ** 2 / (background_windows * n_bg))


class SimulateCsvWorkload(Workload):
    """``simulate`` twice with one seed, to CSV and to binary timetags;
    both are read back and compared."""

    ops = ("simulate-csv", "simulate-binary")
    preset = "paper-54km-scan"
    duration_s = 3.0
    # ch0 local A->B, ch1 remote A->B, ch2 local B->A, ch3 remote B->A
    channels = (("ab", 0), ("ab", 1), ("ba", 0), ("ba", 1))

    def __init__(self, root, workdir, seed):
        super().__init__()
        self.values = preset_values(root, self.preset)
        self.sim_seed = int(_rng(seed, 13).integers(1, 2**31))
        self.sim_seconds = 2 * self.duration_s
        self.dirs = {"csv": workdir / "csv", "binary": workdir / "bin"}
        self.csv_path = self.dirs["csv"] / "timetags.csv"
        self.bin_paths = [self.dirs["binary"] / f"ch{c}.qtags" for c in range(4)]
        self.files["simulate-csv"] = [self.csv_path, self.dirs["csv"] / "summary.json"]
        self.files["simulate-binary"] = self.bin_paths + [self.dirs["binary"] / "summary.json"]

    def argv(self, fmt):
        return [
            "simulate", "--preset", self.preset,
            "--duration", str(self.duration_s),
            "--seed", str(self.sim_seed),
            "--format", fmt,
            "--outdir", str(self.dirs[fmt]),
            "--no-timestamp",
        ]

    def run_round(self, ctx):
        out = {}
        if ctx.cli("simulate-csv", self.argv("csv")) == 0:
            out["csv"] = event_sim.read_timetags_csv(self.csv_path)
        if ctx.cli("simulate-binary", self.argv("binary")) == 0:
            out["binary"] = [event_sim.read_timetags_binary(p) for p in self.bin_paths]
        return out

    def check(self, outputs) -> dict:
        summaries = outputs["stdout"]
        return {
            "simulate-csv": self._check_csv(outputs["csv"], json.loads(summaries["simulate-csv"])),
            "simulate-binary": self._check_binary(outputs, summaries),
        }

    def check_trace(self, layers, outputs):
        # each simulate command locates both directions' peaks once
        return _count_mismatches(layers, {"coincidence.extract_delay_calls": 2 * len(self.ops)})

    def _check_csv(self, streams, summary) -> list[str]:
        fails = []
        duration_ps = round(self.duration_s * PS_PER_S)
        if [s.channel_id for s in streams] != [0, 1, 2, 3]:
            return [f"CSV channels {[s.channel_id for s in streams]}"]
        for stream, (direction, remote) in zip(streams, self.channels):
            tags = stream.tags_ps
            if np.any(np.diff(tags) < 0) or tags[0] < 0 or tags[-1] > duration_ps:
                fails.append(f"ch{stream.channel_id} unsorted or outside [0, duration]")
            expected = closed_forms.direction_rates(self.values, direction)[remote] * self.duration_s
            if abs(len(tags) - expected) > K_SIGMA * math.sqrt(expected):
                fails.append(f"ch{stream.channel_id} {len(tags)} tags vs {expected:.0f} expected")
        for direction in ("ab", "ba"):
            entry = summary["car"][direction]
            if not isinstance(entry.get("empirical"), float):
                fails.append(f"{direction} empirical CAR {entry.get('empirical')!r}")
                continue
            window = entry["window_eff_ps"]
            _, _, coinc, acc = closed_forms.direction_rates(self.values, direction, window)
            # empirical_car fits 401 bins, 25 to a window: ~15 windows of background
            sigma = _car_sigma(coinc, acc, self.duration_s, (401 - 25) / 25)
            if abs(entry["empirical"] - coinc / acc) > K_SIGMA * sigma:
                fails.append(
                    f"{direction} CAR {entry['empirical']} vs analytic {coinc / acc:.2f} "
                    f"(> {K_SIGMA} x {sigma:.2f})"
                )
        return fails

    def _check_binary(self, outputs, summaries) -> list[str]:
        fails = []
        for csv_stream, bin_stream in zip(outputs["csv"], outputs["binary"]):
            if bin_stream.channel_id != csv_stream.channel_id or not np.array_equal(
                bin_stream.tags_ps, csv_stream.tags_ps
            ):
                fails.append(f"ch{csv_stream.channel_id}: binary and CSV tags differ")
        if summaries["simulate-binary"] != summaries["simulate-csv"]:
            fails.append("binary run's summary differs from the CSV run's")
        return fails


# ---------------------------------------------------- analytic envelope


class AnalyticEnvelopeWorkload(Workload):
    """CAR grids over (length, power) on two presets, reach at 1, 3 and
    10 mW, and ADEV/TDEV of a synthesized white-PM series."""

    grids = (("next-gen", 200, 100), ("paper-122km", 200, 100))
    reach_powers = (1.0, 3.0, 10.0)
    # The paper's projection point calibrates the CAR threshold.
    reach_point = (563.0, 1.0)
    l_hi_km = 900.0
    samples = 2_000_000

    def __init__(self, root, workdir, seed):
        self.ops = tuple(
            [f"car-scan:{p}" for p, _, _ in self.grids]
            + [f"max-distance:{p:g}" for p in self.reach_powers]
            + ["stability:adev", "stability:tdev"]
        )
        super().__init__()
        rng = _rng(seed, 17)
        self.values = {p: preset_values(root, p) for p, _, _ in self.grids}
        self.l_max = round(float(rng.uniform(800.0, 1000.0)), 3)
        self.p_max = round(float(rng.uniform(15.0, 25.0)), 3)
        self.sigma_s = float(f"{10 ** rng.uniform(-13.0, -11.0):.6e}")
        self.synth_seed = int(rng.integers(1, 2**31))
        self.threshold = float(closed_forms.car(self.values["next-gen"], *self.reach_point))
        self.sim_seconds = 2.0 * self.samples  # two synthesized series at tau0 = 1 s
        self.argvs = {}
        for preset, n_l, n_p in self.grids:
            out = workdir / f"grid-{preset}.csv"
            self.files[f"car-scan:{preset}"] = [out]
            self.argvs[f"car-scan:{preset}"] = [
                "car-scan", "--preset", preset,
                "--length", f"1:{self.l_max!r}:{n_l}",
                "--power", f"0.1:{self.p_max!r}:{n_p}",
                "--output", str(out),
            ]
        for power in self.reach_powers:
            self.argvs[f"max-distance:{power:g}"] = [
                "max-distance", "--preset", "next-gen",
                "--car-threshold", repr(self.threshold),
                "--power", repr(power),
                "--l-hi", repr(self.l_hi_km),
            ]
        for metric in ("adev", "tdev"):
            out = workdir / f"{metric}.csv"
            self.files[f"stability:{metric}"] = [out]
            self.argvs[f"stability:{metric}"] = [
                "stability", "--synth", "white-pm",
                "--level", repr(self.sigma_s),
                "--n", str(self.samples),
                "--seed", str(self.synth_seed),
                "--metric", metric,
                "--out", str(out),
            ]

    def run_round(self, ctx):
        for op in self.ops:
            ctx.cli(op, self.argvs[op])
        return {}

    def check(self, outputs) -> dict:
        fails = {}
        for preset, n_l, n_p in self.grids:
            op = f"car-scan:{preset}"
            fails[op] = self._check_grid(preset, n_l, n_p, self.files[op][0].read_text())
        reaches = {}
        for power in self.reach_powers:
            op = f"max-distance:{power:g}"
            result = json.loads(outputs["stdout"][op])
            reaches[power] = result["distance_km"]
            fails[op] = self._check_reach(power, result)
        ordered = [reaches[p] for p in self.reach_powers]
        if not all(a > b for a, b in zip(ordered, ordered[1:])):
            fails[op].append(f"reach does not fall as power rises: {ordered}")
        if abs(reaches[self.reach_point[1]] - self.reach_point[0]) > 0.2:
            fails["max-distance:1"].append(
                f"1 mW reach {reaches[1.0]} km misses the calibration point {self.reach_point[0]} km"
            )
        for metric in ("adev", "tdev"):
            op = f"stability:{metric}"
            fails[op] = self._check_stability(metric, self.files[op][0].read_text())
        return fails

    def check_trace(self, layers, outputs):
        scan_calls = layers["coexistence.car_calls"] - layers["coexistence.max_distance_car_calls"]
        cells = sum(n_l * n_p for _, n_l, n_p in self.grids)
        return [] if scan_calls == cells else [f"{scan_calls} CAR calls for {cells} grid cells"]

    def _check_grid(self, preset, n_l, n_p, text) -> list[str]:
        lines = text.splitlines()
        if lines[0] != "length_km,power_mw,car" or len(lines) != 1 + n_l * n_p:
            return [f"{len(lines) - 1} rows, expected {n_l * n_p} with header"]
        got = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        lengths = np.linspace(1.0, self.l_max, n_l)
        powers = np.linspace(0.1, self.p_max, n_p)
        ll, pp = np.meshgrid(lengths, powers, indexing="ij")
        fails = []
        if not (np.allclose(got[:, 0], ll.ravel(), rtol=1e-11, atol=0)
                and np.allclose(got[:, 1], pp.ravel(), rtol=1e-11, atol=0)):
            fails.append("grid axes differ from the requested linspace")
        want = closed_forms.car(self.values[preset], ll, pp).ravel()
        rel = np.max(np.abs(got[:, 2] - want) / want)
        if not rel <= 1e-9:
            fails.append(f"CAR differs from the closed form by {rel:.2e} relative")
        cars = got[:, 2].reshape(n_l, n_p)
        slack = 1e-11 * cars  # printed with 12 significant digits
        if np.any(np.diff(cars, axis=0) > slack[1:]) or np.any(np.diff(cars, axis=1) > slack[:, 1:]):
            fails.append("CAR rises along length or power")
        return fails

    def _check_reach(self, power, result) -> list[str]:
        v = self.values["next-gen"]
        d = result["distance_km"]
        if result["not_reachable"]:
            return [f"{power} mW: threshold never crossed below {self.l_hi_km} km"]
        # the printed distance is rounded to 1 m
        if not closed_forms.car(v, d - 5e-4, power) >= self.threshold > closed_forms.car(v, d + 0.1 + 5e-4, power):
            return [f"{power} mW: reach {d} km does not bracket the threshold to 0.1 km"]
        return []

    def _check_stability(self, metric, text) -> list[str]:
        """White PM of sigma: ADEV = sqrt(3) sigma / tau, TDEV = sigma / sqrt(m)."""
        rows = np.array([[float(x) for x in ln.split(",")] for ln in text.splitlines()[1:]])
        taus, devs = rows[:, 0], rows[:, 1]
        n = self.samples
        span = 2 if metric == "adev" else 3
        ms = 2 ** np.arange(len(rows))
        if len(rows) != int(math.floor(math.log2((n - 1) / span))) + 1 or not np.allclose(taus, ms):
            return [f"{metric}: averaging times are not the octave grid"]
        if metric == "adev":
            want = math.sqrt(3.0) * self.sigma_s / taus
            # only lags m and 2m correlate: rel. variance of the variance 3.89 / n
            bound = K_SIGMA * 0.5 * np.sqrt(3.89 / (n - 2 * ms))
        else:
            want = self.sigma_s / np.sqrt(ms)
            # 3m-tap window sums: Cauchy-Schwarz bound on their correlation
            bound = K_SIGMA * np.sqrt(3.0 * ms / (n - 3 * ms))
        use = bound < 0.1
        rel = np.abs(devs / want - 1.0)
        bad = use & (rel > bound)
        if use.sum() < 5 or bad.any():
            return [f"{metric} off white-PM theory at tau {taus[bad].tolist()}"]
        return []


WORKLOADS = {
    "twtt-122km": twtt_122km,
    "twtt-desk-fast": twtt_desk_fast,
    "simulate-54km-csv": SimulateCsvWorkload,
    "analytic-envelope": AnalyticEnvelopeWorkload,
}
