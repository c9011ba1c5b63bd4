"""Benchmark of the sweep entry points on three fixed workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
loop untraced and then traced, and prints the per-layer metrics, the kernel
timings and the tracing overhead. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 1 when a correctness check fails and 2 when the
package cannot be imported from this checkout's ``src``. See README.md in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = BENCH_DIR / ".state"

N, M, K_SPARSE, LAM, MAX_ITER = 256, 512, 16, 1e-2, 400
# Call i of a run with seed s sweeps the trials from experiment seed
# s * SEED_STRIDE + i * trials_per_call on, except the workload's first
# quality_calls calls, which start from i * trials_per_call in every run.
SEED_STRIDE = 1_000_000
SETUP_REPEATS = 5
# Time of one calibration kernel run (kernels.Calibration) at the reference
# speed: about its median on a 2-vCPU Intel Xeon VM with OpenBLAS 0.3.31.
CALIB_REF_S = 0.95e-3
# Share of the last call's time spent timing the calibration kernel after it.
CALIB_SHARE = 0.1
# Quality probe for the workloads whose sweep runs no ADMM: the ADMM solve
# on quant:4 ends within 0.2 s, where a clip solve takes 2 to 8 s.
PROBE_GRID = ("quant:4",)


@dataclass(frozen=True)
class Workload:
    name: str
    grid: tuple
    solvers: tuple
    trials_per_call: int
    # The first calls of every loop. Their inputs do not depend on the seed,
    # so the quality metrics taken from them are a function of the code: the
    # SNR of one instance varies by up to 10% from seed to seed.
    quality_calls: int
    shared_dictionary: bool = False
    timing_table: bool = False
    probe_trials: int = 0
    # Whether the calls after the quality calls draw their inputs from the
    # seed. An admm-timing call takes 3.5 to 9.4 s depending on its instance,
    # as some clip 0.6 ADMM solves converge or stall early, and a 30 s run
    # holds three or four calls: seeded inputs would put the instance mix,
    # not the code, into its rate.
    seeded: bool = True
    # Whether call rates are corrected by the calibration kernel, which
    # replays the relaxed engine. declip-fresh spread 11-22% over five seeds
    # uncorrected and 2% over ten corrected; admm-timing, bound by cho_solve
    # in 8 s calls, spread 4-6% uncorrected and 12-13% corrected.
    calibrated: bool = True

    @property
    def has_admm(self) -> bool:
        return "admm" in self.solvers


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "declip-fresh",
            grid=("clip:0.2", "clip:0.4", "clip:0.6", "clip:0.8"),
            solvers=("ista", "fista"),
            trials_per_call=1,
            quality_calls=16,
            probe_trials=8,
        ),
        Workload(
            "dequant-shared",
            grid=("quant:2", "quant:3", "quant:4", "quant:5", "quant:6"),
            solvers=("ista", "fista"),
            trials_per_call=4,
            quality_calls=4,
            shared_dictionary=True,
            probe_trials=8,
        ),
        Workload(
            "admm-timing",
            grid=("clip:0.6", "quant:4"),
            solvers=("ista", "fista", "admm"),
            trials_per_call=1,
            quality_calls=2,
            timing_table=True,
            seeded=False,
            calibrated=False,
        ),
    )
}


def import_package():
    """Import sparse_consist from this checkout's src, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import sparse_consist
    except ImportError as exc:
        print(f"cannot import sparse_consist from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(sparse_consist.__file__).resolve().parent.parent != SRC:
        print(f"sparse_consist imported from {sparse_consist.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return sparse_consist


@dataclass
class Call:
    index: int
    trials: int
    seconds: float
    results: list      # (spec, AggregateResult) of each sweep it ran
    outcomes: list     # (solver, outcome, iterations) of each solve
    raised: bool = False
    # Calibration kernel time around the call over its reference time.
    speed: float = 1.0


class Bench:
    def __init__(self, sc, workload: Workload, seed: int):
        from kernels import Calibration

        self.sc = sc
        self.wl = workload
        self.calib = Calibration(N, M) if workload.calibrated else None
        self.seed = seed
        self.base = sc.ExperimentSpec(
            n=N, m=M, k_sparse=K_SPARSE, trials=workload.trials_per_call,
            distortion_grid=tuple(sc.DistortionSpec.parse(g) for g in workload.grid),
            solvers=workload.solvers,
            solver_config=sc.SolverConfig(lam=LAM, max_iter=MAX_ITER),
            admm_config=sc.AdmmConfig(),
            shared_dictionary=workload.shared_dictionary,
        )

    def call_seed(self, index: int) -> int:
        first = index * self.wl.trials_per_call
        if index < self.wl.quality_calls or not self.wl.seeded:
            return first
        return self.seed * SEED_STRIDE + first

    def run_call(self, rec, index: int) -> Call:
        experiments = self.sc.experiments
        spec = replace(self.base, seed=self.call_seed(index))
        r0, o0 = len(rec.results), len(rec.outcomes)
        raised = False
        t0 = perf_counter()
        try:
            if self.wl.timing_table:
                thetas = [d.param for d in spec.distortion_grid if d.task == "declipping"]
                bits = [int(d.param) for d in spec.distortion_grid if d.task != "declipping"]
                experiments.run_timing_table(spec, clip_thetas=thetas, quant_bits=bits)
                trials = 2 * spec.trials
            else:
                experiments.run_experiment(spec)
                trials = spec.trials
        except Exception:
            traceback.print_exc()
            raised, trials = True, 0
        seconds = perf_counter() - t0
        return Call(index, trials, seconds, rec.results[r0:], rec.outcomes[o0:], raised)

    def loop(self, rec, seconds: float, min_calls: int) -> list:
        """Closed loop, one client: each call starts when the last ends.

        The calibration kernel is timed before the first call and after
        every call; a call's calibration time is the mean of the two around
        it, so the rate can be corrected for the speed the machine had."""
        calls = []
        before = self.calib.measure() if self.calib else None
        t0 = perf_counter()
        while len(calls) < min_calls or perf_counter() - t0 < seconds:
            call = self.run_call(rec, len(calls))
            calls.append(call)
            if not self.calib:
                continue
            after = self.calib.measure(CALIB_SHARE * call.seconds)
            call.speed = (before + after) / 2 / CALIB_REF_S
            before = after
        return calls

    def probe(self, rec):
        """ADMM quality probe on the first trials of call 0."""
        spec = replace(
            self.base, seed=self.call_seed(0), trials=self.wl.probe_trials,
            distortion_grid=tuple(self.sc.DistortionSpec.parse(g) for g in PROBE_GRID),
            solvers=("admm",),
        )
        return self.sc.experiments.run_experiment(spec)


# ----------------------------------------------------------------------
# correctness


def csv_bytes(sc, result) -> bytes:
    STATE.mkdir(parents=True, exist_ok=True)
    path = STATE / f"csv-{os.getpid()}.csv"
    sc.write_results_csv(path, result)
    data = path.read_bytes()
    path.unlink()
    return data


def call_digest(sc, call: Call) -> str:
    h = hashlib.sha256()
    for _, result in call.results:
        h.update(csv_bytes(sc, result))
    return h.hexdigest()


def fingerprint(machine: dict) -> str:
    """Code and numerics identity: results must repeat bit for bit only
    between runs that share it."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    for key in ("cpu_model", "blas_config", "blas_threads", "numpy", "scipy", "python"):
        h.update(repr(machine[key]).encode())
    return h.hexdigest()[:16]


def check_digests(key_prefix: str, digests: dict, fp: str) -> list:
    """Compare with the digests earlier runs of the same code and seed left,
    then record these. Returns the mismatching keys."""
    STATE.mkdir(parents=True, exist_ok=True)
    store_path = STATE / "csv_digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    seen = store.setdefault(fp, {})
    bad = []
    for idx, digest in digests.items():
        key = f"{key_prefix}|{idx}"
        if seen.setdefault(key, digest) != digest:
            bad.append(key)
    tmp = store_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, indent=0, sort_keys=True))
    os.replace(tmp, store_path)
    return bad


def mean_snr(results, solver: str):
    """Mean output SNR of one solver over the successful trials of every
    grid point of the given sweep results."""
    total = count = 0.0
    for _, result in results:
        for cell in result.per_point:
            good = result.trials - cell.failures
            if cell.solver == solver and good:
                total += cell.mean_snr_db * good
                count += good
    return total / count if count else None


def smoothed_frac(failed: int, attempted: int) -> float:
    """Add-half estimate (failed + 1/2) / (attempted + 1): never 0, so a
    share of its median stays defined on workloads with no failures."""
    return (failed + 0.5) / (attempted + 1)


def setup_seconds(bench: Bench) -> list:
    """Fresh-interpreter set-up times of SETUP_REPEATS runs."""
    times = []
    factor = "1" if bench.wl.has_admm else "0"
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"),
             str(bench.call_seed(0)), str(N), str(M), factor],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def finite(value):
    """The value as a float, or None when it is missing or not finite, so
    the result line stays valid JSON on a failed run."""
    return float(value) if value is not None and math.isfinite(value) else None


def loop_rate(calls, corrected: bool = True) -> float:
    """Trials finished per second of the loop's calls, with each call's
    time scaled to the reference machine speed unless ``corrected`` is off."""
    ok = [c for c in calls if not c.raised]
    seconds = sum(c.seconds / (c.speed if corrected else 1.0) for c in ok)
    return sum(c.trials for c in ok) / seconds


# ----------------------------------------------------------------------
# main


def check_snr(snr: dict, references: dict, bounds: dict) -> list:
    """Quality may not fall below the stored reference by more than the
    metric's bound; a gain in quality is not a failure."""
    problems = []
    for solver, ref in references.items():
        value, bound = snr.get(solver), bounds[f"snr_{solver}_db"]
        if value is None:
            problems.append(f"no output SNR for {solver}")
        elif not value >= ref * (1.0 - bound):
            problems.append(
                f"snr_{solver}_db {value:.3f} is below the reference {ref} by more than {bound:.0%}"
            )
    return problems


def traced_phase(bench: Bench, seconds: float, untraced: list, digests: dict):
    """Run the loop again from call 0 with spans on. Returns the per-layer
    metrics, the absent and probe-derived names, the probe result, the
    calls, the recorder and any correctness problems."""
    from kernels import kernel_metrics
    from layers import SpanTable, layer_metrics
    from spans import Recorder

    rec = Recorder()
    with rec.install(trace=True):
        calls = bench.loop(rec, seconds, 1)
        loop_end, loop_outcomes = len(rec), len(rec.outcomes)
        counters = dict(rec.counters)
        probe = bench.probe(rec) if bench.wl.probe_trials else None
    problems = [
        f"traced call {c.index} CSV differs from the untraced one"
        for c in calls
        if c.index in digests and call_digest(bench.sc, c) != digests[c.index]
    ]
    layer = layer_metrics(
        SpanTable(rec, 0, loop_end), rec.outcomes[:loop_outcomes], counters, N, M
    )
    from_probe = []
    if probe is not None:
        # The sweep runs no ADMM: its layer metrics come from the probe.
        probe_layer = layer_metrics(SpanTable(rec, loop_end), rec.outcomes[loop_outcomes:],
                                    {}, N, M)
        from_probe = [k for k in probe_layer if k not in layer]
        layer.update((k, probe_layer[k]) for k in from_probe)
    layer.update(kernel_metrics(bench.call_seed(0), N, M, K_SPARSE))

    traced_rate = loop_rate(calls)
    base_rate = loop_rate([c for c in untraced if c.index < len(calls)])
    layer["trace.untraced_trials_per_s"] = base_rate
    layer["trace.traced_trials_per_s"] = traced_rate
    layer["trace.overhead_trials_per_s"] = traced_rate - base_rate
    layer["trace.overhead_frac"] = (traced_rate - base_rate) / base_rate
    return layer, from_probe, probe, calls, rec, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    sc = import_package()
    from kernels import machine_facts
    from spans import FAILED_OUTCOMES, Recorder

    wl = WORKLOADS[args.workload]
    bench = Bench(sc, wl, args.seed)
    machine = machine_facts()
    print("machine " + json.dumps(machine, sort_keys=True), flush=True)
    info = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in info["end_to_end"]}
    references = json.loads((BENCH_DIR / "reference.json").read_text())[wl.name]

    # Untraced loop. In a traced run it takes half the time, and the traced
    # loop repeats its first calls for the overhead comparison.
    rec = Recorder()
    with rec.install(trace=False):
        calls = bench.loop(rec, args.seconds / 2 if args.trace else args.seconds,
                           wl.quality_calls)
        ok_calls = [c for c in calls if not c.raised]
        if not ok_calls:
            print("every call raised; no result", file=sys.stderr)
            return 1
        spec, first = ok_calls[0].results[-1]
        rerun = sc.experiments.run_experiment(spec)
        probe = bench.probe(rec) if wl.probe_trials and not args.trace else None
    rss = peak_rss_mib()

    problems = []
    if csv_bytes(sc, rerun) != csv_bytes(sc, first):
        problems.append(f"call {ok_calls[0].index} CSV differs when rerun in the same process")
    digests = {c.index: call_digest(sc, c) for c in ok_calls}
    stale = check_digests(f"{wl.name}|{args.seed}", digests, fingerprint(machine))
    problems += [f"CSV differs from an earlier run of the same code: {k}" for k in stale]
    non_finite = sum(o[1] == "non_finite" for c in calls for o in c.outcomes)
    if non_finite:
        problems.append(f"{non_finite} solves returned a non-finite estimate")
    attempted = len(calls) + 1
    failed = sum(c.raised for c in calls)

    metrics, absent, from_probe = {}, [], []
    if args.trace:
        layer, from_probe, probe, traced_calls, traced, more = traced_phase(
            bench, args.seconds / 2, calls, digests
        )
        problems += more
        attempted += len(traced_calls)
        failed += sum(c.raised for c in traced_calls)
        for m in info["per_layer"]:
            if m["name"] in layer:
                metrics[m["name"]] = {"value": finite(layer[m["name"]]), "unit": m["unit"]}
            else:
                absent.append(m["name"])
        STATE.mkdir(parents=True, exist_ok=True)
        write_spans(traced, STATE / f"spans-{wl.name}.npz")

    quality = calls[: wl.quality_calls]
    quality_results = [r for c in quality for r in c.results]
    snr = {s: mean_snr(quality_results, s) for s in ("ista", "fista", "admm")}
    if probe is not None:
        snr["admm"] = mean_snr([(None, probe)], "admm")
        attempted += 1
    problems += check_snr(snr, references, bounds)

    loop_info = {
        "calls": len(calls),
        "uncorrected_trials_per_s": loop_rate(calls, corrected=False),
        "slowdown": statistics.median(c.speed for c in calls),
    }
    if not args.trace:
        loop_info["setup_runs_s"] = setup_seconds(bench)
        outcomes = [o for c in quality for o in c.outcomes]
        bad = sum(o[1] in FAILED_OUTCOMES for o in outcomes)
        values = {
            "trials_per_s": loop_rate(calls),
            "setup_s": statistics.median(loop_info["setup_runs_s"]),
            "peak_rss_mib": rss,
            "failed_frac": smoothed_frac(bad, len(outcomes)),
            **{f"snr_{s}_db": v for s, v in snr.items()},
        }
        for m in info["end_to_end"]:
            metrics[m["name"]] = {"value": finite(values[m["name"]]), "unit": m["unit"]}

    print("loop " + json.dumps(loop_info))
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    if args.trace:
        print("absent " + json.dumps(absent))
        print("from_probe " + json.dumps(from_probe))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    STATE.mkdir(parents=True, exist_ok=True)
    (STATE / f"result-{wl.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "machine": machine, "loop": loop_info, "absent": absent,
                    "from_probe": from_probe, "problems": problems}, indent=1)
    )
    print(json.dumps(result), flush=True)
    return 1 if problems else 0


def write_spans(rec, path: Path) -> None:
    """Spans as arrays: name index, parent id (-1 for a root), start, end."""
    import numpy as np

    np.savez(
        path,
        names=np.array(rec.names),
        name=np.frombuffer(rec.name, dtype=np.int32).copy(),
        parent=np.frombuffer(rec.parent, dtype=np.int64).copy(),
        start=np.frombuffer(rec.start, dtype=np.float64).copy(),
        end=np.frombuffer(rec.end, dtype=np.float64).copy(),
    )


if __name__ == "__main__":
    sys.exit(main())
