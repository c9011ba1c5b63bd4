"""Command-line front end.

Subcommands: ``gen`` builds a synthetic instance on disk, ``solve`` runs one
solver on one instance, ``declip-bench`` and ``dequant-bench`` run the sweep
protocols, and ``timing`` produces the two-task wall-time comparison.

Exit codes: 0 success, 1 solver did not converge under --strict, 2 malformed
input or flags, 3 dimension mismatch between inputs, 4 a worker process of
a sweep's pool died.

A flag whose value fills a field of ``ExperimentSpec``, ``SolverConfig`` or
``AdmmConfig`` takes that field's default, except the ``timing`` sweep's
trial count and solver list. ``solve`` writes its result as JSON through
:func:`result_to_json_obj`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import DimensionMismatch, WorkerDied
from .experiments import (
    SIGNAL_SEED_OFFSET,
    SOLVER_NAMES,
    ExperimentSpec,
    _atomic_write_text,
    gen_dictionary,
    gen_sparse_signal,
    run_experiment,
    run_solver,
    run_timing_table,
    write_results_csv,
    write_timing_csv,
)
from .operators import Dictionary, DistortionSpec, _load_text
from .solvers import AdmmConfig, SolverConfig, SolverTrace

# The sweep subcommands: (name, distortion kind, default grid, grid help,
# results file, subcommand help).
_BENCHES = (
    ("declip-bench", "clip", "0.2,0.4,0.6,0.8", "comma list of clip levels",
     "declip_bench.csv", "clipping sweep over a grid of thresholds"),
    ("dequant-bench", "quant", "2,3,4,5,6", "comma list of bit depths",
     "dequant_bench.csv", "quantization sweep over a grid of bit depths"),
)


def _parse_grid(kind: str, text: str) -> tuple:
    """The distortions ``kind:v`` for each entry v of a comma list."""
    grid = tuple(DistortionSpec.parse(f"{kind}:{v}") for v in text.split(",") if v.strip())
    if not grid:
        raise ValueError("empty grid")
    return grid


def _check_out_dir(path: str) -> None:
    """Refuse an output path that is empty, is a directory, or lies in a
    directory that does not exist, before a command spends its time on
    results it could not write."""
    if not path:
        raise ValueError("an output path must not be empty")
    if os.path.isdir(path):
        raise ValueError(f"{path}: is a directory, not an output file")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"{path}: the directory for this output does not exist")


def _solver_configs(args) -> tuple[SolverConfig, AdmmConfig]:
    return (
        SolverConfig(lam=args.lam, max_iter=args.max_iter, tol=args.tol),
        AdmmConfig(max_iter=args.admm_max_iter),
    )


def json_float(value) -> float | None:
    """A float for a JSON document: ``None`` (null) when it is not finite,
    since JSON has no NaN or infinity."""
    value = float(value)
    return value if math.isfinite(value) else None


def result_to_json_obj(alpha: np.ndarray, trace: SolverTrace) -> dict:
    """JSON-friendly summary of a solver run; non-finite numbers become
    null, so the result of a diverged run is still valid JSON."""
    history = trace.objective_per_iter
    return {
        "alpha": [json_float(a) for a in alpha],
        "objective": json_float(history[-1]) if len(history) else None,
        "iterations": int(trace.iterations_run),
        "converged": bool(trace.converged),
        "stop_reason": trace.stop_reason,
        "wall_time_s": float(trace.wall_time_seconds),
        "kkt_residual": json_float(trace.kkt_residual_final),
    }


def cmd_gen(args) -> int:
    out = args.out
    # the nearest existing ancestor of out, out itself included, must be a
    # directory, or makedirs would fail after the whole instance is drawn
    ancestor = out
    while ancestor and not os.path.lexists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not out or not os.path.isdir(ancestor or "."):
        raise ValueError(f"{out!r} is not a path for the instance directory")
    dspec = DistortionSpec.parse(args.distortion)
    dictionary = gen_dictionary(args.seed, args.n, args.m)
    alpha, x = gen_sparse_signal(args.seed + SIGNAL_SEED_OFFSET, dictionary, args.k_sparse)
    y = dspec.apply(x)
    os.makedirs(out, exist_ok=True)  # after every input check, so a refusal leaves nothing

    dictionary.save(os.path.join(out, "dictionary.bin"))
    np.savetxt(os.path.join(out, "alpha_true.txt"), alpha, fmt="%.18e")
    np.savetxt(os.path.join(out, "x_clean.txt"), x, fmt="%.18e")
    np.savetxt(os.path.join(out, "y.txt"), y, fmt="%.18e")
    meta = {
        "n": args.n,
        "m": args.m,
        "k_sparse": args.k_sparse,
        "seed": args.seed,
        "distortion": dspec.label(),
        "files": {
            "dictionary": "dictionary.bin",
            "alpha_true": "alpha_true.txt",
            "x_clean": "x_clean.txt",
            "observation": "y.txt",
        },
    }
    _atomic_write_text(os.path.join(out, "instance.json"), json.dumps(meta, indent=2) + "\n")
    print(f"wrote instance to {out}")
    return 0


def cmd_solve(args) -> int:
    _check_out_dir(args.out)
    load = Dictionary.from_csv if args.dict.endswith(".csv") else Dictionary.load
    dictionary = load(args.dict)
    y = _load_text(args.observation, ndmin=1)
    if y.ndim != 1:
        raise ValueError(f"{args.observation}: expected a single column of numbers")
    dspec = DistortionSpec.parse(args.distortion)
    iset = dspec.preimage(y)
    coeffs, trace = run_solver(args.solver, dictionary, iset, *_solver_configs(args))
    obj = result_to_json_obj(coeffs, trace)
    obj["x_hat"] = [json_float(v) for v in dictionary.synthesize(coeffs)]
    _atomic_write_text(args.out, json.dumps(obj, indent=2, allow_nan=False) + "\n")
    print(f"{args.solver}: {trace.iterations_run} iterations, "
          f"converged={trace.converged} ({trace.stop_reason}), wrote {args.out}")
    if args.strict and not trace.converged:
        print("error: solver did not converge", file=sys.stderr)
        return 1
    return 0


def _sweep_spec(args, grid: tuple) -> ExperimentSpec:
    solver_config, admm_config = _solver_configs(args)
    return ExperimentSpec(
        n=args.n,
        m=args.m,
        k_sparse=args.k_sparse,
        trials=args.trials,
        seed=args.seed,
        distortion_grid=grid,
        solvers=tuple(s.strip().lower() for s in args.solvers.split(",") if s.strip()),
        solver_config=solver_config,
        admm_config=admm_config,
        shared_dictionary=args.shared_dictionary,
    )


def _warn_failures(cells) -> int:
    """Print the failed solver runs of ``cells``, pairs of a label and its
    ``(reason, count)`` pairs, to standard error, and return their number."""
    cells = [(label, reasons) for label, reasons in cells if reasons]
    failed = sum(count for _, reasons in cells for _, count in reasons)
    if failed:
        print(f"warning: {failed} solver runs failed", file=sys.stderr)
    for label, reasons in cells:
        listed = ", ".join(f"{reason} x{count}" for reason, count in reasons)
        print(f"  {label}: {listed}", file=sys.stderr)
    return failed


def _run_bench(args) -> int:
    _check_out_dir(args.out)
    grid = _parse_grid(args.kind, args.grid)
    result = run_experiment(_sweep_spec(args, grid), jobs=args.jobs)
    write_results_csv(args.out, result, include_times=args.times)
    print(f"wrote {args.out}")
    failed = _warn_failures(
        (f"{s.distortion.label()} {s.solver}", s.failure_reasons) for s in result.per_point
    )
    return 1 if failed and args.strict else 0


def cmd_timing(args) -> int:
    _check_out_dir(args.out)
    clip_grid = _parse_grid("clip", args.clip_grid)
    quant_grid = _parse_grid("quant", args.quant_grid)
    rows = run_timing_table(
        _sweep_spec(args, clip_grid),
        [d.param for d in clip_grid],
        [d.param for d in quant_grid],
        jobs=args.jobs,
    )
    write_timing_csv(args.out, rows)
    print(f"wrote {args.out}")
    for r in rows:
        print(f"{r.task:>14}  {r.solver:>5}  mean {r.mean_wall_time_s:.4f} s")
    _warn_failures((f"{r.task} {r.solver}", r.failure_reasons) for r in rows)
    return 0


def _add_protocol_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=ExperimentSpec.n, help="signal dimension")
    p.add_argument("--m", type=int, default=ExperimentSpec.m, help="number of dictionary atoms")
    p.add_argument("--k-sparse", type=int, default=ExperimentSpec.k_sparse,
                   help="support size of test vectors")
    p.add_argument("--seed", type=int, default=ExperimentSpec.seed,
                   help="base PRNG seed")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=SolverConfig.lam,
                   help="l1 penalty weight")
    p.add_argument("--max-iter", type=int, default=SolverConfig.max_iter, help="iteration cap")
    p.add_argument("--admm-max-iter", type=int, default=AdmmConfig.max_iter,
                   help="outer iteration cap for the admm solver")
    p.add_argument("--tol", type=float, default=SolverConfig.tol,
                   help="KKT residual at which a relaxed solve stops as converged")


def _add_sweep_flags(p: argparse.ArgumentParser, trials: int, solvers: str) -> None:
    p.add_argument("--trials", type=int, default=trials, help="number of random trials")
    p.add_argument("--solvers", default=solvers,
                   help="comma list from {ista,fista,admm}")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes for trials")
    p.add_argument("--shared-dictionary", action="store_true",
                   help="reuse one dictionary across all trials instead of one per trial")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-consist",
        description="Sparse recovery from clipped or quantized observations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("gen", formatter_class=fmt,
                       help="generate a synthetic instance directory")
    _add_protocol_flags(p)
    p.add_argument("--distortion", default="clip:0.6", help="clip:THETA or quant:NBITS")
    p.add_argument("--out", default="instance", help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", formatter_class=fmt,
                       help="run one solver on one instance")
    p.add_argument("--dict", required=True,
                   help="dictionary file (.csv as text, anything else as binary)")
    p.add_argument("--observation", required=True, help="observed signal, one value per line")
    p.add_argument("--distortion", required=True,
                   help="clip:THETA or quant:NBITS; clip:inf is no distortion")
    p.add_argument("--solver", choices=SOLVER_NAMES, default="fista")
    _add_solver_flags(p)
    p.add_argument("--out", default="result.json", help="output JSON path")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when the solver stops without converging")
    p.set_defaults(func=cmd_solve)

    for name, kind, grid, grid_help, out, bench_help in _BENCHES:
        p = sub.add_parser(name, formatter_class=fmt, help=bench_help)
        _add_protocol_flags(p)
        _add_solver_flags(p)
        _add_sweep_flags(p, trials=ExperimentSpec.trials,
                         solvers=",".join(ExperimentSpec.solvers))
        p.add_argument("--times", action="store_true",
                       help="record measured wall times in the CSV instead of NA")
        p.add_argument("--strict", action="store_true", help="exit 1 if any solver run fails")
        p.add_argument("--grid", default=grid, help=grid_help)
        p.add_argument("--out", default=out, help="results CSV path")
        p.set_defaults(func=_run_bench, kind=kind)

    p = sub.add_parser("timing", formatter_class=fmt,
                       help="wall-time comparison across solvers and tasks")
    _add_protocol_flags(p)
    _add_solver_flags(p)
    _add_sweep_flags(p, trials=10, solvers="ista,fista,admm")
    p.add_argument("--clip-grid", default="0.6", help="clip levels for the declipping task")
    p.add_argument("--quant-grid", default="4", help="bit depths for the dequantization task")
    p.add_argument("--out", default="timing.csv", help="timing CSV path")
    p.set_defaults(func=cmd_timing)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse reads the value of ``--opt=--`` as the end of options and
    # stores an empty list; no option here takes a list.
    for name, value in vars(args).items():
        if isinstance(value, list):
            print(f"error: {name} has no value", file=sys.stderr)
            return 2

    try:
        return args.func(args)
    except DimensionMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

