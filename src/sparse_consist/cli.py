"""Command-line front end.

Subcommands: ``gen`` builds a synthetic instance on disk, ``solve`` runs one
solver on one instance, ``declip-bench`` and ``dequant-bench`` run the sweep
protocols, and ``timing`` produces the two-task wall-time comparison.

Exit codes: 0 success, 1 solver did not converge under --strict, 2 malformed
input or flags, 3 dimension mismatch between inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import DimensionMismatch
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
    write_plot_data,
    write_results_csv,
    write_timing_csv,
)
from .operators import Dictionary, DistortionSpec
from .solvers import AdmmConfig, SolverConfig, json_float, result_to_json_obj

ENV_SEED = "SPARSE_CONSIST_SEED"

DEFAULT_CLIP_GRID = "0.2,0.4,0.6,0.8"
DEFAULT_QUANT_GRID = "2,3,4,5,6"


def _load_dictionary(path: str) -> Dictionary:
    if path.endswith(".csv"):
        return Dictionary.from_csv(path)
    return Dictionary.load(path)


def _load_vector(path: str) -> np.ndarray:
    vec = np.loadtxt(path, ndmin=1)
    if vec.ndim != 1:
        raise ValueError(f"{path}: expected a single column of numbers")
    return vec


def _parse_solvers(text: str) -> tuple:
    names = tuple(s.strip().lower() for s in text.split(",") if s.strip())
    if not names:
        raise ValueError("no solvers given")
    return names


def _parse_grid(kind: str, text: str) -> tuple:
    """The distortions ``kind:v`` for each entry v of a comma list."""
    grid = tuple(DistortionSpec.parse(f"{kind}:{v}") for v in text.split(",") if v.strip())
    if not grid:
        raise ValueError("empty grid")
    return grid


def _solver_configs(args) -> tuple[SolverConfig, AdmmConfig]:
    return (
        SolverConfig(lam=args.lam, max_iter=args.max_iter, rel_tol=args.rel_tol),
        AdmmConfig(max_iter=args.admm_max_iter),
    )


def cmd_gen(args) -> int:
    out = args.out
    dspec = DistortionSpec.parse(args.distortion)
    os.makedirs(out, exist_ok=True)
    dictionary = gen_dictionary(args.seed, args.n, args.m)
    alpha, x = gen_sparse_signal(args.seed + SIGNAL_SEED_OFFSET, dictionary, args.k_sparse)
    y = dspec.apply(x)

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
    dictionary = _load_dictionary(args.dict)
    y = _load_vector(args.observation)
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
        solvers=_parse_solvers(args.solvers),
        solver_config=solver_config,
        admm_config=admm_config,
        shared_dictionary=args.shared_dictionary,
    )


def _run_bench(args, grid: tuple) -> int:
    result = run_experiment(_sweep_spec(args, grid), jobs=args.jobs)
    write_results_csv(args.out, result, include_times=args.times)
    print(f"wrote {args.out}")
    if args.plot_data:
        for path in write_plot_data(args.plot_data, result):
            print(f"wrote {path}")
    if result.failure_count:
        print(f"warning: {result.failure_count} solver runs failed", file=sys.stderr)
        if args.strict:
            return 1
    return 0


def cmd_declip_bench(args) -> int:
    return _run_bench(args, _parse_grid("clip", args.grid))


def cmd_dequant_bench(args) -> int:
    return _run_bench(args, _parse_grid("quant", args.grid))


def cmd_timing(args) -> int:
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
    return 0


def _add_protocol_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=256, help="signal dimension")
    p.add_argument("--m", type=int, default=512, help="number of dictionary atoms")
    p.add_argument("--k-sparse", type=int, default=16, help="support size of test vectors")
    p.add_argument("--seed", type=int, default=0,
                   help=f"base PRNG seed (env {ENV_SEED} overrides)")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=1e-2,
                   help="l1 penalty weight")
    p.add_argument("--max-iter", type=int, default=400, help="iteration cap")
    p.add_argument("--admm-max-iter", type=int, default=400,
                   help="outer iteration cap for the admm solver")
    p.add_argument("--rel-tol", type=float, default=1e-6,
                   help="relative objective-change stopping tolerance")


def _add_sweep_flags(p: argparse.ArgumentParser, trials: int, solvers: str) -> None:
    p.add_argument("--trials", type=int, default=trials, help="number of random trials")
    p.add_argument("--solvers", default=solvers,
                   help="comma list from {ista,fista,admm}")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes for trials")
    p.add_argument("--shared-dictionary", action="store_true",
                   help="reuse one dictionary across all trials instead of one per trial")


def _add_bench_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--plot-data", default=None, metavar="PATH",
                   help="also write per-solver (param, SNR) columns using PATH as stem")
    p.add_argument("--times", action="store_true",
                   help="record measured wall times in the CSV instead of NA")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 if any solver run fails")


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
    p.add_argument("--distortion", required=True, help="clip:THETA or quant:NBITS or none")
    p.add_argument("--solver", choices=SOLVER_NAMES, default="fista")
    _add_solver_flags(p)
    p.add_argument("--out", default="result.json", help="output JSON path")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when the solver stops without converging")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("declip-bench", formatter_class=fmt,
                       help="clipping sweep over a grid of thresholds")
    _add_protocol_flags(p)
    _add_solver_flags(p)
    _add_sweep_flags(p, trials=100, solvers="ista,fista")
    _add_bench_output_flags(p)
    p.add_argument("--grid", default=DEFAULT_CLIP_GRID, help="comma list of clip levels")
    p.add_argument("--out", default="declip_bench.csv", help="results CSV path")
    p.set_defaults(func=cmd_declip_bench)

    p = sub.add_parser("dequant-bench", formatter_class=fmt,
                       help="quantization sweep over a grid of bit depths")
    _add_protocol_flags(p)
    _add_solver_flags(p)
    _add_sweep_flags(p, trials=100, solvers="ista,fista")
    _add_bench_output_flags(p)
    p.add_argument("--grid", default=DEFAULT_QUANT_GRID, help="comma list of bit depths")
    p.add_argument("--out", default="dequant_bench.csv", help="results CSV path")
    p.set_defaults(func=cmd_dequant_bench)

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

    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"error: {ENV_SEED}={env_seed!r} is not an integer", file=sys.stderr)
            return 2

    try:
        return args.func(args)
    except DimensionMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
