"""Command-line front end.

Subcommands: trace, count, weyl, invert, synth, mode, oracle.  All numeric
output goes to CSV files with full round-trip precision; identical inputs
(including seeds) produce byte-identical files.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io as lio
from .branch import trace_branches
from .errors import DivergedOrInfeasible, LoveDispError, NonRealResult
from .inversion import (
    branchset_from_dataset,
    invert_double_layer,
    invert_single_layer,
    least_squares_refine,
    parameter_mask,
    synthesize_observations,
)
from .medium import load_medium
from .modes import mode_residuals, mode_shape
from .oracles import determinant_oracle
from .dispersion import dispersion_value
from .spectral import mode_count, weyl_prediction

USAGE_ERROR, DATA_ERROR, NUMERICAL_ERROR = 1, 2, 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lovedisp",
        description="Forward and inverse Love-wave dispersion toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, omega_grid=False, out=True):
        p.add_argument("--medium", required=True, help="path to a JSON medium config")
        if omega_grid:
            p.add_argument("--omega-min", type=float, default=0.25)
            p.add_argument("--omega-max", type=float, required=True)
            p.add_argument("--omega-step", type=float, default=0.25)
        if out:
            p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("trace", help="trace branches over a frequency grid")
    add_common(p, omega_grid=True)

    p = sub.add_parser("count", help="mode count and Weyl prediction at (omega, y)")
    add_common(p, out=False)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--y", type=float, required=True)

    p = sub.add_parser("weyl", help="count/prediction comparison over a frequency range")
    add_common(p, omega_grid=True)
    p.add_argument("--y", type=float, required=True)

    p = sub.add_parser("invert", help="recover medium parameters from a dataset")
    p.add_argument(
        "--data", required=True, help="dataset CSV (omega,k[,ell][,noise_sigma])"
    )
    p.add_argument("--mode", choices=("n1", "n2", "ls"), required=True)
    p.add_argument("--rho1", type=float, help="surface density (n1 mode)")
    p.add_argument("--medium", help="guess medium config (ls mode)")
    p.add_argument(
        "--free",
        default="mu,thickness",
        help="comma list from mu,rho,thickness to refine (ls mode)",
    )
    p.add_argument("--out", default=".")

    p = sub.add_parser("synth", help="synthesize a dataset from a medium")
    add_common(p, omega_grid=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("mode", help="export an eigenfunction on a depth grid")
    add_common(p)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--z-max", type=float, help="depth grid end (default: auto)")
    p.add_argument("--z-points", type=int, default=500)

    p = sub.add_parser("oracle", help="determinant-oracle equivalence summary")
    add_common(p, out=False)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _omega_grid(args) -> np.ndarray:
    grid = np.arange(args.omega_min, args.omega_max + 0.5 * args.omega_step, args.omega_step)
    grid = grid[grid > 0.0]
    if len(grid) == 0:
        raise ValueError("empty frequency grid")
    return grid


def _cmd_trace(args) -> int:
    medium = load_medium(args.medium)
    branchset = trace_branches(medium, _omega_grid(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lio.write_branches_csv(out / "branches.csv", branchset)
    lio.write_cutoffs_csv(out / "cutoffs.csv", branchset)
    print(f"traced {branchset.n_branches} branches -> {out / 'branches.csv'}")
    return 0


def _cmd_count(args) -> int:
    medium = load_medium(args.medium)
    n = mode_count(medium, args.omega, args.y)
    pred = weyl_prediction(medium, args.omega, args.y)
    print(f"count {n}")
    print(f"prediction {pred.value:.17g}")
    print(f"proven {'true' if pred.proven else 'false'}")
    return 0


def _cmd_weyl(args) -> int:
    medium = load_medium(args.medium)
    rows = []
    for w in _omega_grid(args):
        n = mode_count(medium, float(w), args.y)
        pred = weyl_prediction(medium, float(w), args.y)
        rel = (n - pred.value) / pred.value if pred.value else float(n)
        rows.append((float(w), args.y, n, pred.value, pred.proven, rel))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lio.write_weyl_csv(out / "weyl.csv", rows)
    print(f"wrote {len(rows)} rows -> {out / 'weyl.csv'}")
    return 0


def _cmd_invert(args) -> int:
    dataset = lio.read_dataset_csv(args.data)
    if args.mode == "n1":
        if args.rho1 is None:
            print("invert n1 requires --rho1", file=sys.stderr)
            return USAGE_ERROR
        report = invert_single_layer(branchset_from_dataset(dataset), args.rho1)
    elif args.mode == "n2":
        report = invert_double_layer(branchset_from_dataset(dataset))
    else:
        if args.medium is None:
            print("invert ls requires --medium (the guess)", file=sys.stderr)
            return USAGE_ERROR
        guess = load_medium(args.medium)
        names = {s.strip() for s in args.free.split(",") if s.strip()}
        unknown = names - {"mu", "rho", "thickness"}
        if unknown:
            print(f"unknown --free entries: {sorted(unknown)}", file=sys.stderr)
            return USAGE_ERROR
        mask = parameter_mask(
            guess,
            mu="mu" in names,
            rho="rho" in names,
            thickness="thickness" in names,
        )
        refined, residual = least_squares_refine(guess, dataset, mask)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["parameter    value                    rule"]
        for name, vals in (("mu", refined.mu), ("rho", refined.rho),
                           ("thickness", refined.thickness)):
            for i, v in enumerate(vals):
                lines.append(f"{name}{i + 1:<11} {v:<24.17g} least-squares-refine")
        lines.append(f"residual     {residual:.17g}")
        text = "\n".join(lines)
        (out / "report.txt").write_text(text + "\n", encoding="utf-8")
        print(text)
        return 0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(report.render() + "\n", encoding="utf-8")
    print(report.render())
    return 0


def _cmd_synth(args) -> int:
    medium = load_medium(args.medium)
    dataset = synthesize_observations(
        medium, _omega_grid(args), noise_sigma=args.noise, seed=args.seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lio.write_dataset_csv(out / "dataset.csv", dataset)
    print(f"wrote {len(dataset)} samples -> {out / 'dataset.csv'}")
    return 0


def _cmd_mode(args) -> int:
    medium = load_medium(args.medium)
    shape = mode_shape(medium, args.omega, args.k)
    if args.z_max is not None:
        z_max = args.z_max
    else:
        tail = 3.0 / shape.decay_rate if shape.decay_rate > 0 else medium.depths[-1]
        z_max = float(medium.depths[-1]) + tail
    z = np.linspace(0.0, z_max, args.z_points)
    phi, mu_dphi = shape.evaluate(z)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lio.write_mode_csv(out / "mode.csv", z, phi, mu_dphi)
    diag = mode_residuals(shape)
    print(f"wrote mode -> {out / 'mode.csv'}")
    print(f"phi_jump {diag.phi_jump:.3e}")
    print(f"stress_jump {diag.stress_jump:.3e}")
    print(f"ode_residual {diag.ode_residual:.3e}")
    print(f"decay_error {diag.decay_error:.3e}")
    print(f"square_integrable {'true' if shape.is_l2 else 'false'}")
    return 0


def _cmd_oracle(args) -> int:
    medium = load_medium(args.medium)
    rng = np.random.default_rng(args.seed)
    lo, hi = medium.slowness_domain
    worst = 0.0
    tested = 0
    while tested < args.samples:
        y = lo + (hi - lo) * rng.uniform(0.02, 0.98)
        if np.any(np.abs(y - medium.slowness) < 1e-6 * medium.slowness):
            continue
        w_cap = 400.0 / max(float(np.dot(medium.thickness, medium.slowness[:-1])), 1e-12)
        omega = rng.uniform(0.5, 1.0) * min(w_cap, 2000.0)
        det_val = determinant_oracle(medium, omega, omega * y)
        disp = dispersion_value(medium, omega, y)
        rec = omega * disp.value * np.exp(disp.log_scale)
        denom = max(abs(det_val), abs(rec))
        if denom > 0:
            worst = max(worst, abs(det_val - rec) / denom)
        tested += 1
    print(f"samples {tested}")
    print(f"max_relative_deviation {worst:.17g}")
    return 0


_HANDLERS = {
    "trace": _cmd_trace,
    "count": _cmd_count,
    "weyl": _cmd_weyl,
    "invert": _cmd_invert,
    "synth": _cmd_synth,
    "mode": _cmd_mode,
    "oracle": _cmd_oracle,
}


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        return _HANDLERS[args.command](args)
    except (DivergedOrInfeasible, NonRealResult) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (LoveDispError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
