"""Command-line entry point: every verification and experiment as a
subcommand with machine-readable CSV/JSON reports.

Exit codes: 0 all assertions passed, 1 an assertion failed, 2 usage error,
3 numerical non-convergence or blow-up.  Reports embed a manifest (the
subcommand, parameters, git describe, UTC timestamp, outcome); identical
argv and seed reproduce byte-identical files up to the timestamp field.
All randomness flows through numpy's counter-based Philox generator keyed
by the given seed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path


class UsageError(Exception):
    """Bad user input: a numeric option out of range, an init spec that
    does not parse or fit the truncation, a --config file that cannot be
    read, names an unknown option or holds a value of the wrong type, or a
    report path that cannot be written.  Exit code 2."""


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def make_manifest(args: argparse.Namespace, outcome: str) -> dict:
    """Manifest of a subcommand run: every parsed option is a parameter."""
    return {
        "subcommand": args.subcommand,
        "parameters": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "git_describe": _git_describe(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outcome": outcome,
    }


def _check_writable(path: str) -> None:
    """Raise UsageError up front if the directory of a report path is
    missing or not writable; creates nothing."""
    parent = os.path.dirname(path) or "."
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise UsageError(f"cannot write report to {path}: {parent} is not a writable directory")


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write report to {path}: {exc}") from exc


def write_csv(path: str, manifest: dict, header: list[str], rows: list[list]) -> None:
    lines = ["# manifest: " + json.dumps(manifest, sort_keys=True), ",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    write_text(path, "\n".join(lines) + "\n")


def write_json(path: str, manifest: dict, data) -> None:
    write_text(path, json.dumps({"manifest": manifest, "data": data}, indent=1) + "\n")


def _print_checks(checks) -> bool:
    """Print each check's line as it completes; True iff every check passed."""
    ok = True
    for check in checks:
        print(check)
        ok &= check.passed
    return ok


# -- subcommands ----------------------------------------------------------------------


def cmd_nf4(args) -> int:
    from .checks import Check, order4_homological, quadruple_bound
    from .order4 import (
        build_F4,
        coefficient_growth_audit,
        f4_coefficient_bound_audit,
        iter_delta,
        divisor_bound_check,
    )

    M = args.modes
    ok = _print_checks([order4_homological(M)])
    F4 = build_F4(M) if args.audit or args.dump_f4 else None
    if args.audit:
        frep = f4_coefficient_bound_audit(F4)
        bound = Check("generator coefficient bound", not frep["violations"], f"{frep['checked']} terms", frep)
        ok &= _print_checks([quadruple_bound(args.divisor_bound), bound])
        audit = coefficient_growth_audit(F4, Fraction(1, 2), Fraction(3, 2))
        print(f"  generator growth constant: {audit.constant_raw:.6g}")
    outcome = "pass" if ok else "fail"
    if args.dump_f4:
        from .poly import poly_to_records

        write_json(args.dump_f4, make_manifest(args, outcome), poly_to_records(F4))
    if args.divisor_csv:
        rows = []
        for t in iter_delta(min(M, args.divisor_bound)):
            rep = divisor_bound_check(t)
            rows.append([*t, rep.divisor, f"{rep.lower_bound:.12g}"])
        write_csv(
            args.divisor_csv,
            make_manifest(args, outcome),
            ["j", "k", "l", "m", "divisor", "bound"],
            rows,
        )
    return 0 if ok else 1


def cmd_nf6(args) -> int:
    from .checks import action_part, order6_homological, resonant_cancellation
    from .order4 import compute_R6
    from .order6 import build_F6, build_K, enumerate_resonant, coefficient_growth_audit_f6
    from .poly import poly_to_records

    M = args.modes
    r6 = compute_R6(M)
    checks = [action_part(M, r6)]
    if args.verify_ktilde:
        checks.append(resonant_cancellation(M, r6))
    checks.append(order6_homological(M, r6))
    ok = _print_checks(checks)
    if args.audit_f6:
        audit = coefficient_growth_audit_f6(build_F6(M, r6))
        print(f"  sextic generator growth constant: {audit.constant_raw:.6g}")
    outcome = "pass" if ok else "fail"
    if args.dump_k:
        write_json(args.dump_k, make_manifest(args, outcome), poly_to_records(build_K(M)))
    if args.resonant_csv:
        rows = [list(t) for t in enumerate_resonant(M)]
        write_csv(
            args.resonant_csv,
            make_manifest(args, outcome),
            ["j1", "j2", "j3", "j4", "j5", "j6"],
            rows,
        )
    return 0 if ok else 1


def cmd_identities(args) -> int:
    from .checks import Check
    from .identities import (
        enumerate_triple_pairs,
        nine_term_sums,
        random_rational_pairs,
        verify_vanishing_sums,
    )

    pairs = enumerate_triple_pairs(args.bound)
    rows = []
    ok = True
    for p in pairs:
        I, II = nine_term_sums(p)
        if I != 0 or II != 0:
            ok = False
        rows.append([*(str(v) for v in p.x), *(str(v) for v in p.y), str(I), str(II)])
    print(Check("enumerated pairs", ok, f"bound={args.bound}, {len(pairs)} pairs"))
    n_random = args.random
    if n_random:
        # verify_vanishing_sums raises on the first pair whose sums do not vanish
        for p in random_rational_pairs(n_random, seed=args.seed):
            verify_vanishing_sums(p)
        print(Check("random rational pairs", True, f"{n_random} pairs"))
    if args.report:
        write_csv(
            args.report,
            make_manifest(args, "pass" if ok else "fail"),
            ["x1", "x2", "x3", "y1", "y2", "y3", "I", "II"],
            rows,
        )
    return 0 if ok else 1


def _parse_init(spec: str, M: int):
    from .states import FourierState, state_from_json
    import math as _math

    try:
        if spec.startswith("planewave:"):
            body = spec.split(":", 1)[1]
            k_str, a_str = body.split(",")
            k = int(k_str)
            A = complex(a_str)
            return FourierState({k: A * _math.sqrt(2 * _math.pi)}, M)
        with open(spec) as fh:
            return state_from_json(fh.read(), M)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"bad --init {spec!r}: {exc}") from exc


def cmd_simulate(args) -> int:
    from .flows import FlowConfig, evolve_vec
    from .states import FourierState, state_to_json

    M = args.modes
    track = tuple(float(s) for s in args.track_s.split(",")) if args.track_s else ()
    q0 = _parse_init(args.init, M)
    for path in (args.out, args.dump_final):
        if path:
            _check_writable(path)
    cfg = FlowConfig(dt=args.dt, t_end=args.t_end, record_interval=args.record_interval)
    times, channels, q_final, _ = evolve_vec(q0.to_vector(), M, cfg, track_s=track)
    manifest = make_manifest(args, "report-only")
    header = ["time", "mass", "momentum", "energy"] + [f"norm_s={s:g}" for s in track]
    rows = []
    for i, t in enumerate(times):
        row = [f"{t:.12g}", *(f"{channels[c][i]:.16e}" for c in ("mass", "momentum", "energy"))]
        row += [f"{channels[f'norm_s{s:g}'][i]:.16e}" for s in track]
        rows.append(row)
    write_csv(args.out, manifest, header, rows)
    if args.dump_final:
        write_text(args.dump_final, state_to_json(FourierState.from_vector(q_final, M)))
    print(f"trajectory written to {args.out} ({len(rows)} records)")
    return 0


def cmd_stability(args) -> int:
    from .checks import Check
    from .stability import StabilityRun, stability_ensemble

    run = StabilityRun(
        s=args.s,
        epsilon=args.eps,
        M=args.modes,
        horizon_exponent=args.r,
        seed=args.seed,
        threshold=args.threshold,
        dt=args.dt,
    )
    rep = stability_ensemble(run, (run.seed,))[0]
    outcome = "pass" if rep.passed else "fail"
    if args.out:
        rows = [
            [f"{t:.12g}", f"{r:.12g}", f"{m:.6e}", f"{e:.6e}"]
            for t, r, m, e in zip(
                rep.times, rep.norm_ratio, rep.mass_drift, rep.energy_drift
            )
        ]
        write_csv(
            args.out,
            make_manifest(args, outcome),
            ["t", "norm_ratio", "mass_drift", "energy_drift"],
            rows,
        )
    detail = f"max ratio {rep.max_ratio:.4f}, threshold {run.threshold}"
    print(Check("norm ratio within threshold", rep.passed, detail, rep))
    return 0 if rep.passed else 1


def cmd_verify_all(args) -> int:
    from .checks import exact_battery

    ok = _print_checks(exact_battery(args.modes, args.identities_bound, args.seed))
    print("verify-all:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nflab",
        description="Exact normal-form verification lab and simulator for the "
        "derivative NLS on the torus",
    )
    parser.add_argument("--config", type=str, default=None, help="JSON config file; flags win")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p4 = sub.add_parser("nf4", help="order-4 construction checks and dumps")
    p4.add_argument("--modes", type=int, default=8)
    p4.add_argument("--dump-f4", type=str, default=None)
    p4.add_argument("--audit", action="store_true")
    p4.add_argument("--divisor-bound", type=int, default=20)
    p4.add_argument(
        "--divisor-csv",
        type=str,
        default=None,
        help="CSV of divisors and bounds for the Delta tuples with "
        "|j| <= min(--modes, --divisor-bound); the audit covers |j| <= --divisor-bound",
    )
    p4.set_defaults(func=cmd_nf4)

    p6 = sub.add_parser("nf6", help="order-6 construction checks and dumps")
    p6.add_argument("--modes", type=int, default=8)
    p6.add_argument("--verify-ktilde", action="store_true")
    p6.add_argument("--dump-k", type=str, default=None)
    p6.add_argument("--audit-f6", action="store_true")
    p6.add_argument("--resonant-csv", type=str, default=None)
    p6.set_defaults(func=cmd_nf6)

    pi = sub.add_parser("identities", help="kernel identity battery")
    pi.add_argument("--bound", type=int, default=10)
    pi.add_argument("--random", type=int, default=0)
    pi.add_argument("--seed", type=int, default=0)
    pi.add_argument("--report", type=str, default=None)
    pi.set_defaults(func=cmd_identities)

    ps = sub.add_parser("simulate", help="evolve the truncated equation")
    ps.add_argument("--modes", type=int, required=True)
    ps.add_argument("--dt", type=float, default=1e-3)
    ps.add_argument("--t-end", type=float, default=10.0)
    ps.add_argument("--init", type=str, required=True, help="state JSON file or planewave:k,A")
    ps.add_argument("--track-s", type=str, default="")
    ps.add_argument("--record-interval", type=float, default=None)
    ps.add_argument("--out", type=str, default="trajectory.csv")
    ps.add_argument("--dump-final", type=str, default=None)
    ps.set_defaults(func=cmd_simulate)

    pst = sub.add_parser("stability", help="long-time norm-ratio experiment")
    pst.add_argument("--s", type=float, required=True)
    pst.add_argument("--eps", type=float, required=True)
    pst.add_argument("--modes", type=int, default=32)
    pst.add_argument("--r", type=float, default=4.0)
    pst.add_argument("--seed", type=int, default=0)
    pst.add_argument("--threshold", type=float, default=3.0)
    pst.add_argument("--dt", type=float, default=1e-3)
    pst.add_argument("--out", type=str, default=None)
    pst.set_defaults(func=cmd_stability)

    pv = sub.add_parser("verify-all", help="full exact verification battery")
    pv.add_argument("--modes", type=int, default=8)
    pv.add_argument("--identities-bound", type=int, default=10)
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=cmd_verify_all)

    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            conf = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad --config {path!r}: {exc}") from exc
    if not isinstance(conf, dict):
        raise UsageError(f"bad --config {path!r}: expected a JSON object")
    return conf


def _option_ranges() -> dict[str, dict[str, tuple[float, float | None, bool]]]:
    """(low, high, closed) range of each bounded numeric option, per
    subcommand; high None is unbounded.  The integer ranges are closed: the
    lows are the smallest values the library calls accept, a divisor bound
    above QUAD_INT64_MAX_ABS would overflow the int64 audit, and a seed is a
    Philox key, below 2**128.  The float ranges are open: a time step must
    be positive and an amplitude lies strictly between 0 and 1."""
    from .order4 import QUAD_INT64_MAX_ABS

    seed = (0, 2**128 - 1, True)
    modes = (1, None, True)
    dt = (0.0, None, False)
    return {
        "nf4": {"modes": modes, "divisor_bound": (1, QUAD_INT64_MAX_ABS, True)},
        "nf6": {"modes": (2, None, True)},
        "identities": {"bound": (1, None, True), "random": (0, None, True), "seed": seed},
        "simulate": {"modes": modes, "dt": dt},
        "stability": {"modes": modes, "seed": seed, "dt": dt, "eps": (0.0, 1.0, False)},
        "verify-all": {"modes": (2, None, True), "seed": seed},
    }


def _check_ranges(args: argparse.Namespace) -> argparse.Namespace:
    """Raise UsageError for a numeric option outside its range (NaN is
    outside every open range)."""
    for name, (low, high, closed) in _option_ranges()[args.subcommand].items():
        value = getattr(args, name)
        if closed:
            inside = low <= value and (high is None or value <= high)
            span = f"at least {low}" if high is None else f"between {low} and {high}"
        else:
            inside = low < value and (high is None or value < high)
            span = f"greater than {low:g}" if high is None else f"strictly between {low:g} and {high:g}"
        if not inside:
            raise UsageError(f"--{name.replace('_', '-')} must be {span}, got {value}")
    return args


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line.  A --config file supplies defaults for the
    subcommand's options, so every flag given on the command line wins and
    a required option may come from the file instead.  A config value its
    option's type rejects, or a numeric option outside its range, is a
    UsageError."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    # the first parse only finds the subcommand and --config, so it must not
    # demand an option that the config file may still supply
    required = [
        action
        for sub in subparsers.choices.values()
        for action in sub._actions
        if action.required
    ]
    for action in required:
        action.required = False
    args = parser.parse_args(argv)
    conf = {} if args.config is None else _load_config(args.config)
    options = set(vars(args)) - {"config", "subcommand", "func"}
    unknown = sorted(set(conf) - options)
    if unknown:
        raise UsageError(
            f"--config {args.config!r} has keys that {args.subcommand} does not take: "
            + ", ".join(unknown)
        )
    sub = subparsers.choices[args.subcommand]
    # a typed value gets the conversion its text would get on the command
    # line; a null stands for "not given" only where the default is None
    for action in sub._actions:
        value = conf.get(action.dest)
        if action.dest not in conf or action.type is None or (value is None and action.default is None):
            continue
        try:
            if value is None:
                raise ValueError("null")
            conf[action.dest] = action.type(str(value))
        except ValueError:
            raise UsageError(
                f"bad --config {args.config!r}: invalid {action.type.__name__} value for "
                f"{action.option_strings[0]}: {json.dumps(value)}"
            ) from None
    for action in required:
        action.required = conf.get(action.dest) is None
    sub.set_defaults(**conf)
    return _check_ranges(parser.parse_args(argv))


def main(argv=None) -> int:
    from .flows import BlowupError, FlowConvergenceError, StepBudgetError

    try:
        args = parse_args(argv)
        return args.func(args)
    except (FlowConvergenceError, BlowupError, StepBudgetError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
