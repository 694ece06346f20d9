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
import cmath
import json
import math
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


class Ranged:
    """Type of a numeric option: converts its text with kind and carries the
    range the value must lie in, [low, high] if closed, else (low, high),
    high None unbounded; NaN is outside every range and an unbounded range
    excludes infinity.  cap is a further upper limit, one that the library's
    enumerator sets rather than the option's meaning.  The __name__ is
    kind's, so argparse and --config name the kind in their messages."""

    def __init__(self, kind, low, high=None, closed=True, cap=None):
        self.kind, self.low, self.high, self.closed, self.cap = kind, low, high, closed, cap
        self.__name__ = kind.__name__

    def __call__(self, text: str):
        return self.kind(text)

    def check(self, flag: str, value) -> None:
        """Raise UsageError if value lies outside the range or over the cap."""
        low, high = self.low, self.high
        if value == math.inf:
            raise UsageError(f"{flag} must be finite, got {value}")
        if self.closed:
            inside = low <= value and (high is None or value <= high)
            span = f"at least {low}" if high is None else f"between {low} and {high}"
        else:
            inside = low < value and (high is None or value < high)
            span = f"greater than {low:g}" if high is None else f"strictly between {low:g} and {high:g}"
        if not inside:
            raise UsageError(f"{flag} must be {span}, got {value}")
        if self.cap is not None and value > self.cap:
            raise UsageError(f"{flag} must be at most {self.cap}, got {value}")


def report_path(text: str) -> str:
    """Type of an option that names a report file: the text itself, marking
    the option for the writable check before any work."""
    return text


def _check_writable(path: str) -> None:
    """Raise UsageError if a report path is a directory, or its directory is
    missing or not writable; creates nothing."""
    if os.path.isdir(path):
        raise UsageError(f"cannot write report to {path}: it is a directory")
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
        coefficient_growth_audit,
        f4_coefficient_bound_audit,
        iter_delta,
        divisor_bound_check,
    )

    M = args.modes
    homological = order4_homological(M)
    ok = _print_checks([homological])
    F4 = homological.report[1]
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
    from .order4 import coefficient_growth_audit, compute_R6
    from .order6 import enumerate_resonant
    from .poly import poly_to_records

    M = args.modes
    r6 = compute_R6(M)
    action = action_part(M, r6)
    ktilde = [resonant_cancellation(M, r6)] if args.verify_ktilde else []
    homological = order6_homological(M, r6)
    ok = _print_checks([action, *ktilde, homological])
    if args.audit_f6:
        # steep-head shape (j1*)^(-7/2) (j2*...j6*)^(5/2)
        audit = coefficient_growth_audit(homological.report[1], Fraction(5, 2), Fraction(7, 2))
        print(f"  sextic generator growth constant: {audit.constant_raw:.6g}")
    outcome = "pass" if ok else "fail"
    if args.dump_k:
        write_json(args.dump_k, make_manifest(args, outcome), poly_to_records(action.report[2]))
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
    from .checks import Check, vanishing_sums
    from .identities import enumerate_triple_pairs, nine_term_sums, random_rational_pairs

    pairs = enumerate_triple_pairs(args.bound)
    rows = []
    ok = True
    for p in pairs:
        I, II = nine_term_sums(p)
        if I != 0 or II != 0:
            ok = False
        rows.append([*(str(v) for v in p.x), *(str(v) for v in p.y), str(I), str(II)])
    print(Check("enumerated pairs", ok, f"bound={args.bound}, {len(pairs)} pairs"))
    if args.random:
        check = vanishing_sums("random rational pairs", random_rational_pairs(args.random, seed=args.seed))
        ok &= _print_checks([check])
    if args.report:
        write_csv(
            args.report,
            make_manifest(args, "pass" if ok else "fail"),
            ["x1", "x2", "x3", "y1", "y2", "y3", "I", "II"],
            rows,
        )
    return 0 if ok else 1


def _parse_init(spec: str, M: int):
    from .states import state_from_json, state_vector

    try:
        if spec.startswith("planewave:"):
            body = spec.split(":", 1)[1]
            k_str, a_str = body.split(",")
            k = int(k_str)
            A = complex(a_str)
            if not cmath.isfinite(A):
                raise ValueError(f"amplitude {a_str} is not finite")
            q0 = state_vector({k: A * math.sqrt(2 * math.pi)}, M)
        else:
            with open(spec) as fh:
                q0 = state_from_json(fh.read(), M)
        # a product, not **, which raises OverflowError where this is inf
        mass = sum(abs(v) * abs(v) for v in q0.tolist())
        if not math.isfinite(mass):
            raise ValueError(f"initial mass {mass} is not finite")
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise UsageError(f"bad --init {spec!r}: {exc}") from exc
    return q0


def _check_weight(flag: str, s: float, M: int) -> None:
    """Raise UsageError if the Sobolev weight |j|^(2s) at |j| = M overflows
    a float."""
    try:
        float(M) ** (2 * s)
    except OverflowError:
        raise UsageError(f"{flag} {s:g} is too large for --modes {M}: the weight {M}^{2 * s:g} overflows a float") from None


def cmd_simulate(args) -> int:
    from .flows import FlowConfig, evolve_vec
    from .states import state_to_json

    M = args.modes
    try:
        track = tuple(float(s) for s in args.track_s.split(",")) if args.track_s else ()
    except ValueError:
        raise UsageError(f"bad --track-s {args.track_s!r}: expected comma-separated numbers") from None
    for s in track:
        if not 0 <= s < math.inf:
            raise UsageError(f"--track-s values must be finite and at least 0, got {s}")
        _check_weight("--track-s", s, M)
    q0 = _parse_init(args.init, M)
    cfg = FlowConfig(dt=args.dt, t_end=args.t_end, record_interval=args.record_interval)
    times, channels, q_final, _ = evolve_vec(q0, M, cfg, track_s=track)
    manifest = make_manifest(args, "report-only")
    header = ["time", "mass", "momentum", "energy"] + [f"norm_s={s:g}" for s in track]
    rows = []
    for i, t in enumerate(times):
        row = [f"{t:.12g}", *(f"{channels[c][i]:.16e}" for c in ("mass", "momentum", "energy"))]
        row += [f"{channels[f'norm_s{s:g}'][i]:.16e}" for s in track]
        rows.append(row)
    write_csv(args.out, manifest, header, rows)
    if args.dump_final:
        write_text(args.dump_final, state_to_json(q_final))
    print(f"trajectory written to {args.out} ({len(rows)} records)")
    return 0


def cmd_stability(args) -> int:
    from .checks import Check
    from .stability import StabilityRun, stability_ensemble

    _check_weight("--s", args.s, args.modes)
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
    from .identities import TRIPLE_PAIR_MAX_BOUND
    from .states import zero_momentum_max_abs

    # The integer ranges are closed, their lows the smallest values the
    # library calls accept.  A seed is a Philox key, below 2**128.  The
    # exhaustive enumerator takes quadruples within zero_momentum_max_abs(4)
    # (1058): the divisor audit and build_F4(M) enumerate within their bound,
    # compute_R6(M) within 3M.  The triple-pair enumerator takes bounds up to
    # TRIPLE_PAIR_MAX_BOUND (100): the identity battery enumerates within its
    # bound, the resonant set of the order-6 checks within M.  A time step,
    # a horizon, the exponent r of the horizon eps^-r and a record interval
    # are positive.
    quad_radius = zero_momentum_max_abs(4)
    seed = Ranged(int, 0, 2**128 - 1)
    positive = Ranged(float, 0.0, closed=False)
    modes = Ranged(int, 1)
    r6_modes = Ranged(int, 2, cap=min(quad_radius // 3, TRIPLE_PAIR_MAX_BOUND))
    pair_bound = Ranged(int, 1, cap=TRIPLE_PAIR_MAX_BOUND)

    parser = argparse.ArgumentParser(
        prog="nflab",
        description="Exact normal-form verification lab and simulator for the "
        "derivative NLS on the torus",
    )
    parser.add_argument("--config", type=str, default=None, help="JSON config file; flags win")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p4 = sub.add_parser("nf4", help="order-4 construction checks and dumps")
    p4.add_argument("--modes", type=Ranged(int, 1, cap=quad_radius), default=8)
    p4.add_argument("--dump-f4", type=report_path, default=None)
    p4.add_argument("--audit", action="store_true")
    p4.add_argument("--divisor-bound", type=Ranged(int, 1, quad_radius), default=20)
    p4.add_argument(
        "--divisor-csv",
        type=report_path,
        default=None,
        help="CSV of divisors and bounds for the Delta tuples with "
        "|j| <= min(--modes, --divisor-bound); the audit covers |j| <= --divisor-bound",
    )
    p4.set_defaults(func=cmd_nf4)

    p6 = sub.add_parser("nf6", help="order-6 construction checks and dumps")
    p6.add_argument("--modes", type=r6_modes, default=8)
    p6.add_argument("--verify-ktilde", action="store_true")
    p6.add_argument("--dump-k", type=report_path, default=None)
    p6.add_argument("--audit-f6", action="store_true")
    p6.add_argument("--resonant-csv", type=report_path, default=None)
    p6.set_defaults(func=cmd_nf6)

    pi = sub.add_parser("identities", help="kernel identity battery")
    pi.add_argument("--bound", type=pair_bound, default=10)
    pi.add_argument("--random", type=Ranged(int, 0), default=0)
    pi.add_argument("--seed", type=seed, default=0)
    pi.add_argument("--report", type=report_path, default=None)
    pi.set_defaults(func=cmd_identities)

    ps = sub.add_parser("simulate", help="evolve the truncated equation")
    ps.add_argument("--modes", type=modes, required=True)
    ps.add_argument("--dt", type=positive, default=1e-3)
    ps.add_argument("--t-end", type=positive, default=10.0)
    ps.add_argument("--init", type=str, required=True, help="state JSON file or planewave:k,A")
    ps.add_argument("--track-s", type=str, default="")
    ps.add_argument("--record-interval", type=positive, default=None)
    ps.add_argument("--out", type=report_path, default="trajectory.csv")
    ps.add_argument("--dump-final", type=report_path, default=None)
    ps.set_defaults(func=cmd_simulate)

    pst = sub.add_parser("stability", help="long-time norm-ratio experiment")
    pst.add_argument("--s", type=Ranged(float, 0), required=True)
    # an amplitude, strictly between 0 and 1
    pst.add_argument("--eps", type=Ranged(float, 0.0, 1.0, closed=False), required=True)
    pst.add_argument("--modes", type=modes, default=32)
    pst.add_argument("--r", type=positive, default=4.0)
    pst.add_argument("--seed", type=seed, default=0)
    # the norm ratio is 1 at t = 0
    pst.add_argument("--threshold", type=Ranged(float, 1), default=3.0)
    pst.add_argument("--dt", type=positive, default=1e-3)
    pst.add_argument("--out", type=report_path, default=None)
    pst.set_defaults(func=cmd_stability)

    pv = sub.add_parser("verify-all", help="full exact verification battery")
    pv.add_argument("--modes", type=r6_modes, default=8)
    pv.add_argument("--identities-bound", type=pair_bound, default=10)
    pv.add_argument("--seed", type=seed, default=0)
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


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line.  A --config file supplies defaults for the
    subcommand's options, so every flag given on the command line wins and
    a required option may come from the file instead.  A config value its
    option's type rejects, a numeric option outside its range, or a report
    path in a directory that cannot be written, is a UsageError."""
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
    args = parser.parse_args(argv)
    # every value out of range is reported before any unwritable report path
    for action in sorted(sub._actions, key=lambda a: a.type is report_path):
        value = getattr(args, action.dest, None)
        if value is None:
            continue
        if isinstance(action.type, Ranged):
            action.type.check(action.option_strings[0], value)
        elif action.type is report_path:
            _check_writable(value)
    return args


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
