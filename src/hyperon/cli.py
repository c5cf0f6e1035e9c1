"""Batch command-line front end.

Subcommands: table, complementarity, simulate, analyze, bell, context.
Reports go to --out or stdout as CSV or JSON (6 significant digits, the two
formats agree value for value); event files use the fixed event format at
full precision.  Diagnostics go to stderr.  Exit codes: 0 success, 1 usage
error, 2 data error.  Every subcommand is deterministic given its flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import dataio, inequalities, mc, pairs
from .dataio import DataError
from .decay import chi_sp_mod_pi, params_from_alpha_phi
from .interferometer import SpinState, fringe_visibility, path_predictability

PARAMS_ENV = "HYPERON_PARAMS"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def _fmt(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _emit(rows: list[dict], args) -> None:
    rows = [{k: _fmt(v) for k, v in row.items()} for row in rows]
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        keys = list(rows[0].keys())
        lines = [",".join(keys)]
        for row in rows:
            lines.append(",".join(_csv_cell(row[k]) for k in keys))
        text = "\n".join(lines) + "\n"
    _write_out(text, args.out)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {out}: {exc}") from None


def _load_table(args) -> dataio.ParameterTable:
    path = getattr(args, "params", None) or os.environ.get(PARAMS_ENV)
    if path:
        return dataio.load_parameters(path)
    return dataio.load_bundled_parameters()


def _parse_vector(text: str) -> np.ndarray:
    try:
        v = np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise UsageError(f"cannot parse vector {text!r}; expected x,y,z") from None
    if v.shape != (3,):
        raise UsageError(f"expected 3 components in {text!r}")
    return v


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_table(args) -> None:
    table = _load_table(args)
    rows = []
    for row in table:
        p = row.params()
        rows.append(
            {
                "parent": row.parent,
                "channel": row.channel,
                "branching": row.branching,
                "chi_sp_over_pi": chi_sp_mod_pi(p) / np.pi,
                "visibility": p.visibility,
                "predictability": p.predictability,
            }
        )
    if not rows:
        raise DataError("parameter table is empty")
    _emit(rows, args)


def _cmd_complementarity(args) -> None:
    state = SpinState(theta=args.theta, phi=args.phi)
    fitted = fringe_visibility(state, n_points=args.points)
    row = {
        "theta": args.theta,
        "phi": args.phi,
        "fitted_visibility": fitted,
        "analytic_visibility": abs(np.sin(args.theta)),
        "predictability": path_predictability(state),
        "vsq_plus_psq": fitted**2 + path_predictability(state) ** 2,
    }
    _emit([row], args)


def _resolve_params(args, prefix: str = ""):
    name = getattr(args, f"{prefix}hyperon".replace("-", "_"), None)
    alpha = getattr(args, f"{prefix}alpha".replace("-", "_"), None)
    if name is not None:
        table = _load_table(args)
        row = table.find(name, getattr(args, f"{prefix}channel".replace("-", "_"), None))
        return row.params(), f"{row.parent}:{row.channel.replace(' ', '')}"
    if alpha is None:
        raise UsageError(f"specify --{prefix}hyperon or --{prefix}alpha")
    phi_over_pi = getattr(args, f"{prefix}phi_over_pi".replace("-", "_"), 0.0) or 0.0
    return params_from_alpha_phi(alpha, phi_over_pi * np.pi), f"alpha={alpha:g}"


def _cmd_simulate(args) -> None:
    if args.kind == "single":
        params, channel = _resolve_params(args)
        model = mc.SingleDecayModel(
            params=params, polarization=_parse_vector(args.pol), channel=channel
        )
    elif args.kind == "pair":
        if args.k is None:
            raise UsageError("simulate pair requires --k")
        model = mc.PairCorrelationModel(k=args.k, channel=f"pair(k={args.k:g})")
    else:
        mu, mu_name = _resolve_params(args, "mu_")
        nu, nu_name = _resolve_params(args, "nu_")
        model = mc.CascadeDecayModel(
            mu=mu, nu=nu, polarization=_parse_vector(args.pol),
            channel=f"{mu_name}>{nu_name}",
        )
    try:
        config = mc.SampleConfig(
            seed=args.seed, events=args.events, model=model, workers=args.threads
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    events = mc.generate(config)
    if args.out is None or args.out == "-":
        dataio.write_events(sys.stdout, events)
    else:
        dataio.write_events(args.out, events)
        print(f"wrote {len(events)} records to {args.out}", file=sys.stderr)


def _cmd_analyze(args) -> None:
    events = dataio.read_events(args.events)
    n1, n2 = dataio.paired_directions(events)
    if args.what == "witness":
        value, stderr = pairs.witness_estimate(n1, n2)
        _emit(
            [
                {
                    "n_pairs": n1.shape[0],
                    "witness": value,
                    "stderr": stderr,
                    "verdict": "entangled" if value < 0.0 else "not detected",
                }
            ],
            args,
        )
    else:
        model = None
        if args.renormalize:
            if args.alpha is None or args.alphabar is None:
                raise UsageError("--renormalize requires --alpha and --alphabar")
            model = pairs.PairModel(alpha_L=args.alpha, alpha_Lbar=args.alphabar)
        m = pairs.correlation_estimate(n1, n2, model=model, renormalize=args.renormalize)
        row = {"mode": "renormalized (non-Bell-admissible)" if args.renormalize else "raw"}
        for i, a in enumerate("xyz"):
            for j, b in enumerate("xyz"):
                row[f"m_{a}{b}"] = m[i, j]
        _emit([row], args)


def _settings_string(settings: inequalities.BellSettings) -> str:
    def side(label, vecs):
        return ";".join(
            f"{label}{i + 1}=({v[0]:.6g} {v[1]:.6g} {v[2]:.6g})" for i, v in enumerate(vecs)
        )

    return side("a", settings.a) + "|" + side("b", settings.b)


def _cmd_bell(args) -> None:
    spec = inequalities.inequality(args.inequality)
    if args.k is not None and not 0.0 <= args.k <= 1.0:
        raise UsageError(f"--k must lie in [0, 1], got {args.k}")
    if args.threshold:
        k_star = inequalities.threshold(spec, seed=args.seed)
        _emit([{"inequality": spec.name, "threshold": k_star}], args)
        return
    if args.k is None:
        raise UsageError("bell requires --k (or --threshold)")
    value, settings = inequalities.maximize(spec, inequalities.ProbModel(args.k), seed=args.seed)
    _emit(
        [
            {
                "inequality": spec.name,
                "k": args.k,
                "max_value": value,
                "verdict": "violation" if value > 0.0 else "no violation possible",
                "settings": _settings_string(settings),
            }
        ],
        args,
    )


def _cmd_context(args) -> None:
    value = inequalities.contextuality_value(args.alpha, args.alphabar)
    root = inequalities.equal_alpha_contextuality_threshold()
    _emit(
        [
            {
                "alpha": args.alpha,
                "alphabar": args.alphabar,
                "value": value,
                "classical_bound": inequalities.MERMIN_PERES_CLASSICAL_BOUND,
                "verdict": "contextual" if value > inequalities.MERMIN_PERES_CLASSICAL_BOUND
                else "no violation",
                "equal_alpha_formula_root": root,
                "published_equal_alpha_claim": inequalities.PUBLISHED_EQUAL_ALPHA_THRESHOLD,
                "claim_consistent_with_formula": abs(root - inequalities.PUBLISHED_EQUAL_ALPHA_THRESHOLD) < 1e-2,
            }
        ],
        args,
    )


# ---------------------------------------------------------------------------


def _add_global_flags(parser, suppress: bool) -> None:
    # the same flags are accepted before and after the subcommand; the
    # subparser copies must not clobber values already parsed by the root
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--seed", type=int, default=default(1), help="master seed (64-bit)")
    parser.add_argument("--threads", type=int, default=default(None),
                        help="worker threads (default all CPUs, never more than CPUs)")
    parser.add_argument("--out", default=default(None), help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=default("csv"))


def build_parser() -> _Parser:
    parser = _Parser(prog="hyperon", description=__doc__)
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="reproduce the channel parameter table")
    _add_global_flags(p, suppress=True)
    p.add_argument("--params", default=None, help=f"parameter file (default ${PARAMS_ENV} or bundled)")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("complementarity", help="interferometer visibility/predictability scan")
    _add_global_flags(p, suppress=True)
    p.add_argument("--theta", type=float, required=True, help="initial polar angle (radians)")
    p.add_argument("--phi", type=float, default=0.0, help="initial azimuth (radians)")
    p.add_argument("--points", type=int, default=64, help="phase-scan grid size")
    p.set_defaults(func=_cmd_complementarity)

    p = sub.add_parser("simulate", help="generate decay events")
    _add_global_flags(p, suppress=True)
    p.add_argument("kind", choices=("single", "pair", "cascade"))
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--hyperon", default=None, help="channel lookup by parent name")
    p.add_argument("--channel", default=None, help="channel selector, e.g. 'p pi-'")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--phi-over-pi", type=float, default=0.0)
    p.add_argument("--k", type=float, default=None, help="pair correlation alpha*alphabar")
    p.add_argument("--mu-hyperon", default=None)
    p.add_argument("--mu-channel", default=None)
    p.add_argument("--mu-alpha", type=float, default=None)
    p.add_argument("--mu-phi-over-pi", type=float, default=0.0)
    p.add_argument("--nu-hyperon", default=None)
    p.add_argument("--nu-channel", default=None)
    p.add_argument("--nu-alpha", type=float, default=None)
    p.add_argument("--nu-phi-over-pi", type=float, default=0.0)
    p.add_argument("--pol", default="0,0,0", help="parent polarization vector x,y,z")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="estimate pair observables from an event file")
    _add_global_flags(p, suppress=True)
    p.add_argument("what", choices=("witness", "correlations"))
    p.add_argument("--events", required=True, help="event file path")
    p.add_argument("--renormalize", action="store_true")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--alphabar", type=float, default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bell", help="maximize a Bell expression or find its threshold")
    _add_global_flags(p, suppress=True)
    p.add_argument("--inequality", choices=("I2", "I3", "I4"), required=True)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--threshold", action="store_true")
    p.set_defaults(func=_cmd_bell)

    p = sub.add_parser("context", help="Mermin-Peres contextuality value")
    _add_global_flags(p, suppress=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--alphabar", type=float, required=True)
    p.set_defaults(func=_cmd_context)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
