"""Batch command-line front end.

Subcommands: table, complementarity, simulate, analyze, bell, context.
Reports go to --out or stdout as CSV or JSON (6 significant digits, the two
formats agree value for value); event files use the fixed event format at
full precision.  Diagnostics go to stderr.  Exit codes: 0 success, 1 usage
error, 2 data error.  Every subcommand is deterministic given its flags.
"""

from __future__ import annotations

import argparse
import functools
import math
import numbers
import os
import re
import sys
from pathlib import Path
from typing import NoReturn

from .errors import DataError

PARAMS_ENV = "HYPERON_PARAMS"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # any negative number float() reads, -1e-3 and -inf too, is the value of the flag before it
        self._negative_number_matcher = re.compile(
            r"-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)\Z", re.IGNORECASE)

    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def _fmt(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, numbers.Integral):  # numpy registers its integers here
        return int(value)
    return value


def _emit(rows: list[dict], args) -> None:
    rows = [{k: _fmt(v) for k, v in row.items()} for row in rows]
    if args.format == "json":
        import json

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


def _write_stdout(write, what: str) -> None:
    """write(sys.stdout), then flush it; a failed write, as to a closed pipe, is a DataError."""
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        # later flushes of stdout, such as the interpreter's at exit, go to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise DataError(f"cannot write {what}: {exc}") from None


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        _write_stdout(lambda stdout: stdout.write(text), "report")
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {out}: {exc}") from None


def _load_table(args):
    from . import params

    path = getattr(args, "params", None) or os.environ.get(PARAMS_ENV)
    if path:
        return params.load_parameters(path)
    return params.load_bundled_parameters()


def _parse_vector(text: str) -> list[float]:
    try:
        v = [float(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse vector {text!r}; expected x,y,z") from None
    if len(v) != 3:
        raise UsageError(f"expected 3 components in {text!r}")
    return v


# ---------------------------------------------------------------------------
# subcommand handlers: each command is a fresh process, so each handler
# imports the modules it runs, and no command pays for another's; --help
# and usage errors exit before any of them loads.  bell, table, context and
# complementarity are scalar work and never load numpy


def _cmd_table(args) -> None:
    from .params import chi_sp_mod_pi

    table = _load_table(args)
    rows = []
    for row in table:
        p = row.params()
        rows.append(
            {
                "parent": row.parent,
                "channel": row.channel,
                "branching": row.branching,
                "chi_sp_over_pi": chi_sp_mod_pi(p) / math.pi,
                "visibility": p.visibility,
                "predictability": p.predictability,
            }
        )
    _emit(rows, args)


def _cmd_complementarity(args) -> None:
    from .interferometer import SpinState, fringe_visibility, path_predictability

    state = SpinState(theta=args.theta, phi=args.phi)
    fitted = fringe_visibility(state)
    predictability = path_predictability(state)
    row = {
        "theta": args.theta,
        "phi": args.phi,
        "fitted_visibility": fitted,
        "analytic_visibility": abs(math.sin(args.theta)),
        "predictability": predictability,
        "vsq_plus_psq": fitted**2 + predictability**2,
    }
    _emit([row], args)


def _resolve_params(args, table, prefix: str = ""):
    """Parameters and channel label from the flags --{prefix}hyperon, --{prefix}alpha, ...

    `table()` returns the parameter table that --{prefix}hyperon looks up.
    """
    from .params import params_from_alpha_phi

    name, channel, alpha, phi_over_pi = (
        getattr(args, (prefix + key).replace("-", "_"))
        for key in ("hyperon", "channel", "alpha", "phi-over-pi")
    )
    if name is not None:  # the parser takes exactly one of --{prefix}hyperon and --{prefix}alpha
        if phi_over_pi is not None:
            raise UsageError(f"--{prefix}phi-over-pi applies only with --{prefix}alpha")
        row = table().find(name, channel)
        return row.params(), f"{row.parent}:{row.channel.replace(' ', '')}"
    if channel is not None:
        raise UsageError(f"--{prefix}channel applies only with --{prefix}hyperon")
    return params_from_alpha_phi(alpha, (phi_over_pi or 0.0) * math.pi), f"alpha={alpha:g}"


def _cmd_simulate(args) -> None:
    from . import dataio, mc

    if args.kind == "pair":
        model = mc.PairCorrelationModel(k=args.k, channel=f"pair(k={args.k:g})")
    else:
        # the decay flags: one decay for single, the first (mu-) and second (nu-) for cascade
        prefixes = ("",) if args.kind == "single" else ("mu-", "nu-")
        if args.params is not None and all(getattr(args, f"{p}hyperon".replace("-", "_")) is None
                                           for p in prefixes):
            raise UsageError("--params applies only with " + " or ".join(f"--{p}hyperon" for p in prefixes))
        pol = (0.0, 0.0, 0.0) if args.pol is None else _parse_vector(args.pol)
        table = functools.cache(functools.partial(_load_table, args))  # loaded once, if a decay looks it up
        decays = [_resolve_params(args, table, prefix) for prefix in prefixes]
        if args.kind == "single":
            (params, channel), = decays
            model = mc.SingleDecayModel(params=params, polarization=pol, channel=channel)
        else:
            (mu, mu_name), (nu, nu_name) = decays
            model = mc.CascadeDecayModel(mu=mu, nu=nu, polarization=pol, channel=f"{mu_name}>{nu_name}")
    try:
        config = mc.SampleConfig(
            seed=args.seed, events=args.events, model=model, workers=args.threads
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    # each chunk is formatted on the thread that sampled it, and written as it arrives
    chunks = mc.iter_chunks(config, dataio.format_blocks)
    if args.out is None or args.out == "-":
        _write_stdout(lambda stdout: dataio.write_events(stdout, chunks), "event stream")
    else:
        dataio.write_events(args.out, chunks)
        print(f"wrote {config.events * len(model.roles)} records to {args.out}", file=sys.stderr)


def _pair_moments(args):
    from . import dataio, pairs

    # read, pair and estimate block by block, never holding the whole file; fold only the moments printed
    blocks = dataio.iter_events(args.events, args.threads)
    moments = pairs.PairMoments.from_blocks(dataio.iter_pairs(blocks), dots=args.what == "witness",
                                            cross=args.what == "correlations")
    try:
        moments.require_events()
    except ValueError as exc:  # too few pairs is a fault of the file
        raise DataError(str(exc)) from None
    return moments


def _cmd_witness(args) -> None:
    moments = _pair_moments(args)
    value, stderr = moments.witness()
    # significance, not a sign: a separable sample reads below 0 about half the time
    verdict = "entangled" if value + 3.0 * stderr < 0.0 else "not detected"
    _emit([{"n_pairs": moments.count, "witness": value, "stderr": stderr, "verdict": verdict}], args)


def _cmd_correlations(args) -> None:
    from . import pairs

    model = None
    if args.renormalize:
        if args.alpha is None or args.alphabar is None:
            raise UsageError("--renormalize requires --alpha and --alphabar")
        model = pairs.PairModel(alpha_L=args.alpha, alpha_Lbar=args.alphabar)
    elif args.alpha is not None or args.alphabar is not None:
        raise UsageError("--alpha and --alphabar apply only with --renormalize")
    m = _pair_moments(args).correlations(model)
    row = {"mode": "renormalized (non-Bell-admissible)" if args.renormalize else "raw"}
    for i, a in enumerate("xyz"):
        for j, b in enumerate("xyz"):
            row[f"m_{a}{b}"] = m[i, j]
    _emit([row], args)


def _settings_string(settings) -> str:
    """The a and b settings of an `inequalities.BellSettings`, on one line."""

    def side(label, vecs):
        return ";".join(
            f"{label}{i + 1}=({v[0]:.6g} {v[1]:.6g} {v[2]:.6g})" for i, v in enumerate(vecs)
        )

    return side("a", settings.a) + "|" + side("b", settings.b)


def _cmd_bell(args) -> None:
    from . import inequalities

    spec = inequalities.inequality(args.inequality)
    if args.threshold:
        _emit([{"inequality": spec.name, "threshold": inequalities.threshold(spec)}], args)
        return
    if not 0.0 <= args.k <= 1.0:
        raise UsageError(f"--k must lie in [0, 1], got {args.k}")
    model = inequalities.ProbModel(args.k)
    value, settings = inequalities.maximize(spec, model)
    # "no violation possible" needs the certified bound; an attained value above 0 is a violation
    if inequalities.certified_bound(spec, settings, model) <= 0.0:
        verdict = "no violation possible"
    else:
        verdict = "violation" if value > 0.0 else "undecided"
    _emit([{"inequality": spec.name, "k": args.k, "max_value": value, "verdict": verdict,
            "settings": _settings_string(settings)}], args)


def _cmd_context(args) -> None:
    from . import inequalities

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


def build_parser() -> _Parser:
    # each command declares only the flags its handler reads, so argparse
    # refuses any other.  The global flags are declared once and accepted at
    # every level, before and after each command word (the later one wins); a
    # flag that is not given stays off the namespace, so a later level's copy
    # never clobbers a value given before it, and main() passes their
    # defaults in as the starting namespace
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    # every command accepts them; one that does not use --seed or --threads ignores it
    common.add_argument("--seed", type=int, help="master seed (64-bit; simulate)")
    common.add_argument("--threads", type=int,
                        help="worker threads of simulate and analyze (default all CPUs, "
                             "never more than CPUs)")
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--format", choices=("csv", "json"))
    parser = _Parser(prog="hyperon", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, summary, func=None):
        p = subparsers.add_parser(name, parents=[common], help=summary)
        if func is not None:
            p.set_defaults(func=func)
        return p

    p = command(sub, "table", "reproduce the channel parameter table", _cmd_table)
    p.add_argument("--params", help=f"parameter file (default ${PARAMS_ENV} or bundled)")

    p = command(sub, "complementarity", "interferometer visibility/predictability scan",
                _cmd_complementarity)
    p.add_argument("--theta", type=float, required=True, help="initial polar angle (radians)")
    p.add_argument("--phi", type=float, default=0.0, help="initial azimuth (radians)")

    kinds = command(sub, "simulate", "generate decay events", _cmd_simulate).add_subparsers(
        dest="kind", required=True)
    p = command(kinds, "pair", "singlet pairs with correlation scale k")
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--k", type=float, required=True, help="pair correlation alpha*alphabar")
    for kind, summary, prefixes in (("single", "one decay of a polarized hyperon", ("",)),
                                    ("cascade", "a decay chain, first (mu-) then second (nu-) decay",
                                     ("mu-", "nu-"))):
        p = command(kinds, kind, summary)
        p.add_argument("--events", type=int, required=True)
        p.add_argument("--params", help=f"parameter file (default ${PARAMS_ENV} or bundled)")
        p.add_argument("--pol", help="parent polarization vector x,y,z (default 0,0,0)")
        for prefix in prefixes:
            decay = p.add_mutually_exclusive_group(required=True)
            decay.add_argument(f"--{prefix}hyperon", help="channel lookup by parent name")
            decay.add_argument(f"--{prefix}alpha", type=float)
            p.add_argument(f"--{prefix}channel", help=f"with --{prefix}hyperon: channel, e.g. 'p pi-'")
            p.add_argument(f"--{prefix}phi-over-pi", type=float, help=f"with --{prefix}alpha: default 0")

    whats = command(sub, "analyze", "estimate pair observables from an event file").add_subparsers(
        dest="what", required=True)
    for what, summary, func in (
            ("witness", "entanglement witness; the verdict is 'entangled' only when the witness lies "
                        "more than 3 standard errors below 0 (witness + 3 stderr < 0), else "
                        "'not detected'", _cmd_witness),
            ("correlations", "spin correlation matrix", _cmd_correlations)):
        p = command(whats, what, summary, func)
        p.description = summary
        p.add_argument("--events", required=True, help="event file path")
    p.add_argument("--renormalize", action="store_true")  # p: correlations, the last kind
    p.add_argument("--alpha", type=float)
    p.add_argument("--alphabar", type=float)

    p = command(sub, "bell", "maximize a Bell expression or find its threshold", _cmd_bell)
    p.add_argument("--inequality", choices=("I2", "I3", "I4"), required=True)
    goal = p.add_mutually_exclusive_group(required=True)
    goal.add_argument("--k", type=float)
    goal.add_argument("--threshold", action="store_true")

    p = command(sub, "context", "Mermin-Peres contextuality value", _cmd_context)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--alphabar", type=float, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        defaults = argparse.Namespace(seed=1, threads=None, out=None, format="csv")
        args = parser.parse_args(argv, defaults)
        if args.threads is not None and args.threads < 0:  # one message for every command
            raise UsageError(f"worker count must be non-negative, got {args.threads}")
        if not 0 <= args.seed < 2**64:
            raise UsageError("seed must fit in 64 bits")
        args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:  # the str() of a KeyError quotes its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> NoReturn:
    """The `hyperon` script and `python -m hyperon.cli`: main(), then end the process at once.

    Before main(), and so before any command loads numpy, OpenBLAS is
    held to one thread unless OPENBLAS_NUM_THREADS is already set: no
    command does threaded BLAS work, and OpenBLAS's default of a thread
    per core cost each process 60-75 ms of CPU on a 2-core host.
    main() called in-process leaves the environment alone.

    Every report and event file is written and closed when main()
    returns, so the process flushes stdout and stderr and leaves by
    os._exit, skipping the interpreter's teardown.  argparse's exit
    after --help leaves the same way.  An uncaught exception, or a flush
    that fails, exits the normal way, which reports it.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
