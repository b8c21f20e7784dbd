"""Command-line front end: couplings, verification runs, sweeps, reports.

Every subcommand prints a human-readable report and exits 0 on success,
1 when a tolerance or convergence check fails, 2 on argument errors.  All
randomness derives from --seed, and `sweep` writes byte-identical files for
identical arguments and seed (wall-clock timing is opt-in for that reason).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import closedform, energy, regularity, riesz, symcalc
from .errors import DomainError, NotConverged, PoleEncountered, Unsupported
from .model import FracParams
from .pvquad import QuadratureSpec, f_integral_num, frac_op_num
from .specfun import kappa

__all__ = ["SweepRecord", "emit", "main", "run"]

@dataclasses.dataclass(frozen=True)
class SweepRecord:
    d: int
    s: float
    delta: float
    epsilon: float
    closed_value: float
    quad_value: float
    abs_residual: float
    rel_residual: float
    nodes: int
    seed: int
    wall_ms: int


_CSV_HEADER = ",".join(f.name for f in dataclasses.fields(SweepRecord))


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def emit(records: list[SweepRecord], fmt: str, path: str) -> None:
    """Write records as CSV or JSON; temp-file-and-rename, never partial."""
    if not records:
        raise DomainError("refusing to emit an empty record list")
    keys = _CSV_HEADER.split(",")
    if fmt == "csv":
        lines = [_CSV_HEADER] + [",".join(_fmt(getattr(r, k)) for k in keys) for r in records]
        payload = "\n".join(lines) + "\n"
    elif fmt == "json":
        rows = [{k: getattr(r, k) for k in keys} for r in records]
        payload = json.dumps(rows, indent=None, separators=(",", ":")) + "\n"
    else:
        raise DomainError(f"unknown format {fmt!r}")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".emit-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _spec_from(args) -> QuadratureSpec:
    """The QuadratureSpec from the flags the subcommand declared; defaults elsewhere."""
    names = (f.name for f in dataclasses.fields(QuadratureSpec))
    return QuadratureSpec(**{k: getattr(args, k) for k in names if hasattr(args, k)})


def _parse_range(text: str) -> list[float]:
    """'a:b:n' inclusive linear range, or a comma list, or one value; never empty."""
    try:
        if ":" in text:
            a, b, n = text.split(":")
            n = int(n)
            if n == 1:
                vals = [float(a)]
            else:
                step = (float(b) - float(a)) / (n - 1)
                vals = [float(a) + k * step for k in range(n)]
        else:
            vals = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        vals = []
    if not vals:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: want a:b:n with n >= 1, or a,b,...")
    return vals


def _parse_point(text: str) -> np.ndarray:
    """A comma-separated finite point; its length is checked against --d in `run`."""
    try:
        x = np.array([float(tok) for tok in text.split(",")])
        if np.all(np.isfinite(x)):
            return x
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad point {text!r}: want finite x1,x2,...")


def _coupled_params(d: int, s: float, delta: float) -> FracParams:
    eps = closedform.b_of_delta(d, s, delta)
    return FracParams(d, s, delta, eps, extended=True)


def _cmd_couple(args) -> int:
    d = args.d
    if args.inverse:
        if args.epsilon is None:
            raise DomainError("--inverse needs --epsilon")
        delta = closedform.delta_of_epsilon(d, args.s, args.epsilon)
        print(f"delta(epsilon={_fmt(args.epsilon)}) = {_fmt(delta)}")
        eps = args.epsilon
    else:
        delta = args.delta
        FracParams(d, args.s, delta)  # checks (d, s, delta) at delta = 0 too, where b = 0
        eps = closedform.b_of_delta(d, args.s, delta) if delta > 0 else 0.0
        print(f"epsilon = b(delta={_fmt(delta)}) = {_fmt(eps)}")
    print(f"classical epsilon = {_fmt(closedform.classical_epsilon(d, delta))}")
    if d == 2 and delta > 0:
        e, lo, hi = closedform.d2_epsilon_and_bounds(args.s, delta)
        hi_txt = _fmt(hi) if hi is not None else "absent"
        print(f"d=2 bounds: lower = {_fmt(lo)} <= epsilon = {_fmt(e)} <= upper = {hi_txt}")
    return 0


def _cmd_verify(args) -> int:
    d, s, delta = args.d, args.s, args.delta
    params = _coupled_params(d, s, delta)
    x = np.eye(d)[0] if args.x is None else args.x
    spec = _spec_from(args)
    closed = closedform.operator_value(params, x)
    res = frac_op_num(params, x, spec)
    quad = kappa(d, s) * res.value
    scale = abs(closedform.operator_value(FracParams(d, s, delta, 0.0), x))
    residual = abs(closed - quad)
    print(f"epsilon = b(delta) = {_fmt(params.epsilon)}")
    print(f"closed operator value  = {_fmt(closed)}")
    print(f"quadrature value       = {_fmt(quad)} (nodes {res.nodes_used})")
    print(f"residual               = {_fmt(residual)} (scale {_fmt(scale)})")
    # the value at the coupling is ~0, so convergence is judged against the
    # eps = 0 operator magnitude rather than the (vanishing) value itself
    ok = (
        residual <= args.tol * max(scale, 1e-12)
        and kappa(d, s) * res.err_estimate <= args.tol * max(scale, 1e-12)
    )
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    d = args.d
    spec = _spec_from(args)
    records = []
    for s in args.s_range:
        for delta in args.delta_range:
            t0 = time.perf_counter()
            params = _coupled_params(d, s, delta)
            x = np.eye(d)[0]
            closed = closedform.operator_value(params, x)
            res = frac_op_num(params, x, spec)
            quad = kappa(d, s) * res.value
            wall = int(round(1000.0 * (time.perf_counter() - t0))) if args.wall_clock else 0
            records.append(
                SweepRecord(
                    d=d,
                    s=s,
                    delta=delta,
                    epsilon=params.epsilon,
                    closed_value=closed,
                    quad_value=quad,
                    abs_residual=abs(closed - quad),
                    rel_residual=abs(closed - quad) / max(abs(closed), 1e-12),
                    nodes=res.nodes_used,
                    seed=args.seed,
                    wall_ms=wall,
                )
            )
    fmt = "json" if args.out.endswith(".json") else "csv"
    emit(records, fmt, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_fourier(args) -> int:
    d, s, delta = args.d, args.s, args.delta
    pipe = symcalc.pipeline(args.which, d, s, delta)
    closed = {
        "f1": closedform.f1_closed,
        "f2": closedform.f2_closed,
    }[args.which](d, s, delta)
    rel = abs(pipe - closed) / max(abs(closed), 1e-300)
    print(f"pipeline    = {_fmt(pipe)}")
    print(f"closed form = {_fmt(closed)}")
    print(f"relative    = {_fmt(rel)}")
    ok = rel <= args.tol
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_regularity(args) -> int:
    pred = regularity.membership(args.d, args.delta, args.t, args.q)
    res = regularity.dyadic_seminorm(
        args.d, args.delta, args.t, args.q, bands=args.bands, seed=args.seed
    )
    print(f"membership predicate: {'member' if pred else 'not a member'}")
    print(f"band ratio = {_fmt(res.band_ratio)}, verdict = {res.verdict}")
    print(f"reference band = {_fmt(res.reference)} +- {_fmt(res.reference_se)}")
    print(f"partial sums: {[format(v, '.6g') for v in res.partial_sums[:6]]} ...")
    ok = (res.verdict == "converging") == pred
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_energy(args) -> int:
    spec = _spec_from(args)
    v = energy.bump_x1(1.0)
    rows = energy.gamma_limit_probe(args.eps, v, args.probe_s, spec=spec)
    print("s, nonlocal energy, local energy, relative gap")
    for s, val, loc, rel in rows:
        print(f"{_fmt(s)}, {_fmt(val)}, {_fmt(loc)}, {_fmt(rel)}")
    gaps = [r[3] for r in rows]
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
    s_check = args.s if args.s is not None else args.probe_s[0]
    params = FracParams(2, s_check, 0.0, args.eps)
    lhs, rhs = energy.convexity_identity_check(
        params, energy.bump_x1(1.0), energy.bump_x1(0.7), spec
    )
    ident = abs(lhs - rhs) <= 1e-10 * (abs(lhs) + 1e-12)
    print(f"convexity identity: lhs = {_fmt(lhs)}, rhs = {_fmt(rhs)}")
    ok = monotone and ident
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_riesz(args) -> int:
    d, s, delta = args.d, args.s, args.delta
    c_star, c_star_star = riesz.riesz_constants(d, s, delta)
    eps = riesz.riesz_coupling(d, delta)
    print(f"c*  = {_fmt(c_star)}")
    print(f"c** = {_fmt(c_star_star)}")
    print(f"coupling epsilon = {_fmt(eps)}")
    x = np.eye(d)[0]
    _, div_at, riesz_div_at = riesz.flux_divergence(d, s, delta, eps, x)
    print(f"divergence bracket at coupling: div = {_fmt(div_at)}")
    spec = _spec_from(args)
    probe_eps = min(0.9, eps + 0.2)
    conv = riesz.riesz_div_conv_num(d, s, delta, probe_eps, x, spec)
    _, _, want = riesz.flux_divergence(d, s, delta, probe_eps, x)
    rel = abs(conv.value - want) / max(abs(want), 1e-300)
    print(f"convolution check at eps={_fmt(probe_eps)}: rel = {_fmt(rel)}")
    ok = abs(div_at) <= 1e-14 and rel <= 1e-3
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_quadrature(args) -> int:
    spec = _spec_from(args)
    res = f_integral_num(args.which, args.d, args.s, args.delta, spec)
    print(f"value        = {_fmt(res.value)}")
    print(f"err_estimate = {_fmt(res.err_estimate)}")
    print(f"nodes_used   = {res.nodes_used}")
    print(f"converged    = {res.converged}")
    return 0 if res.converged else 1


# the QuadratureSpec fields every pv_integral run reads; target_rel_err only
# sets `converged`, which `quadrature` alone reports
_WINDOW = ("r_min", "r_max", "bands_per_decade", "radial_nodes", "angular_nodes")


def _add_quad_flags(p: argparse.ArgumentParser, names) -> None:
    """One flag per named QuadratureSpec field, with the field's default."""
    for f in dataclasses.fields(QuadratureSpec):
        if f.name in names:
            flag = "--" + f.name.replace("_", "-")
            p.add_argument(flag, type=type(f.default), default=f.default)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.

    `run` only reads it: parsing and the --config merge write into the
    parsed namespace, never into the parser, so a run leaves nothing behind
    for the next one.
    """
    parser = argparse.ArgumentParser(
        prog="nonlocal-lab",
        description="verification laboratory for the anisotropic fractional model",
    )
    parser.add_argument("--config", help="key=value file merged under explicit flags")
    parser.add_argument("--seed", type=int, default=42)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("couple", help="coupling b(delta), inverse, and bounds")
    p.add_argument("--d", type=int)
    p.add_argument("--s", type=float)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--epsilon", type=float)
    p.set_defaults(fn=_cmd_couple, required_keys=("d", "s"))

    p = sub.add_parser("verify", help="closed form vs quadrature at the coupling")
    p.add_argument("--d", type=int)
    p.add_argument("--s", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--x", type=_parse_point, help="comma-separated point, default e1")
    p.add_argument("--tol", type=float, default=1e-3)
    _add_quad_flags(p, _WINDOW)
    p.set_defaults(fn=_cmd_verify, required_keys=("d", "s", "delta"))

    p = sub.add_parser("sweep", help="parameter sweep to CSV/JSON")
    p.add_argument("--d", type=int)
    p.add_argument("--s-range", type=_parse_range)
    p.add_argument("--delta-range", type=_parse_range)
    p.add_argument("--out")
    p.add_argument("--wall-clock", action="store_true", help="record real timings (breaks byte-reproducibility)")
    _add_quad_flags(p, _WINDOW)
    p.set_defaults(fn=_cmd_sweep, required_keys=("d", "s_range", "delta_range", "out"))

    p = sub.add_parser("fourier", help="symbol pipeline vs closed form")
    p.add_argument("--which", choices=("f1", "f2"))
    p.add_argument("--d", type=int)
    p.add_argument("--s", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(fn=_cmd_fourier, required_keys=("which", "d", "s", "delta"))

    p = sub.add_parser("regularity", help="membership predicate and dyadic witness")
    p.add_argument("--d", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--bands", type=int, default=12)
    p.set_defaults(fn=_cmd_regularity, required_keys=("d", "delta", "t", "q"))

    p = sub.add_parser("energy", help="limit-towards-local probe and convexity (d = 2)")
    p.add_argument("--s", type=float, help="order for the convexity check (default: first probe value)")
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--probe-s", type=_parse_range, default="0.9,0.95,0.99")
    _add_quad_flags(p, ("angular_nodes",))
    p.set_defaults(fn=_cmd_energy, required_keys=())

    p = sub.add_parser("riesz", help="fractional-gradient constants and chain")
    p.add_argument("--d", type=int)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--delta", type=float)
    _add_quad_flags(p, _WINDOW)
    p.set_defaults(fn=_cmd_riesz, required_keys=("d", "delta"))

    p = sub.add_parser("quadrature", help="raw principal-value result")
    p.add_argument("--which", choices=("f1", "f2", "f3", "f4"))
    p.add_argument("--d", type=int)
    p.add_argument("--s", type=float)
    p.add_argument("--delta", type=float)
    _add_quad_flags(p, _WINDOW + ("target_rel_err",))
    p.set_defaults(fn=_cmd_quadrature, required_keys=("which", "d", "s", "delta"))

    return parser


def _load_config(path: str) -> dict:
    """The `key = value` lines of a config file as strings; `#` starts a comment."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (tok.strip() for tok in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


_BOOLS = {"true": True, "1": True, "false": False, "0": False}


def _config_value(action: argparse.Action, val: str):
    """val parsed as its flag parses it; a store_true flag takes true/false/1/0."""
    if action.nargs == 0:
        return _BOOLS[val.lower()]
    val = val if action.type is None else action.type(val)
    if action.choices is not None and val not in action.choices:
        raise ValueError(val)
    return val


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)

    # config values fill anything the command line left at its default
    if args.config:
        try:
            config = _load_config(args.config)
        except (OSError, UnicodeDecodeError, ValueError) as exc:
            parser.error(f"--config {args.config}: {exc}")
        sub = next(a for a in parser._actions if a.dest == "command").choices[args.command]
        actions = {a.dest: a for a in parser._actions + sub._actions}
        flags = (tok[2:].split("=", 1)[0] for tok in argv if tok.startswith("--"))
        explicit = {flag.replace("-", "_") for flag in flags}
        for key, val in config.items():
            if key in explicit or key not in actions:
                continue
            try:
                setattr(args, key, _config_value(actions[key], val))
            except (KeyError, ValueError, argparse.ArgumentTypeError):
                parser.error(f"--config {args.config}: bad value {key} = {val}")

    for key in getattr(args, "required_keys", ()):
        if getattr(args, key, None) is None:
            parser.error(f"missing required argument --{key.replace('_', '-')}")
    if getattr(args, "x", None) is not None and len(args.x) != args.d:
        parser.error(f"argument --x: point must have {args.d} coordinates")
    # a bad target would otherwise fail only after every record is computed
    out = getattr(args, "out", None)
    if out is not None and os.path.isdir(out):
        parser.error(f"argument --out: {out} is a directory")
    if out is not None and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        parser.error(f"argument --out: the directory of {out} does not exist")
    try:
        return args.fn(args)
    except (DomainError, NotConverged, PoleEncountered, Unsupported, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
