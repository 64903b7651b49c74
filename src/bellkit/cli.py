"""Command-line front end.

Commands:

    bellmax    best achievable largest eigenvalue of B_n over settings
    certify    entanglement-depth certificate from an exact or estimated E
    criteria   fragility / mutual-information / partial-state / distribution
    basis      exact symmetric basis-change tables (z -> x, GHZ z -> y)
    bellbasis  the 2^n-state orthonormal GHZ-type basis with its Gram check
    verify     run the whole verification battery and print a pass/fail table

Every command echoes its fully resolved configuration inside the JSON
output; re-running that configuration reproduces the output byte for byte.
Exit codes: 0 success, 1 a property check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import bellop, certify, criteria, optimize, qstate, symstate, verification
from .verification import DEFAULT_SEED

DEFAULT_RESTARTS = 20
DEFAULT_TOL = 1e-9
DEFAULT_SHOTS = 10**5
EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE = 0, 1, 2


@dataclass
class RunConfig:
    command: str
    n: Optional[int] = None
    seed: int = DEFAULT_SEED
    restarts: int = DEFAULT_RESTARTS
    tol: float = DEFAULT_TOL
    shots: int = DEFAULT_SHOTS
    state: Optional[str] = None
    settings: Optional[str] = None
    out: Optional[str] = None
    format: str = "json"


def _load_config_file(path: str) -> dict:
    """key = value lines; blank lines and #-comments ignored."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key] = val
    return values


_CONFIG_TYPES = {"n": int, "seed": int, "restarts": int, "shots": int,
                 "tol": float, "state": str, "settings": str, "out": str,
                 "format": str, "E": float, "epsilon": float, "k": int,
                 "trials": int, "which": str, "to": str}


def _resolve(args: argparse.Namespace, keys: list[str]) -> dict:
    """defaults < config file < explicit flags."""
    merged: dict = {}
    if getattr(args, "config", None):
        for key, val in _load_config_file(args.config).items():
            if key not in _CONFIG_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = _CONFIG_TYPES[key](val)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    fmt = merged.get("format", "json")
    if fmt not in args.formats:
        raise ValueError(f"{args.command} writes --format {' or '.join(args.formats)}, "
                         f"not {fmt!r}")
    return merged


def _emit(payload: dict, out: Optional[str], fmt: str, csv_rows=None) -> None:
    """Print (and optionally save) the payload as JSON, or csv_rows as CSV."""
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n"
    else:
        text = "\n".join(",".join(str(c) for c in row) for row in csv_rows) + "\n"
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _config_echo(cfg: RunConfig, extras: dict | None = None) -> dict:
    echo = {k: v for k, v in asdict(cfg).items() if v is not None}
    if extras:
        echo.update({k: v for k, v in extras.items() if v is not None})
    return echo


def _cmd_bellmax(args) -> int:
    opts = _resolve(args, ["n", "seed", "restarts", "tol", "out", "format"])
    n = opts.get("n")
    if n is None or n < 2:
        print("bellmax requires --n >= 2", file=sys.stderr)
        return EXIT_USAGE
    cfg = RunConfig("bellmax", n=n, seed=opts.get("seed", DEFAULT_SEED),
                    restarts=opts.get("restarts", DEFAULT_RESTARTS),
                    tol=opts.get("tol", DEFAULT_TOL),
                    out=opts.get("out"), format=opts.get("format", "json"))
    res = optimize.max_eigen_settings(n, restarts=cfg.restarts, tol=cfg.tol, seed=cfg.seed)
    target = 2.0 ** ((n + 1) / 2)
    payload = {
        "config": _config_echo(cfg),
        "best_value": res.best_value,
        "target": target,
        "deviation": abs(res.best_value - target),
        "settings": res.best_settings.to_json(),
        "converged": res.converged,
        "restart_status": {s: res.statuses.count(s) for s in optimize.RESTART_STATUSES},
    }
    _emit(payload, cfg.out, cfg.format)
    return EXIT_OK


def _cmd_certify(args) -> int:
    opts = _resolve(args, ["n", "seed", "shots", "state", "settings", "out",
                           "format", "E", "epsilon"])
    n = opts.get("n")
    estimate_mode = bool(getattr(args, "estimate", False))
    cfg = RunConfig("certify", n=n, seed=opts.get("seed", DEFAULT_SEED),
                    shots=opts.get("shots", DEFAULT_SHOTS),
                    state=opts.get("state"), settings=opts.get("settings"),
                    out=opts.get("out"), format=opts.get("format", "json"))
    extras = {"E": opts.get("E"), "epsilon": opts.get("epsilon"),
              "estimate": estimate_mode or None}
    try:
        if estimate_mode:
            if not cfg.state or not cfg.settings:
                print("--estimate needs --state and --settings files", file=sys.stderr)
                return EXIT_USAGE
            state = qstate.load_state(cfg.state)
            st = bellop.Settings.load(cfg.settings)
            est = certify.estimate_E(state, st, cfg.shots, cfg.seed)
            epsilon = opts.get("epsilon", certify.ESTIMATE_SIGMA * est.stderr)
            result = certify.certify_depth(est.value, state.n, epsilon)
            payload = {"config": _config_echo(cfg, extras),
                       "estimate": {"E": est.value, "stderr": est.stderr},
                       "certificate": result.to_json()}
        else:
            value = opts.get("E")
            if n is None or value is None:
                print("exact mode needs --n and --E", file=sys.stderr)
                return EXIT_USAGE
            if value < 0:
                print("E must be nonnegative", file=sys.stderr)
                return EXIT_USAGE
            epsilon = opts.get("epsilon", certify.EXACT_EPSILON)
            result = certify.certify_depth(value, n, epsilon)
            payload = {"config": _config_echo(cfg, extras),
                       "certificate": result.to_json()}
    except FileNotFoundError as exc:
        print(f"missing file: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    rows = [["k", "bound"]] + [[k, b] for k, b in enumerate(result.thresholds)]
    _emit(payload, cfg.out, cfg.format, csv_rows=rows)
    return EXIT_OK


def _cmd_criteria(args) -> int:
    opts = _resolve(args, ["n", "k", "trials", "seed", "state", "out",
                           "format", "which"])
    which = opts.get("which")
    cfg = RunConfig("criteria", n=opts.get("n"), seed=opts.get("seed", DEFAULT_SEED),
                    state=opts.get("state"), out=opts.get("out"),
                    format=opts.get("format", "json"))
    extras = {"which": which, "k": opts.get("k"), "trials": opts.get("trials")}
    try:
        if which == "fragility":
            state = qstate.load_state(cfg.state)
            if not isinstance(state, qstate.PureState):
                print("fragility needs a pure-state file", file=sys.stderr)
                return EXIT_USAGE
            rep = criteria.fragility(state)
            body = {"fragility": rep.fragility, "is_maximal": rep.is_maximal,
                    "bloch": [list(map(float, b)) for b in rep.bloch]}
        elif which == "mutinfo":
            state = qstate.load_state(cfg.state)
            mi = criteria.mutual_information(state, qstate.z_bases(state.n))
            body = {"mutual_information_bits": mi}
        elif which == "mm":
            sym = symstate.load_sym(cfg.state)
            rep = criteria.mm_partial_residual(sym)
            body = {"m": rep.m, "residual": rep.residual,
                    "observed": list(map(float, rep.observed)),
                    "target": list(map(float, rep.target))}
        elif which == "distribute":
            n, k = opts.get("n"), opts.get("k")
            if n is None or k is None:
                print("distribute needs --n and --k", file=sys.stderr)
                return EXIT_USAGE
            rep = criteria.distribute_check(n, k, opts.get("trials", 200),
                                            cfg.seed)
            body = {"n": rep.n, "k": rep.k, "trials": rep.trials,
                    "x_passes": rep.x_passes, "z_passes": rep.z_passes,
                    "worst_fidelity_error": rep.worst_fidelity_error,
                    "passed": rep.passed}
            if not rep.passed:
                _emit({"config": _config_echo(cfg, extras), "report": body},
                      cfg.out, cfg.format)
                return EXIT_CHECK_FAILED
        else:
            print("--which must be fragility|mutinfo|mm|distribute", file=sys.stderr)
            return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"missing file: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit({"config": _config_echo(cfg, extras), "report": body}, cfg.out, cfg.format)
    return EXIT_OK


def _cmd_basis(args) -> int:
    opts = _resolve(args, ["n", "state", "out", "format", "to"])
    n, to = opts.get("n"), opts.get("to", "x")
    cfg = RunConfig("basis", n=n, state=opts.get("state"),
                    out=opts.get("out"), format=opts.get("format", "json"))
    if to not in ("x", "y"):
        print("--to must be x or y", file=sys.stderr)
        return EXIT_USAGE
    try:
        if cfg.state:
            sym = symstate.load_sym(cfg.state)
            if to == "y":
                print("general z -> y conversion is unsupported (GHZ only)",
                      file=sys.stderr)
                return EXIT_USAGE
            converted, scale = symstate.z_to_x(sym)
            tables = [{"input": symstate.sym_to_json(sym),
                       "output": symstate.sym_to_json(converted),
                       "scale": str(scale)}]
        else:
            if n is None or n < 1:
                print("basis requires --n >= 1 (or --state FILE)", file=sys.stderr)
                return EXIT_USAGE
            tables = []
            for sign in (1, -1):
                g = symstate.ghz(n, sign)
                if to == "x":
                    converted, scale = symstate.z_to_x(g)
                    scale_txt = str(scale)
                else:
                    converted = symstate.ghz_y_form(n, sign)
                    vy = symstate.embed_vector(converted)
                    vg = symstate.embed_vector(g)
                    idx = int(np.argmax(np.abs(vg)))
                    ratio = vy[idx] / vg[idx]
                    scale_txt = f"{ratio.real:+g}{ratio.imag:+g}i"
                tables.append({"input": symstate.sym_to_json(g),
                               "output": symstate.sym_to_json(converted),
                               "scale": scale_txt})
    except FileNotFoundError as exc:
        print(f"missing file: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    rows = [["sign", "label", "coefficient"]]
    for i, table in enumerate(tables):
        for ell, coeff in enumerate(table["output"]["coeff"]):
            rows.append([table["input"]["coeff"][-1], ell, coeff])
    _emit({"config": _config_echo(cfg, {"to": to}), "tables": tables},
          cfg.out, cfg.format, csv_rows=rows)
    return EXIT_OK


def _cmd_bellbasis(args) -> int:
    opts = _resolve(args, ["n", "out", "format"])
    n = opts.get("n")
    cfg = RunConfig("bellbasis", n=n, out=opts.get("out"),
                    format=opts.get("format", "json"))
    if n is None or n < 2:
        print("bellbasis requires --n >= 2", file=sys.stderr)
        return EXIT_USAGE
    states = symstate.bell_basis(n)
    vecs = np.array([s.to_pure().amp for s in states])
    gram_err = float(np.max(np.abs(vecs.conj() @ vecs.T - np.eye(2**n))))
    payload = {
        "config": _config_echo(cfg),
        "count": len(states),
        "gram_error": gram_err,
        "gram_is_identity": gram_err <= 1e-12,
        "states": [{"bits": "".join(map(str, s.bits)), "sign": s.sign}
                   for s in states],
    }
    rows = [["bits", "sign"]] + [["".join(map(str, s.bits)), s.sign] for s in states]
    _emit(payload, cfg.out, cfg.format, csv_rows=rows)
    return EXIT_OK if payload["gram_is_identity"] else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    opts = _resolve(args, ["out", "format"])
    fast = bool(getattr(args, "fast", False))
    cfg = RunConfig("verify", out=opts.get("out"), format=opts.get("format", "json"))
    results = verification.run_all(fast=fast)
    for res in results:   # wall times go to stderr only, so stdout and --out replay
        print(res.line())
        print(f"{res.check_id}  [{res.seconds:.1f}s]", file=sys.stderr)
    payload = {
        "config": _config_echo(cfg, {"fast": fast or None}),
        "results": [{"id": r.check_id, "description": r.description, "passed": r.passed}
                    for r in results],
        "all_passed": all(r.passed for r in results),
    }
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=float)
    print("all checks passed" if payload["all_passed"] else "SOME CHECKS FAILED")
    return EXIT_OK if payload["all_passed"] else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bellkit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, n=False, seed=False, csv=False):
        """--seed only where a seed is drawn, csv only where _emit gets rows."""
        if n:
            p.add_argument("--n", type=int)
        if seed:
            p.add_argument("--seed", type=int)
        p.add_argument("--config", type=str, help="key = value config file")
        p.add_argument("--out", type=str)
        formats = ("json", "csv") if csv else ("json",)
        p.add_argument("--format", choices=formats)
        p.set_defaults(formats=formats)

    p = sub.add_parser("bellmax", help="optimize the largest B_n eigenvalue")
    common(p, n=True, seed=True)
    p.add_argument("--restarts", type=int)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=_cmd_bellmax)

    p = sub.add_parser("certify", help="entanglement-depth certificate")
    common(p, n=True, seed=True, csv=True)
    p.add_argument("--E", type=float, dest="E")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--estimate", action="store_true")
    p.add_argument("--state", type=str)
    p.add_argument("--settings", type=str)
    p.add_argument("--shots", type=int)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("criteria", help="entanglement criteria reports")
    common(p, n=True, seed=True)
    p.add_argument("--which", choices=["fragility", "mutinfo", "mm", "distribute"])
    p.add_argument("--state", type=str)
    p.add_argument("--k", type=int)
    p.add_argument("--trials", type=int)
    p.set_defaults(func=_cmd_criteria)

    p = sub.add_parser("basis", help="symmetric basis-change tables")
    common(p, n=True, csv=True)
    p.add_argument("--to", choices=["x", "y"])
    p.add_argument("--state", type=str, help="symmetric-state JSON file (z basis)")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("bellbasis", help="orthonormal GHZ-type basis")
    common(p, n=True, csv=True)
    p.set_defaults(func=_cmd_bellbasis)

    p = sub.add_parser("verify", help="run the full verification battery")
    common(p)
    p.add_argument("--fast", action="store_true", help="reduced smoke run")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
