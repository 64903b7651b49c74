"""Command-line front end.

Commands:

    bellmax    best achievable largest eigenvalue of B_n over settings
    certify    entanglement-depth certificate from an exact or estimated E
    criteria   fragility / mutual-information / partial-state / distribution
    basis      exact symmetric basis-change tables (z -> x, GHZ z -> y)
    bellbasis  the 2^n-state orthonormal GHZ-type basis with its Gram check
    verify     run the whole verification battery and print a pass/fail table

Every command echoes the configuration it resolved, and only the keys it
reads in its mode (certify with or without --estimate, criteria per
--which), inside the JSON output; re-running that configuration reproduces
the output byte for byte.  A key the command does not read in its mode, on
a config-file line or a flag, is a usage error.
Exit codes: 0 success, 1 a property check failed, 2 usage error (a missing
or malformed input file included).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from . import bellop, certify, criteria, optimize, qstate, symstate, verification
from .verification import DEFAULT_SEED

DEFAULT_RESTARTS = 20
DEFAULT_TOL = 1e-9
DEFAULT_SHOTS = 10**5
EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE = 0, 1, 2


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


def _resolve(args: argparse.Namespace, defaults: dict, mode=None) -> dict:
    """defaults < config file < explicit flags, over the keys the command
    reads: those of ``defaults`` (None where there is no default), out and
    format, and, when they depend on a resolved option, those of
    ``mode(opts)``.  A config-file key or flag outside them is a usage
    error."""
    config = _load_config_file(args.config) if getattr(args, "config", None) else {}
    merged: dict = {}

    def merge(keys: dict) -> None:
        for key, default in keys.items():
            if getattr(args, key, None) is not None:
                merged[key] = getattr(args, key)
            elif key in config:
                merged[key] = _CONFIG_TYPES[key](config[key])
            else:
                merged[key] = default

    merge({"out": None, "format": "json", **defaults})
    if mode is not None:
        merge(mode(merged))
    for key in config:
        if key not in merged:
            raise ValueError(f"{args.command} does not read config key {key!r}")
    for key in _CONFIG_TYPES:
        if key not in merged and getattr(args, key, None) is not None:
            raise ValueError(f"{args.command} does not read --{key} in this mode")
    if merged["format"] not in args.formats:
        raise ValueError(f"{args.command} writes --format {' or '.join(args.formats)}, "
                         f"not {merged['format']!r}")
    return merged


def _json_scalar(obj):
    """json.dump default for numpy scalars: bools stay bools, the rest are floats."""
    return bool(obj) if isinstance(obj, np.bool_) else float(obj)


def _emit(payload: dict, out: Optional[str], fmt: str, csv_rows=None) -> None:
    """Print (and optionally save) the payload as JSON, or csv_rows as CSV."""
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=_json_scalar) + "\n"
    else:
        text = "\n".join(",".join(str(c) for c in row) for row in csv_rows) + "\n"
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _config_echo(args: argparse.Namespace, opts: dict, extras: dict | None = None) -> dict:
    """The command, its resolved keys and any flags, all that are not None."""
    echo = {"command": args.command, **opts, **(extras or {})}
    return {k: v for k, v in echo.items() if v is not None}


def _cmd_bellmax(args) -> int:
    opts = _resolve(args, {"n": None, "seed": DEFAULT_SEED, "restarts": DEFAULT_RESTARTS,
                           "tol": DEFAULT_TOL})
    n = opts["n"]
    if n is None or n < 2:
        raise ValueError("bellmax requires --n >= 2")
    res = optimize.max_eigen_settings(n, restarts=opts["restarts"], tol=opts["tol"],
                                      seed=opts["seed"])
    target = 2.0 ** ((n + 1) / 2)
    payload = {
        "config": _config_echo(args, opts),
        "best_value": res.best_value,
        "target": target,
        "deviation": abs(res.best_value - target),
        "settings": res.best_settings.to_json(),
        "converged": res.converged,
        "restart_status": {s: res.statuses.count(s) for s in optimize.RESTART_STATUSES},
    }
    _emit(payload, opts["out"], opts["format"])
    return EXIT_OK


def _cmd_certify(args) -> int:
    estimate_mode = bool(getattr(args, "estimate", False))
    if estimate_mode:
        keys = {"seed": DEFAULT_SEED, "shots": DEFAULT_SHOTS, "state": None, "settings": None}
    else:
        keys = {"n": None, "E": None}
    opts = _resolve(args, {**keys, "epsilon": None})
    echo = _config_echo(args, opts, {"estimate": estimate_mode or None})
    if estimate_mode:
        if not opts["state"] or not opts["settings"]:
            raise ValueError("--estimate needs --state and --settings files")
        state = qstate.load_state(opts["state"])
        st = bellop.Settings.load(opts["settings"])
        est = certify.estimate_E(state, st, opts["shots"], opts["seed"])
        epsilon = (certify.ESTIMATE_SIGMA * est.stderr if opts["epsilon"] is None
                   else opts["epsilon"])
        result = certify.certify_depth(est.value, state.n, epsilon)
        payload = {"config": echo,
                   "estimate": {"E": est.value, "stderr": est.stderr},
                   "certificate": result.to_json()}
    else:
        n, value = opts["n"], opts["E"]
        if n is None or value is None:
            raise ValueError("exact mode needs --n and --E")
        epsilon = certify.EXACT_EPSILON if opts["epsilon"] is None else opts["epsilon"]
        result = certify.certify_depth(value, n, epsilon)
        payload = {"config": echo, "certificate": result.to_json()}
    rows = [["k", "bound"]] + [[k, b] for k, b in enumerate(result.thresholds)]
    _emit(payload, opts["out"], opts["format"], csv_rows=rows)
    return EXIT_OK


_CRITERIA_KEYS = {"fragility": {"state": None}, "mutinfo": {"state": None},
                  "mm": {"state": None},
                  "distribute": {"n": None, "k": None, "trials": None, "seed": DEFAULT_SEED}}


def _criteria_keys(opts: dict) -> dict:
    if opts["which"] not in _CRITERIA_KEYS:
        raise ValueError(f"--which must be {'|'.join(_CRITERIA_KEYS)}")
    return _CRITERIA_KEYS[opts["which"]]


def _cmd_criteria(args) -> int:
    opts = _resolve(args, {"which": None}, mode=_criteria_keys)
    which = opts["which"]
    echo = _config_echo(args, opts)
    if which == "fragility":
        state = qstate.load_state(opts["state"])
        if not isinstance(state, qstate.PureState):
            raise ValueError("fragility needs a pure-state file")
        rep = criteria.fragility(state)
        body = {"fragility": rep.fragility, "is_maximal": rep.is_maximal,
                "bloch": [list(map(float, b)) for b in rep.bloch]}
    elif which == "mutinfo":
        state = qstate.load_state(opts["state"])
        mi = criteria.mutual_information(state, qstate.z_bases(state.n))
        body = {"mutual_information_bits": mi}
    elif which == "mm":
        sym = symstate.load_sym(opts["state"])
        rep = criteria.mm_partial_residual(sym)
        body = {"m": rep.m, "residual": rep.residual,
                "observed": list(map(float, rep.observed)),
                "target": list(map(float, rep.target))}
    else:
        n, k = opts["n"], opts["k"]
        if n is None or k is None:
            raise ValueError("distribute needs --n and --k")
        trials = 200 if opts["trials"] is None else opts["trials"]
        rep = criteria.distribute_check(n, k, trials, opts["seed"])
        body = {"n": rep.n, "k": rep.k, "trials": rep.trials,
                "x_passes": rep.x_passes, "z_passes": rep.z_passes,
                "worst_fidelity_error": rep.worst_fidelity_error,
                "passed": rep.passed}
    _emit({"config": echo, "report": body}, opts["out"], opts["format"])
    return EXIT_OK if body.get("passed", True) else EXIT_CHECK_FAILED


def _cmd_basis(args) -> int:
    opts = _resolve(args, {"n": None, "state": None, "to": "x"})
    n, to = opts["n"], opts["to"]
    if to not in ("x", "y"):
        raise ValueError("--to must be x or y")
    if opts["state"]:
        sym = symstate.load_sym(opts["state"])
        if to == "y":
            raise ValueError("general z -> y conversion is unsupported (GHZ only)")
        converted, scale = symstate.z_to_x(sym)
        tables = [{"input": symstate.sym_to_json(sym),
                   "output": symstate.sym_to_json(converted),
                   "scale": str(scale)}]
    else:
        if n is None or n < 1:
            raise ValueError("basis requires --n >= 1 (or --state FILE)")
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
    rows = [["sign", "label", "coefficient"]]
    for table in tables:
        for ell, coeff in enumerate(table["output"]["coeff"]):
            rows.append([table["input"]["coeff"][-1], ell, coeff])
    _emit({"config": _config_echo(args, opts), "tables": tables},
          opts["out"], opts["format"], csv_rows=rows)
    return EXIT_OK


def _cmd_bellbasis(args) -> int:
    opts = _resolve(args, {"n": None})
    n = opts["n"]
    if n is None or n < 2:
        raise ValueError("bellbasis requires --n >= 2")
    states = symstate.bell_basis(n)
    vecs = np.array([s.to_pure().amp for s in states])
    gram_err = float(np.max(np.abs(vecs.conj() @ vecs.T - np.eye(2**n))))
    payload = {
        "config": _config_echo(args, opts),
        "count": len(states),
        "gram_error": gram_err,
        "gram_is_identity": gram_err <= 1e-12,
        "states": [{"bits": "".join(map(str, s.bits)), "sign": s.sign}
                   for s in states],
    }
    rows = [["bits", "sign"]] + [["".join(map(str, s.bits)), s.sign] for s in states]
    _emit(payload, opts["out"], opts["format"], csv_rows=rows)
    return EXIT_OK if payload["gram_is_identity"] else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    opts = _resolve(args, {})
    fast = bool(getattr(args, "fast", False))
    results = verification.run_all(fast=fast)
    for res in results:   # wall times go to stderr only, so stdout and --out replay
        print(res.line())
        print(f"{res.check_id}  [{res.seconds:.3f}s]", file=sys.stderr)
    payload = {
        "config": _config_echo(args, opts, {"fast": fast or None}),
        "results": [{"id": r.check_id, "description": r.description, "passed": r.passed}
                    for r in results],
        "all_passed": all(r.passed for r in results),
    }
    if opts["out"]:
        with open(opts["out"], "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_json_scalar)
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
    except FileNotFoundError as exc:
        print(f"missing file: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
