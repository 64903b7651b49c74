"""Command-line front end.

Commands:

    bellmax    best achievable largest eigenvalue of B_n over settings
    certify    entanglement-depth certificate from an exact or estimated E
    criteria   fragility / mutual-information / partial-state / distribution
    basis      exact symmetric basis-change tables (z -> x, GHZ z -> y)
    bellbasis  the 2^n-state orthonormal GHZ-type basis with its Gram check
    verify     run the whole verification battery and print a pass/fail table

Every command echoes the configuration it resolved inside the JSON output:
only the keys it reads in its mode (certify with or without --estimate,
criteria per --which, basis from a --state file or for --n), as MODES lists
them; re-running that configuration reproduces the output byte for byte.
Exit codes: 0 success, 1 a property check failed, 2 usage error:
  - a key the mode needs left unset (`criteria needs --state`), or given
    an empty value (`--state must not be empty`);
  - a key the mode does not read, on a config-file line or a flag;
  - a missing or malformed input or config file, or a config value that is
    not of its key's type;
  - a value out of range, with the library's message.
"""

from __future__ import annotations

import argparse
import json
import sys

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


REQUIRED = object()   # the default of a key that no mode reading it can run without

# The keys each command reads in each of its modes, besides out and format:
# certify's mode follows --estimate, criteria's --which, and basis's whether
# a --state file is given.
MODES = {
    "bellmax": {None: ("n", "seed", "restarts", "tol")},
    "certify": {"exact": ("n", "E", "epsilon"),
                "estimate": ("state", "settings", "shots", "seed", "epsilon")},
    "criteria": {"fragility": ("which", "state"), "mutinfo": ("which", "state"),
                 "mm": ("which", "state"), "distribute": ("which", "n", "k", "trials", "seed")},
    "basis": {"n": ("n", "to"), "state": ("state", "to")},
    "bellbasis": {None: ("n",)},
    "verify": {None: ()},
}

# Each key's type (a tuple lists its choices) and default, for every mode that
# reads it.  An epsilon left unset is the certificate's own margin.
KEYS = {
    "n": (int, REQUIRED), "k": (int, REQUIRED), "E": (float, REQUIRED),
    "state": (str, REQUIRED), "settings": (str, REQUIRED),
    "which": (tuple(MODES["criteria"]), REQUIRED), "to": (("x", "y"), "x"),
    "seed": (int, DEFAULT_SEED), "restarts": (int, DEFAULT_RESTARTS),
    "tol": (float, DEFAULT_TOL), "shots": (int, DEFAULT_SHOTS), "trials": (int, 200),
    "epsilon": (float, None), "out": (str, None), "format": (str, "json"),
}

# Flags without a value, echoed as true when given and read from no config line.
SWITCHES = {"certify": "estimate", "verify": "fast"}


def _typed(key: str, text: str):
    """A config line's value as the type KEYS gives its key."""
    kind = KEYS[key][0]
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValueError(f"--{key} must be {'|'.join(kind)}")
        return text
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"config key {key!r} must be {kind.__name__}, got {text!r}") from None


def _resolve(args: argparse.Namespace) -> dict:
    """The command and the keys of the mode it runs in, each from its flag,
    else its config-file line, else its KEYS default.  A REQUIRED key left
    unset, an empty value, or a config line or flag outside the mode, is a
    usage error."""
    config = _load_config_file(args.config) if args.config else {}

    def given(key):
        found = getattr(args, key, None)
        if found is None and key in config:
            found = config[key] and _typed(key, config[key])
        if found == "":
            raise ValueError(f"--{key} must not be empty")
        return found

    def value(key):
        found = given(key)
        if found is None and KEYS[key][1] is REQUIRED:
            raise ValueError(f"{args.command} needs --{key}")
        return KEYS[key][1] if found is None else found

    if args.command == "certify":
        mode = "estimate" if args.estimate else "exact"
    elif args.command == "criteria":
        mode = value("which")
    elif args.command == "basis":
        mode = "n" if given("state") is None else "state"
    else:
        mode = None
    keys = ("out", "format", *MODES[args.command][mode])
    for key in config:
        if key not in keys:
            raise ValueError(f"{args.command} does not read config key {key!r}")
    for key in KEYS:
        if key not in keys and getattr(args, key, None) is not None:
            raise ValueError(f"{args.command} does not read --{key} in this mode")
    opts = {"command": args.command, **{key: value(key) for key in keys}}
    if opts["format"] not in args.formats:
        raise ValueError(f"{args.command} writes --format {' or '.join(args.formats)}, "
                         f"not {opts['format']!r}")
    if args.command in SWITCHES:
        opts[SWITCHES[args.command]] = getattr(args, SWITCHES[args.command])
    return opts


def _json_scalar(obj):
    """json.dump default for numpy scalars: bools stay bools, the rest are floats."""
    return bool(obj) if isinstance(obj, np.bool_) else float(obj)


def _emit(payload: dict, opts: dict, csv_rows=None) -> None:
    """Print (and optionally save) the payload as JSON, or csv_rows as CSV."""
    if opts["format"] == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=_json_scalar) + "\n"
    else:
        text = "\n".join(",".join(str(c) for c in row) for row in csv_rows) + "\n"
    sys.stdout.write(text)
    if opts["out"]:
        with open(opts["out"], "w", encoding="utf-8") as fh:
            fh.write(text)


def _config_echo(opts: dict) -> dict:
    """The command and its resolved keys, all that are not None."""
    return {k: v for k, v in opts.items() if v is not None}


def _cmd_bellmax(opts: dict) -> int:
    n = opts["n"]
    res = optimize.max_eigen_settings(n, restarts=opts["restarts"], tol=opts["tol"],
                                      seed=opts["seed"])
    target = 2.0 ** ((n + 1) / 2)
    payload = {
        "config": _config_echo(opts),
        "best_value": res.best_value,
        "target": target,
        "deviation": abs(res.best_value - target),
        "settings": res.best_settings.to_json(),
        "converged": res.converged,
        "restart_status": {s: res.statuses.count(s) for s in optimize.RESTART_STATUSES},
    }
    _emit(payload, opts)
    return EXIT_OK


def _cmd_certify(opts: dict) -> int:
    payload = {"config": _config_echo(opts)}
    if opts["estimate"]:
        state = qstate.load_state(opts["state"])
        st = bellop.Settings.load(opts["settings"])
        est = certify.estimate_E(state, st, opts["shots"], opts["seed"])
        payload["estimate"] = {"E": est.value, "stderr": est.stderr}
        value, n, epsilon = est.value, state.n, certify.ESTIMATE_SIGMA * est.stderr
    else:
        value, n, epsilon = opts["E"], opts["n"], certify.EXACT_EPSILON
    if opts["epsilon"] is not None:
        epsilon = opts["epsilon"]
    result = certify.certify_depth(value, n, epsilon)
    payload["certificate"] = result.to_json()
    rows = [["k", "bound"]] + [[k, b] for k, b in enumerate(result.thresholds)]
    _emit(payload, opts, csv_rows=rows)
    return EXIT_OK


def _cmd_criteria(opts: dict) -> int:
    which = opts["which"]
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
        rep = criteria.distribute_check(opts["n"], opts["k"], opts["trials"], opts["seed"])
        body = {"n": rep.n, "k": rep.k, "trials": rep.trials,
                "x_passes": rep.x_passes, "z_passes": rep.z_passes,
                "worst_fidelity_error": rep.worst_fidelity_error,
                "passed": rep.passed}
    _emit({"config": _config_echo(opts), "report": body}, opts)
    return EXIT_OK if body.get("passed", True) else EXIT_CHECK_FAILED


def _cmd_basis(opts: dict) -> int:
    to = opts["to"]
    if "state" in opts:
        sym = symstate.load_sym(opts["state"])
        if to == "y":
            raise ValueError("general z -> y conversion is unsupported (GHZ only)")
        converted, scale = symstate.z_to_x(sym)
        tables = [{"input": symstate.sym_to_json(sym),
                   "output": symstate.sym_to_json(converted),
                   "scale": str(scale)}]
    else:
        n = opts["n"]
        tables = []
        for sign in (1, -1):
            g = symstate.ghz(n, sign)
            if to == "x":
                converted, scale = symstate.z_to_x(g)
                scale_txt = str(scale)
            else:
                converted = symstate.ghz_y_form(n, sign)
                scale = symstate.i_power(n).scale(sign * 2**n)   # sign (2i)^n
                scale_txt = f"{float(scale.re):+g}{float(scale.im):+g}i"
            tables.append({"input": symstate.sym_to_json(g),
                           "output": symstate.sym_to_json(converted),
                           "scale": scale_txt})
    rows = [["sign", "label", "coefficient"]]
    for table in tables:
        for ell, coeff in enumerate(table["output"]["coeff"]):
            rows.append([table["input"]["coeff"][-1], ell, coeff])
    _emit({"config": _config_echo(opts), "tables": tables}, opts, csv_rows=rows)
    return EXIT_OK


def _cmd_bellbasis(opts: dict) -> int:
    n = opts["n"]
    states = symstate.bell_basis(n)
    gram_err = symstate.gram_error(states)
    payload = {
        "config": _config_echo(opts),
        "count": len(states),
        "gram_error": gram_err,
        "gram_is_identity": gram_err <= 1e-12,
        "states": [{"bits": "".join(map(str, s.bits)), "sign": s.sign}
                   for s in states],
    }
    rows = [["bits", "sign"]] + [["".join(map(str, s.bits)), s.sign] for s in states]
    _emit(payload, opts, csv_rows=rows)
    return EXIT_OK if payload["gram_is_identity"] else EXIT_CHECK_FAILED


def _cmd_verify(opts: dict) -> int:
    results = verification.run_all(fast=bool(opts["fast"]))
    for res in results:   # wall times go to stderr only, so stdout and --out replay
        print(res.line())
        print(f"{res.check_id}  [{res.seconds:.3f}s]", file=sys.stderr)
    payload = {
        "config": _config_echo(opts),
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
    """One subcommand per MODES entry, with a flag for each key its modes
    read, --config, and its switch; csv only where _emit gets rows."""
    parser = argparse.ArgumentParser(prog="bellkit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, text in (
            ("bellmax", _cmd_bellmax, "optimize the largest B_n eigenvalue"),
            ("certify", _cmd_certify, "entanglement-depth certificate"),
            ("criteria", _cmd_criteria, "entanglement criteria reports"),
            ("basis", _cmd_basis, "symmetric basis-change tables"),
            ("bellbasis", _cmd_bellbasis, "orthonormal GHZ-type basis"),
            ("verify", _cmd_verify, "run the full verification battery")):
        p = sub.add_parser(command, help=text)
        formats = ("json", "csv") if command in ("certify", "basis", "bellbasis") else ("json",)
        p.set_defaults(func=func, formats=formats)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--format", choices=formats)
        for key in dict.fromkeys(["out", *(k for keys in MODES[command].values() for k in keys)]):
            kind = KEYS[key][0]
            if isinstance(kind, tuple):
                p.add_argument(f"--{key}", choices=kind)
            else:
                p.add_argument(f"--{key}", type=kind)
        if command in SWITCHES:
            p.add_argument(f"--{SWITCHES[command]}", action="store_true", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_resolve(args))
    except FileNotFoundError as exc:
        print(f"missing file: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
