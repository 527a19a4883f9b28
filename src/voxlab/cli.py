"""Command-line front end.

Subcommands: generate-env, run-vox, run-spanrl, optimize-reward and
verify-cover.  All randomness derives from --seed; outputs are
sorted-key JSON so identical invocations produce byte-identical files.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import typing

import numpy as np

from voxlab.core import (NEG_TOL, ROW_SUM_TOL, LayeredLowRankMDP, VoxlabError,
                         validate_mdp)
from voxlab.drivers import (
    CoverSet,
    SpanrlSchedule,
    VoxSchedule,
    _policy_to_obj,
    optimize_reward,
    run_spanrl,
    run_vox,
)
from voxlab.evalcover import check_policy_cover
from voxlab.replearn import RepLearnConfig
from voxlab.simenv import EnvSpec, generate_low_rank_mdp, make_feature_class


def _write(text, path):
    """``text`` and a newline to stdout when ``path`` is "-", else to the file."""
    if path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _dump(obj, path):
    _write(json.dumps(obj, sort_keys=True, indent=1), path)


def _valid(M, what):
    """M, once `validate_mdp` finds nothing wrong with it."""
    problems = validate_mdp(M)
    if problems:
        raise VoxlabError(f"{what} failed validation ({len(problems)} problems): "
                          + "; ".join(problems[:3]))
    return M


def _load_json(path, what, build=None, kind=dict):
    """``build`` of the JSON ``kind`` in the file at ``path``; text that is
    not JSON, another kind, or a value ``build`` cannot read or rejects is a
    usage error naming the file."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        if isinstance(obj, kind):
            return build(obj) if build else obj
    except VoxlabError as exc:
        raise VoxlabError(f"{what} {path}: {exc}") from exc
    except (TypeError, AttributeError, IndexError, KeyError, ValueError) as exc:
        raise VoxlabError(f"{what} {path} is malformed: {exc!r}") from exc
    raise VoxlabError(f"{what} {path} must hold a JSON {kind.__name__}, "
                      f"got {type(obj).__name__}")


def _load_env(path):
    return _valid(_load_json(path, "environment", LayeredLowRankMDP.from_obj),
                  f"environment {path}")


def _env_sha256(M):
    return hashlib.sha256(M.to_json().encode()).hexdigest()


def _load_covers(path, M):
    """The covers of a run file made on M (its ``env_sha256``), each policy
    table checked to be an (|X_t|, A) table of distributions: the exact
    evaluators read it as is."""
    sha, covers = _load_json(path, "run file", lambda obj: (
        obj.get("env_sha256"), CoverSet.from_obj(obj["covers"])))
    if sha != _env_sha256(M):
        raise VoxlabError(f"run file {path} has env_sha256 {sha}, the "
                          f"environment {_env_sha256(M)}")
    if covers.H != M.H:
        raise VoxlabError(f"run file {path} has H = {covers.H}, the environment {M.H}")
    if len(covers.layers) != M.H:
        raise VoxlabError(f"run file {path} has {len(covers.layers)} cover layers, "
                          f"the environment H = {M.H}")
    for h, dist in enumerate(covers.layers):
        for i, pi in enumerate(dist.policies):
            for t, tab in enumerate(pi.tables, start=pi.lo):
                if not (0 <= t < M.H and tab.shape == (M.n_states(t), M.A)
                        and tab.min() >= -NEG_TOL
                        and np.abs(tab.sum(axis=1) - 1.0).max() <= ROW_SUM_TOL):
                    raise VoxlabError(f"run file {path}: layer {h} policy {i} table "
                                      f"{t} is not a table of distributions over A")
    return covers


def _load_config(args):
    """The config of ``args.command``, checked to hold only the top-level
    keys that command reads; optimize-reward accepts any key a run command
    reads, since it is handed their configs."""
    vox = {f.name for f in dataclasses.fields(VoxSchedule)} | {"feature_class"}
    spanrl = {f.name for f in dataclasses.fields(SpanrlSchedule)} | {"eps", "feature_class"}
    allowed = {"run-vox": vox, "run-spanrl": spanrl}.get(args.command, vox | spanrl)
    config = _load_json(args.config, "config")
    unknown = sorted(set(config) - allowed)
    if unknown:
        raise VoxlabError(f"config {args.config} has unknown keys {unknown}; "
                          f"{args.command} reads {sorted(allowed)}")
    return config


def _section(config, name, keys):
    """The object ``config[name]``, {} when absent, checked to hold only
    ``keys``."""
    section = config.get(name, {})
    if not isinstance(section, dict) or not set(section) <= set(keys):
        raise VoxlabError(f"config {name} must be an object with keys from "
                          f"{sorted(keys)}, got {section!r}")
    return section


def _feature_class_from_config(M, config, seed):
    fc = _section(config, "feature_class", ("n_decoys", "seed"))
    fc_seed = _typed("feature_class.seed", fc.get("seed", seed), int)
    n_decoys = _typed("feature_class.n_decoys", fc.get("n_decoys", 3), int)
    return make_feature_class(M, n_decoys, np.random.default_rng(fc_seed + 0xFEA7))


def _config(cls, config, prefix=""):
    """The dataclass ``cls`` built from the object ``config``, its fields
    read in order and checked with `_typed`: a field without a default must
    be present, and a `RepLearnConfig` field is read from ``replearn``."""
    hints = typing.get_type_hints(cls)
    values = {}
    for f in dataclasses.fields(cls):
        if hints[f.name] is RepLearnConfig:
            values[f.name] = _replearn_config(config)
        elif f.name in config or f.default is dataclasses.MISSING:
            values[f.name] = _typed(prefix + f.name, config[f.name], hints[f.name])
    return cls(**values)


def _replearn_config(config):
    hints = typing.get_type_hints(RepLearnConfig)
    return _config(RepLearnConfig, _section(config, "replearn", hints), "replearn.")


def _load_thetas(path):
    """The reward vectors of a theta file, which must hold a list of numeric
    vectors."""
    obj = _load_json(path, "theta file", kind=list)
    if not all(isinstance(v, list) and all(type(x) in (int, float) for x in v)
               for v in obj):
        raise VoxlabError(f"theta file {path} must hold a list of numeric "
                          f"vectors, got {obj!r}")
    return [np.asarray(t, dtype=float) for t in obj]


def _typed(name, value, hint):
    """``value``, checked against the type ``hint`` (int or float, optionally
    ``| None``).  An int passes as a float and is returned as one, but a
    float, bool or string never passes as an int: ``int()`` would truncate
    it silently."""
    allowed = typing.get_args(hint) or (hint,)
    if value is None:
        ok = type(None) in allowed
    elif int in allowed:
        ok = type(value) is int
    else:
        ok = type(value) in (int, float)
    if not ok:
        kind = "an integer" if int in allowed else "a number"
        null = " or null" if type(None) in allowed else ""
        raise VoxlabError(f"config {name} must be {kind}{null}, got {value!r}")
    return value if value is None or int in allowed else float(value)


def _cmd_generate_env(args):
    spec = EnvSpec(
        H=args.H,
        A=args.A,
        d_latent=args.d,
        state_counts=[int(s) for s in args.states.split(",")],
        seed=args.seed,
        boost=args.boost_eta,
        rotate=args.rotate,
    )
    _write(_valid(generate_low_rank_mdp(spec), "generated environment").to_json(),
           args.out)
    return 0


def _cover_reports(M, covers: CoverSet, alpha, eps, mode=None):
    """`check_policy_cover` at every layer from 2 on, keyed by layer, with a
    non-finite measured alpha as None.  ``mode`` defaults to best-member
    scoring for spanner covers and to the mixture expectation otherwise."""
    mode = mode or ("max" if covers.kind == "spanrl" else "expectation")
    reports = {}
    for h in range(2, M.H):
        rep = check_policy_cover(M, covers.distribution(h), h, alpha=alpha,
                                 eps=eps, mode=mode)
        if not math.isfinite(rep["alpha_measured"]):
            rep["alpha_measured"] = None
        reports[str(h)] = rep
    return reports


def _cmd_run(args):
    """run-vox or run-spanrl: one explorer run, with the measured alpha of
    each of its covers."""
    M = _load_env(args.env)
    config = _load_config(args)
    Phi = _feature_class_from_config(M, config, args.seed)
    rng = np.random.default_rng(args.seed)
    if args.command == "run-vox":
        result = run_vox(M, Phi, _config(VoxSchedule, config), rng)
    else:
        schedule = _config(SpanrlSchedule, config)
        eps = _typed("eps", config["eps"], float)
        result = run_spanrl(M, Phi, eps, schedule, rng)
    obj = result.to_obj()
    obj["seed"], obj["env_sha256"] = args.seed, _env_sha256(M)
    obj["alphas"] = {h: rep["alpha_measured"] for h, rep in
                     _cover_reports(M, result.covers, 0.0, 0.0).items()}
    _dump(obj, args.out)
    return 0


def _cmd_optimize_reward(args):
    M = _load_env(args.env)
    config = _load_config(args)
    covers = _load_covers(args.run, M)
    Phi = _feature_class_from_config(M, config, args.seed)
    thetas = _load_thetas(args.theta)
    rng = np.random.default_rng(args.seed)
    n_psdp = _typed("n_psdp", config.get("n_psdp", 20000), int)
    pol, value = optimize_reward(M, covers, thetas, Phi, n_psdp, rng)
    _dump({"value": value, "seed": args.seed, "policy": _policy_to_obj(pol)},
          args.out)
    return 0


def _cmd_verify_cover(args):
    M = _load_env(args.env)
    covers = _load_covers(args.run, M)
    reports = _cover_reports(M, covers, args.alpha, args.eps, args.mode)
    ok = all(rep["passed"] for rep in reports.values())
    _dump({"passed": ok, "alpha": args.alpha, "eps": args.eps,
           "layers": reports}, args.out)
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="voxlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-env", help="write a synthetic environment")
    p.add_argument("--H", type=int, required=True)
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--states", required=True,
                   help="comma-separated per-layer state counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--boost-eta", type=float, default=0.0, dest="boost_eta")
    p.add_argument("--rotate", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate_env)

    for name, kind in (("run-vox", "design"), ("run-spanrl", "spanner")):
        p = sub.add_parser(name, help=f"run the {kind}-based explorer")
        p.add_argument("--env", required=True)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_run)

    p = sub.add_parser("optimize-reward", help="PSDP on a linear reward")
    p.add_argument("--env", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--run", required=True, help="output of run-vox/run-spanrl")
    p.add_argument("--theta", required=True, help="JSON list of reward vectors")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_optimize_reward)

    p = sub.add_parser("verify-cover", help="check stored covers exactly")
    p.add_argument("--env", required=True)
    p.add_argument("--run", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--mode", choices=["expectation", "max"], default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_verify_cover)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (VoxlabError, OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
