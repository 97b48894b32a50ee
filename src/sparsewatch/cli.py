"""Command-line front end.

Four subcommands cover the experiment workflow:

* ``calibrate``:  pick the alarm threshold for a scenario's target null ARL.
* ``evaluate``:   replicate monitoring runs at a threshold; write delays.
* ``monitor``:    run the detector over a stream CSV; exit 2 on alarm.
* ``table1``:     the desk-scale ADD grid over change magnitudes and budgets.

Scenarios are JSON files naming every material quantity explicitly (basis
construction, model hyperparameters, change point, horizon); there are no
silent defaults for any of them.  Every output embeds the full manifest of
the run that produced it, and reruns with equal inputs produce
byte-identical files regardless of worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .bases import (
    BasisDictionary,
    bspline_basis,
    fourier_basis,
    identity_anomaly_basis,
    kron_basis,
    load_basis_csv,
)
from .detection import detection_record
from .engine import SAMPLERS, _delay_runs, calibrate_threshold, evaluate, init, step
from .errors import DataError, DimensionError, SparsewatchError, _count, _number
from .geometry import build_geometry_table
from .inference import ModelConfig
from .simgen import Scenario, load_stream_csv

__all__ = ["main", "load_scenario"]


class CliError(Exception):
    """Command-line usage or input error; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


# ── Scenario files ────────────────────────────────────────────────────────


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise CliError(f"scenario is missing required field '{key}' in {where}")
    return mapping[key]


def _whole(value, field: str, where: str) -> int:
    """A count or index: a JSON integer, or a number with no fractional part."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise CliError(
            f"invalid scenario: field '{field}' in {where} must be a whole number, "
            f"got {value!r}"
        )
    return int(value)


def _require_whole(mapping: dict, key: str, where: str) -> int:
    return _whole(_require(mapping, key, where), key, where)


def _real(value, field: str, where: str, document: str = "scenario") -> float:
    """A real-valued field: a JSON number, never a string or a boolean
    (``errors._number``)."""
    try:
        return _number(f"field '{field}' in {where}", value)
    except DataError as exc:
        raise CliError(f"invalid {document}: {exc}") from None


def _require_real(mapping: dict, key: str, where: str) -> float:
    return _real(_require(mapping, key, where), key, where)


def _build_basis(spec, p: int, role: str, allow_empty: bool) -> np.ndarray:
    if not isinstance(spec, dict):
        raise CliError(f"{role} basis spec must be an object")
    kind = _require(spec, "type", f"{role} basis")
    if kind == "fourier":
        return fourier_basis(p, _require_whole(spec, "k", f"{role} basis"))
    if kind == "bspline":
        normalize = _require(spec, "normalize_columns", f"{role} basis")
        if not isinstance(normalize, bool):
            raise CliError(f"field 'normalize_columns' in {role} basis must be true or false")
        return bspline_basis(
            p,
            _require_whole(spec, "order", f"{role} basis"),
            _require_whole(spec, "n_knots", f"{role} basis"),
            normalize_columns=normalize,
        )
    if kind == "identity":
        return identity_anomaly_basis(p)
    if kind == "none":
        if not allow_empty:
            raise CliError(f"the {role} basis may not be empty")
        return np.zeros((p, 0))
    if kind == "csv":
        mat = load_basis_csv(_require(spec, "path", f"{role} basis"))
        if mat.shape[0] != p:
            raise CliError(
                f"{role} basis file has {mat.shape[0]} rows, scenario says p={p}"
            )
        return mat
    if kind == "kron":
        factors = _require(spec, "factors", f"{role} basis")
        if not isinstance(factors, list) or len(factors) != 2:
            raise CliError(f"{role} kron basis needs exactly two factor specs")
        mats = []
        for fspec in factors:
            fp = _require_whole(fspec, "p", f"{role} kron factor")
            mats.append(_build_basis(fspec, fp, f"{role} kron factor", False))
        mat = kron_basis(mats[0], mats[1])
        if mat.shape[0] != p:
            raise CliError(
                f"{role} kron basis has {mat.shape[0]} rows, scenario says p={p}"
            )
        return mat
    raise CliError(f"unknown {role} basis type '{kind}'")


def _broadcast(value, k_a: int, name: str) -> np.ndarray:
    """One number for every anomaly column, or a list of one per column."""
    values = value if isinstance(value, list) else [value]
    arr = np.array([_real(v, name, "model") for v in values], dtype=np.float64)
    if arr.size == 1:
        return np.full(k_a, arr[0])
    if arr.size != k_a:
        raise CliError(f"model field '{name}' has {arr.size} entries, expected {k_a}")
    return arr


def load_scenario(path):
    """Parse a scenario JSON file.

    Returns (scenario, sampler, raw dict).  Every material field must be
    present; only behavioral switches carry documented defaults
    (sampler "thompson", random_change_basis false).  Counts and indices
    must be whole numbers, real-valued fields JSON numbers (not strings or
    booleans) and random_change_basis a JSON boolean; anything else is a
    CliError naming the field, never a truncated or coerced value.

    A ``bspline`` basis spec also requires ``normalize_columns``, true or
    false.  True scales each column to unit Euclidean norm, so a change
    magnitude phi is a mean shift of norm phi on any column.  The raw
    partition-of-unity columns differ widely in norm: the end columns of
    the order-4, 14-knot spline on p = 15 have squared norm 0.028, the
    others 0.70-0.96.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"scenario file is not valid JSON: {exc}") from exc

    try:
        p = _require_whole(raw, "p", "scenario")
        m = _require_whole(raw, "m", "scenario")
        basis = _require(raw, "basis", "scenario")
        model = _require(raw, "model", "scenario")
        horizon = _require_whole(raw, "horizon", "scenario")
        tau = _require(raw, "tau", "scenario")
        b_b = _build_basis(_require(basis, "background", "basis"), p, "background", True)
        b_a = _build_basis(_require(basis, "anomaly", "basis"), p, "anomaly", False)
        dictionary = BasisDictionary(b_b=b_b, b_a=b_a)
        cfg = ModelConfig(
            sigma_e=_require_real(model, "sigma_e", "model"),
            sigma_b=_require_real(model, "sigma_b", "model"),
            sigma_j=_broadcast(_require(model, "sigma_j", "model"), b_a.shape[1], "sigma_j"),
            w=_broadcast(_require(model, "w", "model"), b_a.shape[1], "w"),
            v=_require_real(model, "v", "model"),
            decay=_require_real(model, "decay", "model"),
            m=m,
        )
        change = tuple(
            (_whole(j, "change", "scenario"), _real(phi, "change", "scenario"))
            for j, phi in raw.get("change", [])
        )
        random_change_basis = raw.get("random_change_basis", False)
        if not isinstance(random_change_basis, bool):
            raise CliError(
                "invalid scenario: field 'random_change_basis' in scenario must be "
                f"true or false, got {random_change_basis!r}"
            )
        scenario = Scenario(
            dictionary=dictionary,
            cfg=cfg,
            tau=None if tau is None else _whole(tau, "tau", "scenario"),
            change=change,
            horizon=horizon,
            random_change_basis=random_change_basis,
        )
    except (SparsewatchError, TypeError, ValueError) as exc:
        raise CliError(f"invalid scenario: {exc}") from exc
    sampler = raw.get("sampler", "thompson")
    if sampler not in SAMPLERS:
        raise CliError(f"unknown sampler '{sampler}'")
    return scenario, sampler, raw


# ── Output plumbing ───────────────────────────────────────────────────────


def _manifest(command: str, args, raw_scenario: dict, extra: dict | None = None):
    # Worker count and output directory are execution details with no effect
    # on results; recording them would break byte-identical reruns.
    flags = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "workers", "out")
        and isinstance(value, (str, int, float, bool, type(None)))
    }
    out = {
        "package": "sparsewatch",
        "version": __version__,
        "command": command,
        "flags": flags,
        "scenario": raw_scenario,
    }
    if extra:
        out.update(extra)
    return out


def _num(x) -> float | None:
    x = float(x)
    return None if math.isnan(x) else x


def _refuse_overwrite(paths, force: bool):
    existing = [str(p) for p in paths if os.path.exists(p)]
    if existing and not force:
        raise CliError(
            "refusing to overwrite existing output (pass --force): "
            + ", ".join(existing)
        )


def _write_text(path, content: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(content)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_text(manifest: dict, header, rows) -> str:
    """The manifest as a comment line, the ``header`` names, then one line
    per row, its fields by ``str`` with None as an empty field."""
    lines = ["# manifest: " + json.dumps(manifest, sort_keys=True)]
    lines += [",".join("" if v is None else str(v) for v in row) for row in [header, *rows]]
    return "\n".join(lines) + "\n"


def _resolve_threshold(value: str) -> float:
    """A threshold flag is a finite float literal or a path to a
    threshold.json whose ``h`` is a JSON number; checked before any
    replication or output."""
    try:
        h = float(value)
    except ValueError:
        try:
            with open(value, "r", encoding="utf-8") as fh:
                h = _real(json.load(fh)["h"], "h", value, "threshold file")
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CliError(
                f"--threshold must be a number or a threshold.json file; "
                f"could not use {value!r}: {exc}"
            ) from exc
    if not math.isfinite(h):
        raise CliError(f"--threshold must be finite, got {h}")
    return h


def _child_seed(seed: int, *tags: int) -> int:
    """Deterministic derived seed for a sub-run of a larger command."""
    return int(np.random.SeedSequence(entropy=[seed, *tags]).generate_state(1)[0])


def _integer(least: int):
    """An argparse ``type`` for an integer flag of at least ``least``,
    checked by ``errors._count``; argparse's message names the flag."""

    def integer(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = text  # not an integer literal: ``_count`` refuses it by name
        try:
            return _count("the value", value, least)
        except DimensionError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return integer


# ── Subcommands ───────────────────────────────────────────────────────────


def _cmd_calibrate(args) -> int:
    scenario, sampler, raw = load_scenario(args.scenario)
    target = _require_real(raw, "arl0_target", "scenario")
    horizon = args.horizon if args.horizon is not None else scenario.horizon
    out_path = os.path.join(args.out, "threshold.json")
    _refuse_overwrite([out_path], args.force)

    h, achieved = calibrate_threshold(
        scenario.cfg,
        scenario.dictionary,
        target,
        args.reps,
        horizon,
        args.tol_rel,
        args.seed,
        workers=args.workers,
        sampler=sampler,
    )
    doc = {
        "h": h,
        "achieved_arl": achieved,
        "target_arl0": target,
        "n_reps": args.reps,
        "horizon": horizon,
        "tol_rel": args.tol_rel,
        "sampler": sampler,
        "manifest": _manifest("calibrate", args, raw),
    }
    _write_text(out_path, _json_text(doc))
    print(f"threshold {h:.6g} achieves replay ARL {achieved:.2f} (target {target:g})")
    print(f"wrote {out_path}")
    return 0


def _sweeps_text(histogram) -> str:
    """A sweep histogram as "k: steps" pairs, leaving out counts no step ran."""
    return ", ".join(f"{k}: {n}" for k, n in enumerate(histogram, 1) if n)


def _cmd_evaluate(args) -> int:
    scenario, sampler, raw = load_scenario(args.scenario)
    h = _resolve_threshold(args.threshold)
    delays_path = os.path.join(args.out, "delays.csv")
    summary_path = os.path.join(args.out, "summary.json")
    _refuse_overwrite([delays_path, summary_path], args.force)

    summary, records = evaluate(
        scenario.cfg,
        scenario.dictionary,
        h,
        scenario,
        args.reps,
        args.seed,
        workers=args.workers,
        sampler=sampler,
        return_records=True,
    )
    manifest = _manifest("evaluate", args, raw, {"h": h})
    rows = [(r["rep"], r["T"], int(r["false_alarm"]), r["delay"]) for r in records]
    _write_text(delays_path, _csv_text(manifest, ("rep", "T", "false_alarm", "delay"), rows))
    doc = {
        key: _num(value) if isinstance(value, float) else value
        for key, value in asdict(summary).items()
    }
    _write_text(summary_path, _json_text({**doc, "h": h, "manifest": manifest}))
    if scenario.tau is None:
        print(f"ARL {summary.arl0:.2f} over {summary.n_reps} replications")
    else:
        print(
            f"ADD {summary.add:.2f} (stderr {summary.add_stderr:.2f}) over "
            f"{summary.n_reps} replications, {summary.n_censored} censored, "
            f"{summary.n_false_alarm} false alarms"
        )
    print(f"steps by fit sweeps: {_sweeps_text(summary.sweep_histogram)}")
    print(f"wrote {delays_path} and {summary_path}")
    return 0


def _cmd_monitor(args) -> int:
    """Step one engine through the stream file and write its detection log;
    the scenario config's geometry table is built first, so the steps read
    its rows where the budget admits one."""
    scenario, sampler, raw = load_scenario(args.scenario)
    h = _resolve_threshold(args.threshold)
    log_path = os.path.join(args.out, "detection_log.jsonl")
    _refuse_overwrite([log_path], args.force)

    stream = load_stream_csv(args.stream)
    if stream.shape[1] != scenario.dictionary.p:
        raise CliError(
            f"stream has {stream.shape[1]} variables, scenario says "
            f"{scenario.dictionary.p}"
        )
    state = init(
        scenario.cfg, scenario.dictionary, h, args.seed, sampler=sampler
    )
    build_geometry_table(scenario.dictionary, scenario.cfg)
    manifest = _manifest("monitor", args, raw, {"h": h})
    lines = [json.dumps({"manifest": manifest}, sort_keys=True)]
    alarmed = False
    for row in stream:
        outcome = step(state, row)
        lines.append(
            json.dumps(
                detection_record(outcome.step, outcome.z, outcome.stat, outcome.alarmed),
                sort_keys=True,
            )
        )
        if outcome.alarmed:
            alarmed = True
            break
    _write_text(log_path, "\n".join(lines) + "\n")
    if alarmed:
        print(
            f"alarm at step {state.step}: statistic {outcome.stat:.6g} "
            f"exceeds threshold {h:.6g}"
        )
        print(f"wrote {log_path}")
        return 2
    print(f"no alarm in {state.step} steps")
    print(f"wrote {log_path}")
    return 0


def _parse_list(text: str, flag: str, kind=float):
    """The entries of the comma-separated ``text``, blanks dropped, each
    through ``kind``; CliError naming ``flag`` if ``kind`` refuses one or
    none is listed."""
    try:
        values = [kind(v.strip()) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise CliError(f"{flag} expects a comma-separated list of numbers") from exc
    if not values:
        raise CliError(f"{flag} must list at least one value")
    return values


_SWEEP_HEADER = (
    "sampler", "m", "phi", "h", "add", "add_stderr", "std_dd",
    "n_censored", "n_false_alarm", "n_reps", "n_nonconverged",
)


def _cell(summary) -> str:
    """A ``table1.csv`` cell: "ADD(std of the delays)", or "censored" when
    no run gave a delay."""
    if math.isnan(summary.add):
        return "censored"
    return f"{summary.add:.2f}({summary.std_dd:.2f})"


def _cmd_table1(args) -> int:
    scenario, sampler, raw = load_scenario(args.scenario)
    if args.samplers is None:  # the scenario's sampler, recorded in the manifest as run
        args.samplers = sampler
    target = _require_real(raw, "arl0_target", "scenario")
    if scenario.tau is None:
        raise CliError("the ADD table needs a scenario with a change point")
    phis = _parse_list(args.phis, "--phis")
    if 0.0 in phis:
        raise CliError("--phis may not list 0: the table's 0 row is the calibrated ARL")
    budgets = _parse_list(args.ms, "--ms")
    if not all(v.is_integer() for v in budgets):
        raise CliError("--ms expects whole-number sensing budgets")
    ms = [int(v) for v in budgets]
    p = scenario.dictionary.p
    if not all(1 <= m <= p for m in ms):
        raise CliError(f"--ms budgets must lie in [1, {p}], the number of variables")
    samplers = _parse_list(args.samplers, "--samplers", str)
    for s in samplers:
        if s not in SAMPLERS:
            raise CliError(f"unknown sampler '{s}' in --samplers")
    for flag, values in (("--phis", phis), ("--ms", ms), ("--samplers", samplers)):
        if len(set(values)) != len(values):
            raise CliError(f"{flag} lists a value more than once")
    calib_horizon = (
        args.calib_horizon if args.calib_horizon is not None else scenario.horizon
    )
    cfgs = [replace(scenario.cfg, m=m) for m in ms]

    table_path = os.path.join(args.out, "table1.csv")
    sweep_path = os.path.join(args.out, "sweep.csv")
    thresholds_path = os.path.join(args.out, "thresholds.json")
    _refuse_overwrite([table_path, sweep_path, thresholds_path], args.force)

    # Each column's study (``engine.study``, at the same seeds) in three passes:
    # every cell checked, every column calibrated, then the cells run, so a
    # column that cannot calibrate is refused before any cell's work is done.
    d = scenario.dictionary
    columns = [  # (sampler, config, calibration seed, checked cells)
        (samp, cfg_m, _child_seed(args.seed, 0, si, mi), _delay_runs(
            cfg_m, d, scenario.tau, scenario.horizon,
            [(phi, args.reps, _child_seed(args.seed, 1, si, mi, pi))
             for pi, phi in enumerate(phis)]))
        for si, samp in enumerate(samplers) for mi, cfg_m in enumerate(cfgs)
    ]
    thresholds = [
        calibrate_threshold(cfg_m, d, target, args.calib_reps, calib_horizon, args.tol_rel, seed,
                            workers=args.workers, sampler=samp)
        for samp, cfg_m, seed, _ in columns
    ]
    results = []  # (sampler, m, h, achieved ARL, summaries), one per column
    for (samp, cfg_m, _, runs), (h, achieved) in zip(columns, thresholds):
        summaries = [
            evaluate(cfg_m, d, h, *run, workers=args.workers, sampler=samp) for run in runs
        ]
        results.append((samp, cfg_m.m, h, achieved, summaries))
        for phi, summary in zip(phis, summaries):
            print(
                f"{samp}_m{cfg_m.m} phi={phi:g}: {_cell(summary)}; steps by fit sweeps: "
                f"{_sweeps_text(summary.sweep_histogram)}",
                flush=True,
            )

    names = [f"{samp}_m{m}" for samp, m, *_ in results]
    manifest = _manifest("table1", args, raw, {"target_arl0": target})
    columns = ([f"{achieved:.2f}", *map(_cell, summaries)] for *_, achieved, summaries in results)
    table = zip([f"{phi:g}" for phi in [0.0, *phis]], *columns)
    _write_text(table_path, _csv_text(manifest, ["phi", *names], table))
    sweep = [
        (samp, m, phi, h, _num(s.add), _num(s.add_stderr), _num(s.std_dd),
         s.n_censored, s.n_false_alarm, s.n_reps, s.n_nonconverged)
        for samp, m, h, _, summaries in results
        for phi, s in zip(phis, summaries)
    ]
    _write_text(sweep_path, _csv_text(manifest, _SWEEP_HEADER, sweep))
    thresholds = {
        name: {"h": h, "achieved_arl": achieved}
        for name, (_, _, h, achieved, _) in zip(names, results)
    }
    _write_text(
        thresholds_path,
        _json_text({"thresholds": thresholds, "manifest": manifest}),
    )
    print(f"wrote {table_path}, {sweep_path}, {thresholds_path}")
    return 0


# ── Entry point ───────────────────────────────────────────────────────────


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparsewatch",
        description=(
            "Online change detection for partially observed high-dimensional "
            "streams"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"sparsewatch {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, reps_default=None):
        sp.add_argument("--scenario", required=True, help="scenario JSON file")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=_integer(0), default=0, help="root random seed")
        sp.add_argument(
            "--force", action="store_true", help="overwrite existing outputs"
        )
        if reps_default is not None:
            sp.add_argument(
                "--reps", type=_integer(1), default=reps_default, help="replication count"
            )
            sp.add_argument(
                "--workers", type=_integer(1), default=1, help="parallel worker processes"
            )

    def calibration(sp, horizon_flag):  # the calibration horizon, then --tol-rel
        sp.add_argument(
            horizon_flag, type=_integer(1), default=None,
            help="calibration horizon (default: scenario horizon)",
        )
        sp.add_argument("--tol-rel", type=float, default=0.02, help="relative ARL error tolerance")

    def threshold(sp):
        sp.add_argument(
            "--threshold", required=True, help="alarm threshold: a number or a threshold.json path"
        )

    sp = sub.add_parser("calibrate", help="calibrate the alarm threshold")
    common(sp, reps_default=200)
    calibration(sp, "--horizon")
    sp.set_defaults(func=_cmd_calibrate)

    sp = sub.add_parser("evaluate", help="replicated run-length evaluation")
    common(sp, reps_default=200)
    threshold(sp)
    sp.set_defaults(func=_cmd_evaluate)

    sp = sub.add_parser("monitor", help="monitor a stream CSV")
    common(sp)
    sp.add_argument("--stream", required=True, help="stream CSV file")
    threshold(sp)
    sp.set_defaults(func=_cmd_monitor)

    sp = sub.add_parser(
        "table1", help="ADD grid over change magnitudes and sensing budgets"
    )
    common(sp, reps_default=200)
    sp.add_argument("--phis", required=True, help="comma-separated change magnitudes")
    sp.add_argument("--ms", required=True, help="comma-separated sensing budgets")
    sp.add_argument(
        "--samplers",
        help="comma-separated strategies (thompson, oracle); default: the scenario's sampler",
    )
    sp.add_argument(
        "--calib-reps", type=_integer(1), default=200, help="calibration replication count"
    )
    calibration(sp, "--calib-horizon")
    sp.set_defaults(func=_cmd_table1)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, SparsewatchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
