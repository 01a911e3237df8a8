"""Batch command-line front-end.

Subcommands: compile, simulate, fidelity, sweep, resonance.  All inputs
are JSON files plus flags; outputs are JSON/CSV with no timestamps, so
identical invocations produce byte-identical results.

Exit codes: 0 success; 2 schema or parse errors, or an output file that
cannot be written; 3 sequence validation violations; 4 integrator
failure; 5 fidelity below the --min gate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext

from .analysis import (
    concurrence,
    gate_fidelity,
    one_qubit_error_budget,
    reduced_bloch,
    report_to_json,
    sideband_check,
)
from .compiler import compile_cnot, compile_D, compile_one_qubit, compile_xx_half
from .integrator import (
    DensityState,
    StepPolicy,
    StepTooCoarse,
    _GridBeyondCap,
    evolve,
    gate_unitary,
    to_rotating_frame,
    write_trajectory_csv,
)
from .model import (
    DEFAULT_PARAMS,
    PulseSequence,
    SystemParams,
    _fields,
    _items,
    _require_finite,
    params_from_json,
    sequence_from_json,
    sequence_to_json,
    validate_sequence,
)
from .pauli import build_cnot_word, parse_word

__all__ = ["main"]

EXIT_SCHEMA = 2
EXIT_VALIDATION = 3
EXIT_INTEGRATOR = 4
EXIT_BELOW_MIN = 5


class SchemaError(ValueError):
    pass


def _read(what: str, path: str, parse):
    """``parse`` applied to the text of the file at ``path``; any failure to
    open, decode or parse it is a SchemaError naming ``what`` it held."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"cannot read {what} file {path}: {exc}") from exc


def _load_params(path: str | None) -> SystemParams:
    return DEFAULT_PARAMS if path is None else _read("params", path, params_from_json)


@contextmanager
def _output(path: str | None):
    """``path`` opened for writing, or stdout where it is None; an OS error
    while opening or writing the file is a SchemaError."""
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, fh) -> None:
    fh.write(text if text.endswith("\n") else text + "\n")


def _refusal(args, exc: ValueError) -> SchemaError:
    """An integrator refusal, naming the sequence file for a grid beyond the
    cap and the flag for a step count beyond int64 or float or the budget."""
    if isinstance(exc, _GridBeyondCap):
        return SchemaError(f"sequence file {args.sequence}: {exc}")
    return SchemaError(f"--steps-per-period {args.steps_per_period}: {exc}")


def _parse_state(spec: str) -> DensityState:
    if spec in ("00", "01", "10", "11"):
        return DensityState.computational(spec)
    if spec.startswith("bloch:"):
        try:
            b1_txt, b2_txt = spec[len("bloch:"):].split(";")
            b1 = [float(x) for x in b1_txt.split(",")]
            b2 = [float(x) for x in b2_txt.split(",")]
            return DensityState.product_bloch(b1, b2)
        except ValueError as exc:
            raise SchemaError(f"bad bloch state spec {spec!r}: {exc}") from exc
    if spec.startswith("pauli:"):
        try:
            state = DensityState([float(x) for x in spec[len("pauli:"):].split(",")])
            state.validate()
            return state
        except ValueError as exc:
            raise SchemaError(f"bad pauli state spec {spec!r}: {exc}") from exc
    raise SchemaError(
        f"bad state spec {spec!r}; use a basis ket, bloch:..;.. or pauli:.."
    )


def _half_pi_on_qubit_1(p: SystemParams, axis: str) -> PulseSequence:
    return PulseSequence(params=p, segments=(compile_one_qubit(p, 1, axis, math.pi / 2, 0.0),))


# The gates ``compile`` knows, by name; the parser takes its choices from here.
_GATES = {
    "d": compile_D,
    "xx_half": compile_xx_half,
    "cnot": compile_cnot,
    "x90": lambda p: _half_pi_on_qubit_1(p, "x"),
    "y90": lambda p: _half_pi_on_qubit_1(p, "y"),
}


def _invalid(seq: PulseSequence) -> bool:
    """Print the sequence's validation diagnostics to stderr; whether any
    of them is an error."""
    diags = validate_sequence(seq.params, seq)
    for d in diags:
        print(f"{d.severity}: {d.message}", file=sys.stderr)
    return any(d.severity == "error" for d in diags)


def cmd_compile(args) -> int:
    p = _load_params(args.params)
    try:
        seq = _GATES[args.gate](p)
    except ValueError as exc:
        raise SchemaError(f"cannot compile {args.gate}: {exc}") from exc
    if _invalid(seq):
        return EXIT_VALIDATION
    with _output(args.out) as fh:
        _emit(sequence_to_json(seq), fh)
    return 0


def cmd_simulate(args) -> int:
    seq = _read("sequence", args.sequence, sequence_from_json)
    p = seq.params
    rho0 = _parse_state(args.state)
    if _invalid(seq):
        return EXIT_VALIDATION
    try:
        traj = evolve(p, seq, rho0, StepPolicy(steps_per_period=args.steps_per_period))
    except ValueError as exc:
        raise _refusal(args, exc) from exc
    if args.frame == "rotating":
        traj = to_rotating_frame(traj, p)
    with _output(args.out) as fh:
        write_trajectory_csv(traj, fh, full=args.full)
    final = traj.final
    doc = {
        "t": float(traj.times[-1]),
        "frame": traj.frame,
        "bloch1": [float(x) for x in reduced_bloch(final, 1)],
        "bloch2": [float(x) for x in reduced_bloch(final, 2)],
        "purity": float(final.purity),
        "concurrence": float(concurrence(final)),
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_fidelity(args) -> int:
    seq = _read("sequence", args.sequence, sequence_from_json)
    try:
        word = parse_word(args.word)
    except ValueError as exc:
        raise SchemaError(f"bad target word: {exc}") from exc
    if _invalid(seq):
        return EXIT_VALIDATION
    try:
        u = gate_unitary(seq, StepPolicy(steps_per_period=args.steps_per_period))
    except ValueError as exc:
        raise _refusal(args, exc) from exc
    report = gate_fidelity(u, word, align_local_z=not args.no_align)
    with _output(args.out) as fh:  # opened last: a failed run keeps an earlier result
        _emit(report_to_json(report), fh)
    if args.min is not None and report.process < args.min:
        print(
            f"process fidelity {report.process:.6f} below --min {args.min}",
            file=sys.stderr,
        )
        return EXIT_BELOW_MIN
    return 0


def _params_for(delta: float, wxx: float) -> SystemParams:
    return SystemParams(w1z=1.0 + 0.5 * delta, w2z=1.0 - 0.5 * delta, wxx=wxx)


# The metrics ``sweep`` knows, as functions of the device and the step policy.
_METRICS = {
    "cnot_error": lambda p, policy:
        1.0 - gate_fidelity(gate_unitary(compile_cnot(p), policy), build_cnot_word()).process,
    "one_qubit_error": lambda p, policy:
        one_qubit_error_budget(p, policy=policy)["target_infidelity"],
    "d_concurrence": lambda p, policy:
        concurrence(evolve(p, compile_D(p), DensityState.computational("00"), policy).final),
}


def _sweep_point(task) -> tuple[float, str | None]:
    """The metric at one grid point, or nan and the reason it failed."""
    p, metric, steps = task
    try:
        return _METRICS[metric](p, StepPolicy(steps_per_period=steps)), None
    except Exception as exc:  # a failed point is a nan row, not a failed sweep
        return float("nan"), str(exc)


def cmd_sweep(args) -> int:
    points = _read("grid", args.grid, lambda text: [
        (point["delta"], point["wxx"])
        for point in (_fields("grid points", pt, ("delta", "wxx"))
                      for pt in _items("grid points", json.loads(text)))])
    tasks = []
    for d, w in points:
        try:  # the model's rule for numbers: no bool, string, null or non-finite value
            _require_finite(delta=d, wxx=w)
            tasks.append((_params_for(d, w), args.metric, args.steps_per_period))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad grid point delta={d}, wxx={w}: {exc}") from exc
    jobs = min(args.jobs, len(tasks))  # a pool starts all its workers at once
    with _output(args.out) as fh:  # opened first: a bad path wastes no integration
        with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
            results = list((pool.map if pool else map)(_sweep_point, tasks))
        lines = ["delta,wxx,metric"]
        for (d, w), (r, error) in zip(points, results):
            if error is not None:
                print(f"point {(d, w)} failed: {error}", file=sys.stderr)
            lines.append(f"{d:.12g},{w:.12g},{r:.12g}")
        _emit("\n".join(lines), fh)
    return EXIT_INTEGRATOR if any(error is not None for _, error in results) else 0


def cmd_resonance(args) -> int:
    p = _load_params(args.params)
    try:
        a1, a2 = (float(x) for x in args.amps.split(","))
        report = sideband_check(p, a1, a2)
    except ValueError as exc:
        raise SchemaError(f"bad --amps {args.amps!r}: {exc}") from exc
    with _output(args.out) as fh:
        _emit(json.dumps(report, indent=2), fh)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="flicforq", description=__doc__)
    steps_flag = {"type": _positive_int, "default": StepPolicy().steps_per_period}
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a named gate to a pulse sequence")
    c.add_argument("gate", choices=list(_GATES))
    c.add_argument("--params")
    c.add_argument("--out")
    c.set_defaults(func=cmd_compile)

    s = sub.add_parser("simulate", help="integrate a sequence from an initial state")
    s.add_argument("sequence")
    s.add_argument("--state", default="00")
    s.add_argument("--frame", choices=["lab", "rotating"], default="lab")
    s.add_argument("--out", required=True, help="trajectory CSV path")
    s.add_argument("--full", action="store_true", help="emit all 15 coefficients")
    s.add_argument("--steps-per-period", **steps_flag)
    s.set_defaults(func=cmd_simulate)

    f = sub.add_parser("fidelity", help="gate fidelity of a sequence vs a word")
    f.add_argument("sequence")
    f.add_argument("--word", required=True)
    f.add_argument("--min", type=_finite_float)
    f.add_argument("--no-align", action="store_true")
    f.add_argument("--out")
    f.add_argument("--steps-per-period", **steps_flag)
    f.set_defaults(func=cmd_fidelity)

    w = sub.add_parser("sweep", help="metric over a (delta, wxx) grid")
    w.add_argument("grid", help="JSON list of {delta, wxx} points")
    w.add_argument("--metric", required=True, choices=list(_METRICS))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    w.add_argument("--jobs", type=_positive_int, default=cpus or 1)
    w.add_argument("--out")
    w.add_argument("--steps-per-period", **steps_flag)
    w.set_defaults(func=cmd_sweep)

    r = sub.add_parser("resonance", help="sideband frequencies and resonance gap")
    r.add_argument("--params")
    r.add_argument("--amps", required=True, help="amp_y1,amp_y2")
    r.set_defaults(func=cmd_resonance)
    r.add_argument("--out")
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except StepTooCoarse as exc:
        print(f"integrator failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR


if __name__ == "__main__":
    sys.exit(main())
