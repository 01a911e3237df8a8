"""The benchmark's five workloads: seeded inputs, operations and checks.

Every operation ("op") calls the package only through its public API,
each call wrapped by ``Tracer.call`` so a traced run can attribute time
to a layer.  Correctness checks are plain functions of an op's outputs
(``check_*``), computed with the benchmark's own numpy code rather than
the package's, so a faster-but-wrong change cannot also fool the check.

Inputs are grouped in rounds whose members cost complementary amounts of
work (a CNOT variant and its complement, a device and its mirror image in
the sweep range, 16 gate layers that use every one-qubit choice once per
qubit); ops of gate_fidelity, d_simulate and oracle_verify integrate the
same span by construction.  A run always completes whole rounds, so its
op times depend little on which inputs a seed happened to draw.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from flicforq.analysis import (
    compose_virtual_z,
    concurrence,
    gate_fidelity,
    one_qubit_error_budget,
    reduced_bloch,
)
from flicforq.compiler import (
    calibrate,
    compile_cnot,
    compile_D,
    compile_one_qubit,
    compile_xx_half,
    insert_decoupling,
)
from flicforq.integrator import (
    DensityState,
    StepPolicy,
    evolve,
    evolve_oracle,
    frame_unitary,
    propagator_of_sequence,
    to_rotating_frame,
    write_trajectory_csv,
)
from flicforq.model import (
    Envelope,
    PulseSequence,
    SystemParams,
    sequence_from_json,
    sequence_to_json,
    validate_sequence,
)
from flicforq.pauli import PauliString, RotationWord, build_cnot_word
from tracing import Tracer

# The paper's device (w1z=1.05, w2z=0.95, wxx=0.01) with the detuning and
# the coupling both scaled by 2.5: same mean frequency, same wxx/delta =
# 0.1, and 2/delta = 8 is still an integer.  Sequences are 2.5x shorter,
# so a run of a few tens of seconds holds several ops.
BENCH_PARAMS = SystemParams(w1z=1.125, w2z=0.875, wxx=0.025)
# The step density calibrate() uses internally and the sweep runs at.
POLICY = StepPolicy(steps_per_period=800)

# Acceptance bounds of the package's own test suite.
MIN_FIDELITY = 0.98          # criterion 6: process and worst basis state
REF_FIDELITY_TOL = 1e-6      # against the stored reference
MAX_UNITARITY_DEFECT = 1e-9  # propagator_of_sequence's own bound
MAX_ORACLE_GAP = 1e-7        # criterion 8: evolve vs the Magnus oracle
MAX_PURITY_DRIFT = 1e-8
MAX_SWEEP_INFIDELITY = 1e-2

CNOT_ONE_QUBIT_SEGMENTS = (0, 1, 3)  # compile_cnot's one-qubit pulses
TOMO_BLOCH = {
    "0": (0.0, 0.0, 1.0),
    "1": (0.0, 0.0, -1.0),
    "+": (1.0, 0.0, 0.0),
    "+i": (0.0, 1.0, 0.0),
}
TOMO_LABELS = tuple(f"{a},{b}" for a in TOMO_BLOCH for b in TOMO_BLOCH)

# device_sweep draws x = 2/delta in [5, 8] and y = 1/wxx in [80/3, 40]
# (delta in [0.25, 0.4], wxx in [0.025, 0.0375]: the paper's sweep range
# scaled by 2.5, so wxx/delta spans the same 0.0625 .. 0.15).
SWEEP_X = (5.0, 8.0)
SWEEP_Y = (80.0 / 3.0, 40.0)

# gate_fidelity: one layer of one-qubit gates, a compile_one_qubit pulse on
# each qubit in the same pulse length 4*pi/delta.  Each qubit turns about x
# or y by k*pi/8, k = +-1..+-4: 16 choices per qubit, 256 variants, each
# with its reference fidelity.  A round is 16 layers that use every choice
# once on each qubit, paired at random, since the cost of the fidelity's
# phase alignment depends on the turns.
GATE_TURNS = (-4, -3, -2, -1, 1, 2, 3, 4)
GATE_CHOICES = tuple((axis, k) for axis in "xy" for k in GATE_TURNS)
GATE_VARIANTS = tuple(a + b for a in GATE_CHOICES for b in GATE_CHOICES)

# oracle_verify: one pulse length 4*pi/delta with a compile_one_qubit pulse
# on each qubit, each given a raised-cosine ramp half the time, so every op
# integrates the same span.


class CheckFailed(AssertionError):
    """An op's output is outside its correctness bound."""


def _rng(workload: str, seed: int) -> np.random.Generator:
    salt = sum((i + 1) * ord(ch) for i, ch in enumerate(workload))
    return np.random.default_rng([seed, salt])


# ---------------------------------------------------------------------------
# Benchmark-side numerics used by the checks


def _pauli_basis() -> np.ndarray:
    """The 15 two-qubit Pauli strings in TWO_QUBIT_LABELS order (XI, YI,
    ZI, IX, IY, IZ, XX, XY, ..., ZZ), built here rather than imported."""
    one = [np.eye(2), np.array([[0, 1], [1, 0]]),
           np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    pairs = [(a, 0) for a in (1, 2, 3)] + [(0, b) for b in (1, 2, 3)] \
        + [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    return np.array([np.kron(one[a], one[b]) for a, b in pairs])


_BASIS = _pauli_basis()


def _rho(c) -> np.ndarray:
    return (np.eye(4) + np.einsum("a,aij->ij", np.asarray(c, dtype=float), _BASIS)) / 4.0


def trace_dist(c1, c2) -> float:
    d = _rho(c1) - _rho(c2)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(d))))


def purity(c) -> float:
    c = np.asarray(c, dtype=float)
    return (1.0 + float(c @ c)) / 4.0


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.max(np.abs(u @ u.conj().T - np.eye(4))))


def nominal_steps(p: SystemParams, total_time: float, policy: StepPolicy) -> int:
    return int(math.ceil(total_time / policy.step_target(p) - 1e-9))


def periodic_carrier(seq: PulseSequence) -> bool:
    """True when both carriers repeat every T = 4*pi/delta (2/delta an
    integer) and some square segment holds constant amplitudes for at
    least 2T, so carrier-period reuse would have a period to repeat."""
    p = seq.params
    x = 2.0 / p.delta
    if abs(x - round(x)) > 1e-9:
        return False
    period = 4.0 * math.pi / p.delta
    for seg in seq.segments:
        if seg.envelope.kind != "square":
            continue
        cuts = [seg.start, seg.end] if seg.flip_at is None else [seg.start, seg.flip_at, seg.end]
        if max(b - a for a, b in zip(cuts, cuts[1:])) >= 2.0 * period - 1e-9:
            return True
    return False


# ---------------------------------------------------------------------------
# Checks: each returns a list of failure messages, empty when the output holds


def check_gate(defect, process, worst_state, ref_process, roundtrip_ok, errors):
    bad = []
    if not roundtrip_ok:
        bad.append("JSON round trip changed the sequence")
    if errors:
        bad.append(f"validate_sequence errors: {errors}")
    if not defect <= MAX_UNITARITY_DEFECT:
        bad.append(f"unitarity defect {defect:.3e} > {MAX_UNITARITY_DEFECT}")
    if not process >= MIN_FIDELITY:
        bad.append(f"process fidelity {process:.6f} < {MIN_FIDELITY}")
    if not worst_state >= MIN_FIDELITY:
        bad.append(f"worst basis-state fidelity {worst_state:.6f} < {MIN_FIDELITY}")
    if not abs(process - ref_process) <= REF_FIDELITY_TOL:
        bad.append(f"process fidelity {process:.9f} differs from reference "
                   f"{ref_process:.9f} by more than {REF_FIDELITY_TOL}")
    return bad


def check_state(gap, drift, csv_rows, samples, conc):
    bad = []
    if not gap <= MAX_ORACLE_GAP:
        bad.append(f"trace distance to the oracle {gap:.3e} > {MAX_ORACLE_GAP}")
    if not drift <= MAX_PURITY_DRIFT:
        bad.append(f"purity drift {drift:.3e} > {MAX_PURITY_DRIFT}")
    if csv_rows != samples + 1:
        bad.append(f"CSV has {csv_rows} lines for {samples} samples")
    if not -1e-12 <= conc <= 1.0 + 1e-12:
        bad.append(f"concurrence {conc} outside [0, 1]")
    return bad


def check_sweep(target_infidelity):
    if not target_infidelity <= MAX_SWEEP_INFIDELITY:
        return [f"target infidelity {target_infidelity:.3e} > {MAX_SWEEP_INFIDELITY}"]
    return []


def _raise(bad):
    if bad:
        raise CheckFailed("; ".join(bad))


# ---------------------------------------------------------------------------
# Ops.  Each returns a dict of accuracy figures and per-route step counts.


def cnot_variant(p: SystemParams, mask: int, tr) -> PulseSequence:
    seq = tr.call("compiler.compile", compile_cnot, p)
    chosen = [CNOT_ONE_QUBIT_SEGMENTS[i] for i in range(3) if mask >> i & 1]
    for index in sorted(chosen, reverse=True):
        seq = tr.call("compiler.compile", insert_decoupling, p, seq, index)
    return seq


def fidelity_op(seq: PulseSequence, word: RotationWord, ref_process: float, tr) -> dict:
    """Round-trip ``seq`` through JSON, validate it, integrate its
    propagator and score it against ``word`` and the reference fidelity."""
    p = BENCH_PARAMS
    text = tr.call("model.json", sequence_to_json, seq)
    seq2 = tr.call("model.json", sequence_from_json, text)
    diags = tr.call("model.validate", validate_sequence, p, seq2)
    u = tr.call("integrator.propagator", propagator_of_sequence, p, seq2, POLICY)
    v = tr.call("integrator.frame", frame_unitary, p, seq2.total_time)
    u_rot = tr.call("analysis.virtual_z", compose_virtual_z, v @ u, seq2)
    rep = tr.call("analysis.gate_fidelity", gate_fidelity, u_rot, word)
    defect = unitarity_defect(u)
    _raise(check_gate(
        defect, rep.process, min(rep.per_state.values()), ref_process,
        seq2 == seq, [d.message for d in diags if d.severity == "error"],
    ))
    steps = nominal_steps(p, seq2.total_time, POLICY)
    return {
        "unitarity_defect": defect,
        "fidelity_err": abs(rep.process - ref_process),
        "steps": {"propagator": steps},
        "all_steps": steps,
    }


def cnot_op(mask: int, tr, ref: dict, tmp_dir: str) -> dict:
    seq = cnot_variant(BENCH_PARAMS, mask, tr)
    return fidelity_op(seq, build_cnot_word(), ref["cnot_process"][str(mask)], tr)


def gate_key(variant: tuple) -> str:
    a1, k1, a2, k2 = variant
    return f"{a1}{k1:+d},{a2}{k2:+d}"


def gate_sequence(variant: tuple, tr) -> PulseSequence:
    p = BENCH_PARAMS
    a1, k1, a2, k2 = variant
    segs = tuple(
        tr.call("compiler.compile", compile_one_qubit, p, qubit, axis, k * math.pi / 8, 0.0)
        for qubit, axis, k in ((1, a1, k1), (2, a2, k2))
    )
    return PulseSequence(params=p, segments=segs)


def gate_target(variant: tuple) -> RotationWord:
    """The ideal layer: exp(i*k*pi/8*P) on each qubit (they commute)."""
    a1, k1, a2, k2 = variant
    return RotationWord((
        (PauliString(1, a1.upper(), "I"), k1 / 8),
        (PauliString(1, "I", a2.upper()), k2 / 8),
    ))


def gate_op(variant: tuple, tr, ref: dict, tmp_dir: str) -> dict:
    seq = gate_sequence(variant, tr)
    return fidelity_op(seq, gate_target(variant), ref["gate_process"][gate_key(variant)], tr)


def simulate_outputs(traj, tr, tmp_dir: str) -> dict:
    """What ``flicforq simulate`` does after integrating: rotating frame,
    full CSV, reduced Bloch vectors and concurrence."""
    p = BENCH_PARAMS
    rot = tr.call("integrator.frame", to_rotating_frame, traj, p)
    path = os.path.join(tmp_dir, "trajectory.csv")
    with open(path, "w") as fh:
        tr.call("integrator.csv", write_trajectory_csv, rot, fh, full=True)
    with open(path) as fh:
        rows = sum(1 for _ in fh)
    final = rot.final
    tr.call("analysis.state", reduced_bloch, final, 1)
    tr.call("analysis.state", reduced_bloch, final, 2)
    return {"csv_rows": rows, "samples": traj.times.size,
            "conc": tr.call("analysis.state", concurrence, final)}


def d_op(label: str, tr, ref: dict, tmp_dir: str) -> dict:
    p = BENCH_PARAMS
    seq = tr.call("compiler.compile", compile_D, p, 0.0)
    b1, b2 = (TOMO_BLOCH[s] for s in label.split(","))
    rho0 = DensityState.product_bloch(b1, b2)
    traj = tr.call("integrator.evolve", evolve, p, seq, rho0, POLICY)
    out = simulate_outputs(traj, tr, tmp_dir)
    gap = trace_dist(traj.final.c, ref["d_final"][label])
    drift = abs(purity(traj.final.c) - purity(rho0.c))
    _raise(check_state(gap, drift, out["csv_rows"], out["samples"], out["conc"]))
    steps = nominal_steps(p, seq.total_time, POLICY)
    return {"oracle_gap": gap, "steps": {"evolve": steps}, "all_steps": steps}


def sweep_op(p: SystemParams, tr, ref: dict, tmp_dir: str) -> dict:
    # Every op pays its calibration, even if a seed ever repeated a device
    # or a traced run repeats the op.
    calibrate.cache_clear()
    tr.call("compiler.calibrate", calibrate, p)
    budget = tr.call("analysis.error_budget", one_qubit_error_budget, p, policy=POLICY)
    _raise(check_sweep(budget["target_infidelity"]))
    one_q = 4.0 * math.pi / p.delta
    # calibrate: two one-qubit probes and a refocused XX pulse; budget: two
    # one-qubit evolutions.  calibrate() steps at 800 per period too.
    steps = (4 * nominal_steps(p, one_q, POLICY)
             + nominal_steps(p, 4.0 * math.pi / p.wxx, POLICY))
    return {"steps": {}, "all_steps": steps}


@dataclass(frozen=True)
class OracleSpec:
    pulses: tuple  # per qubit 1, 2: (axis, angle, rise fraction or 0)
    bloch1: tuple
    bloch2: tuple


def oracle_sequence(spec: OracleSpec, tr) -> PulseSequence:
    p = BENCH_PARAMS
    segs = []
    for qubit, (axis, angle, rise) in enumerate(spec.pulses, start=1):
        seg = tr.call("compiler.compile", compile_one_qubit, p, qubit, axis, angle, 0.0)
        if rise:
            seg = replace(seg, envelope=Envelope("raised-cosine-ramp", rise * seg.duration))
        segs.append(seg)
    return PulseSequence(params=p, segments=tuple(segs))


def oracle_op(spec: OracleSpec, tr, ref: dict, tmp_dir: str) -> dict:
    p = BENCH_PARAMS
    seq = oracle_sequence(spec, tr)
    rho0 = DensityState.product_bloch(spec.bloch1, spec.bloch2)
    traj = tr.call("integrator.evolve", evolve, p, seq, rho0, POLICY)
    out = simulate_outputs(traj, tr, tmp_dir)
    orc = tr.call("integrator.oracle", evolve_oracle, p, seq, rho0)
    gap = max(trace_dist(a, b) for a, b in zip(traj.coeffs, orc.coeffs))
    drift = abs(purity(traj.final.c) - purity(rho0.c))
    _raise(check_state(gap, drift, out["csv_rows"], out["samples"], out["conc"]))
    steps = nominal_steps(p, seq.total_time, POLICY)
    return {"oracle_gap": gap, "steps": {"evolve": steps}, "all_steps": steps}


# ---------------------------------------------------------------------------
# Seeded inputs, in rounds


def _unit_vector(rng) -> tuple:
    v = rng.normal(size=3)
    return tuple(float(x) for x in v / np.linalg.norm(v))


def _oracle_spec(rng) -> OracleSpec:
    pulses = []
    for _ in (1, 2):
        axis = "xy"[int(rng.integers(0, 2))]
        angle = float(rng.uniform(-math.pi / 2, math.pi / 2))
        rise = float(rng.uniform(0.1, 0.5)) if rng.random() < 0.5 else 0.0
        pulses.append((axis, angle, rise))
    return OracleSpec(tuple(pulses), _unit_vector(rng), _unit_vector(rng))


def _sweep_device(x: float, y: float) -> SystemParams:
    delta, wxx = 2.0 / x, 1.0 / y
    return SystemParams(w1z=1.0 + 0.5 * delta, w2z=1.0 - 0.5 * delta, wxx=wxx)


def make_rounds(workload: str, seed: int, count: int) -> list[tuple]:
    """``count`` rounds of op inputs for a workload, fixed by the seed."""
    rng = _rng(workload, seed)
    rounds = []
    if workload == "gate_fidelity":
        n = len(GATE_CHOICES)
        for _ in range(count):
            rounds.append(tuple(GATE_CHOICES[i] + GATE_CHOICES[j]
                                for i, j in zip(rng.permutation(n), rng.permutation(n))))
    elif workload == "cnot_fidelity":
        for _ in range(count):
            mask = int(rng.integers(0, 8))
            rounds.append((mask, 7 - mask))
    elif workload == "d_simulate":
        order = []
        while len(order) < count:
            order.extend(rng.permutation(len(TOMO_LABELS)).tolist())
        rounds = [(TOMO_LABELS[i],) for i in order[:count]]
    elif workload == "device_sweep":
        # Each round: an integer 2/delta and a non-integer one near its
        # mirror image, with mirrored 1/wxx, so a round's cost is nearly fixed.
        (x0, x1), (y0, y1) = SWEEP_X, SWEEP_Y
        for _ in range(count):
            x = float(rng.integers(int(x0), int(x1) + 1))
            mirror = x0 + x1 - x
            x2 = mirror + (1 if mirror < 0.5 * (x0 + x1) else -1) * float(rng.uniform(0.1, 0.4))
            y = float(rng.uniform(y0, y1))
            rounds.append((_sweep_device(x, y), _sweep_device(x2, y0 + y1 - y)))
    elif workload == "oracle_verify":
        rounds = [(_oracle_spec(rng),) for _ in range(count)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return rounds


def input_is_periodic(workload: str, item) -> bool:
    """The periodic-carrier property of one op input (see periodic_carrier).
    Gate, CNOT and oracle inputs are compiled, so they need the calibration."""
    tr = Tracer(False)
    if workload == "gate_fidelity":
        return periodic_carrier(gate_sequence(item, tr))
    if workload == "cnot_fidelity":
        return periodic_carrier(cnot_variant(BENCH_PARAMS, item, tr))
    if workload == "d_simulate":
        return periodic_carrier(compile_D(BENCH_PARAMS, 0.0))
    if workload == "device_sweep":
        # calibrate() integrates a full refocused XX pulse on this device.
        return periodic_carrier(compile_xx_half(item, 0.0))
    if workload == "oracle_verify":
        return periodic_carrier(oracle_sequence(item, tr))
    raise ValueError(f"unknown workload {workload!r}")


@dataclass(frozen=True)
class Workload:
    calibrated_setup: bool  # set-up runs calibrate(BENCH_PARAMS)
    run: object  # (item, tracer, reference, tmp_dir) -> dict


WORKLOADS = {
    "gate_fidelity": Workload(True, gate_op),
    "cnot_fidelity": Workload(True, cnot_op),
    "d_simulate": Workload(False, d_op),
    "device_sweep": Workload(False, sweep_op),
    "oracle_verify": Workload(True, oracle_op),
}
