"""Regenerate perfbench/reference.json, the data the benchmark checks
its outputs against.  Run from the repository root:

    python3 perfbench/make_reference.py

gate_fidelity: process fidelity of each of the 256 one-qubit gate layers
(key = axis and eighths of pi per qubit, as in ``x+3,y-1``), from the RK4
propagator at the benchmark's step policy.  cnot_fidelity: process and
worst basis-state fidelity of each of the 8 CNOT variants (decoupling echo on each subset of the three one-qubit
pulses, bit i of the key for pulse i), from the RK4 propagator at the
benchmark's step policy.  d_simulate: final lab-frame Pauli coefficients
of the D pulse from each of the 16 tomographic product states, computed
by the independent Magnus oracle ``evolve_oracle``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as W  # noqa: E402


def process_fidelity(seq, word):
    p = W.BENCH_PARAMS
    u = W.propagator_of_sequence(p, seq, W.POLICY)
    u = W.compose_virtual_z(W.frame_unitary(p, seq.total_time) @ u, seq)
    return W.gate_fidelity(u, word)


def main() -> int:
    p = W.BENCH_PARAMS
    tr = W.Tracer(False)
    gates = {}
    for variant in W.GATE_VARIANTS:
        rep = process_fidelity(W.gate_sequence(variant, tr), W.gate_target(variant))
        gates[W.gate_key(variant)] = rep.process
    print(f"gate layers: process fidelity {min(gates.values()):.6f} to "
          f"{max(gates.values()):.6f}", flush=True)
    process, worst = {}, {}
    for mask in range(8):
        seq = W.cnot_variant(p, mask, tr)
        rep = process_fidelity(seq, W.build_cnot_word())
        process[str(mask)] = rep.process
        worst[str(mask)] = min(rep.per_state.values())
        print(f"cnot variant {mask}: T={seq.total_time:.3f} process={rep.process:.9f}", flush=True)
    seq = W.compile_D(p, 0.0)
    finals = {}
    for label in W.TOMO_LABELS:
        b1, b2 = (W.TOMO_BLOCH[s] for s in label.split(","))
        orc = W.evolve_oracle(p, seq, W.DensityState.product_bloch(b1, b2))
        finals[label] = [float(x) for x in orc.final.c]
        print(f"D from {label}: done", flush=True)
    doc = {
        "params": {"w1z": p.w1z, "w2z": p.w2z, "wxx": p.wxx},
        "steps_per_period": W.POLICY.steps_per_period,
        "gate_process": gates,
        "cnot_process": process,
        "cnot_worst_state": worst,
        "d_final": finals,
    }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
