"""The benchmark's operations run for real, with perfbench's own checks.

perfbench's self-tests stub out the integrators and the calibration, so a
changed signature that perfbench calls, or an accuracy slip past its
bounds, would otherwise show only when the benchmark runs.  This module
imports ``perfbench/workloads.py`` and ``perfbench/reference.json``
read-only and runs, through ``WORKLOADS[...].run``, one seeded round of
each of the five workloads (four ops of ``oracle_verify``, whose rounds
hold one); each op raises ``CheckFailed`` if any of perfbench's checks
fails.
"""

import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

with open(os.path.join(PERFBENCH, "reference.json")) as _fh:
    REF = json.load(_fh)

SEED = 7


@pytest.mark.parametrize("workload, items", [
    ("gate_fidelity", W.make_rounds("gate_fidelity", SEED, 1)[0]),
    ("cnot_fidelity", W.make_rounds("cnot_fidelity", SEED, 1)[0]),
    ("d_simulate", W.make_rounds("d_simulate", SEED, 1)[0]),
    ("device_sweep", W.make_rounds("device_sweep", SEED, 1)[0]),
    ("oracle_verify", [rnd[0] for rnd in W.make_rounds("oracle_verify", SEED, 4)]),
], ids=["gate_fidelity", "cnot_fidelity", "d_simulate", "device_sweep", "oracle_verify"])
def test_benchmark_ops_pass_their_checks(workload, items, tmp_path):
    for item in items:  # each op raises CheckFailed if one of its checks fails
        W.WORKLOADS[workload].run(item, Tracer(False), REF, str(tmp_path))
