"""System parameters, pulse sequences, and their drive amplitudes.

Units: angular frequencies in units of the mean Larmor frequency w0
(w0 = 1 by convention), time in units of 1/w0.

The amplitudes sampled here enter the lab-frame Hamiltonian, which the
integrator samples as

    H(t) = (1/2) [ w1z*Z1 + 2*(ax1(t)*cos(w1z*t) + ay1(t)*sin(w1z*t))*X1
                 + w2z*Z2 + 2*(ax2(t)*cos(w2z*t) + ay2(t)*sin(w2z*t))*X2
                 + wxx*X1X2 ]

where the drive carriers are fixed at the qubits' own Larmor frequencies
and are phase-coherent functions of absolute lab time (they are never
reset per segment).  Each qubit's drive is modulated by its own quadrature
amplitudes; envelope scaling and refocusing sign flips apply to the
amplitudes before the carrier is mixed in.

A PulseSequence carries its device as ``params``: a function that also
takes a device beside a sequence rejects any other (``check_device``), and
the private layers read the device from ``seq.params`` only.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "SystemParams",
    "Envelope",
    "PulseSegment",
    "PulseSequence",
    "Diagnostic",
    "check_device",
    "drive_amplitudes_at",
    "validate_sequence",
    "sequence_to_json",
    "sequence_from_json",
    "DEFAULT_PARAMS",
]

GRID_RTOL = 1e-9


def _require_finite(**values) -> None:
    for name, value in values.items():
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def _require_qubit(name: str, q) -> None:
    if isinstance(q, bool) or not isinstance(q, (int, np.integer)) or q not in (1, 2):
        raise ValueError(f"{name} must be 1 or 2 (an integer), got {q!r}")


def _coupling_exceeds(p: SystemParams, ratio: float) -> bool:
    """wxx > ratio*delta, with relative slack GRID_RTOL so that a nominal
    ratio of exactly ``ratio`` does not count when w1z - w2z rounds down."""
    return p.wxx > ratio * p.delta * (1.0 + GRID_RTOL)


@dataclass(frozen=True)
class SystemParams:
    """Fixed circuit frequencies; qubit 1 is the higher-frequency qubit."""

    w1z: float
    w2z: float
    wxx: float

    def __post_init__(self):
        _require_finite(w1z=self.w1z, w2z=self.w2z, wxx=self.wxx)
        if self.w2z <= 0:
            raise ValueError("Larmor frequencies must be positive (w2z > 0)")
        if self.delta <= 0:
            raise ValueError("require w1z > w2z (delta > 0)")
        if self.wxx < 0:
            raise ValueError("wxx must be non-negative")
        if _coupling_exceeds(self, 0.5):
            raise ValueError(
                f"wxx={self.wxx} exceeds 0.5*delta={0.5 * self.delta}; "
                "the coupling must stay well below the detuning"
            )
        if _coupling_exceeds(self, 0.2):
            warnings.warn(
                f"wxx/delta = {self.wxx / self.delta:.3f} > 0.2; residual "
                "entanglement at rest may be significant",
                stacklevel=3,  # past the dataclass's __init__, to its caller
            )

    @property
    def delta(self) -> float:
        return self.w1z - self.w2z

    @property
    def w0(self) -> float:
        return 0.5 * (self.w1z + self.w2z)

    @property
    def t_swap(self) -> float:
        return 2.0 * math.pi / self.wxx

    @property
    def t0_sync(self) -> float:
        return 2.0 * math.pi / self.delta


DEFAULT_PARAMS = SystemParams(w1z=1.05, w2z=0.95, wxx=0.01)


@dataclass(frozen=True)
class Envelope:
    """Amplitude scale factor in [0, 1]; equals 1 on the flat top."""

    kind: str = "square"
    rise: float = 0.0

    def __post_init__(self):
        _require_finite(rise=self.rise)
        if self.kind not in ("square", "raised-cosine-ramp"):
            raise ValueError(f"unknown envelope kind {self.kind!r}")
        if self.kind == "square" and self.rise != 0.0:
            raise ValueError("square envelope must have rise = 0")
        if self.rise < 0:
            raise ValueError("rise must be non-negative")

    def capped_rise(self, duration: float) -> float:  # a short pulse is all ramp
        return min(self.rise, 0.5 * duration)

    def scale(self, tau, duration):
        """The envelope's shape at tau after segment start (vectorized), defined on
        [0, duration]; drive_amplitudes_at decides where a segment acts."""
        tau = np.asarray(tau, dtype=float)
        if self.rise == 0.0:
            return np.ones_like(tau)
        rise = self.capped_rise(duration)
        up = 0.5 * (1.0 - np.cos(np.pi * np.clip(tau / rise, 0.0, 1.0)))
        down = 0.5 * (1.0 - np.cos(np.pi * np.clip((duration - tau) / rise, 0.0, 1.0)))
        return np.minimum(up, down)


@dataclass(frozen=True)
class PulseSegment:
    """Piecewise-constant drive amplitudes on both qubits over a time window.

    ``flip_at``/``flip_qubit`` describe the refocusing flip: from flip_at
    onwards the designated qubit's drive amplitudes are negated (after
    envelope scaling).  Carrier frequencies are implicit: the drive on
    qubit q oscillates at that qubit's own Larmor frequency.
    """

    start: float
    duration: float
    amp_x_1: float = 0.0
    amp_y_1: float = 0.0
    amp_x_2: float = 0.0
    amp_y_2: float = 0.0
    envelope: Envelope = field(default_factory=Envelope)
    flip_at: float | None = None
    flip_qubit: int | None = None
    label: str = ""

    def __post_init__(self):
        _require_finite(
            start=self.start, duration=self.duration,
            amp_x_1=self.amp_x_1, amp_y_1=self.amp_y_1,
            amp_x_2=self.amp_x_2, amp_y_2=self.amp_y_2,
        )
        if self.start < 0:
            raise ValueError(f"start must be non-negative, got {self.start!r}")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        if self.flip_at is not None:
            _require_finite(flip_at=self.flip_at)
            if not (self.start < self.flip_at < self.start + self.duration):
                raise ValueError("flip_at must lie strictly inside the segment")
            _require_qubit("flip_qubit", self.flip_qubit)
        elif self.flip_qubit is not None:  # JSON could not carry it without flip_at
            raise ValueError(f"flip_qubit {self.flip_qubit!r} needs a flip_at")

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def flat_top(self) -> tuple[float, float]:
        return self.start + (rise := self.envelope.capped_rise(self.duration)), self.end - rise

    @property
    def amplitudes(self) -> tuple[float, float, float, float]:
        """The channel order (ax1, ay1, ax2, ay2) that every sampler reads."""
        return self.amp_x_1, self.amp_y_1, self.amp_x_2, self.amp_y_2

    def drives_qubit(self, q: int) -> bool:
        """Whether qubit q, the integer 1 or 2 (else ValueError), is driven."""
        _require_qubit("qubit", q)
        return any(amp != 0.0 for amp in self.amplitudes[2 * q - 2:2 * q])

    @property
    def is_two_qubit(self) -> bool:
        return self.drives_qubit(1) and self.drives_qubit(2)


@dataclass(frozen=True)
class PulseSequence:
    """Time-ordered segments plus a ledger of virtual z-frame rotations.

    virtual_z entries are (qubit, angle) pairs: the sequence's final z
    frame, rotations exp(i*angle*Zq/2) after the whole pulse, at
    total_time.  They add no physical drive.
    """

    params: SystemParams
    segments: tuple[PulseSegment, ...] = ()
    virtual_z: tuple[tuple[int, float], ...] = ()
    total_time: float = 0.0

    def __post_init__(self):
        _require_finite(total_time=self.total_time)
        if self.total_time < 0:
            raise ValueError(f"total_time must be non-negative, got {self.total_time!r}")
        for qubit, angle in self.virtual_z:
            _require_qubit("virtual-z qubit", qubit)
            _require_finite(angle=angle)
        starts = [seg.start for seg in self.segments]
        if starts != sorted(starts):
            raise ValueError("segments must be sorted by start time")
        end = max([seg.end for seg in self.segments], default=0.0)
        if self.total_time < end - 1e-12:
            object.__setattr__(self, "total_time", end)

    def with_virtual_z(self, qubit: int, angle: float) -> "PulseSequence":
        return replace(self, virtual_z=self.virtual_z + ((qubit, angle),))


def check_device(p: SystemParams, seq: PulseSequence) -> None:
    """Raise ValueError unless ``p`` is the device ``seq`` was built for."""
    if p != seq.params:
        raise ValueError(f"{p} is not the device the sequence was built for, {seq.params}")


def on_sync_grid(p: SystemParams, t: float) -> bool:
    if not math.isfinite(t):  # no grid point is inf or nan
        return False
    m = round(t / p.t0_sync)
    return abs(t - m * p.t0_sync) <= GRID_RTOL * max(abs(t), p.t0_sync)


def drive_amplitudes_at(seq: PulseSequence, t, mid: float | np.ndarray) -> np.ndarray:
    """Envelope-scaled, flip-signed amplitudes at time t, one (4, ...)
    array in the order of PulseSegment.amplitudes.

    Vectorized over t.  Segments never overlap per channel and an undriven
    channel adds nothing, so summing per segment is exact.  Activity at
    ``mid`` is the only on/off rule, and flip signs are decided there too:
    one time for every t, or one per sample, broadcast against t.  Sampling
    an interval with no envelope discontinuity strictly inside it with
    ``mid`` at its midpoint gives its end points the one-sided limit from
    inside the interval; ``mid = t`` samples each time on its own.
    """
    t = np.asarray(t, dtype=float)
    amps = np.zeros((4,) + t.shape)
    for seg in seq.segments:
        active = (seg.start <= mid) & (mid <= seg.end)
        if not np.any(active):
            continue
        env = seg.envelope.scale(t - seg.start, seg.duration) * active
        flipped = env if seg.flip_at is None else env * np.where(mid >= seg.flip_at, -1.0, 1.0)
        for k, amp in enumerate(seg.amplitudes):
            if amp != 0.0:
                amps[k] += (flipped if seg.flip_qubit == k // 2 + 1 else env) * amp
    return amps


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    message: str


def validate_sequence(p: SystemParams, seq: PulseSequence) -> list[Diagnostic]:
    """Structural checks of the sequence: sync-grid starts for two-qubit
    pulses (an error) and their refocusing flips (a warning), and
    per-channel overlaps (errors).  Returns diagnostics instead of raising,
    except for a ValueError if ``p`` is not ``seq.params``."""
    check_device(p, seq)
    out: list[Diagnostic] = []
    for i, seg in enumerate(seq.segments):
        if seg.is_two_qubit and not on_sync_grid(p, seg.start):
            out.append(Diagnostic(
                "error",
                f"segment {i}: two-qubit pulse starts at {seg.start:.6f}, "
                f"not on the t0_sync = {p.t0_sync:.6f} grid",
            ))
        if seg.is_two_qubit and seg.flip_at is not None and not on_sync_grid(p, seg.flip_at):
            out.append(Diagnostic(
                "warning",
                f"segment {i}: two-qubit pulse flips at {seg.flip_at:.6f}, "
                f"not on the t0_sync = {p.t0_sync:.6f} grid, so it does not refocus",
            ))
    for q in (1, 2):
        active = [(s.start, s.end, i) for i, s in enumerate(seq.segments) if s.drives_qubit(q)]
        for (s0, e0, i0), (s1, e1, i1) in zip(active, active[1:]):
            if s1 < e0 - 1e-12:
                out.append(Diagnostic(
                    "error",
                    f"segments {i0} and {i1} overlap on qubit {q}",
                ))
    return out


# ---------------------------------------------------------------------------
# JSON schema.  Field names and units are part of the external interface:
#
# {"schema": 2, "w1z": 1.05, "w2z": 0.95, "wxx": 0.01,
#  "segments": [{"start": 0, "duration": 125.6637,
#                "q1": {"x": 0, "y": 0.0125}, "q2": {"x": 0, "y": 0},
#                "envelope": {"kind": "square"}, "flip": null}],
#  "virtual_z": [{"qubit": 1, "angle": 1.5707963}]}
#
# The writer emits version 2.  The parser also reads version 1, also taken
# for a file without a version, checking each ledger entry's unread time
# "t" to be a finite number and dropping it; it rejects any other version,
# and any key not named here, so that a misspelled field is an error rather
# than a default.

SCHEMA_VERSION = 2
_LEDGER_KEYS = {1: ("qubit", "angle", "t"), SCHEMA_VERSION: ("qubit", "angle")}


def _fields(what: str, d, keys: tuple) -> dict:
    """d, one of ``what`` (a plural), a JSON object with no key outside
    keys; else ValueError naming the first other key, or what d is."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be JSON objects, got {d!r}")
    for key in d:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {what}")
    return d


def _items(what: str, x) -> list:
    """x, a JSON list of ``what`` (a plural), whose entries _fields checks;
    else ValueError saying what x is."""
    if not isinstance(x, list):
        raise ValueError(f"{what} must be JSON objects in a JSON list, got {x!r}")
    return x


def _segment_to_dict(seg: PulseSegment) -> dict:
    env: dict = {"kind": seg.envelope.kind}
    if seg.envelope.kind != "square":
        env["rise"] = seg.envelope.rise
    flip = None
    if seg.flip_at is not None:
        flip = {"t": seg.flip_at, "qubit": seg.flip_qubit}
    d = {
        "start": seg.start,
        "duration": seg.duration,
        "q1": {"x": seg.amp_x_1, "y": seg.amp_y_1},
        "q2": {"x": seg.amp_x_2, "y": seg.amp_y_2},
        "envelope": env,
        "flip": flip,
    }
    if seg.label:
        d["label"] = seg.label
    return d


def _segment_from_dict(d) -> PulseSegment:
    d = _fields("segments", d, ("start", "duration", "q1", "q2", "envelope", "flip", "label"))
    env_d = _fields("envelopes", d.get("envelope", {"kind": "square"}), ("kind", "rise"))
    q1, q2 = (_fields("q1 and q2 amplitudes", d[f"q{q}"], ("x", "y")) for q in (1, 2))
    flip = d.get("flip")
    if flip is not None:
        _fields("flips", flip, ("t", "qubit"))
    return PulseSegment(
        start=d["start"],
        duration=d["duration"],
        amp_x_1=q1["x"],
        amp_y_1=q1["y"],
        amp_x_2=q2["x"],
        amp_y_2=q2["y"],
        envelope=Envelope(kind=env_d["kind"], rise=env_d.get("rise", 0.0)),
        flip_at=None if flip is None else flip["t"],
        flip_qubit=None if flip is None else flip["qubit"],
        label=d.get("label", ""),
    )


def _json_scalar(x):
    """A numpy scalar, which the constructors accept, as a plain number."""
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def sequence_to_json(seq: PulseSequence) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "w1z": seq.params.w1z,
        "w2z": seq.params.w2z,
        "wxx": seq.params.wxx,
        "segments": [_segment_to_dict(s) for s in seq.segments],
        "virtual_z": [{"qubit": q, "angle": a} for q, a in seq.virtual_z],
        "total_time": seq.total_time,
    }
    return json.dumps(doc, indent=2, default=_json_scalar)


def _params_from_doc(doc) -> SystemParams:
    return SystemParams(w1z=doc["w1z"], w2z=doc["w2z"], wxx=doc["wxx"])


def sequence_from_json(text: str) -> PulseSequence:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a sequence file holds one JSON object")
    _fields("sequence files", doc,
            ("schema", "w1z", "w2z", "wxx", "segments", "virtual_z", "total_time"))
    schema = doc.get("schema", 1)
    if type(schema) is not int or schema not in (1, SCHEMA_VERSION):
        raise ValueError(f"unsupported sequence schema {schema!r}; "
                         f"this version reads schemas 1 and {SCHEMA_VERSION}")
    params = _params_from_doc(doc)
    segments = tuple(_segment_from_dict(d) for d in _items("segments", doc.get("segments", [])))
    entries = [_fields(f"schema-{schema} virtual_z entries", e, _LEDGER_KEYS[schema])
               for e in _items("virtual_z entries", doc.get("virtual_z", []))]
    if schema == 1:
        for e in entries:
            _require_finite(t=e["t"])
    return PulseSequence(
        params=params,
        segments=segments,
        virtual_z=tuple((e["qubit"], e["angle"]) for e in entries),
        total_time=doc.get("total_time", 0.0),
    )


def params_from_json(text: str) -> SystemParams:
    return _params_from_doc(_fields("params files", json.loads(text), ("w1z", "w2z", "wxx")))
