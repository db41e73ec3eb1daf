"""Frustration-free ground-state-connectivity problem instances.

An instance bundles a positive-semidefinite local Hamiltonian (every term of
operator norm at most 1), the traversal thresholds ``eta2 < eta4`` with
promise gap ``delta`` (the low-energy threshold ``eta1`` is fixed at 0), the
path length ``m``, preparation circuits for the start and target states, and
a frozen, enumerable gate set out of which traversal unitaries are chosen.

Instance files are JSON with every real number written as a decimal string
(``repr`` of the double), so parsing round-trips bit-exactly:

    {
      "format": "ffgscon-instance-v1",
      "n": 2, "m": 1,
      "eta2": "0.5", "eta3": "0.25", "eta4": "0.75", "delta": "0.25",
      "gate_register_dim": 6,
      "terms":       [{"support": [0, 1], "matrix": [[re, im], ...]}],
      "psi_circuit": [{"name": "X", "targets": [0], "matrix": [[re, im], ...]}],
      "phi_circuit": [...],
      "gate_set":    [...]
    }

Matrices are flat row-major lists of ``[re, im]`` decimal-string pairs.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .states import (
    DIMENSION_CAP,
    EPS_ALGEBRA,
    DimensionCapError,
    LocalGate,
    RegisteredState,
    _apply_matrix_axes,
    apply_local_gate,
    basis_state,
)

INSTANCE_FORMAT = "ffgscon-instance-v1"

ENERGY_FLOOR = 1e-10  # frustration-free ground energies must sit below this
PSD_FLOOR = -1e-10  # eigenvalue tolerance for numerically built projectors
NORM_CEIL = 1.0 + 1e-10


class InstanceFormatError(ValueError):
    """Malformed instance document."""


@dataclass(frozen=True)
class HamiltonianTerm:
    """Hermitian PSD matrix of norm <= 1 acting on a few data qubits."""

    matrix: np.ndarray
    support: tuple[int, ...]

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        support = tuple(int(q) for q in self.support)
        k = len(support)
        if len(set(support)) != k or k == 0:
            raise ValueError(f"support must be distinct qubit indices, got {support}")
        if m.shape != (2**k, 2**k):
            raise ValueError(f"matrix shape {m.shape} does not match support of {k} qubit(s)")
        if not np.isfinite(m).all():
            raise ValueError(f"term matrix on support {support} has a non-finite entry")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "support", support)

    def hermiticity_error(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


@dataclass(frozen=True)
class GsconInstance:
    n: int
    m: int
    terms: tuple[HamiltonianTerm, ...]
    eta2: float
    eta3: float
    eta4: float
    delta: float
    psi_circuit: tuple[LocalGate, ...]
    phi_circuit: tuple[LocalGate, ...]
    gate_set: tuple[LocalGate, ...]
    gate_register_dim: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "psi_circuit", tuple(self.psi_circuit))
        object.__setattr__(self, "phi_circuit", tuple(self.phi_circuit))
        object.__setattr__(self, "gate_set", tuple(self.gate_set))
        if self.gate_register_dim is None:
            object.__setattr__(self, "gate_register_dim", len(self.gate_set))

    @property
    def R(self) -> int:
        return len(self.terms)

    @property
    def G(self) -> int:
        return self.gate_register_dim

    def promise_h(self) -> float:
        """min{(eta4-eta3)/4, sqrt(eta2/R)/6}, the slack the end test tolerates."""
        return min((self.eta4 - self.eta3) / 4.0, math.sqrt(self.eta2 / self.R) / 6.0)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    value: float | None = None
    detail: str = ""

    def line(self) -> str:
        tag = "pass" if self.passed else "FAIL"
        val = "" if self.value is None else f" value={self.value:.6g}"
        extra = f" ({self.detail})" if self.detail else ""
        return f"[{tag}] {self.name}{val}{extra}"


@dataclass
class ValidationReport:
    checks: list[ValidationCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, value=None, detail=""):
        self.checks.append(ValidationCheck(name, bool(passed), value, detail))

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def validate_instance(inst: GsconInstance) -> ValidationReport:
    """Check every structural invariant; failures are report rows, not raises."""
    rep = ValidationReport()
    rep.add("m >= 1", inst.m >= 1, inst.m)
    rep.add("at least one hamiltonian term", inst.R >= 1, inst.R)
    rep.add("gate set nonempty", len(inst.gate_set) >= 1, len(inst.gate_set))
    rep.add(
        "gate register holds the gate set",
        inst.gate_register_dim >= len(inst.gate_set),
        inst.gate_register_dim,
    )
    for i, term in enumerate(inst.terms):
        herm = term.hermiticity_error()
        rep.add(f"term[{i}] hermitian", herm <= EPS_ALGEBRA, herm)
        evs = term.eigenvalues()
        rep.add(f"term[{i}] positive semidefinite", evs[0] >= PSD_FLOOR, float(evs[0]))
        rep.add(f"term[{i}] operator norm <= 1", evs[-1] <= NORM_CEIL, float(evs[-1]))
        rep.add(
            f"term[{i}] support within data register",
            all(0 <= q < inst.n for q in term.support),
            detail=f"support={term.support}",
        )
    etas = (inst.eta2, inst.eta3, inst.eta4, inst.delta)
    finite = all(math.isfinite(v) for v in etas)
    rep.add("eta2, eta3, eta4, delta finite", finite, detail=f"values={etas}")
    rep.add("eta2 >= 0", inst.eta2 >= 0, inst.eta2)
    rep.add("delta > 0", inst.delta > 0, inst.delta)
    rep.add("eta2 - 0 >= delta", inst.eta2 - 0.0 >= inst.delta, inst.eta2)
    rep.add("eta3 >= 0", inst.eta3 >= 0, inst.eta3)
    rep.add("eta4 - eta3 >= delta", inst.eta4 - inst.eta3 >= inst.delta, inst.eta4 - inst.eta3)
    if inst.R >= 1 and finite and inst.eta2 >= 0:  # h = min{(eta4-eta3)/4, sqrt(eta2/R)/6} is defined
        h = inst.promise_h()
        rep.add("eta3 + h <= sqrt(2)", inst.eta3 + h <= math.sqrt(2.0), inst.eta3 + h)
    else:
        rep.add("eta3 + h <= sqrt(2)", False, detail="h needs a hamiltonian term, finite etas and eta2 >= 0")
    for label, circuit in (("psi", inst.psi_circuit), ("phi", inst.phi_circuit)):
        in_range = all(all(0 <= t < inst.n for t in g.targets) for g in circuit)
        rep.add(f"{label} circuit targets within data register", in_range)
    gates_ok = all(all(0 <= t < inst.n for t in g.targets) for g in inst.gate_set)
    rep.add("gate set targets within data register", gates_ok)
    for label in ("psi", "phi"):
        try:
            e = energy_of(inst, prepare_state_from_circuit(inst, label))
        except Exception as exc:  # circuit itself broken
            rep.add(f"<{label}|H|{label}> <= {ENERGY_FLOOR:g}", False, detail=str(exc))
        else:
            rep.add(f"<{label}|H|{label}> <= {ENERGY_FLOOR:g}", e <= ENERGY_FLOOR, e)
    return rep


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


def term_energies(inst: GsconInstance, s: RegisteredState) -> list:
    """Per-term expectation values <s|H_i|s> on a data-register state, in term order."""
    if s.dims != (2,) * inst.n:
        raise ValueError(f"expected a {inst.n}-qubit data state, got layout {s.dims}")
    t = s.amplitudes
    values = []
    for term in inst.terms:
        val = (np.conj(t) * _apply_matrix_axes(t, term.matrix, term.support)).sum()
        imag = abs(float(val.imag))
        if imag > EPS_ALGEBRA:
            raise ValueError(f"energy acquired imaginary residue {imag:.3e}")
        values.append(val.real)
    return values


def energy_sum(values):
    """Total of per-term expectations in term order (exact reports depend on it); a float unless they are mpfs."""
    total = 0.0
    for val in values:
        total = total + val
    return float(total) if isinstance(total, float) else total


def energy_of(inst: GsconInstance, s: RegisteredState) -> float:
    """Sum of per-term expectation values <s|H_i|s> on a data-register state."""
    return energy_sum(term_energies(inst, s))


def dense_hamiltonian(inst: GsconInstance) -> np.ndarray:
    """The full 2^n x 2^n Hamiltonian (for desk-scale eigen-analysis)."""
    dim = 2**inst.n
    if dim * dim > DIMENSION_CAP:
        raise DimensionCapError(f"dense hamiltonian of {dim * dim} entries exceeds the exact-mode cap {DIMENSION_CAP}")
    H = np.zeros((dim, dim), dtype=np.complex128)
    eye = np.eye(dim, dtype=np.complex128)
    for term in inst.terms:
        cols = []
        for j in range(dim):
            col = eye[:, j].reshape((2,) * inst.n)
            cols.append(_apply_matrix_axes(col, term.matrix, term.support).ravel())
        H += np.column_stack(cols)
    return H


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------


def prepare_state_from_circuit(inst: GsconInstance, which: str) -> RegisteredState:
    """Run the psi or phi preparation circuit on |0...0>, at the enclosing ``precision()`` level."""
    if which not in ("psi", "phi"):
        raise ValueError(f"which must be 'psi' or 'phi', got {which!r}")
    circuit = inst.psi_circuit if which == "psi" else inst.phi_circuit
    state = basis_state((2,) * inst.n, (0,) * inst.n)
    for gate in circuit:
        state = apply_local_gate(state, gate, 0)
    return state


# ---------------------------------------------------------------------------
# gate sequences and adjoint bookkeeping for the gate set
# ---------------------------------------------------------------------------


def gate_indices(inst: GsconInstance, gates, *, doubled: bool = False) -> tuple[int, ...]:
    """``gates`` as Python ints: a certificate's m gate-set indices, or with ``doubled`` U's 2m.

    The one check of a gate sequence.  A wrong length, an entry that is not an
    integer (a string or float is not coerced; ``True`` reads as 1) and an
    index outside the gate set are each refused with a ValueError naming it.
    """
    what, length_name, length = ("assignment", "2m", 2 * inst.m) if doubled else ("certificate", "m", inst.m)
    if len(gates) != length:
        raise ValueError(f"{what} length {len(gates)} != {length_name} = {length}")
    checked = []
    for pos, entry in enumerate(gates):
        try:
            idx = operator.index(entry)
        except TypeError:
            raise ValueError(f"{what} entry {pos} is {entry!r}, not a gate index") from None
        if idx not in range(len(inst.gate_set)):
            raise ValueError(f"{what} gate index {idx} outside the gate set 0..{len(inst.gate_set) - 1}")
        checked.append(idx)
    return tuple(checked)


def adjoint_index(gate_set, idx: int) -> int | None:
    """Index of the adjoint of gate ``idx`` within the set, or None."""
    adj = gate_set[idx].adjoint()
    for j, g in enumerate(gate_set):
        if g.same_action(adj):
            return j
    return None


# ---------------------------------------------------------------------------
# a small library of exactly specified gates
# ---------------------------------------------------------------------------

_SQ2 = 1.0 / math.sqrt(2.0)


def gate_i(q: int) -> LocalGate:
    return LocalGate("I", np.eye(2), (q,))


def gate_x(q: int) -> LocalGate:
    return LocalGate("X", np.array([[0, 1], [1, 0]]), (q,))


def gate_y(q: int) -> LocalGate:
    return LocalGate("Y", np.array([[0, -1j], [1j, 0]]), (q,))


def gate_z(q: int) -> LocalGate:
    return LocalGate("Z", np.array([[1, 0], [0, -1]]), (q,))


def gate_h(q: int) -> LocalGate:
    return LocalGate("H", np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]]), (q,))


def gate_ry(theta: float, q: int) -> LocalGate:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return LocalGate(f"RY({theta!r})", np.array([[c, -s], [s, c]]), (q,))


def gate_cnot(control: int, target: int) -> LocalGate:
    m = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    return LocalGate("CNOT", m, (control, target))


def gate_xx(a: int, b: int) -> LocalGate:
    m = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    return LocalGate("XX", m, (a, b))


def gate_givens00_11(theta: float, a: int, b: int) -> LocalGate:
    """Rotation by theta inside span{|00>, |11>}, identity elsewhere."""
    c, s = math.cos(theta), math.sin(theta)
    m = np.array([[c, 0, 0, -s], [0, 1, 0, 0], [0, 0, 1, 0], [s, 0, 0, c]])
    return LocalGate(f"G0011({theta!r})", m, (a, b))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _num_to_str(x: float) -> str:
    return repr(float(x))


def _matrix_to_entries(m: np.ndarray) -> list:
    return [[_num_to_str(z.real), _num_to_str(z.imag)] for z in np.asarray(m, dtype=np.complex128).ravel()]


def _entries_to_matrix(entries, dim: int) -> np.ndarray:
    if len(entries) != dim * dim:
        raise InstanceFormatError(f"expected {dim*dim} matrix entries, got {len(entries)}")
    flat = np.array([complex(float(re), float(im)) for re, im in entries])
    return flat.reshape(dim, dim)


def _gate_to_dict(g: LocalGate) -> dict:
    return {"name": g.name, "targets": list(g.targets), "matrix": _matrix_to_entries(g.matrix)}


def _gate_from_dict(d: dict) -> LocalGate:
    targets = tuple(int(t) for t in d["targets"])
    return LocalGate(str(d["name"]), _entries_to_matrix(d["matrix"], 2 ** len(targets)), targets)


def instance_to_dict(inst: GsconInstance) -> dict:
    return {
        "format": INSTANCE_FORMAT,
        "n": inst.n,
        "m": inst.m,
        "eta2": _num_to_str(inst.eta2),
        "eta3": _num_to_str(inst.eta3),
        "eta4": _num_to_str(inst.eta4),
        "delta": _num_to_str(inst.delta),
        "gate_register_dim": inst.gate_register_dim,
        "terms": [
            {"support": list(t.support), "matrix": _matrix_to_entries(t.matrix)} for t in inst.terms
        ],
        "psi_circuit": [_gate_to_dict(g) for g in inst.psi_circuit],
        "phi_circuit": [_gate_to_dict(g) for g in inst.phi_circuit],
        "gate_set": [_gate_to_dict(g) for g in inst.gate_set],
    }


def instance_from_dict(d: dict) -> GsconInstance:
    if not isinstance(d, dict):
        raise InstanceFormatError(f"instance document must be a JSON object, not {type(d).__name__}")
    if d.get("format") != INSTANCE_FORMAT:
        raise InstanceFormatError(f"unknown instance format {d.get('format')!r}")
    try:
        terms = tuple(
            HamiltonianTerm(
                _entries_to_matrix(t["matrix"], 2 ** len(t["support"])),
                tuple(int(q) for q in t["support"]),
            )
            for t in d["terms"]
        )
        if not terms:
            raise InstanceFormatError("instance has no Hamiltonian terms")
        return GsconInstance(
            n=int(d["n"]),
            m=int(d["m"]),
            terms=terms,
            eta2=float(d["eta2"]),
            eta3=float(d["eta3"]),
            eta4=float(d["eta4"]),
            delta=float(d["delta"]),
            psi_circuit=tuple(_gate_from_dict(g) for g in d["psi_circuit"]),
            phi_circuit=tuple(_gate_from_dict(g) for g in d["phi_circuit"]),
            gate_set=tuple(_gate_from_dict(g) for g in d["gate_set"]),
            gate_register_dim=int(d["gate_register_dim"]) if d.get("gate_register_dim") is not None else None,
        )
    except (KeyError, TypeError) as exc:
        raise InstanceFormatError(f"malformed instance document: {exc}") from exc


def save_instance(inst: GsconInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> GsconInstance:
    with open(path, encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))
