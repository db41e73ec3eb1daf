"""Exact state vectors over mixed-radix register layouts.

A register layout is an ordered tuple of qudit dimensions, e.g. ``(2m, G)``
for a label/gate pair or ``(2m, 2, 2, ..., 2)`` for a label plus n data
qubits.  Flat indexing is **big-endian mixed radix** and frozen: the first
register is the most significant digit, so for dims ``(d0, d1, d2)`` the
basis state ``|v0, v1, v2>`` sits at flat index ``(v0*d1 + v1)*d2 + v2``.
All serialization and every amplitude table in the package uses this order.

Amplitude vectors are either ``complex128`` numpy arrays (the normal case)
or ``object`` arrays of mpmath numbers (the extended-precision case used to
represent adversarial witnesses whose deviations are far below double
resolution).  Every operation here is generic over the two.

States are immutable after construction; operations are pure functions
returning new states, safe to share across parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

EPS_NORM = 1e-9  # slack for stored-state normalization
EPS_ALGEBRA = 1e-12  # tolerance for algebraic identities (unitarity, ...)
P_FLOOR = 1e-15  # projections below this probability yield no post-state
DIMENSION_CAP = 1 << 20  # exact mode refuses larger joint spaces


class ShapeMismatchError(ValueError):
    """Operands live on different register layouts."""


class DimensionCapError(ValueError):
    """The requested joint space exceeds the exact-mode cap."""


class NotUnitaryError(ValueError):
    """A gate matrix failed the unitarity check."""


class RegisterRangeError(ValueError):
    """A register or target index is out of range."""


def _is_extended(arr: np.ndarray) -> bool:
    return arr.dtype == object


def _sqrt(x):
    if isinstance(x, (mpmath.mpf, mpmath.mpc)):
        return mpmath.sqrt(x)
    return math.sqrt(x)


def _abs2_sum(arr) -> float | mpmath.mpf:
    a = np.abs(np.asarray(arr).ravel())
    return (a * a).sum()


@dataclass(frozen=True)
class RegisterShape:
    """Ordered qudit dimensions with frozen big-endian mixed-radix indexing."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"register dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def size(self) -> int:
        return math.prod(self.dims)

    def index_of(self, values) -> int:
        if len(values) != len(self.dims):
            raise RegisterRangeError(f"expected {len(self.dims)} register values, got {len(values)}")
        idx = 0
        for v, d in zip(values, self.dims):
            if not 0 <= v < d:
                raise RegisterRangeError(f"value {v} out of range for dimension {d}")
            idx = idx * d + v
        return idx

    def values_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise RegisterRangeError(f"flat index {index} out of range for size {self.size}")
        out = []
        for d in reversed(self.dims):
            out.append(index % d)
            index //= d
        return tuple(reversed(out))

    def concat(self, other: "RegisterShape") -> "RegisterShape":
        return RegisterShape(self.dims + other.dims)

    def drop(self, register: int) -> "RegisterShape":
        dims = self.dims[:register] + self.dims[register + 1 :]
        return RegisterShape(dims)


class RegisteredState:
    """Normalized complex amplitude vector over a :class:`RegisterShape`."""

    __slots__ = ("shape", "amplitudes")

    def __init__(self, shape: RegisterShape, amplitudes, *, normalize: bool = False, check: bool = True):
        amps = np.asarray(amplitudes).ravel()
        if amps.dtype != object:
            amps = amps.astype(np.complex128)
        else:
            amps = amps.copy()
        if amps.size != shape.size:
            raise ShapeMismatchError(f"amplitude vector of length {amps.size} does not match shape size {shape.size}")
        if check and not _is_extended(amps):
            if not np.all(np.isfinite(amps.view(np.float64))):
                raise ValueError("amplitudes must be finite")
        nrm2 = _abs2_sum(amps)
        if normalize:
            if float(nrm2) == 0.0:
                raise ValueError("cannot normalize the zero vector")
            amps = amps / _sqrt(nrm2)
        elif check and abs(float(nrm2) - 1.0) > EPS_NORM:
            raise ValueError(f"state is not normalized: |amps|^2 = {float(nrm2)!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("RegisteredState is immutable")

    @property
    def extended(self) -> bool:
        return _is_extended(self.amplitudes)

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.shape.dims)

    def norm_sq(self):
        return _abs2_sum(self.amplitudes)

    def amplitude(self, values):
        return self.amplitudes[self.shape.index_of(values)]

    def __repr__(self):
        kind = "extended" if self.extended else "double"
        return f"RegisteredState(dims={self.shape.dims}, {kind})"


@dataclass(frozen=True)
class LocalGate:
    """A 1- or 2-qubit unitary bound to data-qubit targets.

    For 2-qubit gates the 4x4 matrix is indexed with the first target as the
    more significant bit: row/column index = 2*v(targets[0]) + v(targets[1]).
    """

    name: str
    matrix: np.ndarray
    targets: tuple[int, ...]

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        targets = tuple(int(t) for t in self.targets)
        if len(targets) not in (1, 2) or len(set(targets)) != len(targets):
            raise ValueError(f"targets must be 1 or 2 distinct qubit indices, got {targets}")
        if m.shape != (2 ** len(targets),) * 2:
            raise ValueError(f"matrix shape {m.shape} does not match {len(targets)} target(s)")
        err = np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0])))
        if err > EPS_ALGEBRA:
            raise NotUnitaryError(f"gate {self.name!r} is not unitary (deviation {err:.3e})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "targets", targets)

    def adjoint(self) -> "LocalGate":
        name = self.name[:-1] if self.name.endswith("†") else self.name + "†"
        return LocalGate(name, self.matrix.conj().T, self.targets)

    def same_action(self, other: "LocalGate", tol: float = EPS_ALGEBRA) -> bool:
        return self.targets == other.targets and bool(np.max(np.abs(self.matrix - other.matrix)) <= tol)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def zeros_like_dtype(n: int, extended: bool) -> np.ndarray:
    if extended:
        arr = np.empty(n, dtype=object)
        arr[:] = mpmath.mpc(0)
        return arr
    return np.zeros(n, dtype=np.complex128)


def basis_state(shape: RegisterShape, values, *, extended: bool = False) -> RegisteredState:
    amps = zeros_like_dtype(shape.size, extended)
    amps[shape.index_of(values)] = mpmath.mpf(1) if extended else 1.0
    return RegisteredState(shape, amps)


def uniform_vector(dim: int, *, extended: bool = False) -> np.ndarray:
    """Amplitudes of the uniform superposition over one register."""
    if extended:
        arr = np.empty(dim, dtype=object)
        arr[:] = 1 / mpmath.sqrt(mpmath.mpf(dim))
        return arr
    return np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def tensor_with(a: RegisteredState, b: RegisteredState) -> RegisteredState:
    """Tensor product; the result's registers are a's followed by b's."""
    total = a.shape.size * b.shape.size
    if total > DIMENSION_CAP:
        raise DimensionCapError(f"joint dimension {total} exceeds the exact-mode cap {DIMENSION_CAP}")
    return RegisteredState(a.shape.concat(b.shape), np.kron(a.amplitudes, b.amplitudes))


def _apply_matrix_axes(tensor: np.ndarray, matrix: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Contract ``matrix`` (reshaped to per-axis blocks) onto the given axes."""
    k = len(axes)
    dims = tuple(tensor.shape[ax] for ax in axes)
    block = np.asarray(matrix).reshape(dims + dims)
    out = np.tensordot(block, tensor, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, tuple(range(k)), axes)


def apply_local_gate(state: RegisteredState, gate: LocalGate, data_register_offset: int) -> RegisteredState:
    """Apply ``gate`` to the data qubits starting at register index ``data_register_offset``."""
    dims = state.shape.dims
    axes = tuple(data_register_offset + t for t in gate.targets)
    for ax in axes:
        if not 0 <= ax < len(dims):
            raise RegisterRangeError(f"gate {gate.name!r} targets register {ax}, outside layout {dims}")
        if dims[ax] != 2:
            raise RegisterRangeError(f"gate {gate.name!r} targets non-qubit register {ax} of dimension {dims[ax]}")
    out = _apply_matrix_axes(state.as_tensor(), gate.matrix, axes)
    return RegisteredState(state.shape, out.ravel(), check=False)


def inner_product(a: RegisteredState, b: RegisteredState):
    """<a|b>; raises on layout mismatch."""
    if a.shape.dims != b.shape.dims:
        raise ShapeMismatchError(f"layouts differ: {a.shape.dims} vs {b.shape.dims}")
    return (np.conj(a.amplitudes) * b.amplitudes).sum()


def project_onto(state: RegisteredState, register: int, target_vector) -> tuple:
    """Project one register onto |t><t|.

    Returns ``(probability, post_state)`` where the post-state keeps the
    register (collapsed to |t>), or ``(probability, None)`` when the
    probability falls below ``P_FLOOR`` and renormalizing would only amplify
    numerical noise.
    """
    t = state.as_tensor()
    tv = np.asarray(target_vector).ravel()
    if tv.shape[0] != state.shape.dims[register]:
        raise ShapeMismatchError(
            f"target vector of length {tv.shape[0]} does not match register dimension {state.shape.dims[register]}"
        )
    coeff = np.tensordot(np.conj(tv), t, axes=([0], [register]))
    prob = _abs2_sum(coeff)
    if float(prob) < P_FLOOR:
        return prob, None
    post = np.tensordot(tv, coeff / _sqrt(prob), axes=0)
    post = np.moveaxis(post, 0, register)
    return prob, RegisteredState(state.shape, post.ravel(), check=False)


def projection_deficit(state: RegisteredState, register: int, target_vector):
    """1 - P[project register onto |t>], accumulated without cancellation.

    Computed as the squared norm of the component orthogonal to |t> on that
    register, which stays accurate even when the projection probability is
    within double rounding of 1.
    """
    t = state.as_tensor()
    tv = np.asarray(target_vector).ravel()
    if tv.shape[0] != state.shape.dims[register]:
        raise ShapeMismatchError("target vector does not match register dimension")
    coeff = np.tensordot(np.conj(tv), t, axes=([0], [register]))
    aligned = np.moveaxis(np.tensordot(tv, coeff, axes=0), 0, register)
    return _abs2_sum(t - aligned)


def register_distribution(state: RegisteredState, register: int) -> np.ndarray:
    """Born probabilities of a computational-basis measurement of one register."""
    t = np.abs(state.as_tensor()) ** 2
    axes = tuple(i for i in range(len(state.shape.dims)) if i != register)
    return t.sum(axis=axes) if axes else t


def conditional_state(state: RegisteredState, register: int, value: int, *, drop: bool = False) -> tuple:
    """(probability, renormalized state given register == value).

    With ``drop=True`` the measured register is removed from the layout;
    otherwise it stays, collapsed to the basis state.  Returns (p, None)
    below ``P_FLOOR``.
    """
    t = state.as_tensor()
    sl = [slice(None)] * len(state.shape.dims)
    sl[register] = value
    cond = t[tuple(sl)]
    prob = _abs2_sum(cond)
    if float(prob) < P_FLOOR:
        return prob, None
    cond = cond / _sqrt(prob)
    if drop:
        return prob, RegisteredState(state.shape.drop(register), cond.ravel(), check=False)
    out = np.zeros_like(t) if not state.extended else zeros_like_dtype(t.size, True).reshape(t.shape)
    out[tuple(sl)] = cond
    return prob, RegisteredState(state.shape, out.ravel(), check=False)


# ---------------------------------------------------------------------------
# the swap test
# ---------------------------------------------------------------------------


def swap_test_reject_prob(a: RegisteredState, b: RegisteredState):
    """Exact rejection probability (1 - |<a|b>|^2) / 2 of a swap test.

    Evaluated through the phase-optimized distance w = ||a - e^{iw}b|| as
    w^2/2 - w^4/8, which is algebraically identical but keeps tiny rejection
    probabilities accurate when the overlap magnitude rounds to 1.
    """
    ov = inner_product(a, b)
    mag = abs(ov)
    if float(mag) == 0.0:
        return mpmath.mpf(1) / 2 if a.extended or b.extended else 0.5
    phase = np.conj(ov) / mag
    w2 = _abs2_sum(a.amplitudes - phase * b.amplitudes)
    r = w2 / 2 - w2 * w2 / 8
    if not isinstance(r, mpmath.mpf):
        r = min(max(float(r), 0.0), 0.5)
    return r


def phase_optimized_distance(a: RegisteredState, b: RegisteredState):
    """min over phases of ||a - e^{iw} b||, i.e. sqrt(2 - 2|<a|b>|)."""
    mag = abs(inner_product(a, b))
    gap = 2 - 2 * mag
    if isinstance(gap, mpmath.mpf):
        return mpmath.sqrt(gap if gap > 0 else mpmath.mpf(0))
    return math.sqrt(max(float(gap), 0.0))
