"""Exact states as amplitude tensors, one axis per register.

A state's amplitudes form one C-contiguous array whose shape is its register
layout, e.g. ``(2m, G)`` for a label/gate pair or ``(2m, 2, ..., 2)`` for a
label plus n data qubits; the basis state ``|v0, v1, v2>`` is the entry
``[v0, v1, v2]``.  Flattened in C order the first register is the most
significant digit, so for dims ``(d0, d1, d2)`` that entry sits at flat
index ``(v0*d1 + v1)*d2 + v2``.  The order is frozen: every flat view
(``.ravel()``) and every dense oracle uses it.

Amplitudes are either ``complex128`` numpy arrays (the normal case)
or ``object`` arrays of mpmath numbers (the extended-precision case used to
represent adversarial witnesses whose deviations are far below double
resolution).  Constructors build at the level of the enclosing :func:`precision`
block (double outside any); operations on states read their operands' level.

States are immutable after construction; operations are pure functions
returning new states, safe to share across parallel workers.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
from dataclasses import dataclass

import mpmath
import numpy as np

EPS_NORM = 1e-9  # slack for stored-state normalization
EPS_ALGEBRA = 1e-12  # tolerance for algebraic identities (unitarity, ...)
DIMENSION_CAP = 1 << 20  # exact mode refuses larger joint spaces
WITNESS_DPS = 120  # digits carried by extended-precision amplitudes
_SCALAR = contextvars.ContextVar("ffgscon_scalar", default=float)  # set by precision()


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


class RegisteredState:
    """Normalized amplitudes: a read-only, C-contiguous tensor, one axis per register."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes, *, check: bool = True):
        amps = np.asarray(amplitudes)
        amps = np.array(amps, dtype=object if _is_extended(amps) else np.complex128, order="C")
        if amps.ndim == 0 or 0 in amps.shape:
            raise ValueError(f"register dimensions must be >= 1, got {amps.shape}")
        if check:
            if not _is_extended(amps) and not np.all(np.isfinite(amps.view(np.float64))):
                raise ValueError("amplitudes must be finite")
            nrm2 = float(_abs2_sum(amps))
            if not abs(nrm2 - 1.0) <= EPS_NORM:  # NaN too: extended amplitudes skip the finiteness check
                raise ValueError(f"state is not normalized: |amps|^2 = {nrm2!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("RegisteredState is immutable")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.amplitudes.shape

    @property
    def extended(self) -> bool:
        return _is_extended(self.amplitudes)

    def __repr__(self):
        kind = "extended" if self.extended else "double"
        return f"RegisteredState(dims={self.dims}, {kind})"


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
        with np.errstate(invalid="ignore"):  # an inf entry makes the deviation NaN, refused below
            err = np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0])))
        if not err <= EPS_ALGEBRA:
            raise NotUnitaryError(f"gate {self.name!r} is not unitary (deviation {err:.3e})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "targets", targets)

    def adjoint(self) -> "LocalGate":
        name = self.name[:-1] if self.name.endswith("†") else self.name + "†"
        return LocalGate(name, self.matrix.conj().T, self.targets)

    def same_action(self, other: "LocalGate") -> bool:
        return self.targets == other.targets and bool(np.max(np.abs(self.matrix - other.matrix)) <= EPS_ALGEBRA)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def precision(extended: bool):
    """Arithmetic at one precision level; yields its real scalar type.

    Extended builds and branch sums run at :data:`WITNESS_DPS` digits (or the
    caller's, if higher) on ``mpmath.mpf``; double ones on ``float``, with the
    mpmath context left as it is.  Constructors build at the innermost block's level.
    """
    token = _SCALAR.set(mpmath.mpf if extended else float)
    try:
        with mpmath.workdps(max(mpmath.mp.dps, WITNESS_DPS)) if extended else contextlib.nullcontext():
            yield _SCALAR.get()
    finally:
        _SCALAR.reset(token)


def zeros(dims) -> np.ndarray:
    size = math.prod(dims) if np.ndim(dims) else dims
    if size > DIMENSION_CAP:
        raise DimensionCapError(f"dimension {size} exceeds the exact-mode cap {DIMENSION_CAP}")
    if _SCALAR.get() is float:
        return np.zeros(dims, dtype=np.complex128)
    return np.full(dims, mpmath.mpc(0), dtype=object)


def basis_state(dims, values) -> RegisteredState:
    dims, values = tuple(dims), tuple(values)
    if len(values) != len(dims) or not all(0 <= v < d for v, d in zip(values, dims)):
        raise RegisterRangeError(f"register values {values} out of range for dimensions {dims}")
    amps = zeros(dims)
    amps[values] = _SCALAR.get()(1)
    return RegisteredState(amps)


def uniform_vector(dim: int) -> np.ndarray:
    """Amplitudes of the uniform superposition over one register."""
    arr = zeros(dim)
    arr[:] = 1 / _sqrt(_SCALAR.get()(dim))
    return arr


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def tensor_with(a: RegisteredState, b: RegisteredState) -> RegisteredState:
    """Tensor product; the result's registers are a's followed by b's."""
    total = a.amplitudes.size * b.amplitudes.size
    if total > DIMENSION_CAP:
        raise DimensionCapError(f"joint dimension {total} exceeds the exact-mode cap {DIMENSION_CAP}")
    return RegisteredState(np.multiply.outer(a.amplitudes, b.amplitudes))


@functools.lru_cache(maxsize=256)
def _mp_matrix(data: bytes, shape: tuple[int, ...]) -> np.ndarray:
    """A complex128 matrix as read-only mpmath entries, converted exactly (at any precision)."""
    block = np.frompyfunc(mpmath.mpmathify, 1, 1)(np.frombuffer(data, dtype=np.complex128).reshape(shape))
    block.setflags(write=False)
    return block


def _apply_matrix_axes(tensor: np.ndarray, matrix: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Contract ``matrix`` (reshaped to per-axis blocks) onto the given axes; an extended tensor meets its mpmath copy."""
    k = len(axes)
    dims = tuple(tensor.shape[ax] for ax in axes)
    if _is_extended(tensor) and not _is_extended(matrix):
        matrix = _mp_matrix(matrix.astype(np.complex128, copy=False).tobytes(), matrix.shape)
    block = np.asarray(matrix).reshape(dims + dims)
    out = np.tensordot(block, tensor, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, tuple(range(k)), axes)


def apply_local_gate(state: RegisteredState, gate: LocalGate, data_register_offset: int) -> RegisteredState:
    """Apply ``gate`` to the data qubits starting at register index ``data_register_offset``."""
    dims = state.dims
    axes = tuple(data_register_offset + t for t in gate.targets)
    for ax in axes:
        if not 0 <= ax < len(dims):
            raise RegisterRangeError(f"gate {gate.name!r} targets register {ax}, outside layout {dims}")
        if dims[ax] != 2:
            raise RegisterRangeError(f"gate {gate.name!r} targets non-qubit register {ax} of dimension {dims[ax]}")
    return RegisteredState(_apply_matrix_axes(state.amplitudes, gate.matrix, axes), check=False)


def inner_product(a: RegisteredState, b: RegisteredState):
    """<a|b>; raises on layout mismatch."""
    if a.dims != b.dims:
        raise ShapeMismatchError(f"layouts differ: {a.dims} vs {b.dims}")
    return (np.conj(a.amplitudes) * b.amplitudes).sum()


def project_onto(state: RegisteredState, register: int, target_vector) -> tuple:
    """Project one register onto |t><t|.

    Returns ``(probability, post_state)`` where the post-state keeps the
    register (collapsed to |t>), or ``(0, None)`` when the probability is
    exactly 0.  Any non-zero probability is renormalized, however small: an
    extended state carries its digits down to the tiniest branch.
    """
    t = state.amplitudes
    tv = np.asarray(target_vector).ravel()
    if tv.shape[0] != state.dims[register]:
        raise ShapeMismatchError(
            f"target vector of length {tv.shape[0]} does not match register dimension {state.dims[register]}"
        )
    coeff = np.tensordot(np.conj(tv), t, axes=([0], [register]))
    prob = _abs2_sum(coeff)
    if prob == 0:
        return prob, None
    post = np.tensordot(tv, coeff / _sqrt(prob), axes=0)
    return prob, RegisteredState(np.moveaxis(post, 0, register), check=False)


def projection_deficit(state: RegisteredState, register: int, target_vector):
    """1 - P[project register onto |t>], accumulated without cancellation.

    Computed as the squared norm of the component orthogonal to |t> on that
    register, which stays accurate even when the projection probability is
    within double rounding of 1.
    """
    t = state.amplitudes
    tv = np.asarray(target_vector).ravel()
    if tv.shape[0] != state.dims[register]:
        raise ShapeMismatchError("target vector does not match register dimension")
    coeff = np.tensordot(np.conj(tv), t, axes=([0], [register]))
    aligned = np.moveaxis(np.tensordot(tv, coeff, axes=0), 0, register)
    return _abs2_sum(t - aligned)


def register_distribution(state: RegisteredState, register: int) -> np.ndarray:
    """Born probabilities of a computational-basis measurement of one register."""
    t = np.abs(state.amplitudes) ** 2
    axes = tuple(i for i in range(t.ndim) if i != register)
    return t.sum(axis=axes) if axes else t


def conditional_state(state: RegisteredState, register: int, value: int) -> tuple:
    """(probability, renormalized state given register == value), the register dropped.

    Returns (0, None) when the probability is exactly 0, and renormalizes
    any other.
    """
    cond = np.take(state.amplitudes, value, axis=register)
    prob = _abs2_sum(cond)
    if prob == 0:
        return prob, None
    return prob, RegisteredState(cond / _sqrt(prob), check=False)


# ---------------------------------------------------------------------------
# the swap test
# ---------------------------------------------------------------------------


def swap_test_reject_prob(a: RegisteredState, b: RegisteredState):
    """Exact rejection probability (1 - |<a|b>|^2) / 2 of a swap test.

    Evaluated through the phase-optimized distance w = ||a - e^{iw}b|| as
    w^2/2 - w^4/8, which is algebraically identical but keeps tiny rejection
    probabilities accurate when the overlap magnitude rounds to 1.  Equal
    amplitude vectors reject with exactly 0: the rounding of <a|a>'s phase
    would otherwise leave a residue near 1e-35 in a - e^{iw} a.
    """
    if a.dims == b.dims and np.array_equal(a.amplitudes, b.amplitudes):
        return mpmath.mpf(0) if a.extended or b.extended else 0.0
    ov = inner_product(a, b)
    mag = abs(ov)
    if float(mag) == 0.0:
        return mpmath.mpf(1) / 2 if a.extended or b.extended else 0.5
    phase = np.conj(ov) / mag
    w2 = _abs2_sum(a.amplitudes - b.amplitudes * phase)
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
