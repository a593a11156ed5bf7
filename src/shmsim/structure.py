"""Lumped-mass shear-building dynamics: modal analysis, response simulation, damage.

The structure is a chain of point masses connected by story stiffnesses
(tridiagonal stiffness matrix, anchored at the ground). Damping is zero by
construction, so the free system conserves mechanical energy and the modal
basis is real. Time marching uses the exact zero-order-hold solution of each
modal oscillator, which keeps integrator error out of every downstream
tolerance. A march computes accelerations, the sensed quantity; displacements
and velocities are computed on demand from the modal history it keeps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np


class StructureError(ValueError):
    """Raised when a structure or damage description violates its contract."""


def _as_positive_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise StructureError(f"{name} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise StructureError(f"{name} entries must be finite and > 0")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StructureSpec:
    """Masses (kg), story stiffnesses (N/m), sampling step dt (s) and duration (s).

    The spec is frozen, so its one eigen-solve, its discrete state-space
    model and the modal phase table of each march length run once per
    instance and are cached on it as read-only arrays.
    """

    masses: np.ndarray
    stiffnesses: np.ndarray
    dt: float
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "masses", _as_positive_vector(self.masses, "masses"))
        object.__setattr__(
            self, "stiffnesses", _as_positive_vector(self.stiffnesses, "stiffnesses")
        )
        if self.masses.shape != self.stiffnesses.shape:
            raise StructureError("masses and stiffnesses must have equal length")
        if not (self.dt > 0.0):
            raise StructureError("dt must be > 0")
        if not (self.duration > 0.0):
            raise StructureError("duration must be > 0")
        f_max = float(np.sqrt(self.eigenvalues()[-1]) / (2.0 * math.pi))
        if self.dt >= 1.0 / (2.0 * f_max):
            raise StructureError(
                f"dt={self.dt} violates the Nyquist bound 1/(2*f_max)={1.0 / (2.0 * f_max):.6g} s"
            )

    @property
    def n_dof(self) -> int:
        return self.masses.size

    @property
    def n_samples(self) -> int:
        return int(math.floor(self.duration / self.dt))

    def stiffness_matrix(self) -> np.ndarray:
        k = self.stiffnesses
        coupling = np.diag(-k[1:], 1)  # story i + 1 joins masses i and i + 1
        return np.diag(k + np.append(k[1:], 0.0)) + coupling + coupling.T

    def eigenvalues(self) -> np.ndarray:
        """Generalized eigenvalues of (K, M) in rad^2/s^2, ascending."""
        return self._basis.eigenvalues

    def sub_chain(self, lo: int, hi: int) -> StructureSpec:
        """Stories ``lo..hi`` as a chain of their own, with the same dt.

        Slices with equal masses and stiffnesses share one spec, and with it
        one eigen-solve and one state-space model.
        """
        masses, stiffnesses = self.masses[lo : hi + 1], self.stiffnesses[lo : hi + 1]
        key = (masses.tobytes(), stiffnesses.tobytes())
        if key not in self._sub_chains:
            self._sub_chains[key] = StructureSpec(masses, stiffnesses, self.dt, self.dt * 2)
        return self._sub_chains[key]

    @functools.cached_property
    def _sub_chains(self) -> dict:
        return {}

    def _rho_powers(self, n: int) -> np.ndarray:
        """``rho^k = exp(-i omega dt k)`` per mode for k = 0..n, read-only, one table per n."""
        if n not in self._powers:
            powers = _unit_powers(np.sqrt(self._basis.eigenvalues) * self.dt, n)
            powers.setflags(write=False)
            self._powers[n] = powers
        return self._powers[n]

    @functools.cached_property
    def _powers(self) -> dict:
        return {}

    @functools.cached_property
    def _state_space(self) -> tuple:
        phi, omega = self._basis.mode_shapes, np.sqrt(self._basis.eigenvalues)
        cos, sin = np.cos(omega * self.dt), np.sin(omega * self.dt)
        # the closed form of discrete_state_space, with (1 - c)/w^2 as 2 (sin(w dt/2)/w)^2,
        # which cancels nothing at small w dt
        factors = (cos, sin / omega, -omega * sin, 2.0 * (np.sin(omega * self.dt / 2) / omega) ** 2)
        c_map, s_map, w_map, u_map = ((phi * d) @ phi.T for d in factors)  # Phi diag(d) Phi^T
        m = self.masses  # Phi^-1 = Phi^T M
        a_mat = np.block([[c_map * m, s_map * m], [w_map * m, c_map * m]])
        b_mat = np.vstack([u_map, s_map])
        for arr in (a_mat, b_mat):
            arr.setflags(write=False)
        return a_mat, b_mat

    @functools.cached_property
    def _basis(self) -> ModalBasis:
        # M is diagonal, so K phi = delta M phi is M^-1/2 K M^-1/2 u = delta u with phi = M^-1/2 u
        scale = 1.0 / np.sqrt(self.masses)
        try:
            vals, vecs = np.linalg.eigh(scale[:, None] * self.stiffness_matrix() * scale)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise StructureError(f"eigen-solve failed for spec {self!r}: {exc}") from exc
        vecs = scale[:, None] * vecs  # vals ascending
        if np.any(vals <= 0.0):
            raise StructureError(f"non-positive eigenvalue encountered for spec {self!r}")
        # sign convention: largest-magnitude entry of each mode is positive
        peaks = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
        vecs = vecs * np.where(peaks < 0.0, -1.0, 1.0)
        freqs = np.sqrt(vals) / (2.0 * math.pi)
        for arr in (freqs, vecs, vals):
            arr.setflags(write=False)
        return ModalBasis(frequencies=freqs, mode_shapes=vecs, eigenvalues=vals)


@dataclass(frozen=True)
class DamageSpec:
    """Stiffness reduction of one story: ``k -> (1 - severity) * k``."""

    location: int
    severity: float

    def __post_init__(self):
        if not (0.0 < self.severity <= 1.0):
            raise StructureError("severity must lie in (0, 1]")


@dataclass(frozen=True)
class ExcitationSpec:
    """Forcing description for the simulation.

    kind: "white_noise" (seeded Gaussian), "sine" or "impulse".
    location: DOF index, or None for base excitation (force -m_i * a_g(t)
    applied at every mass, the ambient-vibration case).
    amplitude: noise std (white_noise), peak force (sine) or impulse force.
    """

    kind: str
    amplitude: float
    frequency: float | None = None
    location: int | None = None
    seed: int = 0

    KINDS = ("white_noise", "sine", "impulse")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise StructureError(f"unknown excitation kind {self.kind!r}; expected one of {self.KINDS}")
        if self.kind == "sine" and (self.frequency is None or self.frequency <= 0.0):
            raise StructureError("sine excitation requires frequency > 0")

    def trace(self, n_samples: int, dt: float) -> np.ndarray:
        """Scalar forcing value held constant over each [t_k, t_k + dt)."""
        t = np.arange(n_samples) * dt
        if self.kind == "white_noise":
            rng = np.random.default_rng(self.seed)
            return self.amplitude * rng.standard_normal(n_samples)
        if self.kind == "sine":
            return self.amplitude * np.sin(2.0 * math.pi * self.frequency * t)
        out = np.zeros(n_samples)
        out[0] = self.amplitude
        return out


@dataclass(frozen=True)
class ModalBasis:
    """Mass-normalized modes of (K, M): ``Phi.T @ M @ Phi = I`` and
    ``Phi.T @ K @ Phi = diag(eigenvalues)``; frequencies in Hz, ascending."""

    frequencies: np.ndarray
    mode_shapes: np.ndarray
    eigenvalues: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.frequencies.size


@dataclass
class ResponseRecord:
    """Ground-truth structural response at every DOF.

    For base excitation the displacements/velocities are relative to the
    ground and ``accelerations`` holds the absolute (accelerometer-measured)
    acceleration, which equals ``-M^-1 K x`` exactly. For a point force the
    ground is fixed, so absolute and relative coincide.

    The march computes the accelerations only. ``displacements`` and
    ``velocities`` are mapped back from the kept modal history on first
    access, by the same arithmetic an eager map would run.
    """

    accelerations: np.ndarray  # (n_dof, n_samples), m/s^2
    excitation_trace: np.ndarray  # (n_samples,)
    dt: float
    # (Phi, omega, w): mode shapes, modal frequencies (rad/s) and _zoh_march's w history
    _modal: tuple = field(repr=False)

    @functools.cached_property
    def displacements(self) -> np.ndarray:
        """(n_dof, n_samples), m."""
        phi, _, w = self._modal
        return phi @ w.real[:, :-1]

    @functools.cached_property
    def velocities(self) -> np.ndarray:
        """(n_dof, n_samples), m/s."""
        phi, omega, w = self._modal
        return phi @ (omega[:, None] * w.imag)[:, :-1]

    @property
    def n_dof(self) -> int:
        return self.accelerations.shape[0]

    @property
    def n_samples(self) -> int:
        return self.accelerations.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.dt


def eigen_modes(spec: StructureSpec) -> ModalBasis:
    """Solve K phi = delta M phi, mass-normalized, sorted by ascending frequency.

    The basis is solved once per spec instance and shared: its arrays are read-only.
    """
    return spec._basis


def apply_damage(spec: StructureSpec, damage: DamageSpec) -> StructureSpec:
    """Return a copy of ``spec`` with one story stiffness scaled by (1 - severity)."""
    if not (0 <= damage.location < spec.n_dof):
        raise StructureError(
            f"damage location {damage.location} out of range for {spec.n_dof} stories"
        )
    k = spec.stiffnesses.copy()
    k[damage.location] *= 1.0 - damage.severity
    if k[damage.location] <= 0.0:
        raise StructureError("damage would zero out a story stiffness")
    return replace(spec, stiffnesses=k)


def _unit_powers(phase: np.ndarray, n: int) -> np.ndarray:
    """``exp(-i phase k)`` for k = 0..n, shape (phase.size, n + 1).

    With ``k = b j + i`` and ``b = isqrt(n) + 1`` each power is a coarse
    factor times a fine one, so a row costs about 2 sqrt(n) complex exps.
    """
    b = math.isqrt(n) + 1
    fine = np.exp(-1j * np.outer(phase, np.arange(b)))
    coarse = np.exp(-1j * np.outer(phase, b * np.arange(n // b + 1)))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(phase.size, -1)[:, : n + 1]


def _zoh_march(spec: StructureSpec, modal_force: np.ndarray, q0: np.ndarray, qd0: np.ndarray):
    """Exact zero-order-hold march of the decoupled modal oscillators of ``spec``.

    With the force f held over each step, ``w = q + i qd / omega`` obeys
    ``w[k+1] = rho w[k] + (1 - rho) f[k] / delta`` with ``rho = exp(-i omega dt)``,
    whose solution is ``w[k] = rho^k (w[0] + sum_{j<k} rho^-(j+1) (1 - rho) f[j] / delta)``.
    Undamped, ``|rho| = 1`` and ``rho^-k = conj(rho^k)``, so the sum is one
    cumulative sum along time for all modes at once.
    modal_force: (p, n_steps) forcing per mode, held constant over each step.
    Returns the history of w, (p, n_steps + 1) sampled at step starts: the
    modal displacement is ``w.real`` and the modal velocity ``omega * w.imag``;
    the last column is the state after the final step.
    """
    delta = spec._basis.eigenvalues
    omega = np.sqrt(delta)
    powers = spec._rho_powers(modal_force.shape[1])  # rho^k
    w = np.empty(powers.shape, dtype=complex)
    w[:, 0] = q0 + 1j * qd0 / omega
    np.conjugate(powers[:, 1:], out=w[:, 1:])
    w[:, 1:] *= modal_force
    w[:, 1:] *= ((1.0 - powers[:, 1]) / delta)[:, None]
    np.cumsum(w, axis=1, out=w)
    w *= powers
    return w


def _march(spec: StructureSpec, x, v, pattern, force, base: bool) -> ResponseRecord:
    """Response of ``spec`` from state (x, v) under ``pattern * force[k]`` held over step k.

    With ``base`` the acceleration is the absolute one under base motion,
    ``-M^-1 K x``.
    """
    basis = eigen_modes(spec)
    phi = basis.mode_shapes
    # mass-normalized basis: q = Phi^T M x
    q0, qd0 = phi.T @ (spec.masses * x), phi.T @ (spec.masses * v)
    modal_force = (phi.T @ pattern)[:, None] * force[None, :]
    w = _zoh_march(spec, modal_force, q0, qd0)
    qdd = -basis.eigenvalues[:, None] * w.real[:, :-1]
    if not base:
        qdd += modal_force  # qdd = H - delta q, so acceleration superposes exactly
    return ResponseRecord(
        accelerations=phi @ qdd,
        excitation_trace=force,
        dt=spec.dt,
        _modal=(phi, np.sqrt(basis.eigenvalues), w),
    )


def simulate_response(spec: StructureSpec, excitation: ExcitationSpec) -> ResponseRecord:
    """Time-march the undamped system from rest under the given excitation.

    The linear state-space is discretized exactly (zero-order hold on the
    forcing) in modal coordinates. A damaged structure is its own spec
    (``apply_damage``); a record marches one spec.
    """
    if excitation.location is not None and not (0 <= excitation.location < spec.n_dof):
        raise StructureError("excitation location out of range")
    if excitation.location is None:
        pattern = -spec.masses  # base acceleration enters as -M @ ones * a_g
    else:
        pattern = np.zeros(spec.n_dof)
        pattern[excitation.location] = 1.0
    rest = np.zeros(spec.n_dof)
    force = excitation.trace(spec.n_samples, spec.dt)
    return _march(spec, rest, rest, pattern, force, excitation.location is None)


def mechanical_energy(spec: StructureSpec, record: ResponseRecord) -> np.ndarray:
    """Total mechanical energy 0.5 v'Mv + 0.5 x'Kx at every sample (J)."""
    m = spec.masses
    kmat = spec.stiffness_matrix()
    kinetic = 0.5 * np.einsum("it,i,it->t", record.velocities, m, record.velocities)
    potential = 0.5 * np.einsum("it,ij,jt->t", record.displacements, kmat, record.displacements)
    return kinetic + potential


def free_vibration(
    spec: StructureSpec, x0: np.ndarray, v0: np.ndarray
) -> ResponseRecord:
    """Unforced response from an initial state (used for conservation checks)."""
    return _march(spec, x0, v0, np.zeros(spec.n_dof), np.zeros(spec.n_samples), True)


def uniform_chain(
    n_dof: int,
    mass: float,
    stiffness: float,
    dt: float,
    duration: float,
) -> StructureSpec:
    """Convenience constructor for a uniform n-story chain."""
    return StructureSpec(
        masses=np.full(n_dof, float(mass)),
        stiffnesses=np.full(n_dof, float(stiffness)),
        dt=dt,
        duration=duration,
    )


def discrete_state_space(spec: StructureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Exact ZOH discrete transition/input matrices for the state [x; v].

    Continuous dynamics: d/dt [x; v] = A [x; v] + B f with
    A = [[0, I], [-M^-1 K, 0]], B = [[0], [M^-1]]. The chain is undamped, so
    the pair has a closed form per mode: with ``c = cos(w dt)`` and
    ``s = sin(w dt)``, Ad = Phi [[c, s/w], [-w s, c]] Phi^-1 and
    Bd = Phi [[(1 - c)/w^2], [s/w]] Phi^T, where ``Phi^-1 = Phi^T M`` for the
    mass-normalized modes. Built once per spec instance and shared: the
    arrays are read-only.
    """
    return spec._state_space
