"""Modal analysis and exact response simulation of a shear-building chain.

Builds a 10-story lumped-mass chain, prints its natural frequencies and
mass-normalized mode shapes, then demonstrates two properties of the exact
zero-order-hold time marching: energy conservation in free vibration and
the growing envelope of undamped resonant forcing.
"""

import numpy as np

from shmsim.structure import (
    DamageSpec,
    ExcitationSpec,
    apply_damage,
    eigen_modes,
    free_vibration,
    mechanical_energy,
    simulate_response,
    uniform_chain,
)

spec = uniform_chain(n_dof=10, mass=1000.0, stiffness=1.769e6, dt=0.02, duration=40.0)
basis = eigen_modes(spec)

print("Natural frequencies (Hz):")
print(" ", np.array2string(basis.frequencies, precision=3))
print("First mode shape (unit max):")
phi1 = basis.mode_shapes[:, 0] / np.abs(basis.mode_shapes[:, 0]).max()
print(" ", np.array2string(phi1, precision=3))

# damage softens one story; every frequency can only drop
damaged = apply_damage(spec, DamageSpec(location=4, severity=0.2))
shift = eigen_modes(damaged).frequencies - basis.frequencies
print("\nFrequency shift after 20% stiffness loss at story 4 (Hz):")
print(" ", np.array2string(shift, precision=4))

# free vibration conserves mechanical energy to machine precision
rec = free_vibration(spec, x0=0.01 * phi1, v0=np.zeros(10))
energy = mechanical_energy(spec, rec)
print(f"\nFree-vibration energy drift: {np.max(np.abs(energy - energy[0])) / energy[0]:.2e}")

# driving exactly at f1 with no damping grows without bound
spec1 = uniform_chain(1, 1.0, (2 * np.pi) ** 2, 0.01, 20.0)
res = simulate_response(spec1, ExcitationSpec("sine", 1.0, frequency=1.0, location=0))
x = res.displacements[0]
peaks = [np.max(np.abs(x[k * 100 : (k + 1) * 100])) for k in range(20)]
print("Resonant per-cycle peak growth:", np.array2string(np.array(peaks[::4]), precision=3))
