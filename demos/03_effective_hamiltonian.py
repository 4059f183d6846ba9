"""From interchange rules to a slow-space Hamiltonian, and back.

Freezing the clocks in their uniform ground states reduces the (pi/2) sigma_y
interchange terms to slow-space couplings (pi/2) * N_s / (N_a * N_b), exact
rationals times pi/2.  The compiler inverts the map: pick a target coupling
and it chooses periods and trigger points realizing it.  The three
descriptions of the same machine (exhaustive classical, full unitary,
effective two-level rotation) are then laid side by side.
"""

import math
import sys
import warnings

import numpy as np

from ontosim import fastslow, quantize
from ontosim.fixtures import fixture_path


def main():
    # The fixture's period-7 clock is below the soft threshold of 10 on purpose
    # (small tables); report the builder's warning in one line, as the CLI does.
    with warnings.catch_warnings(record=True) as caught:
        model = fastslow.load_model(fixture_path("two_state_10_7.json"))
    for warning in caught:
        print(f"warning: two_state_10_7.json: {warning.message}", file=sys.stderr)

    # One evolution step of the interchange term alone is a classical swap
    # (with a harmless sign): no superposition is ever generated.
    print("exp(-(pi/2) i sigma_y) =")
    print(np.round(quantize.evolution_operator(
        quantize.INTERCHANGE_WEIGHT * quantize.PAULI_Y, 1.0).real, 12))

    eff = quantize.ground_project(model)
    pc = eff.couplings[0]
    print(f"\nground-projected coupling: (pi/2) * {pc.points}/{pc.denominator} "
          f"= {abs(eff.matrix[0, 1]):.8f}")

    # Compile a fresh machine for a requested coupling and re-verify it.
    target = np.zeros((2, 2), dtype=complex)
    target[0, 1], target[1, 0] = 0.01j, -0.01j
    compiled = quantize.compile_target(target, tolerance=1e-4, max_period=200)
    achieved = quantize.ground_project(compiled)
    err = abs(quantize.INTERCHANGE_WEIGHT * float(achieved.coupling((0, 1))) - 0.01)
    print(f"compiled |H_01| = 0.01 with periods {compiled.periods}, "
          f"{len(compiled.points)} points, error {err:.2e}")

    # Classical vs full-quantum vs effective occupation of the flipped state.
    cmp_ = quantize.compare_dynamics(model, initial_slow=0, horizon=70)
    print("\n  t   classical   full quantum   effective")
    for t in (0, 14, 35, 56, 70):
        print(f"{t:3d}   {cmp_.classical[t, 1]:.6f}    {cmp_.quantum[t, 1]:.6f}"
              f"       {cmp_.effective[t, 1]:.6f}")
    print(f"max |classical - quantum|  = {cmp_.max_classical_quantum:.2e} "
          "(the unitary is a signed permutation)")
    print(f"max |classical - effective| = {cmp_.max_classical_effective:.2e} "
          "(the floor max(2x/pi - sin^2 x) = 0.105 of a linear ramp against sin^2)")
    flip_time = (math.pi / 2) / abs(eff.matrix[0, 1])
    print(f"effective full-flip time (pi/2)/|H_01| = {flip_time:.1f} steps = N_0 * N_1")


if __name__ == "__main__":
    main()
