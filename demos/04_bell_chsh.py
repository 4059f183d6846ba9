"""Factorized bound, quantum violation, and the three-variable distribution.

Any hidden-variable model factorizing as rho(lam) * p_A(a,lam) * p_B(b,lam)
keeps the CHSH combination inside [-2, 2]; the quantum correlation
cos 2(a-b) reaches 2*sqrt(2).  A joint density C |sin 2(a+b-2 lam)| with
deterministic sign outcomes reproduces the quantum correlation exactly while
every single-variable marginal stays flat.
"""

import math

from ontosim import bellkit


def main():
    a, ap, b, bp = bellkit.STANDARD_SETTINGS
    print("settings (deg):", [round(math.degrees(s), 1) for s in (a, ap, b, bp)])

    quantum = bellkit.chsh_score(bellkit.quantum_correlation, a, ap, b, bp)
    print(f"quantum S = {quantum.score:.12f} (= 2*sqrt(2))")

    threshold = bellkit.malus_deterministic_model()
    sawtooth = bellkit.chsh_score(
        lambda x, y: bellkit.factorized_correlation(threshold, x, y), a, ap, b, bp)
    print(f"deterministic threshold model S = {sawtooth.score:.6f} "
          "(saturates the factorized bound 2)")

    # The correlated three-variable model: its arch sum against cos 2(a-b).
    print("\n |a-b| deg   E_correlated     cos 2(a-b)")
    for offset_deg in (0.0, 22.5, 45.0, 67.5):
        x = math.radians(offset_deg)
        ec = bellkit.correlated_expectation(0.0, x)
        print(f"  {offset_deg:5.1f}     {ec:+.9f}    {math.cos(2 * x):+.9f}")

    correlated = bellkit.chsh_score(bellkit.correlated_expectation, a, ap, b, bp)
    print(f"correlated-model S = {correlated.score:.12f}  "
          f"(violates 2: {correlated.violates_classical_bound})")

    for which in ("lambda", "a", "b"):
        dev = bellkit.marginal_flatness(which, grid_size=9)
        print(f"averaging over {which!r} leaves a flat marginal "
              f"(max deviation {dev:.2e})")

    mc = bellkit.mc_chsh(a, ap, b, bp, samples_per_setting=100_000, seed=7)
    print(f"\nMonte Carlo S from 4 x 100k conditional draws: {mc.score:.4f}")

    triples = bellkit.sample_triples(5, seed=1)
    print("sample triples (a, b, lambda, A, B):")
    for i in range(5):
        print(f"  {triples.a[i]:.3f}  {triples.b[i]:.3f}  {triples.lam[i]:.3f}  "
              f"{int(triples.outcome_a[i]):+d}  {int(triples.outcome_b[i]):+d}")


if __name__ == "__main__":
    main()
