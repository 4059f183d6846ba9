"""Two slow states driven by a pair of fast clocks.

The shipped model couples slow states 0 and 1 through one interchange point
on clocks of periods 10 and 7.  Because the periods are coprime, each initial
clock setting hits the trigger exactly once per 70 steps, so the machine
flips deterministically, and an ensemble over uniform random clock phases
flips at the constant rate t/70.
"""

import sys
import warnings

import numpy as np

from ontosim import fastslow
from ontosim.fixtures import fixture_path


def main():
    # The fixture's period-7 clock is below the soft threshold of 10 on purpose
    # (small tables); report the builder's warning in one line, as the CLI does.
    with warnings.catch_warnings(record=True) as caught:
        model = fastslow.load_model(fixture_path("two_state_10_7.json"))
    for warning in caught:
        print(f"warning: two_state_10_7.json: {warning.message}", file=sys.stderr)
    print(f"slow states: {model.slow_count}, clock periods: {model.periods}, "
          f"ontic space: {model.ontic_space_size}")

    # One trajectory, watched near its flip.
    cfg = fastslow.ClassicalConfig(slow=0, phases=(7, 4))
    for t in range(1, 71):
        cfg = fastslow.step(model, cfg)
        if cfg.slow == 1:
            print(f"this trajectory swaps 0 -> 1 at step {t}")
            break

    # The full step map is a bijection (here: one mega-cycle of length 140).
    decomp = fastslow.check_bijectivity(model)
    print("step map is reversible; cycle ranks:", list(decomp.ranks))

    # Exhaustive enumeration over all 70 initial phase pairs vs a sampled
    # ensemble with the counter-based generator.
    exact = fastslow.enumerate_exact(model, initial_slow=0, horizon=70)
    sampled = fastslow.run_ensemble(model, initial_slow=0, horizon=70,
                                    sample_count=20_000, seed=42)
    print("\n  t   exact P(flipped)   sampled")
    for t in (0, 10, 35, 60, 70):
        print(f"{t:3d}   {exact.fractions[t, 1]:.6f}          {sampled[t, 1]:.6f}")
    print("exact curve is exactly t/70:",
          bool(np.array_equal(exact.counts[:, 1], np.arange(71))))


if __name__ == "__main__":
    main()
