"""Every integer or real argument of the library is read by ``ontodyn.json_int``
or ``ontodyn.json_real``: never coerced, refused with a ValueError that names
the argument, and numpy scalars accepted as their Python values."""

import io

import numpy as np
import pytest

from ontosim import bellkit, fastslow, ontodyn, quantize

from conftest import two_state_model

MODEL = two_state_model(10, 7)
LAW = ontodyn.PermutationLaw(np.array([1, 2, 0, 4, 3]))
TARGET = np.array([[0.0, 0.01j], [-0.01j, 0.0]])
SETTINGS = bellkit.STANDARD_SETTINGS

# (name in the message, the call with that argument set to x, least value or None)
INTEGER_ARGUMENTS = {
    "run_ensemble horizon": ("horizon", lambda x: fastslow.run_ensemble(MODEL, 0, x, 5, 1), 0),
    "run_ensemble sample_count": (
        "sample_count", lambda x: fastslow.run_ensemble(MODEL, 0, 2, x, 1), 1),
    "run_ensemble seed": ("seed", lambda x: fastslow.run_ensemble(MODEL, 0, 2, 5, x), 0),
    "enumerate_exact horizon": ("horizon", lambda x: fastslow.enumerate_exact(MODEL, 0, x), 0),
    "evolve_basis_state k": ("state k", lambda x: ontodyn.evolve_basis_state(LAW, x, 1), None),
    "evolve_basis_state t": ("time t", lambda x: ontodyn.evolve_basis_state(LAW, 1, x), None),
    "law_power t": ("power t", lambda x: ontodyn.law_power(LAW, x), None),
    "cycle_spectrum": ("cycle_length", ontodyn.cycle_spectrum, 1),
    "clock_hamiltonian": ("cycle_length", quantize.clock_hamiltonian, 1),
    "philox_rng": ("seed", ontodyn.philox_rng, 0),
    "compile_target max_period": (
        "max_period", lambda x: quantize.compile_target(TARGET, 0.1, x), 1),
    "compare_dynamics horizon": (
        "horizon", lambda x: quantize.compare_dynamics(MODEL, 0, x, 5, 1), 0),
    "compare_dynamics sample_count": (
        "sample_count", lambda x: quantize.compare_dynamics(MODEL, 0, 2, x, 1), 0),
    "compare_dynamics seed": ("seed", lambda x: quantize.compare_dynamics(MODEL, 0, 2, 5, x), 0),
    "marginal_flatness": ("grid_size", lambda x: bellkit.marginal_flatness("a", x), 1),
    "write_correlation_grid_csv": (
        "grid_size", lambda x: bellkit.write_correlation_grid_csv(x, io.StringIO()), 1),
    "sample_triples count": ("count", lambda x: bellkit.sample_triples(x, 1), 1),
    "sample_triples seed": ("seed", lambda x: bellkit.sample_triples(5, x), 0),
    "mc_chsh samples_per_setting": (
        "samples_per_setting", lambda x: bellkit.mc_chsh(*SETTINGS, x, 1), 1),
    "mc_chsh seed": ("seed", lambda x: bellkit.mc_chsh(*SETTINGS, 5, x), 0),
}


@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS)
def test_integer_arguments_are_read_never_coerced(argument):
    name, call, least = INTEGER_ARGUMENTS[argument]
    refusals = [(value, f"{name} must be an integer, not {value!r}")
                for value in (True, 2.5, 2.0, "2")]
    if least is not None:
        refusals.append((least - 1, f"{name} must be at least {least}, not {least - 1}"))
    for value, error in refusals:
        with pytest.raises(ValueError) as refused:
            call(value)
        assert refused.type is ValueError and str(refused.value) == error


@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS)
def test_numpy_integer_arguments_are_accepted(argument):
    _, call, _ = INTEGER_ARGUMENTS[argument]
    for kind in (np.int64, np.int32, np.uint8):
        call(kind(2))


REAL_ARGUMENTS = {
    "tolerance": lambda x: quantize.compile_target(TARGET, x, 20),
    "domain_end": bellkit.normalization_constant,
}


@pytest.mark.parametrize("name", REAL_ARGUMENTS)
def test_real_arguments_are_read_never_coerced(name):
    for value in (True, "2", None):
        with pytest.raises(ValueError,
                           match=f"^{name} must be a number within float range, not "):
            REAL_ARGUMENTS[name](value)
    for value in (np.float64(2.5), np.float32(2.5), np.int64(3)):
        REAL_ARGUMENTS[name](value)


@pytest.mark.parametrize("call", [
    lambda h: fastslow.enumerate_exact(MODEL, 0, h),
    lambda h: fastslow.run_ensemble(MODEL, 0, h, 5, 1),
    lambda h: quantize.compare_dynamics(MODEL, 0, h, 5, 1),
], ids=["enumerate_exact", "run_ensemble", "compare_dynamics"])
def test_a_numpy_horizon_cannot_overflow_the_table_cap(call):
    # (horizon + 1) * slow_count wraps in int64; read as a Python int it does not
    with pytest.raises(ontodyn.SizeCapError, match="^occupation table of 4611686018427387905 x 2"):
        call(np.int64(2 ** 62))
