"""Property tests of the plant interface: a saved reduced model equals the
original, a full-dimension reduction reproduces the full-order model, and a
batch of states evaluates like its rows one by one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aeromrac.plantio import load_rom, save_rom
from aeromrac.romgen import default_rom

REL_TOL = 1e-12
inputs = st.floats(-1.0, 1.0, allow_nan=False)


def states(*shape):
    return arrays(np.float64, shape, elements=st.floats(-2.0, 2.0, allow_nan=False))


@pytest.fixture(scope="module")
def reloaded(rom, tmp_path_factory):
    path = tmp_path_factory.mktemp("rom") / "rom.npz"
    save_rom(rom, path)
    return load_rom(path)


@pytest.fixture(scope="module")
def rom_full(fom):
    return default_rom(fom, n=14, n_real=8)  # full spectrum: 3 pairs + 8 reals


@settings(max_examples=50, deadline=None)
@given(x=states(8), u_c=inputs, u_d=inputs)
def test_save_load_is_bit_exact(rom, reloaded, x, u_c, u_d):
    assert np.array_equal(reloaded.eval_f_nr(x), rom.eval_f_nr(x))
    assert np.array_equal(reloaded.rhs(x, u_c, u_d), rom.rhs(x, u_c, u_d))


@settings(max_examples=50, deadline=None)
@given(x=states(14), u_c=inputs, u_d=inputs)
def test_full_dimension_rom_reproduces_fom(fom, rom_full, x, u_c, u_d):
    want = rom_full.Psi @ fom.rhs(rom_full.Phi @ x, u_c, u_d)
    got = rom_full.rhs(x, u_c, u_d)
    assert np.linalg.norm(got - want) <= REL_TOL * np.linalg.norm(want)


@settings(max_examples=50, deadline=None)
@given(X=st.integers(1, 20).flatmap(lambda T: states(T, 8)))
def test_batched_nonlinearity_equals_rows(rom, X):
    batch = rom.eval_f_nr(X)
    for row, x in zip(batch, X):
        want = rom.eval_f_nr(x)
        assert np.abs(row - want).max() <= REL_TOL * np.abs(want).max()
