import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from quartetsim import polarization as pol
from quartetsim import spectra as sp
from quartetsim import spincore as sc

TABLE_PARAMS = pol.QuartetPolarizationParams(a=(0.11, -0.002, -0.027), r=(0.0, -0.01, 0.0))
TABLE_NUCLEAR = pol.NuclearPopulations(
    (0.146, 0.078, 0.194, 0.126, 0.117, 0.165, 0.078, 0.097)
)

coeffs = st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))


# ------------------------------------------- dense reference route to rho_0
#
# The library never forms the 48x48 initial density matrix: it hands the
# diagonal weights over the field-quantized coupled states straight to the
# resonance search (``spectra._model_channels``).  The helpers below build the
# full matrix instead and serve as an independent check of that fast path.


def rho_s(theta: float, phi: float, params: pol.QuartetPolarizationParams) -> np.ndarray:
    """4x4 diagonal quartet density matrix in the field-quantized basis."""
    return np.diag(pol.rho_s_entries(theta, phi, params)).astype(complex)


def rho_0(rho_s_matrix, nuclear: pol.NuclearPopulations, doublet_populations=None) -> sc.HermitianOperator:
    """Initial 48x48 density matrix in the coupled basis.

    Quartet block: rho_S (x) diag(nuclear populations); trip-doublet block
    zero unless ``doublet_populations`` is given.
    """
    rho_s_matrix = np.asarray(rho_s_matrix)
    if rho_s_matrix.shape != (4, 4):
        raise ValueError("rho_S must be 4x4")
    p_nuc = nuclear.as_array()
    full = np.zeros((sc.DIM, sc.DIM), dtype=complex)
    full[:32, :32] = np.kron(rho_s_matrix, np.diag(p_nuc))
    if doublet_populations is not None:
        full[32:, 32:] = np.kron(np.diag(doublet_populations), np.diag(p_nuc)).astype(complex)
    return sc.HermitianOperator(full)


def initial_density_matrix(spec, orientation, model) -> sc.HermitianOperator:
    """Molecular-frame rho_0 for a photo-generated quartet polarization."""
    theta_q, phi_q = pol.field_in_quartet_frame(spec.frames, orientation)
    coupled = rho_0(rho_s(theta_q, phi_q, model.params), model.nuclear, model.doublet_populations)
    states = pol.coupled_states_along(orientation)
    return sc.HermitianOperator(states @ coupled.matrix @ states.conj().T)


@dataclass
class EigenbasisPopulations:
    """Populations of exact eigenstates, ascending energy order."""

    energies_mhz: np.ndarray
    populations: np.ndarray
    degenerate: np.ndarray

    def any_degenerate(self) -> bool:
        return bool(self.degenerate.any())


def _as_matrix(op) -> np.ndarray:
    return op.matrix if isinstance(op, sc.HermitianOperator) else np.asarray(op, dtype=complex)


def eigenbasis_populations(hamiltonian, rho0, degeneracy_tol: float = 1e-6) -> EigenbasisPopulations:
    """Diagonal of rho_0 over the exact eigenvectors (secular approximation).

    Within degenerate eigenvalue clusters the individual populations depend
    on the arbitrary basis chosen by the solver; such levels are flagged.
    """
    h = _as_matrix(hamiltonian)
    rho = _as_matrix(rho0)
    if h.shape != rho.shape:
        raise ValueError("Hamiltonian and density matrix dimensions differ")
    energies, vecs = np.linalg.eigh(h)
    populations = np.einsum("ai,ab,bi->i", vecs.conj(), rho, vecs).real
    scale = max(1.0, float(np.abs(energies).max()))
    gaps = np.diff(energies)
    close = gaps < degeneracy_tol * scale
    degenerate = np.zeros(len(energies), dtype=bool)
    degenerate[:-1] |= close
    degenerate[1:] |= close
    return EigenbasisPopulations(energies, populations, degenerate)


# -------------------------------------------------------- quartet expansion


@given(a=coeffs, r=coeffs, theta=st.floats(0, math.pi), phi=st.floats(0, 2 * math.pi))
@settings(max_examples=80, deadline=None)
def test_rho_s_traceless_and_phi_period(a, r, theta, phi):
    params = pol.QuartetPolarizationParams(a=a, r=r)
    entries = pol.rho_s_entries(theta, phi, params)
    assert abs(entries.sum()) < 1e-12
    shifted = pol.rho_s_entries(theta, phi + math.pi, params)
    assert_allclose(shifted, entries, atol=1e-12)


@given(theta=st.floats(0, math.pi), phi=st.floats(0, 2 * math.pi), scale=st.floats(-3, 3))
@settings(max_examples=40, deadline=None)
def test_rho_s_linear_in_coefficients(theta, phi, scale):
    base = pol.rho_s_entries(theta, phi, TABLE_PARAMS)
    scaled = pol.QuartetPolarizationParams(
        a=tuple(scale * v for v in TABLE_PARAMS.a),
        r=tuple(scale * v for v in TABLE_PARAMS.r),
    )
    assert_allclose(pol.rho_s_entries(theta, phi, scaled), scale * base, atol=1e-12)


def test_rho_s_vanishes_without_coefficients():
    params = pol.QuartetPolarizationParams(a=(0, 0, 0), r=(0, 0, 0))
    assert_allclose(pol.rho_s_entries(1.1, 0.4, params), np.zeros(4), atol=0)


def test_rho_s_along_polarization_axis():
    # theta = 0 keeps only the r-coefficients and the -2*a2 quadrupole term
    entries = pol.rho_s_entries(0.0, 0.0, TABLE_PARAMS)
    assert_allclose(entries, [0.004, -0.004, -0.004, 0.004], atol=1e-15)


def test_rho_s_transverse_values():
    # hand-evaluated expansion at theta = phi = 90 deg, m = 3/2 .. -3/2
    entries = pol.rho_s_entries(math.pi / 2, math.pi / 2, TABLE_PARAMS)
    assert_allclose(entries, [0.081875, 0.043625, -0.059625, -0.065875], atol=1e-12)
    mat = rho_s(math.pi / 2, math.pi / 2, TABLE_PARAMS)
    assert mat.shape == (4, 4)
    assert_allclose(np.diag(mat), entries.astype(complex), atol=1e-12)
    assert np.abs(mat - np.diag(np.diag(mat))).max() == 0


def test_params_validation():
    with pytest.raises(ValueError):
        pol.QuartetPolarizationParams(a=(0.1, 0.2), r=(0, 0, 0))
    with pytest.raises(ValueError):
        pol.QuartetPolarizationParams(a=(0.1, math.nan, 0.0), r=(0, 0, 0))


def test_nuclear_populations_validation():
    assert_allclose(pol.NuclearPopulations.uniform().as_array(), np.full(8, 0.125))
    with pytest.raises(ValueError):
        pol.NuclearPopulations((0.5, 0.5, 0, 0, 0, 0, 0, 0.2))
    with pytest.raises(ValueError):
        pol.NuclearPopulations((-0.1, 0.3, 0.1, 0.1, 0.1, 0.1, 0.2, 0.2))
    with pytest.raises(ValueError):
        pol.NuclearPopulations((1.0,))


# ----------------------------------------------------------- frame mapping


def test_field_in_quartet_frame_canonical_axes():
    frames = sc.FrameGeometry()
    cases = {
        (math.pi / 2, 0.0): (30.0, 225.0),
        (math.pi / 2, math.pi / 2): (90.0, 315.0),
        (0.0, 0.0): (60.0, 45.0),
    }
    for (theta, phi), (t_deg, p_deg) in cases.items():
        tq, pq = pol.field_in_quartet_frame(frames, sc.LabOrientation(theta, phi))
        assert math.isclose(math.degrees(tq), t_deg, abs_tol=1e-9)
        assert math.isclose(math.degrees(pq), p_deg, abs_tol=1e-9)


def test_field_in_quartet_frame_override_axis():
    frames = sc.FrameGeometry(quartet_x_axis=(0.0, 1.0, 0.0))
    tq, pq = pol.field_in_quartet_frame(frames, sc.LabOrientation(math.pi / 2, math.pi / 2))
    assert math.isclose(math.degrees(tq), 90.0, abs_tol=1e-9)
    # the bond direction now is the x axis of the polarization frame
    assert math.isclose(math.degrees(pq), 0.0, abs_tol=1e-9)


# ------------------------------------------------------ initial density op


def test_rho_0_block_structure():
    mat = rho_s(1.0, 2.0, TABLE_PARAMS)
    op = rho_0(mat, TABLE_NUCLEAR)
    assert op.dim == 48
    assert abs(np.trace(op.matrix)) < 1e-12
    expected = np.kron(mat, np.diag(TABLE_NUCLEAR.as_array()))
    assert_allclose(op.matrix[:32, :32], expected, atol=1e-14)
    assert np.abs(op.matrix[32:, 32:]).max() == 0
    assert np.abs(op.matrix[:32, 32:]).max() == 0


def test_rho_0_doublet_hook():
    mat = rho_s(1.0, 0.0, TABLE_PARAMS)
    op = rho_0(mat, pol.NuclearPopulations.uniform(), doublet_populations=(0.2, -0.2))
    block = op.matrix[32:, 32:]
    assert_allclose(np.diag(block).real, np.kron([0.2, -0.2], np.full(8, 0.125)), atol=1e-14)
    with pytest.raises(ValueError):
        rho_0(np.zeros((3, 3)), pol.NuclearPopulations.uniform())


def test_coupled_states_orthonormal():
    states = pol.coupled_states_along(sc.LabOrientation(1.2, 0.7))
    assert_allclose(states.conj().T @ states, np.eye(48), atol=1e-12)
    along_z = pol.coupled_states_along(sc.LabOrientation(0.0))
    assert_allclose(along_z, np.kron(sc.coupled_transform(), np.eye(8)), atol=1e-12)


def _coupled_states_by_rotation(orientation):
    """Field-quantized coupled states, diagonalizing Sy of each spin on every call."""

    def rotation(s):
        _, sy, sz = sc.spin_operators(s)
        phase = np.diag(np.exp(-1j * orientation.phi * np.real(np.diag(sz))))
        evals, evecs = np.linalg.eigh(sy)
        return phase @ ((evecs * np.exp(-1j * orientation.theta * evals)) @ evecs.conj().T)

    u = np.kron(np.kron(rotation(sc.SPIN_TRIPLET), rotation(sc.SPIN_DOUBLET)), rotation(sc.SPIN_NUCLEUS))
    return u @ np.kron(sc.coupled_transform(), np.eye(8))


def test_coupled_states_reuse_the_sy_eigenpairs(monkeypatch):
    # After one call, the rotations reuse each spin's cached Sy eigenpairs
    # and diagonalize nothing, with the same bits as diagonalizing each time.
    pol.coupled_states_along(sc.LabOrientation(0.5, 0.5))
    orientations = [sc.LabOrientation(0.0), sc.LabOrientation(1.2, 0.7), sc.LabOrientation(2.9, 5.1)]
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    states = [pol.coupled_states_along(o) for o in orientations]
    assert not calls
    monkeypatch.undo()
    for o, got in zip(orientations, states):
        assert got.tobytes() == _coupled_states_by_rotation(o).tobytes()


def test_initial_density_matrix_is_hermitian_traceless():
    spec = sc.vanadyl_porphyrin_dimer()
    model = pol.PhotoQuartetPolarization(TABLE_PARAMS, TABLE_NUCLEAR)
    rho = initial_density_matrix(spec, sc.LabOrientation(0.9, 2.2), model)
    assert abs(np.trace(rho.matrix)) < 1e-12
    assert np.abs(rho.matrix - rho.matrix.conj().T).max() < 1e-12


@pytest.mark.parametrize("doublet", [None, (0.3, 0.1)])
def test_photo_channels_match_dense_route(doublet):
    # The fast path's weights over its states must be rho_0 in that basis.
    spec = sc.vanadyl_porphyrin_dimer()
    model = pol.PhotoQuartetPolarization(TABLE_PARAMS, TABLE_NUCLEAR, doublet)
    rng = np.random.default_rng(20)
    for _ in range(20):
        o = sc.LabOrientation(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        channels = sp._model_channels(spec, model)(o)
        assert channels.weights.shape == (1, 32 if doublet is None else 48)
        rho = initial_density_matrix(spec, o, model).matrix
        projected = channels.states.conj().T @ rho @ channels.states
        assert_allclose(projected, np.diag(channels.weights[0]), rtol=0, atol=1e-15)


# ----------------------------------------------------- eigenstate weights


def test_eigenbasis_populations_shared_basis_exact():
    h = np.diag([0.0, 5.0, 20.0])
    rho = np.diag([0.5, 0.3, 0.2])
    out = eigenbasis_populations(h, rho)
    assert_allclose(out.populations, [0.5, 0.3, 0.2], atol=1e-14)
    assert_allclose(out.energies_mhz, [0.0, 5.0, 20.0])
    assert not out.any_degenerate()


def test_eigenbasis_populations_flags_degeneracy_and_shape():
    out = eigenbasis_populations(np.diag([0.0, 1e-9, 10.0]), np.eye(3) / 3)
    assert out.degenerate[0] and out.degenerate[1] and not out.degenerate[2]
    with pytest.raises(ValueError):
        eigenbasis_populations(np.eye(3), np.eye(4))


def test_quartet_marginals_along_lab_axes():
    spec = sc.vanadyl_porphyrin_dimer()
    model = pol.PhotoQuartetPolarization(TABLE_PARAMS, TABLE_NUCLEAR)
    frozen = {
        (math.pi / 2, 0.0): None,  # signs only; small entries
        (math.pi / 2, math.pi / 2): [-0.075867, -0.049498, 0.053491, 0.071846],
        (0.0, 0.0): [-0.055906, -0.038217, 0.039212, 0.054901],
    }
    for (theta, phi), expected in frozen.items():
        o = sc.LabOrientation(theta, phi)
        h = sc.build_hamiltonian(spec, 340.0, o)
        rho = initial_density_matrix(spec, o, model)
        out = eigenbasis_populations(h, rho)
        assert abs(out.populations.sum()) < 1e-10
        # lowest 32 eigenstates form the quartet manifold; octets per m level
        marginals = out.populations[:32].reshape(4, 8).sum(axis=1)
        assert (np.sign(marginals) == [-1, -1, 1, 1]).all()
        if expected is not None:
            assert_allclose(marginals, expected, atol=2e-5)


# ------------------------------------------------------ thermal populations


def test_thermal_populations_two_levels():
    gap_mhz = 9500.0
    t_k = 80.0
    pops = pol.thermal_populations(np.array([0.0, gap_mhz]), t_k)
    # Boltzmann factor recomputed from first principles
    ratio = math.exp(-6.62607015e-34 * gap_mhz * 1e6 / (1.380649e-23 * t_k))
    assert math.isclose(pops[1] / pops[0], ratio, rel_tol=1e-12)
    assert math.isclose(pops.sum(), 1.0, rel_tol=1e-12)
    assert pops[0] > pops[1]


def test_thermal_populations_rows_of_a_batch():
    energies = np.random.default_rng(7).uniform(-5000.0, 5000.0, (5, 48))
    batch = pol.thermal_populations(energies, 80.0)
    assert batch.shape == energies.shape
    for row, levels in zip(batch, energies):
        assert row.tobytes() == pol.thermal_populations(levels, 80.0).tobytes()
    assert_allclose(batch.sum(axis=1), 1.0, rtol=1e-12)


def test_thermal_populations_limits():
    energies = np.array([0.0, 100.0, 200.0])
    hot = pol.thermal_populations(energies, 1e9)
    assert_allclose(hot, np.full(3, 1 / 3), atol=1e-9)
    with pytest.raises(ValueError):
        pol.thermal_populations(energies, 0.0)
    with pytest.raises(ValueError):
        pol.ThermalPolarization(-5.0)


# ---------------------------------------------------------- triplet helper


def test_triplet_zero_field_states():
    states = pol.triplet_zero_field_states()
    assert_allclose(states.conj().T @ states, np.eye(3), atol=1e-12)
    # T_z is |m = 0>, T_x and T_y are the symmetric and antisymmetric mixes
    assert_allclose(np.abs(states[:, 2]), [0, 1, 0], atol=1e-12)
    assert_allclose(np.abs(states[:, 0]), [1 / math.sqrt(2), 0, 1 / math.sqrt(2)], atol=1e-12)
    assert_allclose(np.abs(states[:, 1]), [1 / math.sqrt(2), 0, 1 / math.sqrt(2)], atol=1e-12)


def test_triplet_zero_field_polarization_validation():
    pol.TripletZeroFieldPolarization((0.1, 0.2, 0.7))
    with pytest.raises(ValueError):
        pol.TripletZeroFieldPolarization((-0.1, 0.5, 0.6))


def test_photo_polarization_rejects_bad_doublet_populations():
    pol.PhotoQuartetPolarization(TABLE_PARAMS, TABLE_NUCLEAR, doublet_populations=(0.0, 0.3))
    for populations in ((-1.0, 2.0), (0.5, math.nan), (math.inf, 0.0), (0.5,)):
        with pytest.raises(ValueError, match="doublet populations"):
            pol.PhotoQuartetPolarization(TABLE_PARAMS, TABLE_NUCLEAR, doublet_populations=populations)


def test_nuclear_polarization_gain():
    assert math.isclose(pol.nuclear_polarization_gain(TABLE_NUCLEAR), 0.116, abs_tol=1e-12)
    assert pol.nuclear_polarization_gain(pol.NuclearPopulations.uniform()) == 0.0
    delta = pol.NuclearPopulations((1.0, 0, 0, 0, 0, 0, 0, 0))
    assert pol.nuclear_polarization_gain(delta) == 1.0
