import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from quartetsim import spincore as sc

RNG = np.random.default_rng(90125)

angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
principals = st.tuples(
    st.floats(-5e3, 5e3), st.floats(-5e3, 5e3), st.floats(-5e3, 5e3)
)


# ---------------------------------------------------------------- operators


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 3.5])
def test_spin_operators_su2_algebra(s):
    sx, sy, sz = sc.spin_operators(s)
    assert np.abs(sx @ sy - sy @ sx - 1j * sz).max() < 1e-14
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert_allclose(casimir, s * (s + 1) * np.eye(int(2 * s + 1)), atol=1e-13)


def test_spin_operators_descending_sz():
    _, _, sz = sc.spin_operators(1.5)
    assert_allclose(np.diag(sz).real, [1.5, 0.5, -0.5, -1.5])


def test_spin_operators_match_oracle():
    for s in (0.5, 1.0, 3.5):
        ours = sc.spin_operators(s)
        ref = oracles.spin_matrices(s)
        for a, b in zip(ours, ref):
            assert_allclose(a, b, atol=1e-14)


@pytest.mark.parametrize("bad", [-0.5, 0.3, math.nan, math.inf])
def test_spin_operators_reject_bad_spin(bad):
    with pytest.raises(ValueError):
        sc.spin_operators(bad)


# ---------------------------------------------------------------- rotations


@given(a=angles, b=angles, c=angles)
@settings(max_examples=60, deadline=None)
def test_rotation_matrix_matches_explicit_product(a, b, c):
    assert_allclose(
        sc.rotation_matrix((a, b, c)), oracles.euler_zyz(a, b, c), atol=1e-12
    )


@pytest.mark.parametrize(
    "euler",
    [(0.3, 0.0, 0.0), (-2.0, 0.0, 1.1), (0.3, math.pi, 0.0), (0.7, math.pi, -2.5), (0.0, 0.0, 0.0),
     (1.2, 1e-9, -0.4), (1.2, math.pi - 1e-9, -0.4), (0.5, 1e-17, 2.0)],
)
def test_euler_round_trip_at_gimbal_lock_without_warning(euler):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rot = sc.rotation_matrix(euler)
        spec = sc.vanadyl_porphyrin_dimer()
        moved = spec.rotated(rot)
    assert_allclose(moved.zfs.matrix(), rot @ spec.zfs.matrix() @ rot.T, atol=1e-9)


@given(p=principals, a=angles, b=angles, c=angles)
@settings(max_examples=60, deadline=None)
def test_rotate_tensor_preserves_eigenvalues(p, a, b, c):
    mat = sc.InteractionTensor(p, sc.rotation_matrix((a, b, c))).matrix()
    assert_allclose(mat, mat.T, atol=1e-9)
    assert_allclose(np.sort(np.linalg.eigvalsh(mat)), np.sort(p), atol=1e-8)


def test_rotate_tensor_identity_and_z_quarter_turn():
    p = (1.0, 2.0, 3.0)
    assert_allclose(sc.InteractionTensor(p, sc.rotation_matrix((0.0, 0.0, 0.0))).matrix(), np.diag(p), atol=1e-15)
    quarter = sc.InteractionTensor(p, sc.rotation_matrix((math.pi / 2, 0.0, 0.0))).matrix()
    assert_allclose(np.diag(quarter), [2.0, 1.0, 3.0], atol=1e-14)


def test_interaction_tensor_axes_and_rotation():
    tensor = sc.InteractionTensor((1.0, 2.0, 3.0), sc.rotation_matrix((0.3, 0.7, -0.2)))
    axes = np.array(tensor.axes)
    assert_allclose(axes.T @ axes, np.eye(3), atol=1e-12)
    rot = sc.rotation_matrix((0.5, 1.1, 0.9))
    moved = tensor.rotated(rot)
    assert_allclose(moved.matrix(), rot @ tensor.matrix() @ rot.T, atol=1e-10)
    assert moved.principal == tensor.principal


def test_interaction_tensor_rejects_nonfinite():
    with pytest.raises(ValueError):
        sc.InteractionTensor((1.0, math.nan, 3.0))
    skewed = np.eye(3)
    skewed[0, 1] = 1e-6
    for axes in (np.full((3, 3), math.nan), np.diag([1.0, math.inf, 1.0]), np.eye(2), np.eye(4)[:3],
                 skewed, 2 * np.eye(3)):
        with pytest.raises(ValueError):
            sc.InteractionTensor((1.0, 2.0, 3.0), axes)


def test_rotated_twice_equals_rotated_by_product():
    spec = sc.SpinSystemSpec.from_parameters(
        exchange_cm=0.7, dipolar_mhz=60.0, zfs_d_mhz=1135.0, zfs_e_mhz=235.0, g_fp=2.0023,
        g_vo=(1.985, 1.99, 1.964), a_vo_mhz=(162.0, 170.0, 475.0), quartet_x_axis=(0.2, 1.0, 0.1),
    )
    r1, r2 = sc.rotation_matrix((0.7, 1.1, -0.4)), sc.rotation_matrix((-2.3, 0.4, 1.9))
    twice, once = spec.rotated(r1).rotated(r2), spec.rotated(r2 @ r1)
    for frame in (lambda s: s.zfs.matrix(), lambda s: s.g_vo.matrix(), lambda s: s.a_vo.matrix(),
                  lambda s: s.dipolar_tensor().matrix(), lambda s: s.frames.quartet_axes()):
        assert_allclose(frame(twice), frame(once), rtol=0, atol=1e-12)


def test_lab_orientation_validation():
    o = sc.LabOrientation(0.3, -0.5)
    assert 0 <= o.phi < 2 * math.pi
    # -1e-17 % 2pi rounds up to 2pi itself
    assert sc.LabOrientation(0.3, -1e-17).phi == 0.0
    assert sc.vector_angles((1.0, -1e-300, 0.0))[1] == 0.0
    with pytest.raises(ValueError):
        sc.LabOrientation(4.0)
    with pytest.raises(ValueError):
        sc.LabOrientation(math.nan)
    v = sc.LabOrientation(0.77, 1.23).unit_vector()
    back = sc.LabOrientation.from_vector(v)
    assert math.isclose(back.theta, 0.77) and math.isclose(back.phi, 1.23)


# ------------------------------------------------------------------- frames


def test_triplet_frame_axes():
    frames = sc.FrameGeometry()
    axes = frames.triplet_axes()
    assert_allclose(axes.T @ axes, np.eye(3), atol=1e-12)
    assert math.isclose(np.linalg.det(axes), 1.0, abs_tol=1e-12)
    assert_allclose(axes[:, 2], [math.sqrt(3) / 2, 0.0, 0.5], atol=1e-12)
    assert_allclose(axes[:, 0], [-0.3535534, 0.7071068, 0.6123724], atol=1e-6)
    # in-plane axis tilted from the bond by alpha
    assert math.isclose(axes[:, 0] @ np.array([0, 1.0, 0]), math.cos(math.radians(45)))


def test_quartet_axes_default_and_override():
    frames = sc.FrameGeometry()
    assert_allclose(frames.quartet_axes(), frames.triplet_axes(), atol=1e-15)
    override = sc.FrameGeometry(quartet_x_axis=(0.0, 1.0, 0.0))
    axes = override.quartet_axes()
    assert_allclose(axes[:, 2], frames.triplet_axes()[:, 2], atol=1e-15)
    assert_allclose(axes[:, 0], [0.0, 1.0, 0.0], atol=1e-12)  # y is already in-plane
    assert_allclose(axes.T @ axes, np.eye(3), atol=1e-12)
    with pytest.raises(ValueError):
        sc.FrameGeometry(quartet_x_axis=tuple(frames.triplet_axes()[:, 2])).quartet_axes()


# ----------------------------------------------------------------- couplings


def test_point_dipole_reference_distance():
    d = sc.point_dipole_coupling(0.84, 2.0023, 1.978)
    assert 85.0 <= d <= 95.0
    assert math.isclose(d, 86.73545763844133, rel_tol=1e-12)


def test_point_dipole_closed_form_value():
    assert math.isclose(
        sc.point_dipole_coupling(1.0, 2.0, 2.0), 51.920526666461704, rel_tol=1e-12
    )


def test_point_dipole_cubic_scaling():
    d1 = sc.point_dipole_coupling(0.7, 2.0, 2.0)
    d2 = sc.point_dipole_coupling(1.4, 2.0, 2.0)
    assert math.isclose(d1, 8 * d2, rel_tol=1e-12)
    with pytest.raises(ValueError):
        sc.point_dipole_coupling(0.0, 2.0, 2.0)


def test_reference_system_tensors():
    spec = sc.vanadyl_porphyrin_dimer()
    assert math.isclose(spec.exchange_mhz, 29979.2458)
    assert math.isclose(spec.zfs_d_mhz, 1135.0, abs_tol=1e-9)
    assert math.isclose(spec.zfs_e_mhz, 235.0, abs_tol=1e-9)
    assert_allclose(
        spec.zfs.principal, [-1135 / 3 + 235, -1135 / 3 - 235, 2 * 1135 / 3], atol=1e-9
    )
    assert_allclose(
        spec.dipolar_tensor().matrix(), np.diag([90.0, -180.0, 90.0]), atol=1e-9
    )
    assert_allclose(np.sort(np.linalg.eigvalsh(spec.zfs.matrix())),
                    np.sort(spec.zfs.principal), atol=1e-9)


# -------------------------------------------------------------- Hamiltonian


def test_exchange_only_gap():
    spec = sc.SpinSystemSpec.from_parameters(
        exchange_cm=1.0, dipolar_mhz=0.0, zfs_d_mhz=0.0, zfs_e_mhz=0.0,
        g_fp=2.0, g_vo=(2.0, 2.0, 2.0), a_vo_mhz=(0.0, 0.0, 0.0),
    )
    h = sc.build_hamiltonian(spec, 0.0, sc.LabOrientation(0.0))
    evals = np.linalg.eigvalsh(h.matrix)
    levels = np.unique(np.round(evals, 6))
    assert len(levels) == 2
    gap = levels[1] - levels[0]
    assert abs(gap / (1.5 * 29979.2458) - 1.0) < 1e-9
    # quartet manifold (32 states with the nucleus) sits below for J > 0
    assert np.sum(np.isclose(evals, levels[0])) == 32
    assert np.sum(np.isclose(evals, levels[1])) == 16


def test_null_hamiltonian():
    spec = sc.SpinSystemSpec.from_parameters(
        exchange_cm=0.0, dipolar_mhz=0.0, zfs_d_mhz=0.0, zfs_e_mhz=0.0,
        g_fp=2.0, g_vo=(2.0, 2.0, 2.0), a_vo_mhz=(0.0, 0.0, 0.0),
    )
    h = sc.build_hamiltonian(spec, 0.0, sc.LabOrientation(1.0, 2.0))
    assert_allclose(h.matrix, np.zeros((48, 48)), atol=1e-12)


def _oracle_hamiltonian(spec, field_mt, orientation):
    return oracles.dimer_hamiltonian(
        field_mt,
        orientation.unit_vector(),
        spec.exchange_cm,
        spec.dipolar_mhz,
        spec.zfs_d_mhz,
        spec.zfs_e_mhz,
        spec.g_fp,
        spec.g_vo.principal,
        spec.a_vo.principal,
        spec.frames.alpha_rad,
        spec.frames.beta_rad,
    )


@pytest.mark.parametrize(
    "field_mt,theta,phi",
    [(340.0, 0.0, 0.0), (340.0, math.pi / 2, math.pi / 2), (123.4, 1.1, 4.0)],
)
def test_full_hamiltonian_matches_naive_kronecker_assembly(field_mt, theta, phi):
    spec = sc.vanadyl_porphyrin_dimer()
    orientation = sc.LabOrientation(theta, phi)
    ours = sc.build_hamiltonian(spec, field_mt, orientation).matrix
    ref = _oracle_hamiltonian(spec, field_mt, orientation)
    assert np.abs(ours - ref).max() < 1e-9 * max(1.0, np.abs(ref).max())
    e1 = np.linalg.eigvalsh(ours)
    e2 = np.linalg.eigvalsh(ref)
    assert np.abs(e1 - e2).max() < 1e-9 * np.abs(e2).max()


def test_zeeman_linearity_and_field_validation():
    spec = sc.vanadyl_porphyrin_dimer()
    o = sc.LabOrientation(1.0, 0.3)
    h0, h1 = sc.hamiltonian_parts(spec, o)
    h_a = sc.build_hamiltonian(spec, 100.0, o).matrix
    h_b = sc.build_hamiltonian(spec, 200.0, o).matrix
    assert_allclose(h_b - h0, 2 * (h_a - h0), atol=1e-9)
    with pytest.raises(ValueError):
        sc.build_hamiltonian(spec, -1.0, o)
    with pytest.raises(ValueError):
        sc.build_hamiltonian(spec, math.nan, o)


def test_frame_covariance_under_global_rotation():
    spec = sc.vanadyl_porphyrin_dimer()
    for _ in range(25):
        # random proper rotation from a normalized quaternion
        q = RNG.normal(size=4)
        q /= np.linalg.norm(q)
        w, x, y, z = q
        rot = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
        n = RNG.normal(size=3)
        n /= np.linalg.norm(n)
        field = float(RNG.uniform(0, 500))
        h_lab = sc.build_hamiltonian(spec, field, sc.LabOrientation.from_vector(n)).matrix
        h_rot = sc.build_hamiltonian(
            spec.rotated(rot), field, sc.LabOrientation.from_vector(rot @ n)
        ).matrix
        e1, e2 = np.linalg.eigvalsh(h_lab), np.linalg.eigvalsh(h_rot)
        assert np.abs(e1 - e2).max() < 1e-8 * max(1.0, np.abs(e1).max())


def test_hermitian_operator_validation():
    good = sc.HermitianOperator(np.array([[1.0, 1j], [-1j, 2.0]]))
    assert good.dim == 2
    with pytest.raises(ValueError):
        sc.HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        sc.HermitianOperator(np.zeros((2, 3)))


def test_cached_operators_are_read_only():
    # Cached arrays are shared by every caller, including the threads of
    # the orientation average; a write into one must fail, not spread.
    shared = [
        *(op for ops in sc.product_operators().values() for op in ops),
        sc._field_free_hamiltonian(sc.vanadyl_porphyrin_dimer()),
        sc.coupled_transform(),
    ]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] += 1.0
    h0, _ = sc.hamiltonian_parts(sc.vanadyl_porphyrin_dimer(), sc.LabOrientation(0.3, 0.2))
    h0[0, 0] += 1.0  # callers get their own copy


# ------------------------------------------------------------ coupled basis


def test_coupled_transform_unitary_and_quantum_numbers():
    u = sc.coupled_transform()
    assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-12)
    ops1 = sc.spin_operators(1.0)
    ops2 = sc.spin_operators(0.5)
    s_tot = [
        np.kron(a, np.eye(2)) + np.kron(np.eye(3), b) for a, b in zip(ops1, ops2)
    ]
    casimir = sum(op @ op for op in s_tot)
    assert_allclose(np.diag(u.conj().T @ casimir @ u).real,
                    [3.75, 3.75, 3.75, 3.75, 0.75, 0.75], atol=1e-12)
    assert_allclose(np.diag(u.conj().T @ s_tot[2] @ u).real,
                    [1.5, 0.5, -0.5, -1.5, 0.5, -0.5], atol=1e-12)


def test_coupled_transform_clebsch_gordan_values():
    u = sc.coupled_transform()
    a, b = math.sqrt(1 / 3), math.sqrt(2 / 3)
    # Each column over the product order (1,+),(1,-),(0,+),(0,-),(-1,+),(-1,-).
    columns = [
        [1, 0, 0, 0, 0, 0],  # |3/2, 3/2>
        [0, a, b, 0, 0, 0],  # |3/2, 1/2>
        [0, 0, 0, b, a, 0],  # |3/2, -1/2>
        [0, 0, 0, 0, 0, 1],  # |3/2, -3/2>
        [0, b, -a, 0, 0, 0],  # |1/2, 1/2>
        [0, 0, 0, a, -b, 0],  # |1/2, -1/2>
    ]
    assert_allclose(u.real, np.array(columns).T, rtol=0, atol=1e-15)
    assert np.abs(u.imag).max() == 0.0


# ------------------------------------------------------------ regime report


def test_strong_exchange_report_reference_system():
    spec = sc.vanadyl_porphyrin_dimer()
    report = sc.validate_strong_exchange(spec, 340.0)
    assert report.strong
    assert report.smallest_ratio() >= 5.0
    assert math.isclose(report.ratios["zfs_d"], 29979.2458 / 1135.0)
    assert math.isclose(report.ratios["hyperfine"], 29979.2458 / 475.0)


def test_strong_exchange_report_weak_case_and_zero_field():
    weak = sc.SpinSystemSpec.from_parameters(
        exchange_cm=0.01, dipolar_mhz=90.0, zfs_d_mhz=1135.0, zfs_e_mhz=235.0,
        g_fp=2.0023, g_vo=(1.985, 1.985, 1.964), a_vo_mhz=(162.0, 162.0, 475.0),
    )
    report = sc.validate_strong_exchange(weak, 340.0)
    assert not report.strong
    spec = sc.vanadyl_porphyrin_dimer()
    at_zero = sc.validate_strong_exchange(spec, 0.0)
    assert math.isinf(at_zero.ratios["zeeman_mismatch"])
