"""Independent reference implementations used to cross-check the package.

Everything here is assembled naively and locally: explicit entry-by-entry
spin matrices, handwritten rotation matrices, and term-by-term Kronecker
products with all loops written out.  No imports from quartetsim, so a bug
in the package cannot hide in a shared code path.
"""

import math

import numpy as np

# CODATA: Bohr magneton over Planck constant, MHz per mT.
MU_B_MHZ_PER_MT = 13.9962449361
MHZ_PER_WAVENUMBER = 29979.2458


def spin_matrices(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sx, Sy, Sz for spin s in the descending-m basis, entry by entry."""
    n = int(round(2 * s + 1))
    m = [s - k for k in range(n)]
    sp = np.zeros((n, n), dtype=complex)
    for k in range(1, n):
        # raising operator connects |m_k> to |m_k + 1>
        sp[k - 1, k] = np.sqrt(s * (s + 1) - m[k] * (m[k] + 1))
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    sz = np.diag(m).astype(complex)
    return sx, sy, sz


def rz(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def ry(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def euler_zyz(alpha: float, beta: float, gamma: float) -> np.ndarray:
    return rz(alpha) @ ry(beta) @ rz(gamma)


def rotated_tensor(principal, euler) -> np.ndarray:
    """R diag(principal) R^T via an explicit sum over principal axes."""
    rot = euler_zyz(*euler)
    out = np.zeros((3, 3))
    for k in range(3):
        axis = rot[:, k]
        out += principal[k] * np.outer(axis, axis)
    return out


def dimer_hamiltonian(
    field_mt: float,
    direction,
    exchange_cm: float,
    dipolar_mhz: float,
    zfs_d_mhz: float,
    zfs_e_mhz: float,
    g_fp: float,
    g_vo_principal,
    a_vo_principal,
    alpha_rad: float,
    beta_rad: float,
) -> np.ndarray:
    """Naive 48x48 Hamiltonian: every term its own Kronecker triple loop.

    Basis |m_T> x |m_D> x |m_I>, each index descending.  Energies in MHz,
    field in mT.
    """
    tx, ty, tz = spin_matrices(1.0)
    dx, dy, dz = spin_matrices(0.5)
    ix, iy, iz = spin_matrices(3.5)
    e3, e2, e8 = np.eye(3), np.eye(2), np.eye(8)

    def t_op(op):
        return np.kron(np.kron(op, e2), e8)

    def d_op(op):
        return np.kron(np.kron(e3, op), e8)

    def i_op(op):
        return np.kron(np.kron(e3, e2), op)

    s1 = [t_op(tx), t_op(ty), t_op(tz)]
    s2 = [d_op(dx), d_op(dy), d_op(dz)]
    nuc = [i_op(ix), i_op(iy), i_op(iz)]

    h = np.zeros((48, 48), dtype=complex)

    # isotropic exchange, -J s1.s2 with J in wavenumbers
    j_mhz = exchange_cm * MHZ_PER_WAVENUMBER
    for c in range(3):
        h -= j_mhz * s1[c] @ s2[c]

    # point dipolar coupling, unique axis along molecular y
    dip = rotated_tensor(
        [dipolar_mhz, dipolar_mhz, -2.0 * dipolar_mhz], (np.pi / 2, np.pi / 2, 0.0)
    )
    for a in range(3):
        for b in range(3):
            h += dip[a][b] * s1[a] @ s2[b]

    # fine structure of the triplet, principal frame tilted by (alpha, beta)
    zfs_principal = [
        -zfs_d_mhz / 3.0 + zfs_e_mhz,
        -zfs_d_mhz / 3.0 - zfs_e_mhz,
        2.0 * zfs_d_mhz / 3.0,
    ]
    zfs = rotated_tensor(zfs_principal, (0.0, beta_rad, np.pi / 2 + alpha_rad))
    for a in range(3):
        for b in range(3):
            h += zfs[a][b] * s1[a] @ s1[b]

    # Zeeman terms
    n = np.asarray(direction, dtype=float)
    n = n / np.linalg.norm(n)
    gv = np.diag(g_vo_principal)
    for a in range(3):
        h += MU_B_MHZ_PER_MT * field_mt * g_fp * n[a] * s1[a]
        for b in range(3):
            h += MU_B_MHZ_PER_MT * field_mt * n[a] * gv[a][b] * s2[b]

    # hyperfine, axial along the molecular axes
    av = np.diag(a_vo_principal)
    for a in range(3):
        for b in range(3):
            h += av[a][b] * nuc[a] @ s2[b]

    return h


def doublet_resonance_fields(
    mw_frequency_mhz: float, g_z: float, a_z_mhz: float
) -> np.ndarray:
    """Exact resonance fields of S=1/2, I=7/2 with B along z and axial A.

    With the transverse hyperfine zero the Hamiltonian is diagonal, so the
    electron-flip condition g mu_B B + A_z m_I = nu is exact per sublevel.
    """
    m_i = np.array([3.5 - k for k in range(8)])
    return (mw_frequency_mhz - a_z_mhz * m_i) / (g_z * MU_B_MHZ_PER_MT)


def isolated_doublet_field(mw_frequency_mhz: float, g: float) -> float:
    return mw_frequency_mhz / (g * MU_B_MHZ_PER_MT)


def lorentzian(field: np.ndarray, center: float, fwhm: float) -> np.ndarray:
    hwhm = fwhm / 2.0
    return hwhm / np.pi / ((field - center) ** 2 + hwhm**2)


def gaussian(field: np.ndarray, center: float, fwhm: float) -> np.ndarray:
    sigma = fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    return np.exp(-((field - center) ** 2) / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi))


def bracket_scan(h0: np.ndarray, h1: np.ndarray, fields, nu: float) -> set:
    """Every (segment, lower, upper) whose transition frequency brackets nu.

    Each field is diagonalized on its own and every segment and level pair
    is checked: segment k runs from fields[k] to fields[k + 1], and the
    sorted levels (lower, upper) bracket nu there when E_upper - E_lower - nu
    changes sign across it, or is zero at its start and not at its end.
    """
    evals = [np.linalg.eigvalsh(h0 + b * h1) for b in fields]
    found = set()
    for k in range(len(fields) - 1):
        f0 = evals[k][None, :] - evals[k][:, None] - nu
        f1 = evals[k + 1][None, :] - evals[k + 1][:, None] - nu
        for lower, upper in zip(*np.nonzero((f0 * f1 < 0) | ((f0 == 0) & (f1 != 0)))):
            if lower < upper:
                found.add((k, int(lower), int(upper)))
    return found


def _through_angles(v: np.ndarray) -> np.ndarray:
    """v after the round trip through polar angles (theta, phi) and back."""
    theta = math.acos(max(-1.0, min(1.0, v[2] / np.linalg.norm(v))))
    # Wrapped twice: a tiny negative atan2 first wraps to exactly 2 pi.
    phi = math.atan2(v[1], v[0]) % (2 * math.pi) % (2 * math.pi)
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def aligned_field_directions(
    mode: str, sigma_deg: float, n_samples: int, tilt_nodes: int, transverse_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Field directions (n, 3) and weights of an aligned sample, node by node.

    Gauss-Hermite nodes of the tilt of the bond (molecular y) from the
    director, with ``transverse_nodes`` azimuths chi of that tilt about a
    director perpendicular to the field, give bond-field angles: the tilt
    itself (parallel), or arccos(sin(tilt) sin(chi)) (perpendicular).  Each
    angle carries a ring of ``n_samples`` directions about the bond, azimuth
    from molecular z toward x.  Every direction is stored as polar angles,
    antipodes are folded so that the first of z, y, x above 1e-12 in
    magnitude is positive, and directions equal to 10 decimals are merged in
    order of first appearance, adding their weights.
    """
    if sigma_deg == 0.0:
        if mode == "parallel":
            return _through_angles(np.array([0.0, 1.0, 0.0]))[None, :], np.array([1.0])
        tilts, tilt_w = [0.0], [1.0]
    else:
        x, w = np.polynomial.hermite.hermgauss(tilt_nodes)
        tilts = math.radians(sigma_deg) * math.sqrt(2.0) * x
        tilt_w = w / math.sqrt(math.pi)
    pairs = []
    for t, wt in zip(tilts, tilt_w):
        if mode == "parallel":
            rings = [(t, wt / n_samples)]
        else:
            rings = []
            for j in range(transverse_nodes):
                chi = 2 * math.pi * (j + 0.5) / transverse_nodes
                angle = math.acos(max(-1.0, min(1.0, math.sin(t) * math.sin(chi))))
                rings.append((angle, wt / (transverse_nodes * n_samples)))
        for angle, weight in rings:
            for k in range(n_samples):
                azimuth = 2 * math.pi * (k + 0.5) / n_samples
                direction = np.array([
                    math.sin(angle) * math.sin(azimuth),
                    math.cos(angle),
                    math.sin(angle) * math.cos(azimuth),
                ])
                pairs.append((_through_angles(direction), weight))
    merged = {}
    for v, weight in pairs:
        flip = next((c for c in (v[2], v[1], v[0]) if abs(c) > 1e-12), 1.0)
        if flip < 0:
            v = -v
        key = tuple(np.round(v, 10))
        kept, total = merged.get(key, (v, 0.0))
        merged[key] = (kept, total + weight)
    directions = np.array([_through_angles(v) for v, _ in merged.values()])
    return directions, np.array([w for _, w in merged.values()])
