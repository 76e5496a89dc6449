"""Reference computations made outside quartetsim, used to check its outputs.

Nothing here imports the package: the spin Hamiltonian is assembled from
explicit spin matrices and Kronecker products, and the transient-absorption
forward model is the textbook Bateman chain convolved with a Gaussian, so a
fault in the package cannot hide in a shared code path.
"""

from __future__ import annotations

import math

import numpy as np

# CODATA 2018: Bohr magneton over Planck constant, MHz per mT.
MU_B_MHZ_PER_MT = 9.2740100783e-24 / 6.62607015e-34 * 1e-9
MHZ_PER_INVCM = 29979.2458


def _spin(s: float) -> list[np.ndarray]:
    n = int(round(2 * s + 1))
    m = [s - k for k in range(n)]
    up = np.zeros((n, n), dtype=complex)
    for k in range(1, n):
        up[k - 1, k] = math.sqrt(s * (s + 1) - m[k] * (m[k] + 1))
    return [0.5 * (up + up.conj().T), -0.5j * (up - up.conj().T), np.diag(m).astype(complex)]


def _euler_zyz(a: float, b: float, c: float) -> np.ndarray:
    def rz(t):
        return np.array([[math.cos(t), -math.sin(t), 0.0], [math.sin(t), math.cos(t), 0.0], [0.0, 0.0, 1.0]])

    ry = np.array([[math.cos(b), 0.0, math.sin(b)], [0.0, 1.0, 0.0], [-math.sin(b), 0.0, math.cos(b)]])
    return rz(a) @ ry @ rz(c)


def _tensor(principal, euler) -> np.ndarray:
    rot = _euler_zyz(*euler)
    return sum(principal[k] * np.outer(rot[:, k], rot[:, k]) for k in range(3))


class DimerHamiltonian:
    """H(B) = h0 + B h1 of the triplet (x) doublet (x) I=7/2 dimer, in MHz.

    Basis |m_T> (x) |m_D> (x) |m_I>, m descending.  Parameters use the
    units of the ``[system]`` section of a run config.
    """

    def __init__(self, system: dict, direction: np.ndarray):
        e3, e2, e8 = np.eye(3), np.eye(2), np.eye(8)
        s1 = [np.kron(np.kron(op, e2), e8) for op in _spin(1.0)]
        s2 = [np.kron(np.kron(e3, op), e8) for op in _spin(0.5)]
        nuc = [np.kron(np.kron(e3, e2), op) for op in _spin(3.5)]
        d = system["dipolar_mhz"]
        dz, ez = system["zfs_d_mhz"], system["zfs_e_mhz"]
        alpha, beta = math.radians(system["alpha_deg"]), math.radians(system["beta_deg"])
        dip = _tensor((d, d, -2 * d), (math.pi / 2, math.pi / 2, 0.0))
        zfs = _tensor((-dz / 3 + ez, -dz / 3 - ez, 2 * dz / 3), (0.0, beta, math.pi / 2 + alpha))
        hfi = np.diag(system["a_vo_mhz"])
        g_vo = np.diag(system["g_vo"])
        h0 = np.zeros((48, 48), dtype=complex)
        for a in range(3):
            h0 -= system["exchange_invcm"] * MHZ_PER_INVCM * (s1[a] @ s2[a])
            for b in range(3):
                h0 += dip[a, b] * (s1[a] @ s2[b]) + zfs[a, b] * (s1[a] @ s1[b])
                h0 += hfi[a, b] * (nuc[a] @ s2[b])
        n = np.asarray(direction, dtype=float) / np.linalg.norm(direction)
        h1 = np.zeros((48, 48), dtype=complex)
        for a in range(3):
            h1 += system["g_fp"] * n[a] * s1[a]
            for b in range(3):
                h1 += n[a] * g_vo[a, b] * s2[b]
        self.h0 = h0
        self.h1 = MU_B_MHZ_PER_MT * h1

    def field_errors(self, fields_mt, lower, upper, nu_mhz: float) -> np.ndarray:
        """|field offset| in mT of each labelled pair from the resonance nu_mhz.

        At each field the pair's frequency mismatch is divided by its exact
        slope d(E_upper - E_lower)/dB from the Hellmann-Feynman theorem.
        """
        b = np.asarray(fields_mt, dtype=float)
        evals, evecs = np.linalg.eigh(self.h0[None] + b[:, None, None] * self.h1[None])
        rows = np.arange(len(b))
        lo, up = np.asarray(lower), np.asarray(upper)
        mismatch = evals[rows, up] - evals[rows, lo] - nu_mhz
        h1v = np.einsum("de,nek->ndk", self.h1, evecs)
        slope_u = np.einsum("nd,nd->n", evecs[rows, :, up].conj(), h1v[rows, :, up]).real
        slope_l = np.einsum("nd,nd->n", evecs[rows, :, lo].conj(), h1v[rows, :, lo]).real
        return np.abs(mismatch / (slope_u - slope_l))


def sequential_concentrations(lifetimes, irf_fwhm: float, t0: float, times) -> np.ndarray:
    """Bateman chain A -> B -> ... convolved with a Gaussian IRF; (n_t, n_comp)."""
    rates = [1.0 / tau for tau in lifetimes]
    sigma = irf_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    out = np.zeros((len(times), len(rates)))
    for row, t in enumerate(times):
        delta = t - t0
        response = []
        for k in rates:
            u = (k * sigma - delta / sigma) / math.sqrt(2.0)
            response.append(0.5 * math.exp(-k * delta + 0.5 * (k * sigma) ** 2) * math.erfc(u))
        for comp in range(len(rates)):
            feed = math.prod(rates[:comp])
            for i in range(comp + 1):
                denom = math.prod(rates[j] - rates[i] for j in range(comp + 1) if j != i)
                out[row, comp] += feed / denom * response[i]
    return out
