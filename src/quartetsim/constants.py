"""Physical constants and the unit policy of the package.

Unit policy used throughout the package: energies and couplings are handled
in MHz, magnetic fields in mT, temperatures in K and distances in nm.
Conversions to SI happen only where the constants below are used.

Values are CODATA 2018.
"""

PLANCK_J_PER_HZ = 6.62607015e-34
BOLTZMANN_J_PER_K = 1.380649e-23
BOHR_MAGNETON_J_PER_T = 9.2740100783e-24
VACUUM_PERMEABILITY = 1.25663706212e-6

# 1 cm^-1 expressed in MHz (exact, from c = 299792458 m/s).
MHZ_PER_INVCM = 29979.2458

# Bohr magneton over Planck constant in MHz/mT; multiply by g and B in mT
# to get an electron Zeeman energy in MHz.
BOHR_MHZ_PER_MT = BOHR_MAGNETON_J_PER_T / PLANCK_J_PER_HZ * 1e-9

