"""Multimode Raman-memory emission simulator and analysis toolkit.

The pipeline: build a transverse mode grid for a warm-vapor memory, render
thermal Stokes / anti-Stokes camera frames shot by shot, map intensity
correlations to find twin spots, steer the readout beam so any twin lands on
a chosen virtual fiber, and model heralded single-photon generation across
the mode ensemble.

The API is the modules (`geometry`, `scattering`, `analysis`, `control`,
`config`, `stackio`, `cli`); the package itself exports only `__version__`.
"""

__version__ = "0.7.6"
