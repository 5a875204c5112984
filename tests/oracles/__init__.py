"""Scalar reference implementations that the package's array kernels are
checked against.  Test-only: nothing under ``src/`` imports them."""
