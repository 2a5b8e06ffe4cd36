"""Kept only for the benchmark's environment fingerprint, which reads the
name of the rational type polynomial coefficients use."""

from fractions import Fraction as _mpq  # noqa: F401
