"""Kept only for the benchmark's environment fingerprint, which reads the
name of the type polynomial coefficients use."""

_mpq = int
