"""Reference implementations that the package's kernels are checked
against: the scalar seed passes, schedulers and FT synthesizer, and the
bit-packed Clifford engine the TK tableau replaced.  Test-only: nothing
under ``src/`` imports them."""
