//! No code of its own: this package exists for its `tests/` (the proptest
//! suites over every workspace crate) and `benches/` (the criterion
//! benches behind the paper's figures). See `Cargo.toml` for why they
//! live outside the root workspace.
