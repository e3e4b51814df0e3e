//! Empty library target; the content of this crate is its `tests/`
//! (proptest suites), kept out of the root workspace so the default
//! build stays offline.
