//! chaosd — the WAL-backed serve daemon the chaos suite really `kill -9`s
//! (in-process threads cannot be SIGKILLed selectively). All of it is
//! [`seqge_serve::daemon_main`]; it is a separate binary from `shardd` only
//! because Cargo exposes `CARGO_BIN_EXE_*` to a crate's own tests alone.

fn main() {
    seqge_serve::daemon_main("chaosd");
}
