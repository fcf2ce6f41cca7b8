//! shardd — one cluster shard as a standalone process: the child backend
//! spawns one per vertex partition, the e2e tests `kill -9` them and the
//! health loop respawns them. A shard knows no shard id, count or peer — it
//! is just [`seqge_serve::daemon_main`] over its own store; it is a separate
//! binary from `chaosd` only because Cargo exposes `CARGO_BIN_EXE_*` to a
//! crate's own tests alone.

fn main() {
    seqge_serve::daemon_main("shardd");
}
