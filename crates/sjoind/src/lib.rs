//! `sjoind` — a concurrent spatial-join service over the simulation suite.
//!
//! The suite's joins are one-shot CLI runs; this crate turns them into a
//! long-running server that registers paged datasets once and serves
//! concurrent join requests over TCP (newline-delimited JSON, thread per
//! connection — std only, no async runtime). What is genuinely shared
//! between co-tenant requests:
//!
//! * **Memory** — every join leases its budget from one
//!   [`storage::MemoryArbiter`] before starting. Grants are all-or-nothing
//!   (a join admitted under load is configured exactly as solo, so its
//!   output is bit-identical); joins that cannot be granted queue FIFO up
//!   to a bounded depth and are shed with a typed `overloaded` response
//!   (with a `retry_after` hint) beyond it.
//! * **Partition files** — `reuse` joins of the same config+input
//!   fingerprint serve from a cached post-partition disk snapshot by
//!   resuming a durable run past its partition phase
//!   ([`cache::PartitionCache`]).
//!
//! Everything else stays per-request: each join runs on its own simulated
//! disk and clock, panics and injected crashes are contained to their
//! session, and a disconnecting client cancels only its own join. Shutdown
//! drains: in-flight joins finish streaming, new ones are refused.
//!
//! Modules: [`json`] (the workspace's one JSON module, re-exported from
//! `storage`), [`proto`] (wire protocol), [`cache`], [`server`], [`client`]
//! (reference client used by the tests and the soak driver).

pub mod cache;
pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, JoinResponse};
pub use storage::json::{self, Json};
pub use proto::JoinRequest;
pub use server::{Server, ServerConfig, ServerHandle};
