//! `perfbench`: the canonical benchmark of the serving stack.
//!
//! Three workloads (`ingest`, `mixed`, `replicated`) drive in-process
//! `ivl_serve` servers and a `ReplicaGroup` over real TCP through the
//! public client APIs, check every answer against a client-side truth
//! ledger, and report end-to-end metrics. A traced run adds spans
//! around each call into a layer, replays the run's own frames through
//! each layer's public functions, reads the `/proc` thread counters,
//! and attributes the end-to-end time to the layers `client`,
//! `protocol`, `server`, `objects`, `concurrent`, `replica` and
//! `merge`. See `README.md` beside this crate for the metric list.

#![forbid(unsafe_code)]

pub mod gen;
pub mod ledger;
pub mod pin;
pub mod probe;
pub mod procfs;
pub mod replay;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
