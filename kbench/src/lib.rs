//! `kbench`: the dkcore benchmark. One command measures the live
//! serving stack end to end and layer by layer, plus the one-shot
//! distributed decomposition, and checks every answer against
//! Batagelj–Zaveršnik (BZ).
//!
//! ```text
//! cargo run --release --manifest-path kbench/Cargo.toml -- \
//!     --workload churn-point --seed 1 --seconds 55 --trace 0
//! ```
//!
//! A run has three parts, all in one process:
//!
//! 1. **Set-up** (`setup_s`, the median of [`SETUP_REPS`] repetitions):
//!    the workload's graph, its service with the program's default
//!    telemetry, the wire server, and the decomposition graph and
//!    runtime.
//! 2. **Serving** ([`serving`], [`SERVE_SHARE`] of `--seconds`): an
//!    open-loop writer applies seeded mixed churn (batches of 32) at a
//!    fixed rate through the service's `apply_batch`, while one
//!    closed-loop reader connection queries the wire server over
//!    loopback TCP. The writer runs alone on one core, the reader and
//!    the server's threads on another ([`place`]). The final epoch must
//!    equal BZ.
//! 3. **Decomposition** ([`decompose`], the rest of `--seconds`): the
//!    live `Runtime` decomposes a static web graph with 2 hosts, again
//!    and again; each result must equal BZ.
//!
//! The graphs are fixed ([`GRAPH_SEED`]); `--seed` draws the churn and
//! the read keys.
//!
//! Serving and decomposition alternate in [`CYCLES`] cycles, so each
//! part's median samples the whole run rather than one stretch of it:
//! the machine's speed drifts over tens of seconds.
//!
//! With `--trace 0` the run prints the end-to-end metrics. With
//! `--trace 1` the serving time is split between untraced phases and
//! traced ones of the same length, each untraced phase followed by a
//! traced one with spans ([`trace`]) around every call into a layer;
//! the run prints the per-layer metrics plus the tracing overhead
//! (traced phases against untraced ones). The last
//! line of standard output is the JSON result ([`report`]); a failed
//! correctness check exits with status 1 and prints no result.
//!
//! `kbench compare <lower|higher> <parent-file> <change-file> [bound]`
//! applies the pair rule of [`stats`] to two lists of per-run values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decompose;
pub mod place;
pub mod report;
pub mod serving;
pub mod stats;
pub mod trace;

use serving::{Reads, Spec};

/// Set-up repetitions per run.
pub const SETUP_REPS: usize = 5;

/// Seed of the workload graphs. They are one fixed instance each, so
/// that runs with different `--seed`s (which draw the churn and the read
/// keys) time the same graph.
pub const GRAPH_SEED: u64 = 1;

/// Share of `--seconds` spent serving; the rest decomposes. Serving
/// gets most of it because its timings move most with the machine's
/// load, and the decomposition's median needs only a few repetitions.
pub const SERVE_SHARE: f64 = 0.85;

/// Serve-then-decompose cycles per run.
pub const CYCLES: usize = 4;

/// The workloads, by name.
pub const WORKLOADS: [(&str, Spec); 2] = [
    (
        "churn-point",
        Spec {
            dataset: "gnutella-like",
            nodes: 25_000,
            shards: 1,
            rate: 8.0,
            reads: Reads::TextPoint,
        },
    ),
    (
        "sharded-bulk",
        Spec {
            dataset: "slashdot-like",
            nodes: 20_000,
            shards: 2,
            rate: 3.5,
            reads: Reads::BinaryBulk,
        },
    ),
];
