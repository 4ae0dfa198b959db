//! Concurrent core-number query service over the streaming engine — the
//! serving layer between "repairs fast" (`dkcore::stream`) and a system
//! that answers coreness queries for live traffic while the graph churns.
//!
//! # Architecture
//!
//! One **writer**, any number of **readers**:
//!
//! * [`CoreService`] owns the mutable [`StreamCore`](dkcore::stream::StreamCore)
//!   and is the single writer: every
//!   [`apply_batch`](CoreService::apply_batch) validates and applies an
//!   [`EdgeBatch`](dkcore::stream::EdgeBatch), repairs the decomposition,
//!   and *publishes* a fresh immutable [`CoreSnapshot`] as the next
//!   **epoch**.
//! * [`ServiceHandle`] is the cloneable reader handle: `snapshot()`
//!   returns an `Arc<CoreSnapshot>` of the latest published epoch.
//!   Publication is double-buffered — the writer builds the new snapshot
//!   off to the side, installs it into the *inactive* buffer, and flips
//!   an atomic index. A reader's critical section is a single `Arc`
//!   clone of the *active* buffer, so readers never wait on a repair in
//!   progress and the writer never waits for readers to finish a query:
//!   queries of arbitrary duration run against the pinned `Arc` entirely
//!   outside any lock.
//! * [`CoreSnapshot`] answers every query against one consistent epoch:
//!   point coreness, k-core membership, k-core subgraph extraction,
//!   shell-size histograms, and top-k max-coreness. A snapshot is
//!   immutable; holding one pins that epoch's entire state regardless of
//!   how far the writer has advanced. Snapshots live on **chunked
//!   copy-on-write storage**: publishing an epoch rebuilds only the
//!   chunks the batch touched and `Arc`-shares everything else with the
//!   predecessor, so publish cost is `O(|touched| + N/C)` instead of the
//!   former `O(N + M)` rebuild (invariants in the [`snapshot`-module
//!   docs](CoreSnapshot); ratio gated by `bench_pr5`).
//!
//! Consistency guarantee (checked end-to-end by `tests/serve_oracle.rs`):
//! every snapshot a reader can observe is the *exact* decomposition of
//! that epoch's graph — equal to a fresh Batagelj–Zaveršnik pass — never
//! a torn or partially-repaired state, because snapshots are built only
//! at batch boundaries where [`StreamCore`](dkcore::stream::StreamCore)
//! estimates are exact.
//!
//! # Scale-out: the sharded multi-writer service
//!
//! [`ShardedCoreService`] partitions the graph over `S` shard writers
//! (the one-to-many deployment's `Assignment` policies) and repairs
//! batches through **border-estimate exchange**: each shard re-converges
//! its own nodes from owned estimates plus a cache of its remote
//! neighbors' last announcements, rounds run shard-parallel until
//! quiescence, and the resulting [`StitchedSnapshot`] — a consistent
//! vector of per-shard epochs — is published in one atomic flip.
//! [`ShardedHandle`] answers the same query families by stitching across
//! shards; `tests/sharded_oracle.rs` pins every observable stitched
//! epoch to fresh Batagelj–Zaveršnik on the union graph at shard counts
//! {1, 2, 4}. See the [`sharded`] module docs for the protocol.
//!
//! A minimal std-only TCP front end ([`wire`]) exposes the same queries
//! as a line protocol plus a binary pipelined mode (`dkcore serve
//! [--shards S]` / `dkcore query` in the CLI), generic over either
//! backend through [`SnapshotSource`] / [`CoreQuery`] / [`CoreScan`];
//! the in-process handles are what benches and embedding applications
//! use directly. Bulk queries (`members`, `top_k`, subgraphs) answer in
//! **O(answer)** off incrementally-maintained per-shell membership
//! indexes — maintained through the same per-batch coreness delta that
//! drives incremental publishing, gated by `bench_pr7`.
//!
//! # Fault tolerance
//!
//! The sharded service is built to keep answering — exactly — through
//! writer failures. Each partition can run standby [`sharded::Replica`
//! writers](sharded#failure-model) (configured via [`ShardedConfig`]):
//! when a primary dies (panic, injected kill, or missed heartbeats) the
//! in-flight batch rolls back to the published epoch, a replica replays
//! the validated batch log up to the published per-shard epoch vector,
//! and the batch is re-attempted. The border-estimate exchange runs
//! over a fault-injectable transport ([`FaultPlan`]: seeded
//! deterministic drop / duplicate / delay / kill / stall schedules)
//! with retransmission and exponential backoff. When a partition has no
//! writer left the service **degrades instead of blocking**: batches
//! are validated and deferred, readers keep the last consistent
//! stitched epoch, and the condition is observable through
//! [`HealthReport`] (handles' `health()`, the wire `HEALTH` verb).
//! `tests/chaos_oracle.rs` asserts that under every seeded fault plan
//! all observable epochs still equal fresh Batagelj–Zaveršnik on the
//! union graph. The full failure model — and why seed messages must be
//! reliable while round messages may be lossy — is documented in the
//! [`sharded`] and [`fault`] module docs.
//!
//! # Observability
//!
//! Every layer of the stack records into one shared
//! [`Telemetry`](dkcore_metrics::Telemetry) bundle — a lock-free
//! metrics [`Registry`](dkcore_metrics::Registry) plus a bounded
//! [`FlightRecorder`](dkcore_metrics::FlightRecorder) event ring —
//! threaded writer-side at construction
//! ([`CoreService::with_telemetry`], [`ShardedConfig`]`::telemetry`)
//! and readable from either handle via `telemetry()`:
//!
//! * **Publish path** — `serve.publish.*` batch counters, epoch gauge,
//!   and publish/repair latency histograms, with the repair further
//!   split into removal / region-descent / insertion / export phase
//!   histograms (`serve.repair.*`) from the engine's opt-in
//!   `PhaseTimes`.
//! * **Exchange and failover** — `serve.exchange.*` round / message /
//!   resend counters and per-round latency, `serve.pool.*` worker-pool
//!   dispatch and park/busy time, `serve.failover.count`, and
//!   `serve.deferred.batches`. [`ExchangeHealth`] is a *view over the
//!   registry*, so `HEALTH` and `METRICS` can never disagree.
//! * **Wire front end** — per-verb request counters and latency
//!   histograms (`serve.wire.requests{verb=…}`,
//!   `serve.wire.latency_us{verb=…}`) plus response-cache
//!   hit / miss / eviction counters (`serve.wire.cache.*`).
//! * **Events** — structured records (batch-applied, epoch-published,
//!   exchange-round, retransmit, failover, promotion, degraded,
//!   revive, cache-evicted, deferred) with gapless monotonic sequence
//!   numbers, drainable without stopping writers and replayable by
//!   cursor.
//!
//! Both are exported over the wire in text and binary modes: `METRICS`
//! renders the registry in Prometheus exposition format, and `EVENTS
//! [SINCE s] [LIMIT n]` pages the flight recorder (`dkcore query
//! metrics` / `dkcore query events` in the CLI). Instrumentation is
//! branch-gated on a disabled bundle and `bench_pr9` holds the enabled
//! cost to ≤2% of the uninstrumented writer with bit-identical
//! results; grammar and ordering are pinned by the wire-module tests
//! and the sharded flight-recorder failover-chain test.
//!
//! # Example
//!
//! ```
//! use dkcore_serve::CoreService;
//! use dkcore::stream::EdgeBatch;
//! use dkcore_graph::{generators::path, NodeId};
//!
//! let mut svc = CoreService::new(&path(6));
//! let handle = svc.handle();
//! let before = handle.snapshot(); // pin epoch 0
//!
//! let mut batch = EdgeBatch::new();
//! batch.insert(NodeId(0), NodeId(5)); // close the cycle
//! svc.apply_batch(&batch).unwrap();
//!
//! let after = handle.snapshot();
//! assert_eq!(before.epoch(), 0);
//! assert_eq!(after.epoch(), 1);
//! assert_eq!(before.coreness(NodeId(0)), Some(1)); // pinned epoch is immutable
//! assert_eq!(after.coreness(NodeId(0)), Some(2));
//! assert_eq!(after.kcore_members(2).len(), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
mod health;
mod index;
pub mod machine;
mod service;
pub mod sharded;
mod snapshot;
mod view;
pub mod wire;

pub use fault::{FaultPlan, KillSpec, StallSpec};
pub use health::{ExchangeHealth, HealthReport, ShardHealth};
pub use machine::{PublishAction, PublishModel, PublishScenario, PublishState};
pub use service::{CoreService, PublishReport, ServiceHandle};
pub use sharded::{
    ShardedConfig, ShardedCoreService, ShardedHandle, ShardedPublishReport, StitchedSnapshot,
};
pub use snapshot::CoreSnapshot;
#[doc(hidden)]
pub use view::{kcore_members_scan, kcore_subgraph_scan, top_k_scan};
pub use view::{CoreQuery, CoreScan, SnapshotSource};
pub use wire::{
    serve, BinRequest, BinResponse, BinaryWireClient, CacheStats, RetryPolicy, WireClient,
    WireServer,
};
