//! # slopt-sim — execution-driven multiprocessor cache simulator
//!
//! The evaluation substrate for the CGO 2007 structure-layout paper: where
//! the authors ran the HP-UX kernel on 4-way and 128-way HP machines, this
//! crate simulates those machines so layout effects (spatial locality and
//! false sharing) are observable and attributable.
//!
//! * [`topology`] — hierarchical machine descriptions ([`Topology::bus`],
//!   [`Topology::superdome`]) and distance-priced [`LatencyModel`]s.
//! * [`cache`] — per-CPU set-associative caches with MESI line states.
//! * [`coherence`] — the directory protocol ([`MemSystem`]), including
//!   per-access miss classification (cold / capacity / true sharing /
//!   **false sharing**) via byte-overlap tracking.
//! * [`alloc`] — cache-line-aligned arenas (the paper's kernel arena
//!   allocator behaviour) and per-record [`LayoutTable`]s.
//! * [`engine`] — interprets `slopt-ir` programs on all CPUs concurrently;
//!   field accesses are priced by the memory system, so workload
//!   throughput responds to structure layout exactly as in the paper's
//!   SDET runs.
//! * [`sched`] — the engine's scheduler, a tournament tree picking the CPU
//!   with the smallest `(clock, cpu)`.
//! * [`stats`] — counters, including per-record false-sharing attribution.
//!
//! ## Example: false sharing visible end to end
//!
//! ```
//! use slopt_sim::cache::CacheConfig;
//! use slopt_sim::coherence::MemSystem;
//! use slopt_sim::stats::AccessClass;
//! use slopt_sim::topology::{CpuId, LatencyModel, Topology};
//!
//! let mut mem = MemSystem::new(
//!     Topology::superdome(2),
//!     LatencyModel::superdome(),
//!     CacheConfig { line_size: 128, sets: 64, ways: 4 },
//! );
//! // CPU 0 reads bytes 0..8; CPU 1 writes bytes 64..72 of the same line.
//! mem.access(CpuId(0), 0, 8, false, None, 0);
//! mem.access(CpuId(1), 64, 8, true, None, 0);
//! // CPU 0's re-read misses although nobody touched its bytes:
//! mem.access(CpuId(0), 0, 8, false, None, 0);
//! assert_eq!(mem.stats().class(AccessClass::FalseSharingMiss).count, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod cache;
pub mod coherence;
pub mod engine;
pub mod obs;
pub mod sched;
pub mod stats;
pub mod topology;

pub use alloc::{Arena, LayoutTable};
pub use cache::{Cache, CacheConfig, Mesi};
pub use coherence::{MemSystem, Protocol, SharingMissEvent};
pub use engine::{run, EngineConfig, NullObserver, Observer, RunResult, StepsExhausted, WorkQueue};
pub use obs::{publish_mem_stats, publish_run_result};
pub use sched::Scheduler;
pub use stats::{AccessClass, ClassCounts, MemStats};
pub use topology::{CpuId, CpuLoc, Distance, LatencyModel, Topology, MAX_CPUS};
