//! # slopt-bench — harnesses regenerating the paper's figures
//!
//! Each binary reruns one experiment of the paper's evaluation section and
//! prints the corresponding table (see `EXPERIMENTS.md` at the repository
//! root for paper-vs-measured records):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig8` | Fig. 8 — automatic layout vs sort-by-hotness, 128-way Superdome |
//! | `fig9` | Fig. 9 — the same layouts on the 4-way bus machine |
//! | `fig10` | Fig. 10 — best layout per struct (automatic vs constrained) |
//! | `cc_validation` | §4.2–4.3 — sampled Code Concurrency vs exact counts, 4-way vs 16-way stability |
//! | `ablation_k2` | CycleLoss constant sweep |
//! | `ablation_min_heuristic` | Minimum Heuristic vs naive group weights |
//! | `ablation_blocksize` | 64 B vs 128 B coherence blocks |
//! | `ablation_sampling` | sampling period / interval sensitivity |
//!
//! This library exposes the shared experiment scaffolding those binaries
//! use; `cargo bench` additionally runs Criterion micro-benchmarks of the
//! tool itself and a *real-hardware* false-sharing benchmark using
//! `#[repr(C)]` layouts on host threads.

pub mod args;
pub mod checkpoint;
pub mod harness;
pub mod probe;
pub mod runner;

pub use args::{help_text, ArgError, CommonArgs, EXIT_CODE_TABLE, FLAG_REFERENCE};
pub use checkpoint::{fingerprint, guard_cc_snapshot, Checkpoint, CheckpointSpec};
pub use harness::{default_figure_setup, figure_setup, parse_scale, FigureSetup};
pub use runner::{
    figure, measure_cells, require_complete, require_figure, resolve, Cell, Degraded, ExecCtx,
    FaultConfig, FigureOutcome, GridOutcome, SITE_CKPT, SITE_WORKER,
};
