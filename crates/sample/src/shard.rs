//! Streaming sharded sample ingestion (`slopt-shard/1`).
//!
//! The batch pipeline materializes the whole sample trace in memory
//! before [`crate::concurrency_map`] buckets it — fine for the paper's
//! benchmarks, a non-starter for production-scale profiles (ROADMAP
//! "heavy traffic from millions of users"). This module bounds peak RSS
//! by spooling samples to fixed-size binary **shards** on disk and
//! folding them into the Code Concurrency estimate one shard at a time:
//!
//! * [`ShardSpool`] — an [`Observer`] that drains its [`Sampler`] to
//!   `shard-NNNNN.slshard` files every `shard_size` samples, so the
//!   in-memory buffer never exceeds one shard.
//! * [`ShardReader`] — scans a shard directory and yields each shard's
//!   samples, reporting malformed files as typed [`ShardError`]s instead
//!   of panicking.
//! * [`WindowedConcurrency`] — the one Code Concurrency cell store. It
//!   folds sample batches into one **sorted run** of packed
//!   `(interval, cpu, line) -> count` cells: batches append packed keys
//!   to a pending buffer, which is periodically sorted, run-length-encoded
//!   and linearly merge-added into the run (an LSM-style compaction — no
//!   hashing on the ingest path, and memory proportional to *distinct*
//!   cells, not trace length). A **sliding window** of intervals evicts
//!   the run's expired prefix exactly (the decaying live state of the
//!   `slopt-serve` daemon, DESIGN.md §17); a window of `u64::MAX`
//!   intervals never evicts (the batch and directory folds).
//!   `concurrency` hands the sorted cells to the shared final fold
//!   (`cells_finish`), which fans per-interval kernels over workers and
//!   merges their triangular accumulators **pairwise** via `par_map` —
//!   the same map for every batching, shard size and `--jobs` (see
//!   DESIGN.md §11 and §13).
//! * [`shard_concurrency`] — the end-to-end fold over a directory:
//!   malformed, truncated or missing shards are *skipped*, counted in
//!   [`ShardIngestStats`] and as `warn.shard.*` counters, never a panic.
//!
//! ## On-disk format (`slopt-shard/1`)
//!
//! Little-endian throughout. A 32-byte header:
//!
//! ```text
//! magic    8 B   "SLSHARD1"
//! version  u32   1
//! count    u32   number of records
//! min_time u64   smallest record time
//! max_time u64   largest record time
//! ```
//!
//! followed by exactly `count` 24-byte records:
//!
//! ```text
//! time  u64 · cpu  u16 · pad  u16 (zero) · func u32 · block u32 · line u32
//! ```
//!
//! Records are non-decreasing in `time` and within
//! `[min_time, max_time]`; readers verify both plus the exact file
//! length, so truncation and corruption are detected structurally.

use crate::concurrency::{
    cells_finish, pack_cell_key, unpack_cell_key, ConcurrencyConfig, ConcurrencyMap,
};
use crate::sampler::{Sample, Sampler, SamplerConfig};
use slopt_ir::cfg::{BlockId, FuncId};
use slopt_ir::par::par_map;
use slopt_ir::source::SourceLine;
use slopt_obs::Obs;
use slopt_sim::{CpuId, Observer};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Shard format magic bytes.
pub const SHARD_MAGIC: [u8; 8] = *b"SLSHARD1";
/// Current shard format version.
pub const SHARD_VERSION: u32 = 1;
/// Header size in bytes.
const HEADER_LEN: usize = 32;
/// Record size in bytes.
const RECORD_LEN: usize = 24;
/// Shard file extension.
pub const SHARD_EXT: &str = "slshard";
/// Below this many total shard bytes, [`shard_concurrency`] ingests
/// serially: record decoding is cheaper than worker fan-out plus sorted
/// run merges at that size (the quick `cc_stream` bench, ~1 MB of
/// shards, paid a 2× wall-clock penalty at `jobs = 4`). The clamp never
/// changes outputs — ingestion is chunking-independent.
pub const PARALLEL_INGEST_MIN_BYTES: u64 = 4 << 20;

/// Why a shard could not be ingested. Every variant is a *skip*, never a
/// panic: the fold continues with the remaining shards.
#[derive(Debug)]
pub enum ShardError {
    /// The file could not be read at all.
    Io(io::Error),
    /// The first 8 bytes are not [`SHARD_MAGIC`].
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// File length disagrees with the header's record count (truncated
    /// mid-write, or trailing garbage).
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// Record times decrease at this record index.
    OutOfOrder(usize),
    /// A record time falls outside the header's `[min_time, max_time]`.
    TimeBounds(usize),
}

impl ShardError {
    /// A stable short key for skip-reason counters
    /// (`warn.shard.skipped.<key>`).
    pub fn reason_key(&self) -> &'static str {
        match self {
            ShardError::Io(_) => "io",
            ShardError::BadMagic => "bad_magic",
            ShardError::BadVersion(_) => "bad_version",
            ShardError::Truncated { .. } => "truncated",
            ShardError::OutOfOrder(_) => "out_of_order",
            ShardError::TimeBounds(_) => "time_bounds",
        }
    }
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "io error: {e}"),
            ShardError::BadMagic => write!(f, "bad magic (not a slopt-shard/1 file)"),
            ShardError::BadVersion(v) => write!(f, "unsupported shard version {v}"),
            ShardError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated: header promises {expected} bytes, file has {actual}"
                )
            }
            ShardError::OutOfOrder(i) => write!(f, "record {i}: time decreases"),
            ShardError::TimeBounds(i) => {
                write!(f, "record {i}: time outside header min/max bounds")
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl From<io::Error> for ShardError {
    fn from(e: io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// The canonical file name of shard `index`.
pub fn shard_file_name(index: usize) -> String {
    format!("shard-{index:05}.{SHARD_EXT}")
}

/// Serializes `samples` (non-decreasing in time) to an in-memory
/// `slopt-shard/1` image — the payload the network ingestion path ships
/// inside protocol frames. An empty slice encodes a valid zero-record
/// shard.
///
/// Returns `InvalidInput` if the samples are not sorted by time — the
/// format's bounds check depends on it, and every writer in this crate
/// sorts before calling.
pub fn encode_shard(samples: &[Sample]) -> io::Result<Vec<u8>> {
    if samples.windows(2).any(|w| w[1].time < w[0].time) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "shard samples must be sorted by time",
        ));
    }
    let (min_time, max_time) = match (samples.first(), samples.last()) {
        (Some(a), Some(b)) => (a.time, b.time),
        _ => (0, 0),
    };
    let mut buf = Vec::with_capacity(HEADER_LEN + RECORD_LEN * samples.len());
    buf.extend_from_slice(&SHARD_MAGIC);
    buf.extend_from_slice(&SHARD_VERSION.to_le_bytes());
    buf.extend_from_slice(&(samples.len() as u32).to_le_bytes());
    buf.extend_from_slice(&min_time.to_le_bytes());
    buf.extend_from_slice(&max_time.to_le_bytes());
    for s in samples {
        buf.extend_from_slice(&s.time.to_le_bytes());
        buf.extend_from_slice(&s.cpu.0.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&s.func.0.to_le_bytes());
        buf.extend_from_slice(&s.block.0.to_le_bytes());
        buf.extend_from_slice(&s.line.0.to_le_bytes());
    }
    Ok(buf)
}

/// Serializes `samples` (non-decreasing in time) to `path` in
/// `slopt-shard/1` format via [`encode_shard`].
pub fn write_shard(path: &Path, samples: &[Sample]) -> io::Result<()> {
    let buf = encode_shard(samples)?;
    let mut f = fs::File::create(path)?;
    f.write_all(&buf)?;
    f.flush()
}

/// Splits `samples` into shards of at most `shard_size` records under
/// `dir` (created if missing), named `shard-00000.slshard` onward. The
/// input is sorted by time first (stably), so each shard satisfies the
/// format's ordering invariant; re-sorting never changes the Code
/// Concurrency result, which depends only on per-cell counts.
///
/// # Panics
///
/// Panics if `shard_size` is zero.
pub fn write_shards(dir: &Path, samples: &[Sample], shard_size: usize) -> io::Result<Vec<PathBuf>> {
    assert!(shard_size > 0, "shard size must be non-zero");
    fs::create_dir_all(dir)?;
    let mut sorted: Vec<Sample> = samples.to_vec();
    sorted.sort_by_key(|s| s.time);
    let mut paths = Vec::new();
    for (i, chunk) in sorted.chunks(shard_size).enumerate() {
        let path = dir.join(shard_file_name(i));
        write_shard(&path, chunk)?;
        paths.push(path);
    }
    Ok(paths)
}

/// Deserializes one `slopt-shard/1` image (a file's contents or a
/// network frame payload), verifying magic, version, exact length, time
/// ordering and time bounds. Every failure is a typed [`ShardError`] —
/// torn or corrupted batches are detected structurally, never a panic.
pub fn decode_shard(bytes: &[u8]) -> Result<Vec<Sample>, ShardError> {
    if bytes.len() < HEADER_LEN {
        return Err(if bytes.get(..8).is_some_and(|m| m != SHARD_MAGIC) {
            ShardError::BadMagic
        } else {
            ShardError::Truncated {
                expected: HEADER_LEN,
                actual: bytes.len(),
            }
        });
    }
    if bytes[..8] != SHARD_MAGIC {
        return Err(ShardError::BadMagic);
    }
    let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    let version = u32_at(8);
    if version != SHARD_VERSION {
        return Err(ShardError::BadVersion(version));
    }
    let count = u32_at(12) as usize;
    let (min_time, max_time) = (u64_at(16), u64_at(24));
    let expected = HEADER_LEN + RECORD_LEN * count;
    if bytes.len() != expected {
        return Err(ShardError::Truncated {
            expected,
            actual: bytes.len(),
        });
    }
    let mut samples = Vec::with_capacity(count);
    let mut prev_time = 0u64;
    for i in 0..count {
        let off = HEADER_LEN + RECORD_LEN * i;
        let time = u64_at(off);
        if i > 0 && time < prev_time {
            return Err(ShardError::OutOfOrder(i));
        }
        if count > 0 && !(min_time..=max_time).contains(&time) {
            return Err(ShardError::TimeBounds(i));
        }
        prev_time = time;
        let cpu = u16::from_le_bytes(bytes[off + 8..off + 10].try_into().unwrap());
        samples.push(Sample {
            cpu: CpuId(cpu),
            time,
            func: FuncId(u32_at(off + 12)),
            block: BlockId(u32_at(off + 16)),
            line: SourceLine(u32_at(off + 20)),
        });
    }
    Ok(samples)
}

/// Reads and deserializes one shard file via [`decode_shard`].
pub fn read_shard(path: &Path) -> Result<Vec<Sample>, ShardError> {
    let bytes = fs::read(path)?;
    decode_shard(&bytes)
}

/// Iterates the shards of a directory in index order, yielding each
/// shard's path and parse result. Files not matching
/// `shard-NNNNN.slshard` are ignored; gaps in the numbering are counted
/// as [`missing`](ShardReader::missing) (a shard that was never written,
/// e.g. a crashed producer).
#[derive(Debug)]
pub struct ShardReader {
    found: Vec<(usize, PathBuf)>,
    pos: usize,
    missing: u64,
}

impl ShardReader {
    /// Scans `dir` for shard files. Fails only if the directory itself
    /// cannot be listed.
    pub fn open(dir: &Path) -> io::Result<Self> {
        let mut found: Vec<(usize, PathBuf)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(idx) = name
                .strip_prefix("shard-")
                .and_then(|rest| rest.strip_suffix(&format!(".{SHARD_EXT}")))
                .and_then(|digits| digits.parse::<usize>().ok())
            else {
                continue;
            };
            found.push((idx, entry.path()));
        }
        found.sort();
        found.dedup_by_key(|(idx, _)| *idx);
        let missing = match found.last() {
            Some(&(last, _)) => (last + 1 - found.len()) as u64,
            None => 0,
        };
        Ok(ShardReader {
            found,
            pos: 0,
            missing,
        })
    }

    /// Number of shard files present.
    pub fn shard_count(&self) -> usize {
        self.found.len()
    }

    /// Number of index gaps below the highest shard index — shards that
    /// a producer numbered past but never wrote.
    pub fn missing(&self) -> u64 {
        self.missing
    }

    /// The shard paths in index order, without consuming the iterator.
    /// The parallel directory fold ([`shard_concurrency`]) chunks
    /// this list over workers instead of iterating serially.
    pub fn paths(&self) -> Vec<PathBuf> {
        self.found.iter().map(|(_, p)| p.clone()).collect()
    }
}

impl Iterator for ShardReader {
    type Item = (PathBuf, Result<Vec<Sample>, ShardError>);

    fn next(&mut self) -> Option<Self::Item> {
        let (_, path) = self.found.get(self.pos)?.clone();
        self.pos += 1;
        let result = read_shard(&path);
        Some((path, result))
    }
}

/// Ingestion outcome of one directory fold: how many shards contributed,
/// how many were skipped and why.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardIngestStats {
    /// Shards parsed and folded.
    pub shards_ok: u64,
    /// Shards skipped as malformed (see `skipped_by_reason`).
    pub shards_skipped: u64,
    /// Numbering gaps — shards that were never written.
    pub shards_missing: u64,
    /// Total samples folded from ok shards.
    pub samples: u64,
    /// Skip counts keyed by [`ShardError::reason_key`].
    pub skipped_by_reason: BTreeMap<&'static str, u64>,
}

impl ShardIngestStats {
    /// The one-line ingestion summary printed by CLI/bench consumers,
    /// e.g. `shards: 7 ok, 2 skipped (bad_magic:1 truncated:1), 1 missing,
    /// 35000 samples`.
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "shards: {} ok, {} skipped",
            self.shards_ok, self.shards_skipped
        );
        if !self.skipped_by_reason.is_empty() {
            let reasons: Vec<String> = self
                .skipped_by_reason
                .iter()
                .map(|(k, v)| format!("{k}:{v}"))
                .collect();
            line.push_str(&format!(" ({})", reasons.join(" ")));
        }
        line.push_str(&format!(
            ", {} missing, {} samples",
            self.shards_missing, self.samples
        ));
        line
    }
}

/// Once the pending key buffer reaches this many entries (and at least
/// the sorted run's current length), it is compacted into the sorted
/// run. The floor keeps tiny batches from compacting constantly; the
/// `sorted.len()` coupling makes total compaction cost amortized
/// `O(n log n)` in ingested samples.
const PENDING_COMPACT_MIN: usize = 64 * 1024;

/// The LSM-style cell store behind [`WindowedConcurrency`]: raw packed
/// cell keys append to a pending buffer, which compaction sorts,
/// run-length-encodes and linearly merge-adds into one sorted run of
/// distinct cells with exact `u64` counts — no hashing on the ingest
/// path, and memory proportional to *distinct* cells, not trace length.
#[derive(Clone, Debug)]
struct SortedRun {
    /// Sorted distinct packed cells (`pack_cell_key` order =
    /// `(interval, cpu, line)` order) with exact sample counts. A deque,
    /// so eviction pops expired cells off the front in place.
    sorted: VecDeque<(u128, u64)>,
    /// Raw packed keys not yet folded into `sorted`.
    pending: Vec<u128>,
    /// The smallest key in `pending` (`u128::MAX` when it is empty).
    pending_min: u128,
}

impl SortedRun {
    fn new() -> Self {
        SortedRun {
            sorted: VecDeque::new(),
            pending: Vec::new(),
            pending_min: u128::MAX,
        }
    }

    fn push(&mut self, key: u128) {
        self.pending.push(key);
        self.pending_min = self.pending_min.min(key);
    }

    /// Compacts once the pending buffer reaches [`PENDING_COMPACT_MIN`]
    /// and the sorted run's length.
    fn maybe_compact(&mut self) {
        if self.pending.len() >= PENDING_COMPACT_MIN.max(self.sorted.len()) {
            self.compact();
        }
    }

    /// Folds every pending key into the sorted run.
    fn compact(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_unstable();
        let mut run: Vec<(u128, u64)> = Vec::new();
        for &key in &self.pending {
            match run.last_mut() {
                Some(last) if last.0 == key => last.1 += 1,
                _ => run.push((key, 1)),
            }
        }
        self.pending.clear();
        self.pending_min = u128::MAX;
        self.merge_run(run);
    }

    /// Merge-adds a sorted distinct run. A run that sorts wholly after
    /// the stored cells — a stream arriving in time order — appends.
    fn merge_run(&mut self, run: Vec<(u128, u64)>) {
        match (self.sorted.back(), run.first()) {
            (None, _) => self.sorted = run.into(),
            (Some(last), Some(first)) if last.0 >= first.0 => {
                self.sorted = merge_sorted_runs(self.sorted.make_contiguous(), &run).into();
            }
            _ => self.sorted.extend(run),
        }
    }

    /// The compacted cells as one sorted slice.
    fn cells(&mut self) -> &[(u128, u64)] {
        self.compact();
        self.sorted.make_contiguous()
    }

    /// Merge-adds `other` into `self`.
    fn merge(&mut self, mut other: SortedRun) {
        self.compact();
        other.compact();
        self.merge_run(other.sorted.into());
    }

    /// Removes every cell whose key sorts below `cut` and returns their
    /// sample count. Pending keys are compacted first only if one of
    /// them is below `cut`: in a time-ordered stream that happens once
    /// per window's worth of intervals, so sliding costs one pop per
    /// expired cell plus each key's one sort.
    fn evict_below(&mut self, cut: u128) -> u64 {
        if self.pending_min < cut {
            self.compact();
        }
        let mut evicted = 0;
        while let Some(&(key, count)) = self.sorted.front() {
            if key >= cut {
                break;
            }
            evicted += count;
            self.sorted.pop_front();
        }
        evicted
    }
}

/// Linear merge-add of two key-sorted distinct runs: counts of equal
/// keys sum exactly, so the result is independent of which side a
/// sample landed on.
fn merge_sorted_runs(a: &[(u128, u64)], b: &[(u128, u64)]) -> Vec<(u128, u64)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The Code Concurrency fold: sample batches fold into one **sorted
/// run** of packed `(interval, cpu, line) -> count` cells over a
/// **sliding window** of the `window` most recent intervals, and
/// [`concurrency`](WindowedConcurrency::concurrency) hands the retained
/// cells to the shared final fold. It is the only cell store: the batch
/// [`crate::concurrency_map`], the parallel directory fold
/// ([`shard_concurrency`]) and the `slopt-serve` daemon's decaying state
/// all run through it.
///
/// Ingestion appends packed `u128` keys to a pending buffer; when the
/// buffer grows past the sorted run's length it is sorted,
/// run-length-encoded and linearly merge-added into the run — an
/// LSM-style compaction with no hashing and sequential memory traffic.
/// Cell counts are exact `u64` sums, so the run is independent of how
/// the trace was partitioned into batches, and two folds over parts of
/// a trace can be [`merge`](WindowedConcurrency::merge)d.
///
/// **The window.** The retained range is `[newest - window + 1,
/// newest]`, where `newest` is the highest interval index accepted so
/// far. Keys order by interval first, so the retained cells are always a
/// suffix of the run: when a sample advances `newest`, the prefix below
/// the new start is **evicted exactly** — precisely the expired samples'
/// cells, never an approximation. Samples older than the window at
/// arrival are counted as [`late_dropped`] and never folded. A window of
/// `u64::MAX` intervals is unbounded: nothing is evicted or dropped.
/// Nothing is allocated in proportion to the window.
///
/// Determinism: the retained cells are a pure function of the sample
/// multiset and the final `newest` interval — a sample inside the final
/// window was inside the window at its arrival too, so it was accepted
/// whatever the ingest order. In particular, when an ingest sequence
/// spans at most `window` intervals, *every* interleaving of its batches
/// accepts every sample and converges to the same state — the basis of
/// the serve daemon's differential contract against an offline fold.
///
/// Peak memory is `O(distinct (interval, cpu, line) cells)` in the
/// window — for the paper's parameters (~12 samples per CPU per interval
/// over a few hundred lines) orders of magnitude below the trace length
/// — plus the bounded pending buffer.
///
/// [`late_dropped`]: WindowedConcurrency::late_dropped
///
/// # Example
///
/// ```
/// use slopt_ir::cfg::{BlockId, FuncId};
/// use slopt_ir::source::SourceLine;
/// use slopt_obs::Obs;
/// use slopt_sample::{ConcurrencyConfig, Sample, WindowedConcurrency};
/// use slopt_sim::CpuId;
///
/// let mk = |cpu: u16, time: u64, line: u32| Sample {
///     cpu: CpuId(cpu),
///     time,
///     func: FuncId(0),
///     block: BlockId(0),
///     line: SourceLine(line),
/// };
/// let cfg = ConcurrencyConfig { interval: 100 };
/// // Two intervals retained, 100 cycles each.
/// let mut win = WindowedConcurrency::new(cfg, 2);
/// win.ingest(&[mk(0, 10, 1), mk(1, 20, 2)]); // interval 0
/// assert_eq!(win.concurrency(1, &Obs::disabled()).get(SourceLine(1), SourceLine(2)), 1);
/// win.ingest(&[mk(0, 250, 3)]); // interval 2 — interval 0 expires
/// assert_eq!(win.concurrency(1, &Obs::disabled()).get(SourceLine(1), SourceLine(2)), 0);
/// assert_eq!(win.evicted_samples(), 2);
///
/// // The unbounded window keeps everything.
/// let mut all = WindowedConcurrency::new(cfg, u64::MAX);
/// all.ingest(&[mk(0, 10, 1), mk(1, 20, 2), mk(0, 250, 3)]);
/// assert_eq!(all.concurrency(1, &Obs::disabled()).get(SourceLine(1), SourceLine(2)), 1);
/// ```
#[derive(Clone, Debug)]
pub struct WindowedConcurrency {
    cfg: ConcurrencyConfig,
    window: u64,
    run: SortedRun,
    /// Highest interval index accepted so far.
    newest: Option<u64>,
    accepted: u64,
    evicted: u64,
    late_dropped: u64,
}

impl WindowedConcurrency {
    /// An empty fold retaining the `window` most recent intervals of
    /// `cfg.interval` cycles each; `u64::MAX` retains every interval.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.interval` or `window` is zero.
    pub fn new(cfg: ConcurrencyConfig, window: u64) -> Self {
        assert!(cfg.interval > 0, "interval must be non-zero");
        assert!(window > 0, "window must retain at least one interval");
        WindowedConcurrency {
            cfg,
            window,
            run: SortedRun::new(),
            newest: None,
            accepted: 0,
            evicted: 0,
            late_dropped: 0,
        }
    }

    /// The interval configuration the fold buckets by.
    pub fn config(&self) -> ConcurrencyConfig {
        self.cfg
    }

    /// Window length in intervals.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The oldest interval retained while `newest` is the newest.
    fn start(&self, newest: u64) -> u64 {
        if self.window == u64::MAX {
            0
        } else {
            newest.saturating_sub(self.window - 1)
        }
    }

    /// The retained interval range `[start, newest]`, or `None` before
    /// the first accepted sample.
    pub fn window_range(&self) -> Option<(u64, u64)> {
        self.newest.map(|n| (self.start(n), n))
    }

    /// Samples accepted (folded) so far, including since-evicted ones.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Samples removed by exact whole-interval eviction.
    pub fn evicted_samples(&self) -> u64 {
        self.evicted
    }

    /// Samples rejected on arrival because their interval had already
    /// slid out of the window.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Samples currently contributing to the window.
    pub fn retained_samples(&self) -> u64 {
        self.accepted - self.evicted
    }

    /// Folds a batch (any order, any batching — cell increments commute
    /// within the retained range). Returns how many of the batch's
    /// samples were late-dropped.
    pub fn ingest(&mut self, samples: &[Sample]) -> u64 {
        let before = self.late_dropped;
        self.run.pending.reserve(samples.len());
        for s in samples {
            let idx = s.time / self.cfg.interval;
            match self.newest {
                Some(newest) if idx <= newest => {
                    if idx < self.start(newest) {
                        self.late_dropped += 1;
                        continue;
                    }
                }
                _ => self.slide_to(idx),
            }
            self.run.push(pack_cell_key(idx, s.cpu.0, s.line.0));
            self.accepted += 1;
        }
        self.run.maybe_compact();
        self.late_dropped - before
    }

    /// Makes `idx` the newest interval and evicts the cells that fall
    /// below the new start.
    fn slide_to(&mut self, idx: u64) {
        self.newest = Some(idx);
        let cut = pack_cell_key(self.start(idx), 0, 0);
        self.evicted += self.run.evict_below(cut);
    }

    /// Folds `other` (same interval and window) into `self`: one linear
    /// merge-add of the two sorted runs, then a slide to the newer of the
    /// two anchors. The retained cells equal those of one fold over both
    /// parts' samples, in either order. The counters add up; with the
    /// unbounded window they too equal the single fold's, which is what
    /// lets the parallel directory fold ingest shard chunks independently
    /// and merge the partial folds.
    ///
    /// # Panics
    ///
    /// Panics if the two folds differ in interval length or window.
    pub fn merge(&mut self, other: WindowedConcurrency) {
        assert_eq!(
            (self.cfg.interval, self.window),
            (other.cfg.interval, other.window),
            "merge requires identical interval and window"
        );
        self.run.merge(other.run);
        self.accepted += other.accepted;
        self.evicted += other.evicted;
        self.late_dropped += other.late_dropped;
        if let Some(newest) = self.newest.max(other.newest) {
            self.slide_to(newest);
        }
    }

    /// The window's sorted distinct cells — the live state an advice
    /// fingerprint hashes.
    pub fn cells_snapshot(&mut self) -> Vec<(u128, u64)> {
        self.run.cells().to_vec()
    }

    /// The Code Concurrency map of the retained cells, fanning the
    /// per-interval min-sums out over up to `jobs` threads. Bit-identical
    /// to [`crate::concurrency_map`] over exactly the retained samples,
    /// for every `jobs` value: the shared final fold partitions intervals
    /// into contiguous groups, replays each group through the blocked
    /// per-interval kernel into a private triangular accumulator, and
    /// reduces the accumulators pairwise by exact `u64` addition
    /// (commutative and associative, hence independent of grouping and
    /// merge order).
    ///
    /// Instrumented through `obs`: a `cc_build` span and, when enabled,
    /// the `cc.*` counters (samples bucketed, distinct lines, CPUs and
    /// intervals, cells, non-zero pairs, interval groups, whether the
    /// dense triangular accumulator was used) plus the
    /// `cc.interval_cells` histogram of cells per interval — the
    /// kernel's work per interval is quadratic in its cells, so this is
    /// the profile that explains build-time skew.
    pub fn concurrency(&mut self, jobs: usize, obs: &Obs) -> ConcurrencyMap {
        let _span = obs.span("cc_build");
        let samples = self.retained_samples();
        let cells = self.run.cells();
        if cells.is_empty() {
            return ConcurrencyMap::empty();
        }
        let out = cells_finish(cells, jobs);
        if obs.enabled() {
            obs.counter("cc.samples_bucketed", samples);
            obs.counter("cc.lines", out.n_lines as u64);
            obs.counter("cc.cpus", out.n_cpus as u64);
            obs.counter("cc.intervals", out.n_intervals as u64);
            obs.counter("cc.cells", cells.len() as u64);
            obs.counter("cc.pairs", out.map.len() as u64);
            obs.counter("cc.stream_cells", cells.len() as u64);
            obs.counter("cc.stream_groups", out.groups as u64);
            obs.gauge(
                "cc.dense_accumulator",
                if out.dense_acc { 1.0 } else { 0.0 },
            );
            let interval_of = |&(key, _): &(u128, u64)| unpack_cell_key(key).0;
            for interval in cells.chunk_by(|a, b| interval_of(a) == interval_of(b)) {
                obs.histogram("cc.interval_cells", interval.len() as u64);
            }
        }
        out.map
    }

    /// [`concurrency`](WindowedConcurrency::concurrency) without
    /// instrumentation.
    pub fn concurrency_jobs(&mut self, jobs: usize) -> ConcurrencyMap {
        self.concurrency(jobs, &Obs::disabled())
    }
}

/// Folds every readable shard under `dir` into a [`ConcurrencyMap`],
/// skipping malformed shards gracefully. Fails only if the directory
/// cannot be listed.
///
/// Instrumented through `obs`: ingestion runs under a `shard_ingest`
/// span, emits `shard.{ok,samples,missing}` counters, and records each
/// skipped shard as a `warn.shard.skipped.<reason>` warning so skip
/// counts surface in `--stats` output.
///
/// Ingestion fans the shard list out as up to `jobs` contiguous chunks,
/// each folded by a private unbounded [`WindowedConcurrency`]; the
/// partial folds then [`merge`](WindowedConcurrency::merge) in index
/// order. Cell counts sum exactly, so the merged cell store — and hence
/// the final map, the stats and the warning order — are identical to
/// the serial fold's for every `jobs` value.
///
/// Shard sets smaller than [`PARALLEL_INGEST_MIN_BYTES`] in total ingest
/// serially: decoding a megabyte of records is cheaper than spawning
/// workers and merging their sorted runs, and the chunking-independence
/// argument above means the clamp cannot change any output.
pub fn shard_concurrency(
    dir: &Path,
    cfg: ConcurrencyConfig,
    jobs: usize,
    obs: &Obs,
) -> io::Result<(ConcurrencyMap, ShardIngestStats)> {
    let mut fold = WindowedConcurrency::new(cfg, u64::MAX);
    let mut stats = ShardIngestStats::default();
    {
        let _span = obs.span("shard_ingest");
        let reader = ShardReader::open(dir)?;
        stats.shards_missing = reader.missing();
        let paths = reader.paths();
        let total_bytes: u64 = paths
            .iter()
            .filter_map(|p| fs::metadata(p).ok())
            .map(|m| m.len())
            .sum();
        let jobs = if total_bytes < PARALLEL_INGEST_MIN_BYTES {
            1
        } else {
            jobs
        };
        let chunk_size = paths.len().div_ceil(jobs.max(1)).max(1);
        let chunks: Vec<&[PathBuf]> = paths.chunks(chunk_size).collect();
        type ChunkFold = (WindowedConcurrency, u64, Vec<(PathBuf, ShardError)>);
        let partials: Vec<ChunkFold> = par_map(jobs, &chunks, |_, chunk| {
            let mut partial = WindowedConcurrency::new(cfg, u64::MAX);
            let mut ok = 0u64;
            let mut skips: Vec<(PathBuf, ShardError)> = Vec::new();
            for path in *chunk {
                match read_shard(path) {
                    Ok(samples) => {
                        partial.ingest(&samples);
                        ok += 1;
                    }
                    Err(err) => skips.push((path.clone(), err)),
                }
            }
            (partial, ok, skips)
        });
        // Fold partials in chunk (= shard index) order: the merged cell
        // store is chunking-independent, and skip warnings replay in the
        // same order the serial fold would emit them.
        for (partial, ok, skips) in partials {
            stats.samples += partial.accepted();
            fold.merge(partial);
            stats.shards_ok += ok;
            for (path, err) in skips {
                stats.shards_skipped += 1;
                *stats.skipped_by_reason.entry(err.reason_key()).or_insert(0) += 1;
                obs.warning(&format!("shard.skipped.{}", err.reason_key()));
                if obs.enabled() {
                    eprintln!("[shard] skipping {}: {err}", path.display());
                }
            }
        }
        if obs.enabled() {
            obs.counter("shard.ok", stats.shards_ok);
            obs.counter("shard.samples", stats.samples);
            if stats.shards_missing > 0 {
                obs.warning_n("shard.missing", stats.shards_missing);
            }
        }
    }
    Ok((fold.concurrency(jobs, obs), stats))
}

/// An [`Observer`] that spools samples to shards as they are collected,
/// so a full trace never accumulates in memory: it owns a [`Sampler`]
/// and flushes its buffer to the next `shard-NNNNN.slshard` whenever it
/// reaches `shard_size` samples.
///
/// I/O errors cannot surface through the [`Observer`] trait, so the
/// first one is stashed and returned by
/// [`finish`](ShardSpool::finish) — later flushes are suppressed once an
/// error is pending.
#[derive(Debug)]
pub struct ShardSpool {
    sampler: Sampler,
    dir: PathBuf,
    shard_size: usize,
    next_index: usize,
    written: Vec<PathBuf>,
    error: Option<io::Error>,
}

impl ShardSpool {
    /// Creates the spool directory (if missing) and the underlying
    /// sampler.
    ///
    /// # Panics
    ///
    /// Panics if `shard_size` is zero, or on the [`Sampler::new`]
    /// invariants.
    pub fn new(dir: &Path, cpus: usize, cfg: SamplerConfig, shard_size: usize) -> io::Result<Self> {
        assert!(shard_size > 0, "shard size must be non-zero");
        fs::create_dir_all(dir)?;
        Ok(ShardSpool {
            sampler: Sampler::new(cpus, cfg),
            dir: dir.to_path_buf(),
            shard_size,
            next_index: 0,
            written: Vec::new(),
            error: None,
        })
    }

    fn flush(&mut self) {
        let mut batch = self.sampler.drain_samples();
        if batch.is_empty() || self.error.is_some() {
            return;
        }
        // The sampler interleaves per-CPU streams in engine callback
        // order; the format wants time order within a shard.
        batch.sort_by_key(|s| s.time);
        let path = self.dir.join(shard_file_name(self.next_index));
        match write_shard(&path, &batch) {
            Ok(()) => {
                self.next_index += 1;
                self.written.push(path);
            }
            Err(e) => self.error = Some(e),
        }
    }

    /// Flushes the remaining buffer and returns the shard paths written
    /// plus the sampler's dropped-sample count, or the first I/O error
    /// hit while spooling.
    pub fn finish(mut self) -> io::Result<(Vec<PathBuf>, u64)> {
        self.flush();
        if let Some(e) = self.error {
            return Err(e);
        }
        Ok((self.written, self.sampler.dropped()))
    }
}

impl Observer for ShardSpool {
    fn on_block(
        &mut self,
        cpu: CpuId,
        func: FuncId,
        block: BlockId,
        line: SourceLine,
        start: u64,
        end: u64,
    ) {
        self.sampler.on_block(cpu, func, block, line, start, end);
        if self.sampler.samples().len() >= self.shard_size {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrency::concurrency_map;

    fn sample(cpu: u16, time: u64, line: u32) -> Sample {
        Sample {
            cpu: CpuId(cpu),
            time,
            func: FuncId(0),
            block: BlockId(0),
            line: SourceLine(line),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("slopt_shard_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn mixed_trace(n: u64) -> Vec<Sample> {
        (0..n)
            .map(|i| sample((i % 5) as u16, (i * 37) % 1000, (i % 7) as u32))
            .collect()
    }

    #[test]
    fn shard_round_trips() {
        let dir = temp_dir("roundtrip");
        let mut samples = mixed_trace(100);
        samples.sort_by_key(|s| s.time);
        let path = dir.join(shard_file_name(0));
        write_shard(&path, &samples).unwrap();
        assert_eq!(read_shard(&path).unwrap(), samples);
        // Zero-record shard is valid too.
        let empty = dir.join(shard_file_name(1));
        write_shard(&empty, &[]).unwrap();
        assert_eq!(read_shard(&empty).unwrap(), Vec::new());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writer_rejects_unsorted() {
        let dir = temp_dir("unsorted");
        let samples = vec![sample(0, 100, 1), sample(0, 50, 2)];
        let err = write_shard(&dir.join("x.slshard"), &samples).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reader_detects_corruption() {
        let dir = temp_dir("corrupt");
        let mut samples = mixed_trace(10);
        samples.sort_by_key(|s| s.time);
        let path = dir.join(shard_file_name(0));
        write_shard(&path, &samples).unwrap();
        let good = fs::read(&path).unwrap();

        // Truncated mid-record.
        fs::write(&path, &good[..good.len() - 7]).unwrap();
        assert!(matches!(
            read_shard(&path),
            Err(ShardError::Truncated { .. })
        ));
        // Trailing garbage is also a length mismatch.
        let mut long = good.clone();
        long.extend_from_slice(&[0u8; 3]);
        fs::write(&path, &long).unwrap();
        assert!(matches!(
            read_shard(&path),
            Err(ShardError::Truncated { .. })
        ));
        // Corrupt magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(read_shard(&path), Err(ShardError::BadMagic)));
        // Bad version.
        let mut bad = good.clone();
        bad[8] = 9;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(read_shard(&path), Err(ShardError::BadVersion(9))));
        // Out-of-order record times (swap two record time fields).
        let mut bad = good.clone();
        let (a, b) = (HEADER_LEN, HEADER_LEN + RECORD_LEN);
        for k in 0..8 {
            bad.swap(a + k, b + k);
        }
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_shard(&path),
            Err(ShardError::OutOfOrder(_)) | Err(ShardError::TimeBounds(_))
        ));
        // Empty file.
        fs::write(&path, b"").unwrap();
        assert!(matches!(
            read_shard(&path),
            Err(ShardError::Truncated { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reader_counts_numbering_gaps() {
        let dir = temp_dir("gaps");
        let mut samples = mixed_trace(10);
        samples.sort_by_key(|s| s.time);
        write_shard(&dir.join(shard_file_name(0)), &samples).unwrap();
        write_shard(&dir.join(shard_file_name(2)), &samples).unwrap();
        write_shard(&dir.join(shard_file_name(5)), &samples).unwrap();
        fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let reader = ShardReader::open(&dir).unwrap();
        assert_eq!(reader.shard_count(), 3);
        assert_eq!(reader.missing(), 3, "indices 1, 3, 4 were never written");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_equals_batch_for_all_shardings_and_jobs() {
        let samples = mixed_trace(500);
        let cfg = ConcurrencyConfig { interval: 100 };
        let batch = concurrency_map(&samples, &cfg);
        for shard_size in [1, 7, 64, 500, 10_000] {
            for jobs in [1, 3, 8] {
                let mut fold = WindowedConcurrency::new(cfg, u64::MAX);
                for chunk in samples.chunks(shard_size) {
                    assert_eq!(fold.ingest(chunk), 0, "the unbounded fold drops nothing");
                }
                assert_eq!(fold.accepted(), samples.len() as u64);
                assert_eq!(fold.evicted_samples(), 0);
                let got = fold.concurrency(jobs, &Obs::disabled());
                assert_eq!(
                    got, batch,
                    "shard_size={shard_size} jobs={jobs} must match batch"
                );
            }
        }
    }

    /// Scalar reference for the windowed acceptance rule: replays the
    /// stream one sample at a time, returning the accepted samples that
    /// survive to the final window plus the (late, evicted) counts.
    fn windowed_reference(
        samples: &[Sample],
        interval: u64,
        window: u64,
    ) -> (Vec<Sample>, u64, u64) {
        let mut newest: Option<u64> = None;
        let mut accepted: Vec<Sample> = Vec::new();
        let mut late = 0u64;
        for s in samples {
            let idx = s.time / interval;
            let n = newest.get_or_insert(idx);
            if idx + window <= (*n).max(idx) {
                // idx < max(newest, idx) - window + 1  (overflow-safe)
                late += 1;
                continue;
            }
            *n = (*n).max(idx);
            accepted.push(*s);
        }
        let (retained, evicted) = match newest {
            None => (Vec::new(), 0),
            Some(n) => {
                let start = n.saturating_sub(window - 1);
                let (keep, evict): (Vec<Sample>, Vec<Sample>) = accepted
                    .into_iter()
                    .partition(|s| s.time / interval >= start);
                (keep, evict.len() as u64)
            }
        };
        (retained, late, evicted)
    }

    #[test]
    fn windowed_equals_batch_over_retained_samples() {
        let samples = mixed_trace(600);
        let interval = 100u64;
        let cfg = ConcurrencyConfig { interval };
        for window in [1u64, 2, 3, 10] {
            for batch_size in [1usize, 7, 64, 600] {
                let mut win = WindowedConcurrency::new(cfg, window);
                for chunk in samples.chunks(batch_size) {
                    win.ingest(chunk);
                }
                let (retained, late, evicted) = windowed_reference(&samples, interval, window);
                assert_eq!(
                    win.late_dropped(),
                    late,
                    "window={window} batch={batch_size}"
                );
                assert_eq!(win.evicted_samples(), evicted);
                assert_eq!(win.retained_samples(), retained.len() as u64);
                for jobs in [1, 2, 4] {
                    assert_eq!(
                        win.clone().concurrency(jobs, &Obs::disabled()),
                        concurrency_map(&retained, &cfg),
                        "window={window} batch={batch_size} jobs={jobs}"
                    );
                }
            }
        }
    }

    #[test]
    fn windowed_eviction_is_exact_per_interval() {
        let cfg = ConcurrencyConfig { interval: 10 };
        let mut win = WindowedConcurrency::new(cfg, 2);
        // Intervals 0 and 1 in the window.
        win.ingest(&[sample(0, 5, 1), sample(1, 6, 2), sample(0, 15, 3)]);
        assert_eq!(win.window_range(), Some((0, 1)));
        assert_eq!(win.retained_samples(), 3);
        // Interval 3: interval 0 and 1 both expire (range becomes 2..=3).
        win.ingest(&[sample(1, 35, 4)]);
        assert_eq!(win.window_range(), Some((2, 3)));
        assert_eq!(win.evicted_samples(), 3);
        assert_eq!(win.retained_samples(), 1);
        // A sample from interval 1 is now late: counted, never folded.
        assert_eq!(win.ingest(&[sample(0, 16, 1)]), 1);
        assert_eq!(win.late_dropped(), 1);
        assert_eq!(win.retained_samples(), 1);
        // The surviving state equals a batch over exactly interval 3.
        assert_eq!(
            win.concurrency(1, &Obs::disabled()),
            concurrency_map(&[sample(1, 35, 4)], &cfg)
        );
    }

    /// Counters, window and cells: everything a fold exposes.
    type FoldState = (u64, u64, u64, Option<(u64, u64)>, Vec<(u128, u64)>);

    fn fold_state(fold: &mut WindowedConcurrency) -> FoldState {
        let cells = fold.cells_snapshot();
        (
            fold.accepted(),
            fold.late_dropped(),
            fold.evicted_samples(),
            fold.window_range(),
            cells,
        )
    }

    #[test]
    fn merged_chunk_folds_equal_one_fold_in_either_order() {
        let samples = mixed_trace(700);
        let cfg = ConcurrencyConfig { interval: 100 };
        for window in [u64::MAX, 3] {
            let mut whole = WindowedConcurrency::new(cfg, window);
            whole.ingest(&samples);
            let whole_map = whole.concurrency(1, &Obs::disabled());
            for chunk in [1, 64, 233, 700] {
                let parts: Vec<WindowedConcurrency> = samples
                    .chunks(chunk)
                    .map(|part| {
                        let mut fold = WindowedConcurrency::new(cfg, window);
                        fold.ingest(part);
                        fold
                    })
                    .collect();
                let mut forward = WindowedConcurrency::new(cfg, window);
                let mut reverse = WindowedConcurrency::new(cfg, window);
                for part in parts.iter().cloned() {
                    forward.merge(part);
                }
                for part in parts.into_iter().rev() {
                    reverse.merge(part);
                }
                let at = format!("window={window} chunk={chunk}");
                if window == u64::MAX {
                    // Unbounded: cells and every counter match.
                    assert_eq!(fold_state(&mut forward), fold_state(&mut whole), "{at}");
                    assert_eq!(fold_state(&mut reverse), fold_state(&mut whole), "{at}");
                } else {
                    // Bounded: the retained cells and the window match.
                    assert_eq!(forward.window_range(), whole.window_range(), "{at}");
                    assert_eq!(forward.cells_snapshot(), whole.cells_snapshot(), "{at}");
                    assert_eq!(reverse.cells_snapshot(), whole.cells_snapshot(), "{at}");
                    assert_eq!(forward.retained_samples(), whole.retained_samples(), "{at}");
                }
                assert_eq!(forward.concurrency(2, &Obs::disabled()), whole_map, "{at}");
                assert_eq!(reverse.concurrency(1, &Obs::disabled()), whole_map, "{at}");
            }
        }
    }

    #[test]
    fn parallel_directory_fold_equals_serial_above_the_ingest_threshold() {
        let dir = temp_dir("parallel");
        // 200 000 records × 24 B ≈ 4.6 MiB: above PARALLEL_INGEST_MIN_BYTES,
        // so jobs = 3 really fans three chunks out and merges them.
        let samples: Vec<Sample> = (0..200_000u64)
            .map(|i| sample((i % 7) as u16, (i * 7919) % 400_000, ((i * 31) % 53) as u32))
            .collect();
        write_shards(&dir, &samples, 16_384).unwrap();
        let bytes: u64 = ShardReader::open(&dir)
            .unwrap()
            .paths()
            .iter()
            .map(|p| fs::metadata(p).unwrap().len())
            .sum();
        assert!(bytes >= PARALLEL_INGEST_MIN_BYTES, "{bytes} bytes");
        let cfg = ConcurrencyConfig { interval: 1_000 };
        let serial = shard_concurrency(&dir, cfg, 1, &Obs::disabled()).unwrap();
        let fanned = shard_concurrency(&dir, cfg, 3, &Obs::disabled()).unwrap();
        assert_eq!(fanned, serial);
        assert_eq!(serial.1.samples, samples.len() as u64);
        assert_eq!(serial.0, concurrency_map(&samples, &cfg));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_concurrency_skips_bad_shards() {
        let dir = temp_dir("fold");
        let samples = mixed_trace(300);
        write_shards(&dir, &samples, 100).unwrap();
        // Corrupt shard 1; the fold must use shards 0 and 2 only.
        let victim = dir.join(shard_file_name(1));
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..20]).unwrap();

        let cfg = ConcurrencyConfig { interval: 100 };
        let (map, stats) = shard_concurrency(&dir, cfg, 2, &Obs::disabled()).unwrap();
        assert_eq!(stats.shards_ok, 2);
        assert_eq!(stats.shards_skipped, 1);
        assert_eq!(stats.skipped_by_reason.get("truncated"), Some(&1));
        assert_eq!(stats.samples, 200);

        // Equals the batch CC over exactly the surviving shards' samples.
        let mut survivors = Vec::new();
        survivors.extend(read_shard(&dir.join(shard_file_name(0))).unwrap());
        survivors.extend(read_shard(&dir.join(shard_file_name(2))).unwrap());
        assert_eq!(map, concurrency_map(&survivors, &cfg));
        assert!(stats.summary_line().contains("2 ok"));
        assert!(stats.summary_line().contains("truncated:1"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spool_matches_batch_sampler() {
        use slopt_sim::Observer as _;
        let dir = temp_dir("spool");
        let cfg = SamplerConfig {
            period: 50,
            max_phase_jitter: 16,
            loss_probability: 0.0,
            seed: 7,
        };
        let mut batch = Sampler::new(4, cfg);
        let mut spool = ShardSpool::new(&dir, 4, cfg, 32).unwrap();
        for i in 0..200u64 {
            let cpu = CpuId((i % 4) as u16);
            let (start, end) = (i * 40, i * 40 + 120);
            let line = SourceLine((i % 9) as u32);
            batch.on_block(cpu, FuncId(0), BlockId(0), line, start, end);
            spool.on_block(cpu, FuncId(0), BlockId(0), line, start, end);
        }
        let (paths, dropped) = spool.finish().unwrap();
        assert!(paths.len() > 1, "should have spilled multiple shards");
        assert_eq!(dropped, 0);

        let cc_cfg = ConcurrencyConfig { interval: 500 };
        let (streamed, stats) = shard_concurrency(&dir, cc_cfg, 3, &Obs::disabled()).unwrap();
        assert_eq!(stats.shards_skipped, 0);
        assert_eq!(streamed, concurrency_map(batch.samples(), &cc_cfg));
        fs::remove_dir_all(&dir).unwrap();
    }
}
