//! The execution-driven multiprocessor engine.
//!
//! The engine interprets `slopt-ir` programs on every CPU of a simulated
//! machine concurrently. CPUs advance in simulated time; the CPU with the
//! smallest local clock executes next (one basic block at a time, which is
//! also the interleaving granularity). Every field access is priced by the
//! MESI memory system, so contention — and in particular false sharing —
//! slows the affected CPUs down and shows up directly in workload
//! throughput, exactly the mechanism behind the paper's SDET numbers.
//!
//! Work is organized as **scripts** (the SDET unit of throughput): each
//! script is a list of function invocations with instance-slot bindings,
//! queued per CPU in a flat [`WorkQueue`].
//! [`RunResult::throughput`] reports scripts per million cycles.
//!
//! Everything a step touches is flat and dense. The next CPU comes from a
//! [`Scheduler`] (a tournament tree over the per-CPU clocks). At the start
//! of a run the program is lowered once into one array of ops, with every
//! field access already resolved against the [`LayoutTable`] into a byte
//! offset and size, and one table of blocks indexing into it. Loop trip
//! counters live on one stack per CPU, and block counts in one array that
//! becomes the run's [`Profile`] at the end.

use crate::alloc::LayoutTable;
use crate::coherence::MemSystem;
use crate::sched::Scheduler;
use crate::topology::CpuId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use slopt_ir::cfg::{BlockId, FieldAccess, FuncId, Instr, Program, Terminator};
use slopt_ir::profile::Profile;
use slopt_ir::source::SourceLine;
use slopt_ir::types::RecordId;
use std::error::Error;
use std::fmt;

/// Receives engine events; implemented by the sampler in `slopt-sample`.
pub trait Observer {
    /// A CPU executed (part of) a basic block over `[start, end)` cycles.
    /// Blocks interrupted by calls produce one event per executed segment.
    fn on_block(
        &mut self,
        cpu: CpuId,
        func: FuncId,
        block: BlockId,
        line: SourceLine,
        start: u64,
        end: u64,
    ) {
        let _ = (cpu, func, block, line, start, end);
    }

    /// A CPU finished a script at `time`.
    fn on_script_done(&mut self, cpu: CpuId, time: u64) {
        let _ = (cpu, time);
    }
}

/// An [`Observer`] that ignores everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// One CPU's work: a queue of scripts (the SDET unit of throughput), each
/// a run of function invocations with their instance-slot bindings.
///
/// The queue is stored flat: one function id per invocation, one arena of
/// bindings with an end offset per invocation, and an end offset (in
/// invocations) per script. Building it costs a few growing vectors, not
/// an allocation per invocation.
#[derive(Clone, Debug, Default)]
pub struct WorkQueue {
    funcs: Vec<FuncId>,
    binding_ends: Vec<u32>,
    bindings: Vec<u64>,
    script_ends: Vec<u32>,
}

impl WorkQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue with room for `scripts` scripts, `invocations`
    /// invocations and `bindings` bindings in total.
    pub fn with_capacity(scripts: usize, invocations: usize, bindings: usize) -> Self {
        WorkQueue {
            funcs: Vec::with_capacity(invocations),
            binding_ends: Vec::with_capacity(invocations),
            bindings: Vec::with_capacity(bindings),
            script_ends: Vec::with_capacity(scripts),
        }
    }

    /// Appends an invocation of `func` to the open script. `bindings`
    /// yields the base address of the record instance bound to each
    /// [`slopt_ir::cfg::InstanceSlot`], in slot order; callees inherit
    /// the caller's bindings.
    pub fn push_invocation(&mut self, func: FuncId, bindings: impl IntoIterator<Item = u64>) {
        self.funcs.push(func);
        self.bindings.extend(bindings);
        self.binding_ends.push(offset(self.bindings.len()));
    }

    /// Closes the open script: the invocations pushed since the previous
    /// call (possibly none) form one script.
    pub fn end_script(&mut self) {
        self.script_ends.push(offset(self.funcs.len()));
    }

    /// Number of closed scripts.
    pub fn script_count(&self) -> usize {
        self.script_ends.len()
    }

    /// Every invocation as `(function, bindings)`, in queue order.
    pub fn invocations(&self) -> impl Iterator<Item = (FuncId, &[u64])> + '_ {
        let starts = std::iter::once(0).chain(self.binding_ends.iter().copied());
        self.funcs
            .iter()
            .zip(starts.zip(self.binding_ends.iter().copied()))
            .map(|(&f, (lo, hi))| (f, &self.bindings[lo as usize..hi as usize]))
    }
}

/// An index into one of the engine's flat tables (work queues, ops,
/// blocks, loop counters), which are bounded by `u32` entries.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("engine table exceeds u32::MAX entries")
}

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Seed for the per-CPU branch RNGs.
    pub seed: u64,
    /// Safety bound on total basic blocks executed across all CPUs.
    pub max_steps: u64,
    /// Fixed sequencing cost charged per basic block (guarantees progress
    /// even for blocks with no instructions).
    pub block_cost: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 0,
            max_steps: 500_000_000,
            block_cost: 1,
        }
    }
}

/// Error: the engine hit its `max_steps` bound before the workload
/// completed.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct StepsExhausted {
    /// Steps executed (equals the configured bound).
    pub steps: u64,
}

impl fmt::Display for StepsExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "engine exceeded {} block steps", self.steps)
    }
}

impl Error for StepsExhausted {}

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Completion time: the maximum CPU clock at the end.
    pub makespan: u64,
    /// Scripts completed across all CPUs.
    pub scripts_done: u64,
    /// Final clock per CPU.
    pub per_cpu_time: Vec<u64>,
    /// Block execution counts observed during the run (usable as PBO data).
    pub profile: Profile,
    /// Total basic blocks executed.
    pub steps: u64,
}

impl RunResult {
    /// Scripts completed per million cycles of makespan — the analogue of
    /// SDET's scripts/hour. Returns 0 for an empty run.
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.scripts_done as f64 * 1.0e6 / self.makespan as f64
        }
    }
}

/// One instruction of the lowered program.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Opaque computation of this many cycles.
    Compute(u32),
    /// A field access resolved against the run's layouts: `size` bytes
    /// (at most 8) at `offset` from the base bound to `slot`.
    Access {
        offset: u64,
        size: u32,
        record: RecordId,
        slot: u8,
        write: bool,
    },
    /// An access whose record has no layout (or whose field is outside
    /// it): executing it panics, exactly as an unresolved lookup would.
    Unresolved(FieldAccess),
    /// Call of a function (by id).
    Call(FuncId),
}

/// A block terminator with targets as global block indices.
#[derive(Clone, Copy, Debug)]
enum Term {
    Jump(u32),
    Branch {
        taken: u32,
        not_taken: u32,
        prob_taken: f64,
    },
    /// `counter` is the loop's slot in its frame's trip counters.
    Loop {
        back: u32,
        exit: u32,
        trip: u32,
        counter: u32,
    },
    Ret,
}

/// One block of the lowered program; `ops[start..end]` are its ops.
#[derive(Clone, Copy, Debug)]
struct Block {
    start: u32,
    end: u32,
    term: Term,
    func: FuncId,
    id: BlockId,
    line: SourceLine,
}

/// The program lowered for one run: every block of every function in one
/// table, in function order, and every instruction in one op array.
#[derive(Debug)]
struct Code {
    ops: Vec<Op>,
    blocks: Vec<Block>,
    /// Global index of each function's entry block.
    entry: Vec<u32>,
    /// Number of loop trip counters each function's frames need.
    loops: Vec<u32>,
}

impl Code {
    fn lower(program: &Program, layouts: &LayoutTable) -> Code {
        let funcs = program.function_count();
        let mut code = Code {
            ops: Vec::new(),
            blocks: Vec::new(),
            entry: Vec::with_capacity(funcs),
            loops: Vec::with_capacity(funcs),
        };
        for (fid, func) in program.functions() {
            // Function `fid`'s block `b` is `blocks[base + b]`.
            let base = offset(code.blocks.len());
            let global = |b: BlockId| base + b.0;
            code.entry.push(global(func.entry()));
            let mut loops = 0;
            for (bid, block) in func.blocks() {
                let start = offset(code.ops.len());
                code.ops
                    .extend(block.instrs.iter().map(|instr| match *instr {
                        Instr::Compute(c) => Op::Compute(c),
                        Instr::Call(callee) => Op::Call(callee),
                        Instr::Access(a) => resolve(layouts, a),
                    }));
                let term = match block.term {
                    Terminator::Jump(t) => Term::Jump(global(t)),
                    Terminator::Branch {
                        taken,
                        not_taken,
                        prob_taken,
                    } => Term::Branch {
                        taken: global(taken),
                        not_taken: global(not_taken),
                        prob_taken,
                    },
                    Terminator::Loop { back, exit, trip } => {
                        loops += 1;
                        Term::Loop {
                            back: global(back),
                            exit: global(exit),
                            trip,
                            counter: loops - 1,
                        }
                    }
                    Terminator::Ret => Term::Ret,
                };
                code.blocks.push(Block {
                    start,
                    end: offset(code.ops.len()),
                    term,
                    func: fid,
                    id: bid,
                    line: block.line,
                });
            }
            code.loops.push(loops);
        }
        code
    }
}

/// Resolves one access against the layouts, or marks it unresolved.
fn resolve(layouts: &LayoutTable, a: FieldAccess) -> Op {
    let layout = match layouts.get(a.record) {
        Some(l) if a.field.index() < l.field_count() => l,
        _ => return Op::Unresolved(a),
    };
    Op::Access {
        offset: layout.offset(a.field),
        size: layout.field_size(a.field).min(8) as u32,
        record: a.record,
        slot: a.slot.0,
        write: a.kind.is_write(),
    }
}

/// A call frame: the block it executes and its next op.
#[derive(Clone, Copy, Debug)]
struct Frame {
    /// Global index of the current block.
    block: u32,
    /// Index of the next op to execute.
    pc: u32,
    /// Where this frame's loop trip counters start in the CPU's stack.
    counter_base: u32,
}

/// One CPU's execution state.
struct CpuState {
    queue: WorkQueue,
    /// Next invocation and next script to take from the queue.
    next_inv: usize,
    next_script: usize,
    /// The current invocation's bindings: `queue.bindings[lo..hi]`.
    bind_lo: usize,
    bind_hi: usize,
    frames: Vec<Frame>,
    /// Loop trip counters of every frame, innermost last.
    counters: Vec<u32>,
    rng: SmallRng,
}

impl CpuState {
    /// Pushes a frame at the entry of `func`, with zeroed loop counters.
    fn call(&mut self, code: &Code, func: FuncId) {
        let block = code.entry[func.0 as usize];
        let counter_base = offset(self.counters.len());
        self.counters.resize(
            self.counters.len() + code.loops[func.0 as usize] as usize,
            0,
        );
        self.frames.push(Frame {
            block,
            pc: code.blocks[block as usize].start,
            counter_base,
        });
    }

    /// Enters the next invocation, completing (and reporting) finished
    /// scripts on the way; returns `false` when the queue is exhausted.
    fn next_work<O: Observer + ?Sized>(
        &mut self,
        code: &Code,
        cpu: CpuId,
        time: u64,
        observer: &mut O,
        scripts_done: &mut u64,
    ) -> bool {
        loop {
            let Some(&end) = self.queue.script_ends.get(self.next_script) else {
                return false;
            };
            if self.next_inv < end as usize {
                let func = self.queue.funcs[self.next_inv];
                self.bind_lo = self.bind_hi;
                self.bind_hi = self.queue.binding_ends[self.next_inv] as usize;
                self.next_inv += 1;
                self.call(code, func);
                return true;
            }
            *scripts_done += 1;
            observer.on_script_done(cpu, time);
            self.next_script += 1;
        }
    }
}

/// The panic of an access that could not be resolved, raised in the same
/// order as a lookup at execution time: missing layout first, then a
/// missing binding, then a field outside the layout.
#[cold]
#[inline(never)]
fn unresolved(
    program: &Program,
    layouts: &LayoutTable,
    func: FuncId,
    a: FieldAccess,
    bindings: &[u64],
) -> ! {
    let layout = layouts.layout(a.record);
    if bindings.get(a.slot.0 as usize).is_none() {
        unbound(program, func, a.slot.0);
    }
    let _ = layout.offset(a.field);
    unreachable!("access to {} field {:?} resolved late", a.record, a.field)
}

#[cold]
#[inline(never)]
fn unbound(program: &Program, func: FuncId, slot: u8) -> ! {
    panic!(
        "unbound {} in {}",
        slopt_ir::cfg::InstanceSlot(slot),
        program.function(func).name()
    )
}

/// Runs `workload[cpu]` (one work queue per CPU) over the program on the
/// machine modelled by `mem`. Returns the run outcome; memory statistics
/// accumulate inside `mem`.
///
/// # Errors
///
/// Returns [`StepsExhausted`] if the configured step bound is hit (e.g. a
/// pathological probabilistic loop).
///
/// # Panics
///
/// Panics if `workload` does not have exactly one entry per machine CPU,
/// if a queue has invocations after its last closed script, if an
/// executed access lacks a registered layout or binding, or if a CPU's
/// clock reaches [`crate::sched::MAX_CLOCK`].
pub fn run<O: Observer + ?Sized>(
    program: &Program,
    layouts: &LayoutTable,
    mem: &mut MemSystem,
    workload: Vec<WorkQueue>,
    cfg: &EngineConfig,
    observer: &mut O,
) -> Result<RunResult, StepsExhausted> {
    let cpus = mem.topology().cpu_count();
    assert_eq!(workload.len(), cpus, "workload must cover every CPU");
    for q in &workload {
        assert_eq!(
            q.script_ends.last().map_or(0, |&e| e as usize),
            q.funcs.len(),
            "work queue has invocations after its last script"
        );
    }
    let code = Code::lower(program, layouts);

    let mut states: Vec<CpuState> = workload
        .into_iter()
        .enumerate()
        .map(|(i, queue)| CpuState {
            queue,
            next_inv: 0,
            next_script: 0,
            bind_lo: 0,
            bind_hi: 0,
            frames: Vec::new(),
            counters: Vec::new(),
            rng: SmallRng::seed_from_u64(cfg.seed ^ (0x9E37_79B9u64.wrapping_mul(i as u64 + 1))),
        })
        .collect();

    let mut counts = vec![0u64; code.blocks.len()];
    let mut per_cpu_time = vec![0u64; cpus];
    let mut scripts_done = 0u64;
    let mut steps = 0u64;

    let mut sched = Scheduler::new(cpus);
    for (i, state) in states.iter_mut().enumerate() {
        // Prime each CPU with its first invocation.
        if state.next_work(&code, CpuId(i as u16), 0, observer, &mut scripts_done) {
            sched.push(i, 0);
        }
    }

    while let Some((start, idx)) = sched.pop() {
        if steps >= cfg.max_steps {
            return Err(StepsExhausted { steps });
        }
        steps += 1;
        let cpu = CpuId(idx as u16);
        let state = &mut states[idx];
        let mut time = start;

        // Execute the top frame until the block ends or a call suspends it.
        let frame = state.frames.last_mut().expect("active frame");
        let block = code.blocks[frame.block as usize];
        if frame.pc == block.start {
            counts[frame.block as usize] += 1;
            time += cfg.block_cost;
        }
        let mut called: Option<FuncId> = None;
        while frame.pc < block.end {
            let op = code.ops[frame.pc as usize];
            frame.pc += 1;
            match op {
                Op::Compute(c) => time += u64::from(c),
                Op::Access {
                    offset,
                    size,
                    record,
                    slot,
                    write,
                } => {
                    let bindings = &state.queue.bindings[state.bind_lo..state.bind_hi];
                    let Some(&base) = bindings.get(slot as usize) else {
                        unbound(program, block.func, slot)
                    };
                    time += mem.access(
                        cpu,
                        base + offset,
                        u64::from(size),
                        write,
                        Some(record),
                        time,
                    );
                }
                Op::Unresolved(a) => unresolved(
                    program,
                    layouts,
                    block.func,
                    a,
                    &state.queue.bindings[state.bind_lo..state.bind_hi],
                ),
                Op::Call(callee) => {
                    called = Some(callee);
                    break;
                }
            }
        }

        observer.on_block(cpu, block.func, block.id, block.line, start, time);

        if let Some(callee) = called {
            state.call(&code, callee);
            sched.push(idx, time);
            continue;
        }

        let next = match block.term {
            Term::Jump(t) => Some(t),
            Term::Branch {
                taken,
                not_taken,
                prob_taken,
            } => {
                if state.rng.gen::<f64>() < prob_taken {
                    Some(taken)
                } else {
                    Some(not_taken)
                }
            }
            Term::Loop {
                back,
                exit,
                trip,
                counter,
            } => {
                let c = &mut state.counters[(frame.counter_base + counter) as usize];
                *c += 1;
                if *c < trip {
                    Some(back)
                } else {
                    *c = 0;
                    Some(exit)
                }
            }
            Term::Ret => None,
        };

        match next {
            Some(t) => {
                let frame = state.frames.last_mut().expect("active frame");
                frame.block = t;
                frame.pc = code.blocks[t as usize].start;
                sched.push(idx, time);
            }
            None => {
                let frame = state.frames.pop().expect("active frame");
                state.counters.truncate(frame.counter_base as usize);
                if !state.frames.is_empty()
                    || state.next_work(&code, cpu, time, observer, &mut scripts_done)
                {
                    sched.push(idx, time);
                } else {
                    per_cpu_time[idx] = time;
                    sched.retire(idx);
                }
            }
        }
    }

    let mut profile = Profile::new();
    for (block, &n) in code.blocks.iter().zip(&counts) {
        if n > 0 {
            profile.record(block.func, block.id, n);
        }
    }
    let makespan = per_cpu_time.iter().copied().max().unwrap_or(0);
    Ok(RunResult {
        makespan,
        scripts_done,
        per_cpu_time,
        profile,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::topology::{LatencyModel, Topology};
    use slopt_ir::builder::{FunctionBuilder, ProgramBuilder};
    use slopt_ir::cfg::InstanceSlot;
    use slopt_ir::layout::StructLayout;
    use slopt_ir::types::{FieldIdx, FieldType, PrimType, RecordType, TypeRegistry};

    fn simple_program() -> (Program, slopt_ir::types::RecordId, FuncId) {
        let mut reg = TypeRegistry::new();
        let s = reg.add_record(RecordType::new(
            "S",
            vec![
                ("a", FieldType::Prim(PrimType::U64)),
                ("b", FieldType::Prim(PrimType::U64)),
            ],
        ));
        let mut pb = ProgramBuilder::new(reg);
        let mut fb = FunctionBuilder::new("touch");
        let b0 = fb.add_block();
        fb.read(b0, s, FieldIdx(0), InstanceSlot(0));
        fb.write(b0, s, FieldIdx(1), InstanceSlot(0));
        fb.compute(b0, 5);
        let id = pb.add(fb, b0);
        (pb.finish(), s, id)
    }

    /// A queue of `scripts`, each a list of `(function, bindings)`.
    fn queue(scripts: &[&[(FuncId, &[u64])]]) -> WorkQueue {
        let mut q = WorkQueue::new();
        for script in scripts {
            for &(f, b) in *script {
                q.push_invocation(f, b.iter().copied());
            }
            q.end_script();
        }
        q
    }

    fn mem(cpus: usize) -> MemSystem {
        MemSystem::new(
            Topology::superdome(cpus),
            LatencyModel::superdome(),
            CacheConfig {
                line_size: 128,
                sets: 256,
                ways: 4,
            },
        )
    }

    fn layouts_for(prog: &Program, rec: slopt_ir::types::RecordId) -> LayoutTable {
        let mut t = LayoutTable::new();
        t.set(
            rec,
            StructLayout::declaration_order(prog.registry().record(rec), 128).unwrap(),
        );
        t
    }

    #[test]
    fn single_cpu_executes_scripts() {
        let (prog, rec, f) = simple_program();
        let layouts = layouts_for(&prog, rec);
        let mut m = mem(1);
        let script: &[(FuncId, &[u64])] = &[(f, &[0x10000])];
        let result = run(
            &prog,
            &layouts,
            &mut m,
            vec![queue(&[script, script])],
            &EngineConfig::default(),
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(result.scripts_done, 2);
        assert_eq!(result.profile.count(f, BlockId(0)), 2);
        assert!(result.makespan > 0);
        assert!(result.throughput() > 0.0);
        // 2 blocks, 4 accesses.
        assert_eq!(m.stats().accesses(), 4);
    }

    #[test]
    fn false_sharing_slows_the_run_down() {
        // Two CPUs write different fields of the same shared instance
        // repeatedly. Packed layout -> same line -> ping-pong. Split layout
        // (fields on different lines) -> independent.
        let mut reg = TypeRegistry::new();
        let s = reg.add_record(RecordType::new(
            "S",
            vec![
                ("a", FieldType::Prim(PrimType::U64)),
                ("b", FieldType::Prim(PrimType::U64)),
            ],
        ));
        let mut pb = ProgramBuilder::new(reg);

        let mk = |field: u32| {
            let mut fb = FunctionBuilder::new(format!("wr{field}"));
            let e = fb.add_block();
            let body = fb.add_block();
            let x = fb.add_block();
            fb.jump(e, body);
            fb.write(body, s, FieldIdx(field), InstanceSlot(0));
            fb.loop_latch(body, body, x, 200);
            (fb, e)
        };
        let (fb0, e0) = mk(0);
        let f0 = pb.add(fb0, e0);
        let (fb1, e1) = mk(1);
        let f1 = pb.add(fb1, e1);
        let prog = pb.finish();
        let rec_ty = prog.registry().record(s);

        let shared_base = 0x2_0000u64;
        let workload = |f: FuncId| queue(&[&[(f, &[shared_base])]]);

        // Packed: both fields on line 0.
        let mut packed = LayoutTable::new();
        packed.set(s, StructLayout::declaration_order(rec_ty, 128).unwrap());
        let mut m1 = mem(2);
        let r_packed = run(
            &prog,
            &packed,
            &mut m1,
            vec![workload(f0), workload(f1)],
            &EngineConfig::default(),
            &mut NullObserver,
        )
        .unwrap();

        // Split: each field on its own line.
        let mut split = LayoutTable::new();
        split.set(
            s,
            StructLayout::from_groups(rec_ty, &[vec![FieldIdx(0)], vec![FieldIdx(1)]], 128)
                .unwrap(),
        );
        let mut m2 = mem(2);
        let r_split = run(
            &prog,
            &split,
            &mut m2,
            vec![workload(f0), workload(f1)],
            &EngineConfig::default(),
            &mut NullObserver,
        )
        .unwrap();

        assert!(
            m1.stats().false_sharing_for(s) > 100,
            "packed layout must false-share (got {})",
            m1.stats().false_sharing_for(s)
        );
        assert_eq!(
            m2.stats().false_sharing_for(s),
            0,
            "split layout must not false-share"
        );
        assert!(
            r_packed.makespan > 2 * r_split.makespan,
            "false sharing should dominate: packed {} vs split {}",
            r_packed.makespan,
            r_split.makespan
        );
        m1.check_invariants();
        m2.check_invariants();
    }

    #[test]
    fn calls_suspend_and_resume_blocks() {
        let mut reg = TypeRegistry::new();
        let s = reg.add_record(RecordType::new(
            "S",
            vec![("a", FieldType::Prim(PrimType::U64))],
        ));
        let mut pb = ProgramBuilder::new(reg);
        let mut leaf = FunctionBuilder::new("leaf");
        let l0 = leaf.add_block();
        leaf.compute(l0, 100);
        let leaf_id = pb.add(leaf, l0);

        let mut caller = FunctionBuilder::new("caller");
        let c0 = caller.add_block();
        caller.read(c0, s, FieldIdx(0), InstanceSlot(0));
        caller.call(c0, leaf_id);
        caller.write(c0, s, FieldIdx(0), InstanceSlot(0));
        let caller_id = pb.add(caller, c0);
        let prog = pb.finish();

        let layouts = layouts_for(&prog, s);
        let mut m = mem(1);
        let result = run(
            &prog,
            &layouts,
            &mut m,
            vec![queue(&[&[(caller_id, &[0x1000])]])],
            &EngineConfig::default(),
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(result.scripts_done, 1);
        assert_eq!(result.profile.count(leaf_id, BlockId(0)), 1);
        assert_eq!(result.profile.count(caller_id, BlockId(0)), 1);
        // Both accesses happened (read + write).
        assert_eq!(m.stats().accesses(), 2);
        // Leaf compute cost charged.
        assert!(result.makespan >= 100);
    }

    #[test]
    fn deterministic_given_seed() {
        let (prog, rec, f) = simple_program();
        let layouts = layouts_for(&prog, rec);
        let script: &[(FuncId, &[u64])] = &[(f, &[0x4000])];
        let mut results = Vec::new();
        for _ in 0..2 {
            let mut m = mem(4);
            let r = run(
                &prog,
                &layouts,
                &mut m,
                vec![queue(&[script; 5]); 4],
                &EngineConfig::default(),
                &mut NullObserver,
            )
            .unwrap();
            results.push((r.makespan, r.scripts_done, m.stats().accesses()));
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn step_bound_is_enforced() {
        let reg = TypeRegistry::new();
        let mut pb = ProgramBuilder::new(reg);
        let mut fb = FunctionBuilder::new("spin");
        let b0 = fb.add_block();
        fb.branch(b0, b0, b0, 1.0);
        let f = pb.add(fb, b0);
        let prog = pb.finish();
        let layouts = LayoutTable::new();
        let mut m = mem(1);
        let cfg = EngineConfig {
            max_steps: 1000,
            ..EngineConfig::default()
        };
        let err = run(
            &prog,
            &layouts,
            &mut m,
            vec![queue(&[&[(f, &[])]])],
            &cfg,
            &mut NullObserver,
        )
        .unwrap_err();
        assert_eq!(err.steps, 1000);
        assert!(err.to_string().contains("1000"));
    }

    #[test]
    fn observer_sees_blocks_and_scripts() {
        #[derive(Default)]
        struct Counting {
            blocks: u64,
            scripts: u64,
            last_end: u64,
        }
        impl Observer for Counting {
            fn on_block(
                &mut self,
                _c: CpuId,
                _f: FuncId,
                _b: BlockId,
                _l: slopt_ir::source::SourceLine,
                start: u64,
                end: u64,
            ) {
                assert!(start <= end);
                self.blocks += 1;
                self.last_end = self.last_end.max(end);
            }
            fn on_script_done(&mut self, _c: CpuId, _t: u64) {
                self.scripts += 1;
            }
        }
        let (prog, rec, f) = simple_program();
        let layouts = layouts_for(&prog, rec);
        let mut m = mem(1);
        let mut obs = Counting::default();
        let r = run(
            &prog,
            &layouts,
            &mut m,
            vec![queue(&[&[(f, &[0x8000])]])],
            &EngineConfig::default(),
            &mut obs,
        )
        .unwrap();
        assert_eq!(obs.blocks, 1);
        assert_eq!(obs.scripts, 1);
        assert_eq!(obs.last_end, r.makespan);
    }

    #[test]
    #[should_panic(expected = "workload must cover every CPU")]
    fn workload_size_must_match() {
        let (prog, rec, _) = simple_program();
        let layouts = layouts_for(&prog, rec);
        let mut m = mem(2);
        let _ = run(
            &prog,
            &layouts,
            &mut m,
            vec![WorkQueue::new()],
            &EngineConfig::default(),
            &mut NullObserver,
        );
    }

    /// A one-block function reading field 0 of `rec` through slot 0,
    /// reached only when a branch with probability `reach` is taken.
    fn guarded_read(reach: f64) -> (Program, slopt_ir::types::RecordId, FuncId) {
        let mut reg = TypeRegistry::new();
        let s = reg.add_record(RecordType::new(
            "S",
            vec![("a", FieldType::Prim(PrimType::U64))],
        ));
        let mut pb = ProgramBuilder::new(reg);
        let mut fb = FunctionBuilder::new("guarded");
        let b0 = fb.add_block();
        let touch = fb.add_block();
        let done = fb.add_block();
        fb.branch(b0, touch, done, reach);
        fb.read(touch, s, FieldIdx(0), InstanceSlot(0));
        fb.jump(touch, done);
        let f = pb.add(fb, b0);
        (pb.finish(), s, f)
    }

    #[test]
    #[should_panic(expected = "no layout registered")]
    fn executed_access_without_layout_panics() {
        let (prog, _, f) = guarded_read(1.0);
        let mut m = mem(1);
        let _ = run(
            &prog,
            &LayoutTable::new(),
            &mut m,
            vec![queue(&[&[(f, &[0x1000])]])],
            &EngineConfig::default(),
            &mut NullObserver,
        );
    }

    #[test]
    fn unexecuted_access_needs_no_layout() {
        let (prog, _, f) = guarded_read(0.0);
        let mut m = mem(1);
        let r = run(
            &prog,
            &LayoutTable::new(),
            &mut m,
            vec![queue(&[&[(f, &[0x1000])]])],
            &EngineConfig::default(),
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(r.scripts_done, 1);
        assert_eq!(m.stats().accesses(), 0);
    }

    #[test]
    #[should_panic(expected = "unbound slot0 in guarded")]
    fn unbound_slot_panics() {
        let (prog, rec, f) = guarded_read(1.0);
        let layouts = layouts_for(&prog, rec);
        let mut m = mem(1);
        let _ = run(
            &prog,
            &layouts,
            &mut m,
            vec![queue(&[&[(f, &[])]])],
            &EngineConfig::default(),
            &mut NullObserver,
        );
    }

    #[test]
    fn callee_loop_inside_caller_loop_keeps_both_trip_counts() {
        // inner: a 3-trip loop. outer: a 4-trip loop whose body calls
        // inner, so inner's counter starts afresh on every call while
        // outer's survives them.
        let reg = TypeRegistry::new();
        let mut pb = ProgramBuilder::new(reg);
        let mut inner = FunctionBuilder::new("inner");
        let i0 = inner.add_block();
        let ibody = inner.add_block();
        let iexit = inner.add_block();
        inner.jump(i0, ibody);
        inner.compute(ibody, 1);
        inner.loop_latch(ibody, ibody, iexit, 3);
        let inner_id = pb.add(inner, i0);

        let mut outer = FunctionBuilder::new("outer");
        let o0 = outer.add_block();
        let obody = outer.add_block();
        let oexit = outer.add_block();
        outer.jump(o0, obody);
        outer.call(obody, inner_id);
        outer.loop_latch(obody, obody, oexit, 4);
        let outer_id = pb.add(outer, o0);
        let prog = pb.finish();

        let mut m = mem(2);
        let r = run(
            &prog,
            &LayoutTable::new(),
            &mut m,
            vec![
                queue(&[&[(outer_id, &[])], &[(outer_id, &[])]]),
                queue(&[&[(inner_id, &[])]]),
            ],
            &EngineConfig::default(),
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(r.scripts_done, 3);
        let p = &r.profile;
        assert_eq!(p.count(outer_id, o0), 2);
        assert_eq!(p.count(outer_id, obody), 2 * 4);
        assert_eq!(p.count(outer_id, oexit), 2);
        assert_eq!(p.count(inner_id, i0), 2 * 4 + 1);
        assert_eq!(p.count(inner_id, ibody), (2 * 4 + 1) * 3);
        assert_eq!(p.count(inner_id, iexit), 2 * 4 + 1);
        assert_eq!(p.total(), 2 + 8 + 2 + 9 + 27 + 9);
    }

    #[test]
    fn empty_scripts_complete_immediately() {
        let (prog, rec, f) = simple_program();
        let layouts = layouts_for(&prog, rec);
        let mut m = mem(2);
        let r = run(
            &prog,
            &layouts,
            &mut m,
            vec![queue(&[&[], &[(f, &[0x1000])], &[]]), queue(&[&[]])],
            &EngineConfig::default(),
            &mut NullObserver,
        )
        .unwrap();
        assert_eq!(r.scripts_done, 4);
        assert_eq!(r.per_cpu_time[1], 0);
        assert_eq!(m.stats().accesses(), 2);
    }

    #[test]
    #[should_panic(expected = "invocations after its last script")]
    fn unterminated_script_is_rejected() {
        let (prog, rec, f) = simple_program();
        let layouts = layouts_for(&prog, rec);
        let mut q = WorkQueue::new();
        q.push_invocation(f, [0x1000]);
        let _ = run(
            &prog,
            &layouts,
            &mut mem(1),
            vec![q],
            &EngineConfig::default(),
            &mut NullObserver,
        );
    }

    #[test]
    fn work_queue_reports_its_invocations() {
        let q = queue(&[
            &[(FuncId(3), &[1, 2])],
            &[],
            &[(FuncId(1), &[]), (FuncId(2), &[7])],
        ]);
        assert_eq!(q.script_count(), 3);
        let invs: Vec<(FuncId, Vec<u64>)> = q.invocations().map(|(f, b)| (f, b.to_vec())).collect();
        assert_eq!(
            invs,
            vec![
                (FuncId(3), vec![1, 2]),
                (FuncId(1), vec![]),
                (FuncId(2), vec![7])
            ]
        );
    }
}
