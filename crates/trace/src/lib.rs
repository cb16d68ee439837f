//! # terra-trace
//!
//! The observability layer of terra-rs: everything the staging pipeline and
//! the VM need to answer "where did the time and the instructions go?".
//!
//! Three kinds of signal are collected, all behind one `enabled` gate so a
//! non-profiled run pays (at most) a predictable branch:
//!
//! - **Staging timeline** — [`SpanEvent`]s for parse, specialization,
//!   typecheck/lowering, analysis/verify, bytecode compilation, and FFI
//!   execution, each tagged with the Terra function it concerns. This makes
//!   the paper's lazy-compilation behaviour (§4: eager specialization, lazy
//!   typechecking) directly visible: a function's typecheck span appears at
//!   its *first call*, not at its definition.
//! - **VM telemetry** — per-opcode execution counts, per-function call
//!   counts with inclusive/exclusive instruction counts ([`Tracer`]), and
//!   memory-system counters ([`MemCounters`]: allocation traffic, loads and
//!   stores by access width, vector transfers, prefetch hints). Counters
//!   are **deterministic**: two runs of the same program produce identical
//!   snapshots, so they double as a reproducible cost model next to
//!   wall-clock timing (the autotuner ranks kernels with them).
//! - **Exports** — a human-readable report and Chrome `traceEvents` JSON
//!   ([`Profile::to_chrome_json`]) loadable in `chrome://tracing` / Perfetto.
//!
//! Timeline timestamps are wall-clock and therefore *not* part of the
//! deterministic surface; [`Profile::render_counters`] is the
//! reproducibility contract.

#![warn(missing_docs)]

mod chrome;
mod events;
mod folded;
mod heap;
mod parallel;
pub mod record;
pub mod replay;
mod report;
mod sample;

pub use heap::{HeapProfiler, HeapSiteStats, HeapStats, HeapTimelinePoint};
pub use parallel::{ParChunkStats, ParSiteStats, ParWorkerLoad, ParallelStats};
pub use record::{
    fnv64, Checkpoint, Effect, EffectKind, EffectSite, Fnv64, RecMeta, Recorder, Recording,
    DEFAULT_CADENCE, REC_FORMAT_VERSION,
};
pub use replay::{DiffReport, DivergentSide, ReplaySummary};
pub use sample::{SampleFuncRank, SampleStats, Sampler};

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Which pipeline stage a timeline span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Source text → AST.
    Parse,
    /// Eager specialization of a `terra` definition (LTDEFN).
    Specialize,
    /// Lazy typechecking + lowering to typed IR (first call).
    Typecheck,
    /// IR verification / dataflow analysis between lowering and compile.
    Analyze,
    /// One mid-end optimization pass (span name is `func:pass`).
    Optimize,
    /// Typed IR → register bytecode.
    Compile,
    /// An FFI entry into the VM (`Vm::call`).
    Execute,
}

impl Stage {
    /// Short lowercase label used in reports and trace categories.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Specialize => "specialize",
            Stage::Typecheck => "typecheck",
            Stage::Analyze => "analyze",
            Stage::Optimize => "optimize",
            Stage::Compile => "compile",
            Stage::Execute => "execute",
        }
    }
}

/// One structured optimization remark from the mid-end pass manager.
///
/// Remarks explain what the optimizer did (or declined to do) and why:
/// "inline applied: inlined 'is_marked'", "inline missed: callee over size
/// budget". They are collected *unconditionally* — not gated behind
/// [`Tracer::enabled`] — so the remark stream is byte-identical whether or
/// not profiling is on, and belongs to the deterministic surface alongside
/// [`Profile::render_counters`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Remark {
    /// Pass that emitted it (`"inline"`, `"licm"`, `"cse"`, ...).
    pub pass: String,
    /// `"applied"` or `"missed"`.
    pub kind: String,
    /// Terra function the remark concerns.
    pub function: String,
    /// 1-based source line of the affected statement (0 = whole function).
    pub line: u32,
    /// Rendered staging chain (`"via quote at line 41, inlined at line 30"`),
    /// empty when the code was written in place.
    pub provenance: String,
    /// Human-readable explanation.
    pub message: String,
}

/// One completed span on the staging timeline.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Pipeline stage.
    pub stage: Stage,
    /// What was processed (usually a Terra function name, or `"chunk"`).
    pub name: String,
    /// Start time in microseconds since the tracer's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// Deterministic execution counters for one Terra function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuncCounters {
    /// Number of times the function was entered.
    pub calls: u64,
    /// Instructions executed in this function *and* its callees. Recursive
    /// calls are counted once per activation, so a self-recursive function's
    /// inclusive count can exceed the program total.
    pub inclusive: u64,
    /// Instructions executed in this function's own frames only.
    pub exclusive: u64,
}

/// A per-function row of a finished profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncProfile {
    /// Function name.
    pub name: String,
    /// Its counters.
    pub counters: FuncCounters,
}

/// An in-flight function activation on the profile stack.
#[derive(Debug)]
struct ActiveFunc {
    name: Arc<str>,
    exclusive: u64,
    child_inclusive: u64,
}

/// The collector threaded through the staging pipeline and the VM.
///
/// Lives on the VM `Program` so both the meta-language (staging spans) and
/// executing Terra code (opcode/function counters) reach the same sink.
/// Everything is a no-op until [`Tracer::set_enabled`] turns it on.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    events: Vec<SpanEvent>,
    ops: BTreeMap<&'static str, u64>,
    funcs: BTreeMap<Arc<str>, FuncCounters>,
    stack: Vec<ActiveFunc>,
    remarks: Vec<Remark>,
    sampler: Sampler,
    par: ParallelStats,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Creates a disabled tracer.
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            events: Vec::new(),
            ops: BTreeMap::new(),
            funcs: BTreeMap::new(),
            stack: Vec::new(),
            remarks: Vec::new(),
            sampler: Sampler::default(),
            par: ParallelStats::default(),
        }
    }

    /// Turns collection on or off. Turning it off keeps accumulated data.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether collection is active.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Discards all collected events and counters (the gate stays as-is,
    /// and so does the sampling interval).
    pub fn reset(&mut self) {
        self.events.clear();
        self.ops.clear();
        self.funcs.clear();
        self.stack.clear();
        self.remarks.clear();
        self.sampler.reset();
        self.par.clear();
    }

    // -- sampling ------------------------------------------------------------

    /// Sets the sampling interval in retired instructions (0 = off).
    pub fn set_sample_interval(&mut self, interval: u64) {
        self.sampler.set_interval(interval);
    }

    /// The configured sampling interval (0 = sampling off).
    pub fn sample_interval(&self) -> u64 {
        self.sampler.interval()
    }

    /// Whether the sampling profiler is active.
    #[inline]
    pub fn sampling(&self) -> bool {
        self.sampler.active()
    }

    /// Counts one retired instruction toward the next sample; when the
    /// interval elapses, captures the current activation stack. The VM
    /// calls this once per instruction while [`Tracer::sampling`] is on, so
    /// the sample points are independent of whether the exact profiler is
    /// also on.
    #[inline]
    pub fn sample_tick(&mut self) {
        if !self.sampler.active() {
            return;
        }
        if self.sampler.tick() {
            let mut key = String::new();
            for (i, f) in self.stack.iter().enumerate() {
                if i > 0 {
                    key.push(';');
                }
                // Frame separator is reserved; sanitize like folded output.
                for ch in f.name.chars() {
                    key.push(if ch == ';' { ',' } else { ch });
                }
            }
            if key.is_empty() {
                key.push_str("(host)");
            }
            self.sampler.record(key);
        }
    }

    // -- remarks -------------------------------------------------------------

    /// Appends an optimization remark. Deliberately *not* gated behind
    /// [`Tracer::enabled`]: remarks must be identical with and without
    /// `--profile` (compilation happens either way, and the stream is part
    /// of the deterministic surface).
    pub fn add_remark(&mut self, r: Remark) {
        self.remarks.push(r);
    }

    /// The remarks collected so far, in emission order.
    pub fn remarks(&self) -> &[Remark] {
        &self.remarks
    }

    // -- timeline ------------------------------------------------------------

    /// Microseconds since the tracer's epoch; the `start` for [`Tracer::record`].
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records a completed span that began at `start_us` (from
    /// [`Tracer::now_us`]). No-op while disabled.
    pub fn record(&mut self, stage: Stage, name: &str, start_us: u64) {
        if !self.enabled {
            return;
        }
        let end = self.now_us();
        self.events.push(SpanEvent {
            stage,
            name: name.to_string(),
            start_us,
            dur_us: end.saturating_sub(start_us),
        });
    }

    /// Records a completed span with an explicit duration — for callers
    /// (like the pass manager) that measured the work themselves and report
    /// it after the fact.
    pub fn record_span(&mut self, stage: Stage, name: &str, start_us: u64, dur_us: u64) {
        if !self.enabled {
            return;
        }
        self.events.push(SpanEvent {
            stage,
            name: name.to_string(),
            start_us,
            dur_us,
        });
    }

    // -- VM counters ---------------------------------------------------------

    /// Counts one executed instruction: bumps the opcode's counter and the
    /// current function activation's exclusive count. Call only while
    /// profiling (the VM gates this behind [`Tracer::enabled`]).
    #[inline]
    pub fn tick(&mut self, mnemonic: &'static str) {
        *self.ops.entry(mnemonic).or_insert(0) += 1;
        if let Some(top) = self.stack.last_mut() {
            top.exclusive += 1;
        }
    }

    /// Pushes a function activation (VM frame push).
    pub fn func_enter(&mut self, name: Arc<str>) {
        self.stack.push(ActiveFunc {
            name,
            exclusive: 0,
            child_inclusive: 0,
        });
    }

    /// Pops the current activation (VM frame pop), folding its counts into
    /// the per-function table and its parent's inclusive count.
    pub fn func_exit(&mut self) {
        let Some(top) = self.stack.pop() else { return };
        let inclusive = top.exclusive + top.child_inclusive;
        let entry = self.funcs.entry(top.name).or_default();
        entry.calls += 1;
        entry.exclusive += top.exclusive;
        entry.inclusive += inclusive;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_inclusive += inclusive;
        }
    }

    /// Total instructions ticked so far (sum over the opcode map). Worker
    /// shards use this as "instructions retired by this chunk".
    pub fn total_ops(&self) -> u64 {
        self.ops.values().sum()
    }

    /// Activation-stack depth (for unwinding on traps).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    // -- parallel telemetry --------------------------------------------------

    /// Records one executed `parallelfor` region: per-chunk shard counters
    /// captured *before* the shards are merged away. `provenance` is the
    /// rendered staging chain ("via quote at line 9"), empty for in-place
    /// code. Call only while profiling (the VM gates this behind
    /// [`Tracer::enabled`]).
    #[allow(clippy::too_many_arguments)]
    pub fn record_parallel(
        &mut self,
        function: &str,
        line: u32,
        provenance: &str,
        kernel: &str,
        threads: u64,
        iterations: u64,
        chunks: Vec<ParChunkStats>,
    ) {
        self.par.record(
            function, line, provenance, kernel, threads, iterations, chunks,
        );
    }

    /// The parallel-execution telemetry collected so far.
    pub fn parallel(&self) -> &ParallelStats {
        &self.par
    }

    /// Pops activations down to `depth`, still attributing the partial
    /// counts each trapped frame accumulated.
    pub fn unwind_to(&mut self, depth: usize) {
        while self.stack.len() > depth {
            self.func_exit();
        }
    }

    // -- shard merging -------------------------------------------------------

    /// Folds another tracer's counters into this one. Used by the parallel
    /// harness: each worker context collects into its own tracer shard, and
    /// the shards are merged back in chunk order after the join. Every merge
    /// is a commutative sum over keyed counters (opcode map, per-function
    /// counters, sampler stacks), so the merged totals are independent of
    /// worker interleaving *and* of the order shards are absorbed in; span
    /// events and remarks are appended in absorb order.
    ///
    /// The shard's in-flight activation stack is ignored — callers must
    /// absorb only quiesced tracers (depth 0), which the harness guarantees
    /// by unwinding each worker before the join.
    pub fn absorb(&mut self, other: &Tracer) {
        for (k, v) in &other.ops {
            *self.ops.entry(k).or_insert(0) += v;
        }
        for (name, c) in &other.funcs {
            let e = self.funcs.entry(Arc::clone(name)).or_default();
            e.calls += c.calls;
            e.inclusive += c.inclusive;
            e.exclusive += c.exclusive;
        }
        self.events.extend(other.events.iter().cloned());
        self.remarks.extend(other.remarks.iter().cloned());
        self.sampler.absorb(&other.sampler);
        self.par.absorb(&other.par);
    }

    /// Creates a fresh shard for a worker execution context: same gates
    /// (enabled flag, sampling interval), empty counters. The shard starts
    /// with an empty activation stack, so kernel calls inside a worker do
    /// not roll up into any host-side caller's inclusive counts — the same
    /// accounting at every thread count.
    pub fn worker_shard(&self) -> Tracer {
        let mut t = Tracer::new();
        t.set_enabled(self.enabled);
        t.set_sample_interval(self.sampler.interval());
        t
    }

    // -- snapshots -----------------------------------------------------------

    /// Freezes the collected data into a [`Profile`], combining it with the
    /// memory counters (which live on the VM's `Memory`).
    pub fn snapshot(&self, mem: MemStats) -> Profile {
        let mut funcs: Vec<FuncProfile> = self
            .funcs
            .iter()
            .map(|(name, c)| FuncProfile {
                name: name.to_string(),
                counters: *c,
            })
            .collect();
        // Most expensive first; ties broken by name for determinism.
        funcs.sort_by(|a, b| {
            b.counters
                .inclusive
                .cmp(&a.counters.inclusive)
                .then_with(|| a.name.cmp(&b.name))
        });
        Profile {
            events: self.events.clone(),
            ops: self.ops.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            funcs,
            mem,
            cache: CacheStats::default(),
            cache_lines: Vec::new(),
            remarks: self.remarks.clone(),
            heap: HeapStats::default(),
            samples: self.sampler.snapshot(),
            parallel: self.par.clone(),
        }
    }
}

/// Live memory-system counters, embedded in the VM's `Memory`.
///
/// Fields are [`Cell`]s because loads go through `&Memory`; the VM gates
/// every `note_*` call behind its own profile flag, so a disabled run never
/// touches these.
#[derive(Debug, Default)]
pub struct MemCounters {
    mallocs: Cell<u64>,
    frees: Cell<u64>,
    peak_live_bytes: Cell<u64>,
    loads: [Cell<u64>; 4],
    stores: [Cell<u64>; 4],
    vec_loads: Cell<u64>,
    vec_stores: Cell<u64>,
    prefetches: Cell<u64>,
}

#[inline]
fn width_bucket(bytes: u64) -> usize {
    match bytes {
        1 => 0,
        2 => 1,
        4 => 2,
        _ => 3,
    }
}

impl MemCounters {
    /// Records a `malloc`, with the resulting live-byte figure for peak
    /// tracking.
    #[inline]
    pub fn note_malloc(&self, live_bytes: u64) {
        self.mallocs.set(self.mallocs.get() + 1);
        if live_bytes > self.peak_live_bytes.get() {
            self.peak_live_bytes.set(live_bytes);
        }
    }

    /// Records a successful `free`.
    #[inline]
    pub fn note_free(&self) {
        self.frees.set(self.frees.get() + 1);
    }

    /// Records a scalar load of `bytes` (1/2/4/8).
    #[inline]
    pub fn note_load(&self, bytes: u64) {
        let c = &self.loads[width_bucket(bytes)];
        c.set(c.get() + 1);
    }

    /// Records a scalar store of `bytes` (1/2/4/8).
    #[inline]
    pub fn note_store(&self, bytes: u64) {
        let c = &self.stores[width_bucket(bytes)];
        c.set(c.get() + 1);
    }

    /// Records a vector-register load.
    #[inline]
    pub fn note_vec_load(&self) {
        self.vec_loads.set(self.vec_loads.get() + 1);
    }

    /// Records a vector-register store.
    #[inline]
    pub fn note_vec_store(&self) {
        self.vec_stores.set(self.vec_stores.get() + 1);
    }

    /// Records a prefetch hint.
    #[inline]
    pub fn note_prefetch(&self) {
        self.prefetches.set(self.prefetches.get() + 1);
    }

    /// Clears every counter.
    pub fn reset(&self) {
        self.mallocs.set(0);
        self.frees.set(0);
        self.peak_live_bytes.set(0);
        for c in &self.loads {
            c.set(0);
        }
        for c in &self.stores {
            c.set(0);
        }
        self.vec_loads.set(0);
        self.vec_stores.set(0);
        self.prefetches.set(0);
    }

    /// Folds a frozen worker-shard snapshot into these counters: traffic
    /// counts add, the peak takes the max (each worker's peak is measured
    /// against the same shared heap's live-byte figure, so the max over
    /// shards equals the sequential peak).
    pub fn absorb(&self, s: &MemStats) {
        self.mallocs.set(self.mallocs.get() + s.mallocs);
        self.frees.set(self.frees.get() + s.frees);
        if s.peak_live_bytes > self.peak_live_bytes.get() {
            self.peak_live_bytes.set(s.peak_live_bytes);
        }
        for (c, v) in self.loads.iter().zip(s.loads) {
            c.set(c.get() + v);
        }
        for (c, v) in self.stores.iter().zip(s.stores) {
            c.set(c.get() + v);
        }
        self.vec_loads.set(self.vec_loads.get() + s.vec_loads);
        self.vec_stores.set(self.vec_stores.get() + s.vec_stores);
        self.prefetches.set(self.prefetches.get() + s.prefetches);
    }

    /// A plain-value copy of the current counts.
    pub fn snapshot(&self) -> MemStats {
        MemStats {
            mallocs: self.mallocs.get(),
            frees: self.frees.get(),
            peak_live_bytes: self.peak_live_bytes.get(),
            loads: [
                self.loads[0].get(),
                self.loads[1].get(),
                self.loads[2].get(),
                self.loads[3].get(),
            ],
            stores: [
                self.stores[0].get(),
                self.stores[1].get(),
                self.stores[2].get(),
                self.stores[3].get(),
            ],
            vec_loads: self.vec_loads.get(),
            vec_stores: self.vec_stores.get(),
            prefetches: self.prefetches.get(),
        }
    }
}

/// A frozen copy of [`MemCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Heap allocations.
    pub mallocs: u64,
    /// Heap frees.
    pub frees: u64,
    /// Peak bytes simultaneously live on the heap.
    pub peak_live_bytes: u64,
    /// Scalar loads by width: `[1, 2, 4, 8]` bytes.
    pub loads: [u64; 4],
    /// Scalar stores by width: `[1, 2, 4, 8]` bytes.
    pub stores: [u64; 4],
    /// Vector-register loads.
    pub vec_loads: u64,
    /// Vector-register stores.
    pub vec_stores: u64,
    /// Prefetch hints issued.
    pub prefetches: u64,
}

impl MemStats {
    /// Total scalar + vector loads.
    pub fn total_loads(&self) -> u64 {
        self.loads.iter().sum::<u64>() + self.vec_loads
    }

    /// Total scalar + vector stores.
    pub fn total_stores(&self) -> u64 {
        self.stores.iter().sum::<u64>() + self.vec_stores
    }
}

/// Geometry of one simulated cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Line size in bytes (power of two).
    pub line: u64,
    /// Associativity (ways per set).
    pub assoc: u64,
}

impl CacheLevelConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        (self.size / (self.line * self.assoc)).max(1)
    }
}

/// Geometry of the simulated two-level data-cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// The L1 data cache.
    pub l1: CacheLevelConfig,
    /// The unified L2 cache.
    pub l2: CacheLevelConfig,
}

impl Default for CacheConfig {
    /// A conventional small core: 32 KiB / 64 B / 8-way L1d over a
    /// 256 KiB / 64 B / 8-way L2.
    fn default() -> Self {
        CacheConfig {
            l1: CacheLevelConfig {
                size: 32 * 1024,
                line: 64,
                assoc: 8,
            },
            l2: CacheLevelConfig {
                size: 256 * 1024,
                line: 64,
                assoc: 8,
            },
        }
    }
}

/// Parses a size with an optional binary `k`/`m` suffix (`32k` = 32768).
fn parse_size(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'k') | Some(b'K') => (&s[..s.len() - 1], 1024),
        Some(b'm') | Some(b'M') => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    digits
        .parse::<u64>()
        .map(|v| v * mult)
        .map_err(|_| format!("invalid size '{s}'"))
}

impl CacheConfig {
    /// Parses a `--cache` spec of the form `l1=32k,64,8:l2=256k,64,8`
    /// (per level: total size, line size, associativity; sizes accept
    /// `k`/`m` suffixes). Both levels must be present.
    pub fn parse(spec: &str) -> Result<CacheConfig, String> {
        let mut cfg = CacheConfig::default();
        let (mut saw_l1, mut saw_l2) = (false, false);
        for part in spec.split(':') {
            let (name, geom) = part
                .split_once('=')
                .ok_or_else(|| format!("expected lN=size,line,assoc in '{part}'"))?;
            let fields: Vec<&str> = geom.split(',').collect();
            if fields.len() != 3 {
                return Err(format!("expected size,line,assoc in '{geom}'"));
            }
            let level = CacheLevelConfig {
                size: parse_size(fields[0])?,
                line: parse_size(fields[1])?,
                assoc: parse_size(fields[2])?,
            };
            if !level.line.is_power_of_two() || level.line < 8 {
                return Err(format!(
                    "line size {} must be a power of two >= 8",
                    level.line
                ));
            }
            if level.assoc == 0 || level.size < level.line * level.assoc {
                return Err(format!("cache '{name}' too small for {} ways", level.assoc));
            }
            if !level.size.is_multiple_of(level.line * level.assoc) {
                return Err(format!(
                    "cache '{name}' size {} is not a multiple of line*assoc",
                    level.size
                ));
            }
            match name.trim() {
                "l1" | "l1d" => {
                    cfg.l1 = level;
                    saw_l1 = true;
                }
                "l2" => {
                    cfg.l2 = level;
                    saw_l2 = true;
                }
                other => return Err(format!("unknown cache level '{other}' (use l1/l2)")),
            }
        }
        if !saw_l1 || !saw_l2 {
            return Err("spec must configure both l1 and l2".to_string());
        }
        Ok(cfg)
    }
}

/// Frozen hit/miss/eviction counts for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLevelStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
    /// Valid lines displaced by fills (demand or prefetch).
    pub evictions: u64,
}

impl CacheLevelStats {
    /// Total demand accesses at this level.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Misses per demand access, in `[0, 1]` (0 when never accessed).
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A frozen snapshot of the cache simulator, embedded in a [`Profile`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// The geometry the numbers were produced under.
    pub config: CacheConfig,
    /// L1 data cache counters.
    pub l1: CacheLevelStats,
    /// L2 counters (accessed only on L1 misses and prefetch fills).
    pub l2: CacheLevelStats,
    /// Prefetched lines that were demanded after the modeled latency.
    pub prefetch_useful: u64,
    /// Prefetched lines demanded *before* the modeled latency elapsed.
    pub prefetch_late: u64,
    /// Prefetches of already-resident lines, plus prefetched lines evicted
    /// without ever being demanded.
    pub prefetch_useless: u64,
}

impl CacheStats {
    /// Total demand accesses that entered the hierarchy.
    pub fn total_accesses(&self) -> u64 {
        self.l1.accesses()
    }
}

/// Cache behaviour attributed to one Terra source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineStat {
    /// Terra function the accesses executed in.
    pub func: String,
    /// 1-based source line (0 when the line is unknown).
    pub line: u32,
    /// Demand accesses issued from this line.
    pub accesses: u64,
    /// L1 misses among them.
    pub l1_misses: u64,
    /// L2 misses among them.
    pub l2_misses: u64,
}

/// A complete, frozen profile: timeline + all counters.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Staging/execution timeline spans, in completion order.
    pub events: Vec<SpanEvent>,
    /// Per-opcode execution counts, sorted by mnemonic.
    pub ops: Vec<(String, u64)>,
    /// Per-function counters, sorted by inclusive count (descending).
    pub funcs: Vec<FuncProfile>,
    /// Memory-system counters.
    pub mem: MemStats,
    /// Simulated cache-hierarchy counters.
    pub cache: CacheStats,
    /// Per-source-line cache attribution, sorted hottest (most L1 misses)
    /// first.
    pub cache_lines: Vec<LineStat>,
    /// Optimization remarks in emission order (deterministic).
    pub remarks: Vec<Remark>,
    /// Allocation-site heap profile (sites, high-water timeline, leaks).
    pub heap: HeapStats,
    /// Statistical profile from the deterministic sampling profiler.
    pub samples: SampleStats,
    /// Per-chunk `parallelfor` telemetry (shard counters preserved before
    /// the thread-invariant merge).
    pub parallel: ParallelStats,
}

impl Profile {
    /// Total VM instructions executed.
    pub fn total_instructions(&self) -> u64 {
        self.ops.iter().map(|(_, n)| *n).sum()
    }

    /// Executed count for one opcode mnemonic (0 if never executed).
    pub fn op_count(&self, mnemonic: &str) -> u64 {
        self.ops
            .iter()
            .find(|(m, _)| m == mnemonic)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Counters for a function by name.
    pub fn func(&self, name: &str) -> Option<&FuncProfile> {
        self.funcs.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercised_tracer() -> Tracer {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let s = t.now_us();
        t.record(Stage::Parse, "chunk", s);
        t.func_enter(Arc::from("outer"));
        t.tick("add.i");
        t.tick("add.i");
        t.func_enter(Arc::from("inner"));
        t.tick("mul.i");
        t.func_exit();
        t.tick("ret");
        t.func_exit();
        t
    }

    #[test]
    fn inclusive_exclusive_accounting() {
        let t = exercised_tracer();
        let p = t.snapshot(MemStats::default());
        assert_eq!(p.total_instructions(), 4);
        let outer = p.func("outer").unwrap().counters;
        assert_eq!(outer.calls, 1);
        assert_eq!(outer.exclusive, 3);
        assert_eq!(outer.inclusive, 4);
        let inner = p.func("inner").unwrap().counters;
        assert_eq!(inner.exclusive, 1);
        assert_eq!(inner.inclusive, 1);
        assert_eq!(p.op_count("add.i"), 2);
        assert_eq!(p.op_count("nope"), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let s = t.now_us();
        t.record(Stage::Parse, "chunk", s);
        assert!(t.snapshot(MemStats::default()).events.is_empty());
    }

    #[test]
    fn unwind_attributes_partial_counts() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.func_enter(Arc::from("f"));
        t.tick("add.i");
        t.func_enter(Arc::from("g"));
        t.tick("div.s");
        t.unwind_to(0);
        let p = t.snapshot(MemStats::default());
        assert_eq!(p.func("g").unwrap().counters.exclusive, 1);
        assert_eq!(p.func("f").unwrap().counters.inclusive, 2);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn mem_counters_roundtrip() {
        let c = MemCounters::default();
        c.note_malloc(128);
        c.note_malloc(64); // live shrank (hypothetically); peak must hold
        c.note_free();
        c.note_load(8);
        c.note_load(1);
        c.note_store(4);
        c.note_vec_load();
        c.note_vec_store();
        c.note_prefetch();
        let s = c.snapshot();
        assert_eq!(s.mallocs, 2);
        assert_eq!(s.frees, 1);
        assert_eq!(s.peak_live_bytes, 128);
        assert_eq!(s.loads, [1, 0, 0, 1]);
        assert_eq!(s.stores, [0, 0, 1, 0]);
        assert_eq!(s.total_loads(), 3);
        assert_eq!(s.total_stores(), 2);
        c.reset();
        assert_eq!(c.snapshot(), MemStats::default());
    }

    #[test]
    fn cache_config_parse() {
        let cfg = CacheConfig::parse("l1=32k,64,8:l2=256k,64,8").unwrap();
        assert_eq!(cfg, CacheConfig::default());
        assert_eq!(cfg.l1.sets(), 64);
        assert_eq!(cfg.l2.sets(), 512);

        let cfg = CacheConfig::parse("l1=16k,32,4:l2=1m,64,16").unwrap();
        assert_eq!(cfg.l1.size, 16 * 1024);
        assert_eq!(cfg.l1.line, 32);
        assert_eq!(cfg.l1.assoc, 4);
        assert_eq!(cfg.l2.size, 1024 * 1024);
        assert_eq!(cfg.l2.assoc, 16);

        assert!(CacheConfig::parse("l1=32k,64,8").is_err()); // missing l2
        assert!(CacheConfig::parse("l3=32k,64,8:l2=256k,64,8").is_err());
        assert!(CacheConfig::parse("l1=32k,63,8:l2=256k,64,8").is_err()); // line not pow2
        assert!(CacheConfig::parse("l1=64,64,8:l2=256k,64,8").is_err()); // too small
        assert!(CacheConfig::parse("l1=1000,64,8:l2=256k,64,8").is_err()); // not multiple
        assert!(CacheConfig::parse("garbage").is_err());
    }

    #[test]
    fn sampling_captures_the_activation_stack() {
        let mut t = Tracer::new();
        t.set_sample_interval(2);
        t.func_enter(Arc::from("outer"));
        t.sample_tick(); // 1: no sample
        t.func_enter(Arc::from("inner"));
        t.sample_tick(); // 2: sample at outer;inner
        t.sample_tick(); // 3
        t.func_exit();
        t.sample_tick(); // 4: sample at outer
        t.func_exit();
        let p = t.snapshot(MemStats::default());
        assert_eq!(p.samples.interval, 2);
        assert_eq!(p.samples.total, 2);
        assert_eq!(
            p.samples.stacks,
            vec![("outer".to_string(), 1), ("outer;inner".to_string(), 1)]
        );
    }

    #[test]
    fn sampling_off_records_nothing() {
        let mut t = Tracer::new();
        t.func_enter(Arc::from("f"));
        t.sample_tick();
        t.func_exit();
        assert_eq!(t.snapshot(MemStats::default()).samples.total, 0);
    }

    #[test]
    fn cache_level_stats_rates() {
        let s = CacheLevelStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        assert_eq!(s.accesses(), 4);
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
        assert_eq!(CacheLevelStats::default().miss_rate(), 0.0);
    }
}
