//! The mid-end: an explicit pass manager over the typed IR.
//!
//! The IR→bytecode path runs every function through a pipeline of
//! independent transform passes selected by an [`OptLevel`]:
//!
//! | level | pipeline |
//! |-------|----------|
//! | `-O0` | none — the typechecker's IR compiles as-is |
//! | `-O1` | fold → simplify → copyprop → dce |
//! | `-O2` | inline → fold → simplify → cse → copyprop → licm → copyprop → dce |
//!
//! Every pass must preserve *observable semantics*: outputs, stores, traps
//! (including which trap fires first), and calls. The shared vocabulary for
//! that contract lives in [`util`]: a pass may delete or duplicate only
//! [pure](util::expr_is_pure) computation and may cache/reuse only
//! [stable](util::expr_is_stable) values.
//!
//! **Verifier-between-passes invariant:** if a function verifies cleanly
//! going into the pipeline, it must verify cleanly after every pass that
//! changed it. A violation is a compiler bug: debug builds panic at the
//! offending pass; release builds revert that pass's effect (the pipeline
//! snapshots the function before each pass) and continue, preferring slower
//! correct code over a miscompile.
//!
//! Per-pass wall-clock timings are returned in [`PassStats`] so the driver
//! can emit one trace span per pass (`--profile` shows where compile time
//! goes).

mod copyprop;
mod cse;
mod dce;
pub mod fold;
mod inline;
mod licm;
mod simplify;
pub mod util;

use crate::analysis::{verify_function, ModuleEnv};
use crate::ir::{FuncId, IrFunction};
use crate::types::TypeRegistry;
use std::sync::Arc;
use std::time::Instant;
use terra_syntax::Provenance;

pub use inline::MAX_CALLEE_NODES;

/// How hard the mid-end works on each function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// No transformations: compile the typechecker's IR directly.
    O0,
    /// Cheap cleanups: constant folding, algebraic simplification, copy
    /// propagation, dead-code elimination.
    O1,
    /// The full pipeline, adding inlining, CSE, and loop-invariant code
    /// motion.
    #[default]
    O2,
}

impl OptLevel {
    /// Parses a CLI spelling (`"0"`, `"1"`, `"2"`).
    pub fn parse(s: &str) -> Option<OptLevel> {
        match s {
            "0" => Some(OptLevel::O0),
            "1" => Some(OptLevel::O1),
            "2" => Some(OptLevel::O2),
            _ => None,
        }
    }

    /// The flag spelling (`"-O2"`).
    pub fn flag(self) -> &'static str {
        match self {
            OptLevel::O0 => "-O0",
            OptLevel::O1 => "-O1",
            OptLevel::O2 => "-O2",
        }
    }
}

/// The inliner's window into the module: the typed IR of potential callees.
///
/// Returning `None` simply makes the call ineligible for inlining — e.g.
/// for functions that are declared but not yet typechecked.
pub trait InlineEnv {
    /// The callee's IR, if available.
    fn callee_ir(&self, id: FuncId) -> Option<IrFunction>;
}

/// An [`InlineEnv`] with no visibility: disables inlining.
pub struct NoInline;

impl InlineEnv for NoInline {
    fn callee_ir(&self, _id: FuncId) -> Option<IrFunction> {
        None
    }
}

/// Everything the pipeline needs to know about the world around a function.
pub struct PassConfig<'a> {
    /// Optimization level selecting the pipeline.
    pub level: OptLevel,
    /// Struct layouts for the verifier (None skips layout checks).
    pub types: Option<&'a TypeRegistry>,
    /// Module signatures/globals for the verifier.
    pub env: &'a dyn ModuleEnv,
    /// Callee IR source for the inliner.
    pub inline: &'a dyn InlineEnv,
}

/// Whether a remark reports a transformation that happened or an
/// opportunity the pass saw but declined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemarkKind {
    /// The pass transformed the code as described.
    Applied,
    /// The pass recognized a candidate but could not transform it; the
    /// message says why (size budget, effects, multiple exits, …).
    Missed,
}

impl RemarkKind {
    /// Lower-case label for report rendering (`"applied"` / `"missed"`).
    pub fn label(self) -> &'static str {
        match self {
            RemarkKind::Applied => "applied",
            RemarkKind::Missed => "missed",
        }
    }
}

/// One structured optimization remark: what a pass did (or declined to do),
/// where, and to code of what staging origin. Remarks are emitted in pass
/// execution order and carry no wall-clock data, so two identical runs
/// produce byte-identical remark streams.
#[derive(Debug, Clone)]
pub struct Remark {
    /// Emitting pass (`"inline"`, `"licm"`, …).
    pub pass: &'static str,
    /// Applied or missed.
    pub kind: RemarkKind,
    /// Function being optimized (filled in by [`optimize`]).
    pub function: Arc<str>,
    /// 1-based source line the remark anchors to (0 = whole function).
    pub line: u32,
    /// Staging chain of the affected code, when it was generated.
    pub prov: Option<Provenance>,
    /// Human-readable explanation.
    pub message: String,
}

impl Remark {
    /// An applied-transformation remark (function name filled in later).
    pub(crate) fn applied(
        pass: &'static str,
        line: u32,
        prov: Option<Provenance>,
        message: String,
    ) -> Self {
        Remark {
            pass,
            kind: RemarkKind::Applied,
            function: Arc::from(""),
            line,
            prov,
            message,
        }
    }

    /// A missed-opportunity remark (function name filled in later).
    pub(crate) fn missed(
        pass: &'static str,
        line: u32,
        prov: Option<Provenance>,
        message: String,
    ) -> Self {
        Remark {
            pass,
            kind: RemarkKind::Missed,
            function: Arc::from(""),
            line,
            prov,
            message,
        }
    }
}

/// The record of one pass execution.
#[derive(Debug, Clone)]
pub struct PassRun {
    /// Pass name (`"fold"`, `"cse"`, …).
    pub pass: &'static str,
    /// Whether the pass changed the function.
    pub changed: bool,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Whether the pass's effect was reverted because it broke the
    /// verifier invariant (release builds only; debug builds panic).
    pub reverted: bool,
}

/// Per-function pipeline statistics, in execution order.
#[derive(Debug, Clone, Default)]
pub struct PassStats {
    /// One entry per executed pass.
    pub runs: Vec<PassRun>,
    /// Structured optimization remarks, in emission order. Remarks from a
    /// reverted pass are discarded along with its effect.
    pub remarks: Vec<Remark>,
}

#[derive(Clone, Copy)]
enum Pass {
    Inline,
    Fold,
    Simplify,
    Cse,
    CopyProp,
    Licm,
    Dce,
}

impl Pass {
    fn name(self) -> &'static str {
        match self {
            Pass::Inline => "inline",
            Pass::Fold => "fold",
            Pass::Simplify => "simplify",
            Pass::Cse => "cse",
            Pass::CopyProp => "copyprop",
            Pass::Licm => "licm",
            Pass::Dce => "dce",
        }
    }

    fn apply(self, f: &mut IrFunction, cfg: &PassConfig, remarks: &mut Vec<Remark>) {
        match self {
            Pass::Inline => inline::run(f, cfg.inline, remarks),
            Pass::Fold => fold::run(f, remarks),
            Pass::Simplify => simplify::run(f, remarks),
            Pass::Cse => cse::run(f, remarks),
            Pass::CopyProp => copyprop::run(f, remarks),
            Pass::Licm => licm::run(f, cfg, remarks),
            Pass::Dce => dce::run(f, remarks),
        }
    }
}

fn pipeline(level: OptLevel) -> &'static [Pass] {
    match level {
        OptLevel::O0 => &[],
        OptLevel::O1 => &[Pass::Fold, Pass::Simplify, Pass::CopyProp, Pass::Dce],
        OptLevel::O2 => &[
            Pass::Inline,
            Pass::Fold,
            Pass::Simplify,
            Pass::Cse,
            Pass::CopyProp,
            Pass::Licm,
            Pass::CopyProp,
            Pass::Dce,
        ],
    }
}

/// Runs the pipeline selected by `cfg.level` over `f`, enforcing the
/// verifier-between-passes invariant, and returns per-pass statistics.
pub fn optimize(f: &mut IrFunction, cfg: &PassConfig) -> PassStats {
    let mut stats = PassStats::default();
    let passes = pipeline(cfg.level);
    if passes.is_empty() {
        return stats;
    }
    // Only police passes on functions that were consistent to begin with;
    // the driver separately rejects functions that fail verification.
    let baseline_ok = verify_function(f, cfg.types, cfg.env).is_ok();
    for pass in passes {
        let snapshot = f.clone();
        let remarks_before = stats.remarks.len();
        let t0 = Instant::now();
        pass.apply(f, cfg, &mut stats.remarks);
        let dur_us = t0.elapsed().as_micros() as u64;
        let changed = *f != snapshot;
        let mut reverted = false;
        if changed && baseline_ok {
            if let Err(d) = verify_function(f, cfg.types, cfg.env) {
                if cfg!(debug_assertions) {
                    panic!(
                        "optimization pass '{}' broke IR consistency in '{}': {}",
                        pass.name(),
                        f.name,
                        d
                    );
                }
                *f = snapshot;
                reverted = true;
                // A reverted pass's remarks describe changes that were
                // undone; drop them so the stream matches the final code.
                stats.remarks.truncate(remarks_before);
            }
        }
        for r in &mut stats.remarks[remarks_before..] {
            r.function = Arc::clone(&f.name);
        }
        stats.runs.push(PassRun {
            pass: pass.name(),
            changed: changed && !reverted,
            dur_us,
            reverted,
        });
    }
    stats
}
