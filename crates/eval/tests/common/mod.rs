//! Shared flight-recorder glue for the differential proptest harnesses.
//!
//! When a differential test fails, "outputs differ" is a weak signal. The
//! helper here records both sides of the differential with the execution
//! flight recorder, aligns the recordings, re-records the first divergent
//! checkpoint window at full fidelity, and renders the first divergent
//! effect — function, source line, staging provenance — so the proptest
//! failure message says *where* the executions split, not just that they
//! did.

// Each test binary compiles its own copy of this module and uses a
// different subset of it.
#![allow(dead_code)]

use terra_eval::Interp;
use terra_ir::OptLevel;
use terra_trace::{replay, RecMeta, Recording};

/// One side of a differential: the configuration a program runs under.
#[derive(Debug, Clone, Copy)]
pub struct RecConfig {
    pub opt: OptLevel,
    pub threads: usize,
    pub sanitize: bool,
}

impl RecConfig {
    /// A default configuration at the given opt level (one thread, no
    /// sanitizer) — the common differential axis.
    pub fn at(opt: OptLevel) -> Self {
        RecConfig {
            opt,
            threads: 1,
            sanitize: false,
        }
    }

    fn opt_num(&self) -> u8 {
        match self.opt {
            OptLevel::O0 => 0,
            OptLevel::O1 => 1,
            OptLevel::O2 => 2,
        }
    }

    fn meta(&self, window: Option<(u64, u64)>) -> RecMeta {
        RecMeta {
            // These runs re-execute from in-memory source, not a file.
            script: "<generated>".to_string(),
            opt: self.opt_num(),
            sanitize: self.sanitize,
            // Tight cadence: generated programs are small, and small
            // windows keep the full-fidelity re-record cheap.
            cadence: 64,
            window,
        }
    }
}

/// Executes `setup` (definitions) then records `call` under `cfg`. A trap
/// during `call` still yields a usable partial recording.
pub fn record_at(
    setup: &str,
    call: &str,
    cfg: &RecConfig,
    window: Option<(u64, u64)>,
) -> Result<Recording, String> {
    let mut t = Interp::new();
    t.opt = cfg.opt;
    t.ctx.exec.set_threads(cfg.threads);
    if cfg.sanitize {
        t.ctx.exec.memory.set_sanitize(true);
    }
    t.capture_output();
    t.exec(setup).map_err(|e| e.to_string())?;
    t.ctx.exec.set_record(cfg.meta(window));
    let _ = t.exec(call);
    t.ctx
        .exec
        .take_recording()
        .ok_or_else(|| "recorder was not running".to_string())
}

/// Records `setup` + `call` under both configurations, diffs the
/// recordings, and renders the first divergence. Returns a rendered report
/// either way (clean differentials render as "0 divergences" — useful when
/// the outputs differed through a channel the recorder does not cover).
pub fn divergence_report(setup: &str, call: &str, a: RecConfig, b: RecConfig) -> String {
    let ra = match record_at(setup, call, &a, None) {
        Ok(r) => r,
        Err(e) => return format!("(flight recorder unavailable on side A: {e})"),
    };
    let rb = match record_at(setup, call, &b, None) {
        Ok(r) => r,
        Err(e) => return format!("(flight recorder unavailable on side B: {e})"),
    };
    match replay::diff(&ra, &rb, |meta, window| {
        // The meta names the side to re-record (recordings are
        // thread-count invariant, so identical metas mean either side's
        // config reproduces the same effect stream).
        let cfg = if *meta == a.meta(Some(window)) {
            &a
        } else {
            &b
        };
        record_at(setup, call, cfg, Some(window))
    }) {
        Ok(report) => report.render(),
        Err(e) => format!("(replay-diff failed: {e})"),
    }
}
