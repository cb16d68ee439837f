//! Observer modes: the same op run plain or with one of terra's telemetry
//! observers switched on, including the cost of collecting its result.

use crate::gen::Rng;
use crate::trace::Tracer;
use std::hint::black_box;
use terra_core::{RecMeta, Terra};

/// Retired instructions between two stack samples.
const SAMPLE_INTERVAL: u64 = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Plain,
    Profile,
    Sample,
    Record,
    Sanitize,
}

pub const OBSERVERS: [Mode; 4] = [Mode::Profile, Mode::Sample, Mode::Record, Mode::Sanitize];

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Profile => "profile",
            Mode::Sample => "sample",
            Mode::Record => "record",
            Mode::Sanitize => "sanitize",
        }
    }

    /// Switches the observer on before the op.
    pub fn enter(self, t: &mut Terra) {
        match self {
            Mode::Plain => {}
            Mode::Profile => {
                t.set_profile(true);
                t.reset_profile();
            }
            Mode::Sample => t.set_sample_interval(SAMPLE_INTERVAL),
            Mode::Record => t.set_record(RecMeta::coarse("calbench", 2)),
            Mode::Sanitize => t.set_sanitize(true),
        }
    }

    /// Collects the observer's result and switches it off. Returns the
    /// serialized recording's size in record mode, else 0.
    pub fn exit(self, t: &mut Terra, tr: &mut Tracer) -> usize {
        match self {
            Mode::Plain => 0,
            Mode::Profile => {
                let p = tr.span("Terra::profile", |_| t.profile());
                let report = tr.span("Profile::render_report", |_| p.render_report());
                black_box(report.len());
                t.set_profile(false);
                t.reset_profile();
                0
            }
            Mode::Sample => {
                t.set_sample_interval(0);
                t.reset_profile();
                0
            }
            Mode::Record => tr
                .span("Terra::take_recording", |_| t.take_recording())
                .map_or(0, |r| r.to_text().len()),
            Mode::Sanitize => {
                t.set_sanitize(false);
                0
            }
        }
    }
}

/// Seeded mode schedule: each cycle holds `plain` plain ops and one op per
/// observer, shuffled.
pub struct Schedule {
    rng: Rng,
    plain: usize,
    pending: Vec<Mode>,
    cycle: u64,
}

impl Schedule {
    pub fn new(seed: u64, plain: usize) -> Schedule {
        Schedule {
            rng: Rng::new(seed ^ 0x0B5E_44E5),
            plain,
            pending: Vec::new(),
            cycle: 0,
        }
    }

    pub fn next_mode(&mut self) -> Mode {
        if self.pending.is_empty() {
            self.cycle += 1;
            self.pending = vec![Mode::Plain; self.plain];
            self.pending.extend(OBSERVERS);
            self.rng.shuffle(&mut self.pending);
        }
        self.pending.pop().expect("a cycle is never empty")
    }

    /// The cycle the last mode came from.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}
