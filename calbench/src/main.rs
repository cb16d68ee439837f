//! calbench: a single-process, single-thread, closed-loop wall-clock
//! benchmark of terra-rs. See README.md for the workloads, the metrics and
//! why gated times are reported in calibration units.
//!
//! Usage: `terra-calbench --workload kernels|staging|observe --seed N
//! --seconds S --trace 0|1`. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod cal;
mod gen;
mod kernels;
mod layers;
mod mode;
mod staging;
mod stats;
mod trace;

use gen::Rng;
use kernels::{Inputs, KernelSet};
use mode::{Mode, Schedule, OBSERVERS};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use terra_core::OptLevel;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median. The first one is the set-up
/// the run uses, the rest are spread evenly over the measured window.
const SETUPS: u32 = 11;
/// What a traced run adds after its window so every layer is measured
/// whatever the workload: paired -O2/-O0 stagings, kernel rounds, observer
/// cycles and parallel runs.
const SWEEP_DRAWS: usize = 4;
const SWEEP_ROUNDS: usize = 4;
const SWEEP_CYCLES: usize = 2;
const PAR_REPS: usize = 5;
const FN_O2: &str = "Terra::function";
const FN_O0: &str = "Terra::function@O0";
const HOST_IO: [&str; 4] = [
    "Terra::malloc",
    "Terra::write_f64s",
    "Terra::write_f32s",
    "Memory::store_i32",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Kernels,
    Staging,
    Observe,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Kernels, Workload::Staging, Workload::Observe];

    fn name(self) -> &'static str {
        match self {
            Workload::Kernels => "kernels",
            Workload::Staging => "staging",
            Workload::Observe => "observe",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Plain ops per cycle of the mode schedule; each cycle also runs one op
    /// under each observer. `observe` spends most of its time observed (a
    /// profiled op costs about ten plain ones); the other two keep more
    /// plain ops for their own figures while each observer still gets a
    /// median of its own, taken on that workload's op.
    fn plain_per_cycle(self) -> usize {
        match self {
            Workload::Observe => 4,
            _ => 6,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let trace = num("--trace")?;
    let seconds = num("--seconds")?;
    if trace > 1 || !(1..=600).contains(&seconds) {
        return Err("--trace is 0 or 1 and --seconds is 1..=600".into());
    }
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload '{workload}'"))?,
        seed: num("--seed")?,
        seconds,
        trace: trace == 1,
    })
}

/// One timed op and the calibration runs on either side of it.
struct Sample {
    op: u64,
    workload: Workload,
    mode: Mode,
    cycle: u64,
    traced: bool,
    cal_ns: u64,
    /// The next calibration run, which closes this op's pair.
    cal_after_ns: u64,
    op_ns: u64,
    ok: bool,
    /// The serialized recording's size, for a record-mode op.
    record_bytes: usize,
}

impl Sample {
    fn cu(&self) -> f64 {
        stats::cu(self.op_ns, self.cal_ns, self.cal_after_ns)
    }

    /// A part of the op (`ns`) in calibration units of this op's pair.
    fn part_cu(&self, ns: f64) -> f64 {
        stats::cu(ns as u64, self.cal_ns, self.cal_after_ns)
    }
}

/// What the traced sweep measures outside the spans.
struct Sweep {
    /// Retired instructions of one profiled run per kernel.
    retired: Vec<(&'static str, u64)>,
    /// The kernel-set session's bytecode size.
    code_instrs: u64,
    /// `parallelfor` GEMM at 2 threads over 1.
    speedup: f64,
}

enum Prepared {
    Round(Vec<usize>),
    Draw(Box<staging::Draw>),
}

struct Run {
    rng: Rng,
    inputs: Inputs,
    ks: Option<KernelSet>,
    tr: Tracer,
    cal_ref: Option<cal::CalRun>,
    cal_ok: bool,
    samples: Vec<Sample>,
    setup_s: Vec<f64>,
    /// Op ids of the traced kernel-set set-ups, -O2 stagings (all, and the
    /// sweep's paired ones) and -O0 stagings.
    setup_ops: Vec<u64>,
    staging_ops: Vec<u64>,
    paired_o2_ops: Vec<u64>,
    o0_ops: Vec<u64>,
    failures: usize,
    next_op: u64,
}

impl Run {
    fn new(seed: u64, trace: bool) -> Run {
        let mut rng = Rng::new(seed);
        let inputs = Inputs::new(&mut rng);
        Run {
            rng,
            inputs,
            ks: None,
            tr: Tracer::new(trace),
            cal_ref: None,
            cal_ok: true,
            samples: Vec::new(),
            setup_s: Vec::new(),
            setup_ops: Vec::new(),
            staging_ops: Vec::new(),
            paired_o2_ops: Vec::new(),
            o0_ops: Vec::new(),
            failures: 0,
            next_op: 0,
        }
    }

    fn begin_op(&mut self, traced: bool) -> u64 {
        let id = self.next_op;
        self.next_op += 1;
        self.tr.begin_op(id, traced);
        id
    }

    fn fail(&mut self, e: String) {
        if self.failures < 8 {
            eprintln!("calbench: failed op: {e}");
        }
        self.failures += 1;
    }

    /// Session creation, staging of the workload's fixed programs, and input
    /// allocation and writes: the work `setup_s` times.
    fn setup(&mut self, w: Workload, traced: bool) -> Result<(), String> {
        let id = self.begin_op(traced);
        match w {
            Workload::Kernels | Workload::Observe => {
                let names: Vec<&str> = match w {
                    Workload::Kernels => kernels::ALL.iter().map(|(n, _)| *n).collect(),
                    _ => kernels::OBSERVED.to_vec(),
                };
                // The previous set goes first, so two never coexist.
                self.ks = None;
                let t0 = Instant::now();
                let ks = KernelSet::stage(&self.inputs, &names, &mut self.tr)?;
                self.setup_s.push(t0.elapsed().as_secs_f64());
                self.ks = Some(ks);
                if traced && w == Workload::Kernels {
                    self.setup_ops.push(id);
                }
            }
            Workload::Staging => {
                let t0 = Instant::now();
                let t = staging::session(&mut self.tr, OptLevel::O2, Mode::Plain)?;
                self.setup_s.push(t0.elapsed().as_secs_f64());
                drop(t);
            }
        }
        Ok(())
    }

    fn prepare(&mut self, w: Workload) -> Prepared {
        match w {
            Workload::Staging => Prepared::Draw(Box::new(staging::Draw::new(&mut self.rng))),
            _ => {
                let ks = self.ks.as_ref().expect("set up before the first op");
                let mut order: Vec<usize> = (0..ks.kernels.len())
                    .filter(|&i| {
                        w == Workload::Kernels || kernels::OBSERVED.contains(&ks.kernels[i].name)
                    })
                    .collect();
                self.rng.shuffle(&mut order);
                Prepared::Round(order)
            }
        }
    }

    /// Runs the calibration loop once, checks its checksum and closes the
    /// previous op's pair with it.
    fn calibrate(&mut self) -> u64 {
        let t0 = Instant::now();
        let c = cal::run();
        let ns = t0.elapsed().as_nanos() as u64;
        match self.cal_ref {
            None => self.cal_ref = Some(c),
            Some(r) => self.cal_ok &= r == c,
        }
        if let Some(prev) = self.samples.last_mut().filter(|s| s.cal_after_ns == 0) {
            prev.cal_after_ns = ns;
        }
        ns
    }

    /// One calibration run, then one op right after it; the next
    /// calibration run (see [`Run::calibrate`]) closes the pair.
    fn op(
        &mut self,
        w: Workload,
        mode: Mode,
        cycle: u64,
        traced: bool,
        opt: OptLevel,
    ) -> Option<u64> {
        let prep = self.prepare(w);
        let id = self.begin_op(traced);
        let cal_ns = self.calibrate();
        let t0 = Instant::now();
        let (op_ns, result) = match prep {
            Prepared::Round(order) => {
                let ks = self.ks.as_mut().expect("set up before the first op");
                let (outs, bytes) = self.tr.span("op", |tr| ks.round(&order, mode, tr));
                let op_ns = t0.elapsed().as_nanos() as u64;
                (op_ns, ks.verify(outs, &mut self.tr).map(|()| bytes))
            }
            Prepared::Draw(d) => {
                let fn_span = if opt == OptLevel::O0 { FN_O0 } else { FN_O2 };
                let r = self
                    .tr
                    .span("op", |tr| staging::op(&d, mode, opt, fn_span, tr));
                (t0.elapsed().as_nanos() as u64, r)
            }
        };
        let (ok, record_bytes) = match result {
            Ok(bytes) => (true, bytes),
            Err(e) => {
                self.fail(format!("{}/{}: {e}", w.name(), mode.name()));
                (false, 0)
            }
        };
        if traced && w == Workload::Staging {
            match opt {
                OptLevel::O0 => self.o0_ops.push(id),
                _ => self.staging_ops.push(id),
            }
        }
        self.samples.push(Sample {
            op: id,
            workload: w,
            mode,
            cycle,
            traced,
            cal_ns,
            cal_after_ns: 0,
            op_ns,
            ok,
            record_bytes,
        });
        ok.then_some(id)
    }

    /// The measured window: ops in seeded mode order until the deadline,
    /// with the extra set-ups spread over it. A traced run traces every
    /// other op, so it can state its own overhead.
    fn window(&mut self, w: Workload, seed: u64, seconds: u64, trace: bool) -> Result<(), String> {
        let mut sched = Schedule::new(seed, w.plain_per_cycle());
        let start = Instant::now();
        let window = Duration::from_secs(seconds);
        let mut setups = 1;
        let mut i = 0u64;
        while start.elapsed() < window {
            if start.elapsed() >= window * setups / SETUPS {
                self.setup(w, trace)?;
                setups += 1;
            }
            let mode = sched.next_mode();
            self.op(
                w,
                mode,
                sched.cycle(),
                trace && i.is_multiple_of(2),
                OptLevel::O2,
            );
            i += 1;
        }
        self.calibrate();
        Ok(())
    }

    /// A traced run's layer sweep (see `SWEEP_DRAWS`).
    fn sweep(&mut self, w: Workload) -> Result<Sweep, String> {
        for _ in 0..SWEEP_DRAWS {
            let seed = self.rng.next_u64();
            for opt in [OptLevel::O2, OptLevel::O0] {
                self.rng = Rng::new(seed);
                if let Some(id) = self.op(Workload::Staging, Mode::Plain, u64::MAX, true, opt) {
                    if opt == OptLevel::O2 {
                        self.paired_o2_ops.push(id);
                    }
                }
            }
        }
        if w != Workload::Kernels {
            self.setup(Workload::Kernels, true)?;
        }
        for _ in 0..SWEEP_ROUNDS {
            self.op(Workload::Kernels, Mode::Plain, u64::MAX, true, OptLevel::O2);
        }
        if w != Workload::Observe {
            for c in 0..SWEEP_CYCLES {
                for mode in [Mode::Plain].into_iter().chain(OBSERVERS) {
                    self.op(
                        Workload::Observe,
                        mode,
                        u64::MAX - 1 - c as u64,
                        true,
                        OptLevel::O2,
                    );
                }
            }
        }
        self.begin_op(true);
        self.calibrate();
        let ks = self.ks.as_mut().expect("kernel set staged");
        let retired = ks.retired(&mut self.tr);
        let code_instrs = ks.code_instrs();
        let speedup = self.speedup_t2()?;
        Ok(Sweep {
            retired,
            code_instrs,
            speedup,
        })
    }

    /// `gemm.t`'s `parallelfor` GEMM at 2 threads against 1, alternating.
    fn speedup_t2(&mut self) -> Result<f64, String> {
        let ks = self.ks.as_mut().expect("kernel set staged");
        let i = ks
            .kernels
            .iter()
            .position(|k| k.name == "gemm_par")
            .ok_or("no gemm_par kernel")?;
        let mut ms = [Vec::new(), Vec::new()];
        for rep in 0..PAR_REPS {
            for threads in if rep % 2 == 0 { [1, 2] } else { [2, 1] } {
                ks.terra.set_threads(threads);
                let t0 = Instant::now();
                let r = ks.run(i, &mut self.tr);
                ms[threads - 1].push(t0.elapsed().as_secs_f64());
                r.and_then(|v| ks.check(i, &v, &mut self.tr))?;
            }
        }
        ks.terra.set_threads(1);
        Ok(stats::median(&ms[0]) / stats::median(&ms[1]))
    }
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host cores as `nproc` reports them.
fn host_cores() -> usize {
    std::process::Command::new("nproc")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok()?.trim().parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn cus<'a>(it: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    it.map(Sample::cu).collect()
}

/// Observed op over the median plain op of the same cycle, per cycle.
fn observer_factor(samples: &[&Sample], mode: Mode) -> Vec<f64> {
    let mut out = Vec::new();
    for s in samples.iter().filter(|s| s.mode == mode && s.ok) {
        let plain = cus(samples
            .iter()
            .copied()
            .filter(|p| p.cycle == s.cycle && p.mode == Mode::Plain && p.ok));
        if !plain.is_empty() {
            out.push(s.cu() / stats::median(&plain));
        }
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("calbench: {e}");
            eprintln!("usage: terra-calbench --workload kernels|staging|observe --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let mut run = Run::new(args.seed, args.trace);
    if let Err(e) = run.setup(w, args.trace) {
        eprintln!("calbench: set-up failed: {e}");
        std::process::exit(1);
    }
    // Warm caches and lazy state with one unmeasured op per mode.
    for mode in [Mode::Plain].into_iter().chain(OBSERVERS) {
        run.op(w, mode, 0, false, OptLevel::O2);
    }
    run.samples.clear();
    let warm_failures = run.failures;
    if let Err(e) = run.window(w, args.seed, args.seconds, args.trace) {
        eprintln!("calbench: set-up failed: {e}");
        std::process::exit(1);
    }
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let window_ops = run.samples.len();
    let window_failed = run.samples.iter().filter(|s| !s.ok).count() as u64;
    let mode_cu = |mode: Mode, traced: bool| -> Vec<f64> {
        cus(run
            .samples
            .iter()
            .filter(|s| s.mode == mode && s.traced == traced))
    };
    let plain_cu = mode_cu(Mode::Plain, false);
    let traced_plain = mode_cu(Mode::Plain, true);
    let observer_cu: Vec<Vec<f64>> = OBSERVERS.iter().map(|&m| mode_cu(m, false)).collect();
    let cal_ms: Vec<f64> = run.samples.iter().map(|s| s.cal_ns as f64 / 1e6).collect();
    let op_ms: Vec<f64> = run
        .samples
        .iter()
        .filter(|s| s.mode == Mode::Plain && !s.traced)
        .map(|s| s.op_ns as f64 / 1e6)
        .collect();
    let modes: Vec<String> = [Mode::Plain]
        .into_iter()
        .chain(OBSERVERS)
        .map(|m| {
            format!(
                "{}={}",
                m.name(),
                run.samples.iter().filter(|s| s.mode == m).count()
            )
        })
        .collect();
    let tail = stats::tail_percentile(plain_cu.len());
    let p90 = if tail.is_some_and(|p| p >= 90) {
        90
    } else {
        tail.unwrap_or(50)
    };

    if !args.trace {
        metrics.push(("setup_s".into(), stats::median(&run.setup_s), "s"));
        metrics.push(("op_cu_p50".into(), stats::median(&plain_cu), "cu"));
        metrics.push(("op_cu_p90".into(), stats::percentile(&plain_cu, p90), "cu"));
        metrics.push((
            "ok_ratio".into(),
            stats::ok_ratio(window_ops as u64, window_failed),
            "ratio",
        ));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb(), "MB"));
        for (mode, v) in OBSERVERS.iter().zip(&observer_cu) {
            metrics.push((format!("{}_cu_p50", mode.name()), stats::median(v), "cu"));
        }
    } else {
        let Sweep {
            retired,
            code_instrs,
            speedup,
        } = match run.sweep(w) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("calbench: layer sweep failed: {e}");
                std::process::exit(1);
            }
        };
        let tr = &run.tr;
        let med = |name: &str, ops: &[u64]| stats::median(&tr.per_op_ms(&[name], ops));
        let parse = tr.per_op_ms(&["terra_syntax::parse"], &run.staging_ops);
        let exec = tr.per_op_ms(&["Terra::exec", "Pipeline::compile"], &run.staging_ops);
        let exec_only: Vec<f64> = exec.iter().zip(&parse).map(|(e, p)| e - p).collect();
        let fn_o2 = med(FN_O2, &run.paired_o2_ops);
        let fn_o0 = med(FN_O0, &run.o0_ops);
        let sessions: Vec<u64> = run
            .setup_ops
            .iter()
            .chain(&run.staging_ops)
            .copied()
            .collect();
        metrics.push(("syntax.parse_ms".into(), stats::median(&parse), "ms"));
        metrics.push(("eval.session_ms".into(), med("Terra::new", &sessions), "ms"));
        metrics.push(("eval.exec_ms".into(), stats::median(&exec_only), "ms"));
        metrics.push(("compile.fn_ms".into(), fn_o2, "ms"));
        metrics.push(("compile.fn_O0_ms".into(), fn_o0, "ms"));
        metrics.push(("ir.midend_ms".into(), fn_o2 - fn_o0, "ms"));
        metrics.push(("vm.code_instrs".into(), code_instrs as f64, "count"));

        let rounds: Vec<&Sample> = run
            .samples
            .iter()
            .filter(|s| {
                s.workload == Workload::Kernels && s.traced && s.ok && s.mode == Mode::Plain
            })
            .collect();
        let mut kernel_ns = 0.0;
        let mut retired_total = 0u64;
        for (name, span) in kernels::ALL {
            let ns: Vec<f64> = rounds
                .iter()
                .map(|s| tr.per_op_total_ms(&[span], &[s.op])[0] * 1e6)
                .collect();
            let cu: Vec<f64> = rounds
                .iter()
                .zip(&ns)
                .map(|(s, ns)| s.part_cu(*ns))
                .collect();
            metrics.push((format!("{span}_cu"), stats::median(&cu), "cu"));
            let r = retired
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, r)| *r);
            metrics.push((format!("vm.retired.{name}"), r as f64, "count"));
            kernel_ns += stats::median(&ns);
            retired_total += r;
        }
        metrics.push((
            "vm.ns_per_instr".into(),
            kernel_ns / retired_total.max(1) as f64,
            "ns",
        ));
        metrics.push((
            "vm.host_io_ms".into(),
            stats::median(&tr.per_op_ms(&HOST_IO, &run.setup_ops)),
            "ms",
        ));
        metrics.push(("vm.parallel.speedup_t2".into(), speedup, "x"));

        let observed: Vec<&Sample> = run
            .samples
            .iter()
            .filter(|s| s.workload == Workload::Observe)
            .collect();
        for mode in OBSERVERS {
            let x = stats::median(&observer_factor(&observed, mode));
            metrics.push((format!("trace.{}_x", mode.name()), x, "x"));
        }
        let profiled: Vec<u64> = observed
            .iter()
            .filter(|s| s.mode == Mode::Profile && s.traced)
            .map(|s| s.op)
            .collect();
        metrics.push((
            "trace.report_ms".into(),
            med("Profile::render_report", &profiled),
            "ms",
        ));
        let bytes: Vec<f64> = observed
            .iter()
            .filter(|s| s.mode == Mode::Record && s.ok)
            .map(|s| s.record_bytes as f64)
            .collect();
        metrics.push(("trace.record_bytes".into(), stats::median(&bytes), "bytes"));
        metrics.push(("bench.cal_ms_p50".into(), stats::median(&cal_ms), "ms"));
        metrics.push(("bench.op_ms_p50".into(), stats::median(&op_ms), "ms"));
        metrics.push((
            "bench.trace_overhead".into(),
            stats::median(&traced_plain) / stats::median(&plain_cu),
            "x",
        ));

        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/spans");
        let path = format!("{dir}/{}-seed{}.jsonl", w.name(), args.seed);
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_jsonl()))
        {
            eprintln!("calbench: could not write spans to {path}: {e}");
        }
    }

    let attempted = run.samples.len() as u64;
    let failed = run.samples.iter().filter(|s| !s.ok).count() as u64;
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = failed == 0 && warm_failures == 0 && run.cal_ok && finite;
    println!(
        "# calbench workload={} seed={} seconds={} trace={} host_cores={} threads=1 setups={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        host_cores(),
        run.setup_s.len(),
    );
    println!(
        "# window_ops={window_ops} ops_by_mode[{}] plain_untraced_samples={} tail_percentile={} op_cu_p90_uses=p{p90} raw_op_ms_p50={:.4} raw_cal_ms_p50={:.4} attempted={attempted} failed={failed} cal_checksum={:#018x}",
        modes.join(" "),
        plain_cu.len(),
        tail.map_or("none".to_string(), |p| format!("p{p}")),
        stats::median(&op_ms),
        stats::median(&cal_ms),
        run.cal_ref.map_or(0, |c| c.checksum),
    );
    let mut json = String::new();
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}");
}
