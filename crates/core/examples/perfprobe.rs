//! Quick throughput probe used during development (not part of the paper
//! reproduction): measures naive matmul MFLOPS on the VM, plus the
//! deterministic cost profile — VM instructions per floating-point
//! operation and memory-system load/store counts — for each size.
//!
//! Also writes `BENCH_opt.json` next to the working directory: per-kernel
//! deterministic instruction counts at `-O0` vs `-O2`, so optimizer
//! regressions show up as a diff in CI — `BENCH_cache.json` with the
//! simulated cache miss rates behind the paper's locality claims
//! (blocked-vs-naive GEMM, SoA-vs-AoS traversal) — `BENCH_remarks.json`
//! with per-pass applied/missed optimizer-remark counts for the GEMM
//! kernel, so a pass silently going quiet (or noisy) shows up as a diff
//! too — `BENCH_heap.json` with the allocation-site heap profile of a staged
//! kernel carrying a seeded quote-generated leak, so site attribution,
//! staging provenance, and the leak report all stay pinned in CI — and
//! `BENCH_replay.json` with the flight recorder's footprint on a
//! million-instruction GEMM (checkpoints, effects, coarse recording bytes),
//! so the recording stays tiny and byte-stable in CI.
use std::fmt::Write as _;
use std::time::Instant;
use terra_core::{CacheStats, OptLevel, Terra, Value};

const MATMUL_SRC: &str = r#"
        terra matmul(A : &double, B : &double, C : &double, N : int)
            for i = 0, N do
                for j = 0, N do
                    var sum = 0.0
                    for k = 0, N do
                        sum = sum + A[i * N + k] * B[k * N + j]
                    end
                    C[i * N + j] = sum
                end
            end
        end
    "#;

const SAXPY_SRC: &str = r#"
        terra saxpy(a : double, X : &double, Y : &double, N : int)
            for i = 0, N do
                Y[i] = Y[i] + (a * 2.0 + 1.0) * X[i]
            end
        end
    "#;

/// Cache-blocked matmul (the paper's §5 blocking story): accumulates into C
/// block by block so the three active tiles stay L1-resident.
const MATMUL_BLOCKED_SRC: &str = r#"
        terra matmul_blocked(A : &double, B : &double, C : &double, N : int)
            var NB = 16
            for ii = 0, N, NB do
                for kk = 0, N, NB do
                    for jj = 0, N, NB do
                        for i = ii, ii + NB do
                            for k = kk, kk + NB do
                                var a = A[i * N + k]
                                for j = jj, jj + NB do
                                    C[i * N + j] = C[i * N + j] + a * B[k * N + j]
                                end
                            end
                        end
                    end
                end
            end
        end
    "#;

/// AoS traversal: one f64 field out of a 4-field record (stride 32 bytes)
/// versus the SoA layout's unit-stride column.
const LAYOUT_SRC: &str = r#"
        terra aos_sum(P : &double, N : int) : double
            var s = 0.0
            for i = 0, N do
                s = s + P[i * 4]
            end
            return s
        end
        terra soa_sum(P : &double, N : int) : double
            var s = 0.0
            for i = 0, N do
                s = s + P[i]
            end
            return s
        end
    "#;

/// Heap-profiler fixture: three staged-malloc buffers, one deliberately
/// leaked. The mallocs expand from a Lua quote, so every site in the heap
/// profile must carry a "via quote at line N" provenance chain.
const HEAP_LEAK_SRC: &str = r#"
        local std = terralib.includec("stdlib.h")
        local function staged_buffer(dst, n)
            return quote
                dst = [&double](std.malloc(n * 8))
                for i = 0, n do
                    dst[i] = 1.0
                end
            end
        end
        terra heap_probe(n : int) : double
            var a : &double
            var b : &double
            var keep : &double;
            [staged_buffer(a, n)];
            [staged_buffer(b, n)];
            [staged_buffer(keep, n)]
            var s = a[0] + b[0] + keep[0]
            std.free([&int8](a))
            std.free([&int8](b))
            return s
        end
    "#;

/// One profiled run of the seeded-leak kernel; returns the allocation-site
/// heap profile.
fn heap_probe_stats(n: i64) -> terra_core::HeapStats {
    let mut t = Terra::new();
    t.exec(HEAP_LEAK_SRC).unwrap();
    let f = t.function("heap_probe").unwrap();
    t.set_profile(true);
    t.reset_profile();
    let got = t.invoke(&f, &[Value::Int(n)]).unwrap();
    assert_eq!(got, Value::Float(3.0), "heap_probe: wrong result");
    t.profile().heap
}

/// Renders the heap profile as the `BENCH_heap.json` document.
fn heap_bench_json(stats: &terra_core::HeapStats) -> String {
    let mut json = String::from("{\n  \"kernel\": \"heap_probe_512\",\n  \"sites\": [\n");
    for (i, s) in stats.sites.iter().enumerate() {
        let sep = if i + 1 == stats.sites.len() { "" } else { "," };
        let prov = &s.provenance;
        let _ = writeln!(
            json,
            "    {{\"func\": \"{}\", \"line\": {}, \"provenance\": \"{prov}\", \
             \"count\": {}, \"bytes\": {}, \"peak_bytes\": {}, \"live_count\": {}, \
             \"live_bytes\": {}}}{sep}",
            s.func, s.line, s.count, s.bytes, s.peak_bytes, s.live_count, s.live_bytes
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"summary\": {{\"leaked_allocs\": {}, \"leaked_bytes\": {}, \
         \"peak_live_bytes\": {}}}",
        stats.leaked_allocs(),
        stats.leaked_bytes(),
        stats.peak_live_bytes
    );
    json.push_str("}\n");
    json
}

/// One flight-recorded matmul run at `-O0` (the million-instruction
/// workload); returns the finished coarse recording.
fn matmul_recording(n: usize) -> terra_core::Recording {
    let mut t = Terra::new();
    t.set_opt_level(OptLevel::O0);
    t.exec(MATMUL_SRC).unwrap();
    let f = t.function("matmul").unwrap();
    let bytes = (n * n * 8) as u64;
    let (a, b, c) = (t.malloc(bytes), t.malloc(bytes), t.malloc(bytes));
    t.write_f64s(a, &vec![1.0; n * n]);
    t.write_f64s(b, &vec![2.0; n * n]);
    t.set_record(terra_core::RecMeta::coarse(&format!("matmul_{n}"), 0));
    t.invoke(
        &f,
        &[
            Value::Ptr(a),
            Value::Ptr(b),
            Value::Ptr(c),
            Value::Int(n as i64),
        ],
    )
    .unwrap();
    assert_eq!(t.read_f64s(c, 1)[0], 2.0 * n as f64);
    t.take_recording().expect("recorder was running")
}

/// One profiled matmul run at the given level; returns total instructions.
fn matmul_instrs(level: OptLevel, n: usize) -> u64 {
    let mut t = Terra::new();
    t.set_opt_level(level);
    t.exec(MATMUL_SRC).unwrap();
    let f = t.function("matmul").unwrap();
    let bytes = (n * n * 8) as u64;
    let (a, b, c) = (t.malloc(bytes), t.malloc(bytes), t.malloc(bytes));
    t.write_f64s(a, &vec![1.0; n * n]);
    t.write_f64s(b, &vec![2.0; n * n]);
    t.set_profile(true);
    t.reset_profile();
    t.invoke(
        &f,
        &[
            Value::Ptr(a),
            Value::Ptr(b),
            Value::Ptr(c),
            Value::Int(n as i64),
        ],
    )
    .unwrap();
    let instrs = t.profile().total_instructions();
    assert_eq!(t.read_f64s(c, 1)[0], 2.0 * n as f64);
    instrs
}

/// One profiled saxpy run at the given level; returns total instructions.
fn saxpy_instrs(level: OptLevel, n: usize) -> u64 {
    let mut t = Terra::new();
    t.set_opt_level(level);
    t.exec(SAXPY_SRC).unwrap();
    let f = t.function("saxpy").unwrap();
    let bytes = (n * 8) as u64;
    let (x, y) = (t.malloc(bytes), t.malloc(bytes));
    t.write_f64s(x, &vec![1.0; n]);
    t.write_f64s(y, &vec![0.5; n]);
    t.set_profile(true);
    t.reset_profile();
    t.invoke(
        &f,
        &[
            Value::Float(2.0),
            Value::Ptr(x),
            Value::Ptr(y),
            Value::Int(n as i64),
        ],
    )
    .unwrap();
    let instrs = t.profile().total_instructions();
    // y = 0.5 + (2*2 + 1) * 1.0
    assert_eq!(t.read_f64s(y, 1)[0], 5.5);
    instrs
}

/// Per-pass applied/missed optimizer-remark counts for the `-O2` GEMM, as a
/// pass-name-sorted table. Remarks are recorded at compile time, so one
/// invocation (to force lazy compilation) is enough.
fn matmul_remark_counts(n: usize) -> Vec<(String, u64, u64)> {
    let mut t = Terra::new();
    t.set_opt_level(OptLevel::O2);
    t.exec(MATMUL_SRC).unwrap();
    let f = t.function("matmul").unwrap();
    let bytes = (n * n * 8) as u64;
    let (a, b, c) = (t.malloc(bytes), t.malloc(bytes), t.malloc(bytes));
    t.write_f64s(a, &vec![1.0; n * n]);
    t.write_f64s(b, &vec![2.0; n * n]);
    t.invoke(
        &f,
        &[
            Value::Ptr(a),
            Value::Ptr(b),
            Value::Ptr(c),
            Value::Int(n as i64),
        ],
    )
    .unwrap();
    let mut counts: std::collections::BTreeMap<String, (u64, u64)> = Default::default();
    for r in t.remarks() {
        let entry = counts.entry(r.pass.clone()).or_default();
        match r.kind.as_str() {
            "applied" => entry.0 += 1,
            _ => entry.1 += 1,
        }
    }
    counts.into_iter().map(|(p, (a, m))| (p, a, m)).collect()
}

/// One profiled GEMM run (naive or blocked source); returns the cache stats.
fn matmul_cache(src: &str, fname: &str, n: usize) -> CacheStats {
    let mut t = Terra::new();
    t.exec(src).unwrap();
    let f = t.function(fname).unwrap();
    let bytes = (n * n * 8) as u64;
    let (a, b, c) = (t.malloc(bytes), t.malloc(bytes), t.malloc(bytes));
    t.write_f64s(a, &vec![1.0; n * n]);
    t.write_f64s(b, &vec![2.0; n * n]);
    t.write_f64s(c, &vec![0.0; n * n]);
    t.set_profile(true);
    t.reset_profile();
    t.invoke(
        &f,
        &[
            Value::Ptr(a),
            Value::Ptr(b),
            Value::Ptr(c),
            Value::Int(n as i64),
        ],
    )
    .unwrap();
    let stats = t.profile().cache;
    assert_eq!(t.read_f64s(c, 1)[0], 2.0 * n as f64);
    stats
}

/// One profiled layout-traversal run; `n` is the logical element count (the
/// buffer holds `4 * n` doubles so AoS stride-4 stays in bounds).
fn layout_cache(fname: &str, n: usize) -> CacheStats {
    let mut t = Terra::new();
    t.exec(LAYOUT_SRC).unwrap();
    let f = t.function(fname).unwrap();
    let p = t.malloc((n * 4 * 8) as u64);
    t.write_f64s(p, &vec![1.0; n * 4]);
    t.set_profile(true);
    t.reset_profile();
    let got = t
        .invoke(&f, &[Value::Ptr(p), Value::Int(n as i64)])
        .unwrap();
    let stats = t.profile().cache;
    assert_eq!(got, Value::Float(n as f64));
    stats
}

/// Appends one kernel entry to the `BENCH_cache.json` kernel array.
fn cache_entry(json: &mut String, name: &str, s: &CacheStats, last: bool) {
    let sep = if last { "" } else { "," };
    let _ = writeln!(
        json,
        "    {{\"name\": \"{name}\", \"l1_accesses\": {}, \"l1_misses\": {}, \
         \"l1_miss_rate\": {:.6}, \"l2_misses\": {}, \"l2_miss_rate\": {:.6}}}{sep}",
        s.l1.accesses(),
        s.l1.misses,
        s.l1.miss_rate(),
        s.l2.misses,
        s.l2.miss_rate()
    );
    println!(
        "{name}: L1 {}/{} accesses missed ({:.2}%)",
        s.l1.misses,
        s.l1.accesses(),
        s.l1.miss_rate() * 100.0
    );
}

fn main() {
    let mut t = Terra::new();
    t.exec(MATMUL_SRC).unwrap();
    let f = t.function("matmul").unwrap();
    for n in [64usize, 128, 256] {
        let bytes = (n * n * 8) as u64;
        let a = t.malloc(bytes);
        let b = t.malloc(bytes);
        let c = t.malloc(bytes);
        t.write_f64s(a, &vec![1.0; n * n]);
        t.write_f64s(b, &vec![2.0; n * n]);
        let args = [
            Value::Ptr(a),
            Value::Ptr(b),
            Value::Ptr(c),
            Value::Int(n as i64),
        ];
        // Timed run with counters off, so MFLOPS reflects raw VM throughput.
        t.set_profile(false);
        let start = Instant::now();
        t.invoke(&f, &args).unwrap();
        let dt = start.elapsed().as_secs_f64();
        // Counted run: profiling adds overhead but the counts themselves are
        // deterministic and time-independent.
        t.set_profile(true);
        t.reset_profile();
        t.invoke(&f, &args).unwrap();
        let profile = t.profile();
        let flops = 2.0 * (n as f64).powi(3);
        let instrs = profile.total_instructions();
        println!(
            "N={n}: {dt:.3}s  {:.1} MFLOPS  {:.2} instrs/flop  loads {}  stores {}",
            flops / dt / 1e6,
            instrs as f64 / flops,
            profile.mem.total_loads(),
            profile.mem.total_stores(),
        );
        assert_eq!(t.read_f64s(c, 1)[0], 2.0 * n as f64);
    }

    // Deterministic O0-vs-O2 instruction counts per kernel.
    let kernels: Vec<(&str, u64, u64)> = vec![
        (
            "matmul_64",
            matmul_instrs(OptLevel::O0, 64),
            matmul_instrs(OptLevel::O2, 64),
        ),
        (
            "saxpy_4096",
            saxpy_instrs(OptLevel::O0, 4096),
            saxpy_instrs(OptLevel::O2, 4096),
        ),
    ];
    let mut json = String::from("{\n  \"kernels\": [\n");
    for (i, (name, o0, o2)) in kernels.iter().enumerate() {
        let sep = if i + 1 == kernels.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"instructions_O0\": {o0}, \
             \"instructions_O2\": {o2}, \"reduction\": {:.4}}}{sep}",
            1.0 - *o2 as f64 / *o0 as f64
        );
        println!("{name}: O0 {o0} -> O2 {o2} instructions");
        assert!(o2 < o0, "{name}: -O2 must retire fewer instructions");
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_opt.json", &json).unwrap();
    println!("wrote BENCH_opt.json");

    // Simulated locality: the paper's blocking and layout results as miss
    // rates. N=96 makes each matrix 72 KiB, past the 32 KiB simulated L1.
    let naive = matmul_cache(MATMUL_SRC, "matmul", 96);
    let blocked = matmul_cache(MATMUL_BLOCKED_SRC, "matmul_blocked", 96);
    let aos = layout_cache("aos_sum", 4096);
    let soa = layout_cache("soa_sum", 4096);
    let cfg = terra_core::CacheConfig::default();
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"config\": \"l1={},{},{}:l2={},{},{}\",",
        cfg.l1.size, cfg.l1.line, cfg.l1.assoc, cfg.l2.size, cfg.l2.line, cfg.l2.assoc
    );
    json.push_str("  \"kernels\": [\n");
    cache_entry(&mut json, "gemm_naive_96", &naive, false);
    cache_entry(&mut json, "gemm_blocked_96", &blocked, false);
    cache_entry(&mut json, "aos_sum_4096", &aos, false);
    cache_entry(&mut json, "soa_sum_4096", &soa, true);
    json.push_str("  ]\n}\n");
    assert!(
        blocked.l1.miss_rate() < naive.l1.miss_rate(),
        "blocked GEMM must have the lower simulated L1 miss rate"
    );
    assert!(
        soa.l1.miss_rate() < aos.l1.miss_rate(),
        "SoA traversal must have the lower simulated L1 miss rate"
    );
    std::fs::write("BENCH_cache.json", &json).unwrap();
    println!("wrote BENCH_cache.json");

    // Per-pass optimizer remark counts for the -O2 GEMM. Two independent
    // collections must agree exactly — the remark stream is deterministic.
    let counts = matmul_remark_counts(64);
    assert_eq!(
        counts,
        matmul_remark_counts(64),
        "remark counts must be identical across runs"
    );
    assert!(
        counts.iter().any(|(_, applied, _)| *applied > 0),
        "-O2 GEMM must produce at least one applied remark"
    );
    let mut json = String::from("{\n  \"kernel\": \"matmul_64_O2\",\n  \"passes\": [\n");
    for (i, (pass, applied, missed)) in counts.iter().enumerate() {
        let sep = if i + 1 == counts.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"pass\": \"{pass}\", \"applied\": {applied}, \"missed\": {missed}}}{sep}"
        );
        println!("{pass}: {applied} applied, {missed} missed");
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_remarks.json", &json).unwrap();
    println!("wrote BENCH_remarks.json");

    // Allocation-site heap profile of the seeded-leak kernel. The staged
    // mallocs must carry their quote provenance, exactly one allocation must
    // survive to the end of the run, and — counters being instruction-exact,
    // not clocks — two independent runs must serialize byte-identically.
    let heap = heap_probe_stats(512);
    assert_eq!(heap.leaked_allocs(), 1, "exactly one seeded leak");
    assert!(heap.leaked_bytes() > 0, "the leak has a size");
    assert!(
        heap.sites
            .iter()
            .all(|s| s.provenance.contains("via quote at line")),
        "every staged malloc site carries a quote provenance chain"
    );
    let json = heap_bench_json(&heap);
    assert_eq!(
        json,
        heap_bench_json(&heap_probe_stats(512)),
        "heap profile must be byte-identical across runs"
    );
    for s in &heap.sites {
        println!(
            "{}: {} alloc(s), {} bytes, {} live",
            s.location(),
            s.count,
            s.bytes,
            s.live_bytes
        );
    }
    std::fs::write("BENCH_heap.json", &json).unwrap();
    println!("wrote BENCH_heap.json");

    // Flight-recorder footprint on the million-instruction -O0 GEMM. The
    // coarse recording must stay tiny (the whole point of checkpoint
    // sampling), verify clean against an independent re-record, and — like
    // every other deterministic artifact here — serialize byte-identically.
    let rec = matmul_recording(64);
    let text = rec.to_text();
    let again = matmul_recording(64);
    assert!(
        rec.total_retired >= 1_000_000,
        "matmul_64 at -O0 must retire at least a million instructions \
         (got {})",
        rec.total_retired
    );
    assert!(
        text.len() <= 256 * 1024,
        "coarse recording of a million-instruction run must stay under \
         256 KiB (got {} bytes)",
        text.len()
    );
    assert_eq!(
        text,
        again.to_text(),
        "recording must be byte-identical across runs"
    );
    terra_core::replay::verify(&rec, &again).expect("re-record must verify clean");
    let parsed = terra_core::Recording::parse(&text).expect("recording round-trips");
    assert_eq!(parsed.to_text(), text, "parse/serialize must round-trip");
    let json = format!(
        "{{\n  \"kernel\": \"matmul_64_O0\",\n  \"format_version\": {},\n  \
         \"retired_instructions\": {},\n  \"effects\": {},\n  \
         \"checkpoints\": {},\n  \"cadence\": {},\n  \"coarse_bytes\": {},\n  \
         \"bytes_per_minstr\": {:.2}\n}}\n",
        terra_core::REC_FORMAT_VERSION,
        rec.total_retired,
        rec.total_effects,
        rec.checkpoints.len(),
        rec.meta.cadence,
        text.len(),
        text.len() as f64 * 1e6 / rec.total_retired as f64
    );
    println!(
        "flight recorder: {} instructions -> {} bytes coarse ({} checkpoints, {} effects)",
        rec.total_retired,
        text.len(),
        rec.checkpoints.len(),
        rec.total_effects
    );
    std::fs::write("BENCH_replay.json", &json).unwrap();
    println!("wrote BENCH_replay.json");
}
