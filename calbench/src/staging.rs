//! The staging workload: a fresh session per op that loads the generator
//! libraries, stages a seeded draw of programs, runs each once at a tiny
//! size and checks it against a host reference.

use crate::gen::{self, Rng};
use crate::layers::{exec, function, invoke, Step};
use crate::mode::Mode;
use crate::trace::Tracer;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use terra_autotune::{candidate_configs, GemmConfig, Precision, GEMM_SCRIPT};
use terra_core::{OptLevel, Terra, Value};
use terra_orion::{area_filter, pointwise_pipeline, ImageBuf, Pipeline, Schedule, Strategy};

/// Draw sizes: each draw stages `GEMM_CANDIDATES` configurations from
/// `candidate_configs(GEMM_N)` (as the auto-tuner does), `PIPELINES` Orion
/// pipelines on an `IMG_W`×`IMG_H` image, a class chain of 2..=4 levels and
/// a quote-heavy function of 8..=15 generated branches.
const GEMM_CANDIDATES: usize = 3;
const PIPELINES: usize = 2;
const GEMM_N: usize = 32;
const IMG_W: usize = 32;
const IMG_H: usize = 16;
const CHAIN_CALLS: i64 = 64;
const QUOTE_ITERS: i32 = 40;
const MODULUS: i32 = 1_000_003;

enum OrionFamily {
    Area,
    Pointwise { black: f64, bright: f64 },
}

/// One op's programs and their host-side expected results.
pub struct Draw {
    gemms: Vec<GemmConfig>,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    img: Vec<f32>,
    pipelines: Vec<(OrionFamily, Schedule, Vec<f32>)>,
    class_src: String,
    class_want: i64,
    quote_src: String,
    quote_want: i64,
}

impl Draw {
    pub fn new(rng: &mut Rng) -> Draw {
        let mut space = candidate_configs(GEMM_N, Precision::F64);
        rng.shuffle(&mut space);
        space.truncate(GEMM_CANDIDATES);
        let (a, b) = (gen::int_matrix(rng, GEMM_N), gen::int_matrix(rng, GEMM_N));
        let c = gen::matmul(&a, &b, GEMM_N);
        let img = gen::image(rng, IMG_W, IMG_H);
        let pipelines = (0..PIPELINES)
            .map(|_| {
                let (family, want) = if rng.range(0, 2) == 0 {
                    (OrionFamily::Area, gen::area_filter(&img, IMG_W, IMG_H))
                } else {
                    let (black, bright) =
                        (rng.range(0, 8) as f64 / 8.0, rng.range(2, 9) as f64 / 4.0);
                    (
                        OrionFamily::Pointwise { black, bright },
                        gen::pointwise(&img, black, bright),
                    )
                };
                let schedule = Schedule {
                    strategy: *rng.pick(&[
                        Strategy::Materialize,
                        Strategy::Inline,
                        Strategy::LineBuffer,
                    ]),
                    vectorize: rng.range(0, 2) == 1,
                };
                (family, schedule, want)
            })
            .collect();
        let (class_src, class_want) = class_chain(rng);
        let (quote_src, quote_want) = quote_program(rng);
        Draw {
            gemms: space,
            a,
            b,
            c,
            img,
            pipelines,
            class_src,
            class_want,
            quote_src,
            quote_want,
        }
    }
}

/// A single-inheritance chain of 2..=4 classes; each level overrides
/// `val` or inherits it, and the leaf is called through the base type.
fn class_chain(rng: &mut Rng) -> (String, i64) {
    let depth = rng.range(2, 5) as usize;
    let mut src = String::from("local std = terralib.includec(\"stdlib.h\")\n");
    let mut effective = (1i64, 0i64);
    for lvl in 0..depth {
        let _ = writeln!(src, "struct C{lvl} {{ f{lvl} : int }}");
        if lvl > 0 {
            let _ = writeln!(src, "J.extends(C{lvl}, C{})", lvl - 1);
        }
        if lvl == 0 || rng.range(0, 2) == 1 {
            let (k, c) = (rng.range(1, 4), rng.range(0, 10));
            effective = (k, c);
            let _ = writeln!(
                src,
                "terra C{lvl}:val(x : int) : int return (x * {k} + {c} + self.f0) % {MODULUS} end"
            );
        }
    }
    let leaf = depth - 1;
    let f0 = rng.range(0, 5);
    let acc0 = rng.range(0, 100);
    let _ = write!(
        src,
        "terra run_chain(n : int) : int\n\
         \x20 var o = [&C{leaf}](std.malloc(sizeof(C{leaf})))\n\
         \x20 o:initclass()\n\
         \x20 o.f0 = {f0}\n\
         \x20 var base : &C0 = o\n\
         \x20 var acc = {acc0}\n\
         \x20 for i = 0, n do acc = base:val(acc) end\n\
         \x20 std.free(o)\n\
         \x20 return acc\n\
         end\n"
    );
    let (k, c) = effective;
    let want = (0..CHAIN_CALLS).fold(acc0, |x, _| (x * k + c + f0) % MODULUS as i64);
    (src, want)
}

/// A branchy function whose loop body is spliced together from quotes a
/// Lua generator builds out of a seeded table of branch descriptors.
fn quote_program(rng: &mut Rng) -> (String, i64) {
    let n = rng.range(8, 16);
    let acc0 = rng.range(0, 1000) as i32;
    let mut table = String::new();
    let mut rows = Vec::new();
    for _ in 0..n {
        let row = [
            rng.range(0, 3),
            rng.range(2, 7),
            0,
            rng.range(1, 50),
            rng.range(1, 8),
        ];
        let row = [row[0], row[1], rng.range(0, row[1]), row[3], row[4]];
        let _ = write!(
            table,
            "{{{},{},{},{},{}}},",
            row[0], row[1], row[2], row[3], row[4]
        );
        rows.push(row.map(|v| v as i32));
    }
    let src = format!(
        r#"local T = {{ {table} }}
local function body(x, acc)
  local qs = terralib.newlist()
  for _, t in ipairs(T) do
    local kind, m, r, a, k = t[1], t[2], t[3], t[4], t[5]
    if kind == 0 then
      qs:insert(quote
        if x % m == r then acc = acc + a else acc = acc - k end
      end)
    elseif kind == 1 then
      qs:insert(quote
        if x % m == r then
          if acc % 2 == 0 then acc = acc * k else acc = acc + a * k end
        end
      end)
    else
      qs:insert(quote
        var j = x % m
        while j > 0 do acc = acc + a  j = j - 1 end
      end)
    end
    qs:insert(quote acc = acc % {MODULUS} end)
  end
  return qs
end
terra quoted(n : int) : int
  var acc = {acc0}
  for x = 0, n do
    [body(x, acc)]
  end
  return acc
end
"#
    );
    let mut acc = acc0;
    for x in 0..QUOTE_ITERS {
        for &[kind, m, r, a, k] in &rows {
            match kind {
                0 => acc = if x % m == r { acc + a } else { acc - k },
                1 => {
                    if x % m == r {
                        acc = if acc % 2 == 0 { acc * k } else { acc + a * k };
                    }
                }
                _ => acc += a * (x % m),
            }
            acc %= MODULUS;
        }
    }
    (src, acc as i64)
}

/// The set-up every staging op starts with: a fresh session, observed by
/// `mode`, with the generator libraries loaded.
pub fn session(tr: &mut Tracer, opt: OptLevel, mode: Mode) -> Step<Terra> {
    let mut t = tr.span("Terra::new", |_| Terra::new());
    t.set_threads(1);
    t.set_opt_level(opt);
    t.capture_output();
    mode.enter(&mut t);
    exec(&mut t, tr, GEMM_SCRIPT)?;
    t.register_module("lib/javalike", terra_classes::JAVALIKE_SCRIPT);
    exec(&mut t, tr, "J = terralib.require(\"lib/javalike\")")?;
    Ok(t)
}

/// Runs one staging op: a fresh session at `opt`, the draw staged, run and
/// checked. `Terra::function` spans are named `fn_span` so a traced -O0
/// re-staging of the same draw can be told apart. Returns the recording's
/// size in record mode.
pub fn op(
    draw: &Draw,
    mode: Mode,
    opt: OptLevel,
    fn_span: &'static str,
    tr: &mut Tracer,
) -> Step<usize> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut t = session(tr, opt, mode)?;
        stage_and_run(&mut t, draw, tr, fn_span)?;
        Ok(mode.exit(&mut t, tr))
    }))
    .unwrap_or_else(|_| Err("panic while staging".to_string()))
}

fn stage_and_run(t: &mut Terra, d: &Draw, tr: &mut Tracer, fn_span: &'static str) -> Step<()> {
    // Auto-tuner candidates (§6.1's inner loop).
    let bytes = (8 * GEMM_N * GEMM_N) as u64;
    let [a, b, c] = [0; 3].map(|_| t.malloc(bytes));
    t.write_f64s(a, &d.a);
    t.write_f64s(b, &d.b);
    for (i, g) in d.gemms.iter().enumerate() {
        exec(
            t,
            tr,
            &format!(
                "__g{i} = genmatmul({GEMM_N}, {}, {}, {}, {}, double)",
                g.nb, g.rm, g.rn, g.v
            ),
        )?;
        let f = function(t, tr, &format!("__g{i}"), fn_span)?;
        t.write_f64s(c, &vec![0.0; d.c.len()]);
        invoke(t, tr, &f, &[Value::Ptr(a), Value::Ptr(b), Value::Ptr(c)])?;
        if t.read_f64s(c, d.c.len()) != d.c {
            return Err(format!("gemm {g}: output differs from the host reference"));
        }
    }

    // Orion pipelines under seeded schedules.
    for (family, schedule, want) in &d.pipelines {
        let p: Pipeline = match *family {
            OrionFamily::Area => area_filter(),
            OrionFamily::Pointwise { black, bright } => pointwise_pipeline(black, bright),
        };
        let cs = tr
            .span("Pipeline::compile", |_| {
                p.compile(t, IMG_W, IMG_H, *schedule)
            })
            .map_err(|e| e.to_string())?;
        let (src, dst) = (ImageBuf::alloc(t, &cs), ImageBuf::alloc(t, &cs));
        src.write(t, &d.img);
        tr.span("Terra::invoke", |_| cs.run(t, &[&src], &dst));
        if !gen::close(&dst.read(t), want, 1e-5) {
            return Err(format!(
                "orion {schedule:?}: output differs from the host reference"
            ));
        }
    }

    // A class hierarchy dispatched through its base type.
    exec(t, tr, &d.class_src)?;
    let f = function(t, tr, "run_chain", fn_span)?;
    let got = invoke(t, tr, &f, &[Value::Int(CHAIN_CALLS)])?;
    if got.as_i64() != Some(d.class_want) {
        return Err(format!(
            "class chain returned {got:?}, want {}",
            d.class_want
        ));
    }

    // A quote-heavy branchy function.
    exec(t, tr, &d.quote_src)?;
    let f = function(t, tr, "quoted", fn_span)?;
    let got = invoke(t, tr, &f, &[Value::Int(QUOTE_ITERS as i64)])?;
    if got.as_i64() != Some(d.quote_want) {
        return Err(format!("quoted returned {got:?}, want {}", d.quote_want));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_stage_and_match_their_references() {
        let mut rng = Rng::new(3);
        let mut tr = Tracer::new(false);
        for _ in 0..3 {
            let d = Draw::new(&mut rng);
            op(&d, Mode::Plain, OptLevel::O2, "Terra::function", &mut tr).unwrap();
        }
    }
}
