//! The paper's staged kernels, staged once into one session and run in
//! rounds. Sizes are fixed so every seed does the same work; the seed only
//! changes the data and the order the kernels run in.

use crate::gen::{self, Mesh, Rng};
use crate::layers::{alloc_f32s, alloc_f64s, exec, function, invoke, Step};
use crate::mode::Mode;
use crate::trace::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use terra_autotune::{vendor_config, Precision, GEMM_SCRIPT};
use terra_core::{FuncId, Terra, TerraFn, Value};
use terra_orion::{area_filter, CompiledStencil, ImageBuf, Schedule, Strategy};

const GEMM_T: &str = include_str!("../../examples/gemm.t");
const SIEVE_T: &str = include_str!("../../examples/sieve.t");

/// Every kernel, in report order, with the span its runs are timed in.
pub const ALL: [(&str, &str); 8] = [
    ("gemm_tuned", "vm.kernel.gemm_tuned"),
    ("gemm_naive", "vm.kernel.gemm_naive"),
    ("gemm_par", "vm.kernel.gemm_par"),
    ("orion_area", "vm.kernel.orion_area"),
    ("normals_aos", "vm.kernel.normals_aos"),
    ("normals_soa", "vm.kernel.normals_soa"),
    ("class_dispatch", "vm.kernel.class_dispatch"),
    ("sieve", "vm.kernel.sieve"),
];

fn span_of(name: &str) -> &'static str {
    ALL.iter()
        .find(|(n, _)| *n == name)
        .map_or("vm.kernel", |(_, s)| s)
}

/// The kernels the `observe` workload runs under each observer.
pub const OBSERVED: [&str; 3] = ["gemm_tuned", "gemm_par", "orion_area"];

/// One kernel's call results (or its failure), by index in the set.
pub type Output = (usize, Result<Vec<Value>, String>);

/// Kernel sizes; README.md lists the working sets they give.
const TUNED_N: usize = 128;
const NAIVE_N: usize = 31;
const PAR_N: usize = 31;
const IMG_W: usize = 256;
const IMG_H: usize = 160;
const MESH_SIDE: usize = 40;
const DISPATCH_CALLS: i64 = 10_000;
const SIEVE_N: usize = 13_000;
const COLLATZ_LIMIT: i64 = 520;

/// Host-side inputs and expected outputs, generated once per run.
pub struct Inputs {
    tuned: (Vec<f64>, Vec<f64>, Vec<f64>),
    naive: (Vec<f64>, Vec<f64>, Vec<f64>),
    par: (Vec<f64>, Vec<f64>, Vec<f64>),
    img: (Vec<f32>, Vec<f32>),
    mesh: (Mesh, Vec<f32>),
    bias: [i64; 2],
    primes: i64,
    collatz: i64,
}

fn gemm_case(rng: &mut Rng, n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (a, b) = (gen::int_matrix(rng, n), gen::int_matrix(rng, n));
    let c = gen::matmul(&a, &b, n);
    (a, b, c)
}

impl Inputs {
    pub fn new(rng: &mut Rng) -> Inputs {
        let img = gen::image(rng, IMG_W, IMG_H);
        let mesh = gen::mesh(rng, MESH_SIDE);
        let normals = gen::normals(&mesh);
        Inputs {
            tuned: gemm_case(rng, TUNED_N),
            naive: gemm_case(rng, NAIVE_N),
            par: gemm_case(rng, PAR_N),
            img: (gen::area_filter(&img, IMG_W, IMG_H), img),
            mesh: (mesh, normals),
            bias: [rng.range(1, 10), rng.range(1, 10)],
            primes: gen::prime_count(SIEVE_N),
            collatz: gen::longest_collatz(COLLATZ_LIMIT),
        }
    }
}

enum Out {
    Matrix {
        addr: u64,
        want: Vec<f64>,
    },
    Image {
        buf: ImageBuf,
        want: Vec<f32>,
    },
    Normals {
        read: TerraFn,
        verts: u64,
        io: u64,
        want: Vec<f32>,
    },
    Ints(Vec<i64>),
}

pub struct Kernel {
    pub name: &'static str,
    pub span: &'static str,
    calls: Vec<(TerraFn, Vec<Value>)>,
    stencil: Option<(CompiledStencil, ImageBuf, ImageBuf)>,
    out: Out,
}

/// One session holding a staged kernel set and its inputs.
pub struct KernelSet {
    pub terra: Terra,
    pub kernels: Vec<Kernel>,
}

const FN: &str = "Terra::function";

fn matrix_kernel(
    t: &mut Terra,
    tr: &mut Tracer,
    name: &'static str,
    f: TerraFn,
    case: &(Vec<f64>, Vec<f64>, Vec<f64>),
    n_arg: Option<usize>,
) -> Kernel {
    let a = alloc_f64s(t, tr, &case.0);
    let b = alloc_f64s(t, tr, &case.1);
    let c = alloc_f64s(t, tr, &vec![0.0; case.2.len()]);
    let mut args = n_arg
        .map(|n| vec![Value::Int(n as i64)])
        .unwrap_or_default();
    args.extend([Value::Ptr(a), Value::Ptr(b), Value::Ptr(c)]);
    Kernel {
        name,
        span: span_of(name),
        calls: vec![(f, args)],
        stencil: None,
        out: Out::Matrix {
            addr: c,
            want: case.2.clone(),
        },
    }
}

impl KernelSet {
    /// Creates a session and stages the named kernels with their inputs:
    /// the work `setup_s` times.
    pub fn stage(inp: &Inputs, names: &[&str], tr: &mut Tracer) -> Step<KernelSet> {
        let mut t = tr.span("Terra::new", |_| Terra::new());
        t.set_threads(1);
        t.capture_output();
        let want = |k: &str| names.contains(&k);
        let mut kernels = Vec::new();
        if want("gemm_tuned") || want("gemm_naive") {
            exec(&mut t, tr, GEMM_SCRIPT)?;
        }
        if want("gemm_tuned") {
            let c = vendor_config(Precision::F64);
            exec(
                &mut t,
                tr,
                &format!(
                    "__tuned = genmatmul({TUNED_N}, {}, {}, {}, {}, double)",
                    c.nb, c.rm, c.rn, c.v
                ),
            )?;
            let f = function(&mut t, tr, "__tuned", FN)?;
            kernels.push(matrix_kernel(&mut t, tr, "gemm_tuned", f, &inp.tuned, None));
        }
        if want("gemm_naive") {
            exec(
                &mut t,
                tr,
                &format!("__naive = gennaive({NAIVE_N}, double)"),
            )?;
            let f = function(&mut t, tr, "__naive", FN)?;
            kernels.push(matrix_kernel(&mut t, tr, "gemm_naive", f, &inp.naive, None));
        }
        if want("gemm_par") {
            exec(&mut t, tr, GEMM_T)?;
            let f = function(&mut t, tr, "gemm", FN)?;
            kernels.push(matrix_kernel(
                &mut t,
                tr,
                "gemm_par",
                f,
                &inp.par,
                Some(PAR_N),
            ));
        }
        if want("orion_area") {
            let sched = Schedule {
                strategy: Strategy::LineBuffer,
                vectorize: true,
            };
            let c = tr
                .span("Pipeline::compile", |_| {
                    area_filter().compile(&mut t, IMG_W, IMG_H, sched)
                })
                .map_err(|e| e.to_string())?;
            let (src, dst) = tr.span("Terra::malloc", |_| {
                (ImageBuf::alloc(&mut t, &c), ImageBuf::alloc(&mut t, &c))
            });
            tr.span("Terra::write_f32s", |_| src.write(&mut t, &inp.img.1));
            kernels.push(Kernel {
                name: "orion_area",
                span: span_of("orion_area"),
                calls: Vec::new(),
                stencil: Some((c, src, dst)),
                out: Out::Image {
                    buf: dst,
                    want: inp.img.0.clone(),
                },
            });
        }
        if want("normals_aos") || want("normals_soa") {
            exec(&mut t, tr, terra_layout::DATATABLE_SCRIPT)?;
            exec(&mut t, tr, terra_layout::MESH_SCRIPT)?;
        }
        for (name, layout) in [("normals_aos", "AoS"), ("normals_soa", "SoA")] {
            if want(name) {
                kernels.push(Self::mesh_kernel(&mut t, tr, name, layout, &inp.mesh)?);
            }
        }
        if want("class_dispatch") {
            kernels.push(Self::class_kernel(&mut t, tr, inp.bias)?);
        }
        if want("sieve") {
            exec(&mut t, tr, SIEVE_T)?;
            let sieve = function(&mut t, tr, "sieve", FN)?;
            let collatz = function(&mut t, tr, "longest_collatz", FN)?;
            kernels.push(Kernel {
                name: "sieve",
                span: span_of("sieve"),
                calls: vec![
                    (sieve, vec![Value::Int(SIEVE_N as i64)]),
                    (collatz, vec![Value::Int(COLLATZ_LIMIT)]),
                ],
                stencil: None,
                out: Out::Ints(vec![inp.primes, inp.collatz]),
            });
        }
        t.take_output();
        Ok(KernelSet { terra: t, kernels })
    }

    fn mesh_kernel(
        t: &mut Terra,
        tr: &mut Tracer,
        name: &'static str,
        layout: &str,
        (mesh, want): &(Mesh, Vec<f32>),
    ) -> Step<Kernel> {
        let p = format!("__{layout}");
        exec(
            t,
            tr,
            &format!(
                "local k = genmesh(\"{layout}\")\n\
                 {p}_mk, {p}_normals, {p}_upload, {p}_read = k.mk, k.normals, k.upload, k.readnormals"
            ),
        )?;
        let mk = function(t, tr, &format!("{p}_mk"), FN)?;
        let normals = function(t, tr, &format!("{p}_normals"), FN)?;
        let upload = function(t, tr, &format!("{p}_upload"), FN)?;
        let read = function(t, tr, &format!("{p}_read"), FN)?;
        let n_verts = mesh.positions.len() / 3;
        let verts = match invoke(t, tr, &mk, &[Value::Int(n_verts as i64)])? {
            Value::Ptr(p) => p,
            other => return Err(format!("{name}: mk returned {other:?}")),
        };
        let tris = tr.span("Terra::malloc", |_| t.malloc(4 * mesh.indices.len() as u64));
        tr.span("Memory::store_i32", |_| {
            let mem = &mut t.interp().ctx.exec.memory;
            mesh.indices
                .iter()
                .enumerate()
                .try_for_each(|(i, ix)| mem.store_i32(tris + 4 * i as u64, *ix))
                .map_err(|e| format!("{name}: index upload: {e:?}"))
        })?;
        let io = alloc_f32s(t, tr, &mesh.positions);
        invoke(t, tr, &upload, &[Value::Ptr(verts), Value::Ptr(io)])?;
        Ok(Kernel {
            name,
            span: span_of(name),
            calls: vec![(
                normals,
                vec![
                    Value::Ptr(verts),
                    Value::Ptr(tris),
                    Value::Int((mesh.indices.len() / 3) as i64),
                ],
            )],
            stencil: None,
            out: Out::Normals {
                read,
                verts,
                io,
                want: want.clone(),
            },
        })
    }

    fn class_kernel(t: &mut Terra, tr: &mut Tracer, bias: [i64; 2]) -> Step<Kernel> {
        t.register_module("lib/javalike", terra_classes::JAVALIKE_SCRIPT);
        exec(t, tr, "J = terralib.require(\"lib/javalike\")")?;
        exec(t, tr, CLASS_SRC)?;
        let make = function(t, tr, "makecounter", FN)?;
        let virt = function(t, tr, "virtual_loop", FN)?;
        let iface = function(t, tr, "interface_loop", FN)?;
        let mut objs = Vec::new();
        for b in bias {
            match invoke(t, tr, &make, &[Value::Int(b)])? {
                Value::Ptr(p) => objs.push(p),
                other => return Err(format!("makecounter returned {other:?}")),
            }
        }
        let n = Value::Int(DISPATCH_CALLS);
        Ok(Kernel {
            name: "class_dispatch",
            span: span_of("class_dispatch"),
            calls: vec![
                (virt, vec![Value::Ptr(objs[0]), n]),
                (iface, vec![Value::Ptr(objs[1]), n]),
            ],
            stencil: None,
            out: Out::Ints(bias.iter().map(|b| b * DISPATCH_CALLS).collect()),
        })
    }

    /// Runs kernel `i` once, returning its call results. A trap, or a panic
    /// inside a generator library, is an error, not an abort.
    pub fn run(&mut self, i: usize, tr: &mut Tracer) -> Result<Vec<Value>, String> {
        let (t, k) = (&mut self.terra, &self.kernels[i]);
        let mut results = Vec::with_capacity(k.calls.len());
        for (f, args) in &k.calls {
            results.push(invoke(t, tr, f, args).map_err(|e| format!("{}: {e}", k.name))?);
        }
        if let Some((c, src, dst)) = &k.stencil {
            tr.span("Terra::invoke", |_| {
                catch_unwind(AssertUnwindSafe(|| c.run(t, &[src], dst)))
            })
            .map_err(|_| format!("{}: stencil trapped", k.name))?;
        }
        Ok(results)
    }

    /// Checks kernel `i`'s output against the host reference, then clears
    /// the output so the next round cannot pass on stale data.
    pub fn check(&mut self, i: usize, results: &[Value], tr: &mut Tracer) -> Result<(), String> {
        let (t, k) = (&mut self.terra, &self.kernels[i]);
        let ok = match &k.out {
            Out::Matrix { addr, want } => {
                let got = tr.span("Terra::read_f64s", |_| t.read_f64s(*addr, want.len()));
                t.write_f64s(*addr, &vec![0.0; want.len()]);
                got == *want
            }
            Out::Image { buf, want } => {
                let got = tr.span("Terra::read_f32s", |_| buf.read(t));
                buf.write(t, &vec![0.0; want.len()]);
                gen::close(&got, want, 1e-5)
            }
            Out::Normals {
                read,
                verts,
                io,
                want,
            } => {
                t.write_f32s(*io, &vec![0.0; want.len()]);
                invoke(t, tr, read, &[Value::Ptr(*verts), Value::Ptr(*io)])
                    .map_err(|e| format!("{} readback: {e}", k.name))?;
                let got = tr.span("Terra::read_f32s", |_| t.read_f32s(*io, want.len()));
                gen::close(&got, want, 1e-5)
            }
            Out::Ints(want) => {
                results.len() == want.len()
                    && results
                        .iter()
                        .zip(want)
                        .all(|(r, w)| r.as_i64() == Some(*w))
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{}: output differs from the host reference",
                k.name
            ))
        }
    }

    /// Runs the kernels at `order` once each under `mode`, each in its
    /// `vm.kernel` span, and collects the observer's result. Returns every
    /// kernel's call results for [`KernelSet::verify`] and the recording's
    /// size in record mode.
    pub fn round(&mut self, order: &[usize], mode: Mode, tr: &mut Tracer) -> (Vec<Output>, usize) {
        mode.enter(&mut self.terra);
        let outs = order
            .iter()
            .map(|&i| (i, tr.span(self.kernels[i].span, |tr| self.run(i, tr))))
            .collect();
        (outs, mode.exit(&mut self.terra, tr))
    }

    /// Checks a round's outputs; the first failure wins.
    pub fn verify(&mut self, outs: Vec<Output>, tr: &mut Tracer) -> Result<(), String> {
        let mut first = Ok(());
        for (i, r) in outs {
            let r = r.and_then(|vals| self.check(i, &vals, tr));
            if first.is_ok() {
                first = r;
            }
        }
        first
    }

    /// Bytecode instructions over every function compiled in the session.
    pub fn code_instrs(&self) -> u64 {
        let program = self.terra.context().program();
        (0..program.len() as u32)
            .filter_map(|i| program.function(FuncId(i)))
            .map(|f| f.code.len() as u64)
            .sum()
    }

    /// Retired instructions of one profiled run of each kernel.
    pub fn retired(&mut self, tr: &mut Tracer) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        for i in 0..self.kernels.len() {
            self.terra.set_profile(true);
            self.terra.reset_profile();
            let r = self.run(i, tr);
            let n = self.terra.profile().total_instructions();
            self.terra.set_profile(false);
            self.terra.reset_profile();
            if let Ok(vals) = r {
                if self.check(i, &vals, tr).is_ok() {
                    out.push((self.kernels[i].name, n));
                }
            }
        }
        out
    }
}

/// §6.3.1: one virtual method reached through the vtable and through an
/// interface, with the class system built as a library over reflection.
const CLASS_SRC: &str = r#"
local std = terralib.includec("stdlib.h")
Incr = J.interface { inc = {int} -> int }

struct Counter { bias : int }
J.implements(Counter, Incr)
terra Counter:inc(x : int) : int
  return x + self.bias
end

terra makecounter(bias : int) : &Counter
  var c = [&Counter](std.malloc(sizeof(Counter)))
  c:initclass()
  c.bias = bias
  return c
end

terra virtual_loop(c : &Counter, n : int) : int
  var acc = 0
  for i = 0, n do
    acc = c:inc(acc)
  end
  return acc
end

terra interface_loop(c : &Counter, n : int) : int
  var ii : &Incr = c
  var acc = 0
  for i = 0, n do
    acc = ii:inc(acc)
  end
  return acc
end
"#;
