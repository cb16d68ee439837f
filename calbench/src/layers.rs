//! Calls into the terra layers' public functions, each wrapped in a span
//! named after the function it calls.

use crate::trace::Tracer;
use terra_core::{Terra, TerraFn, Value};

pub type Step<T> = Result<T, String>;

/// `Terra::exec`. A traced run first parses the same source on its own, so
/// the parser's share (`syntax.parse_ms`) can be taken out of `exec`.
pub fn exec(t: &mut Terra, tr: &mut Tracer, src: &str) -> Step<()> {
    if tr.on {
        let parsed = tr.span("terra_syntax::parse", |_| terra_syntax::parse(src));
        std::hint::black_box(parsed.is_ok());
    }
    tr.span("Terra::exec", |_| t.exec(src))
        .map(drop)
        .map_err(|e| e.to_string())
}

/// `Terra::function`, which typechecks, optimizes and compiles; `span`
/// names the optimization level it ran at.
pub fn function(t: &mut Terra, tr: &mut Tracer, name: &str, span: &'static str) -> Step<TerraFn> {
    tr.span(span, |_| t.function(name))
        .map_err(|e| e.to_string())
}

pub fn invoke(t: &mut Terra, tr: &mut Tracer, f: &TerraFn, args: &[Value]) -> Step<Value> {
    tr.span("Terra::invoke", |_| t.invoke(f, args))
        .map_err(|e| format!("trap: {e}"))
}

pub fn alloc_f64s(t: &mut Terra, tr: &mut Tracer, data: &[f64]) -> u64 {
    let addr = tr.span("Terra::malloc", |_| t.malloc(8 * data.len() as u64));
    tr.span("Terra::write_f64s", |_| t.write_f64s(addr, data));
    addr
}

pub fn alloc_f32s(t: &mut Terra, tr: &mut Tracer, data: &[f32]) -> u64 {
    let addr = tr.span("Terra::malloc", |_| t.malloc(4 * data.len() as u64));
    tr.span("Terra::write_f32s", |_| t.write_f32s(addr, data));
    addr
}
