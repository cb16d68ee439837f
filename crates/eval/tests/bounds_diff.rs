//! Differential tests for bounds checking: the same random kernel of
//! constant, loop-bounded, `%`-indexed and runtime-indexed accesses into a
//! stack array must produce bit-identical results, identical heap state,
//! and identical trap behavior at every optimization level — and the
//! sanitizer must catch seeded use-after-free and out-of-bounds accesses at
//! `-O2`.

use proptest::prelude::*;
use terra_eval::{Interp, LuaValue};
use terra_ir::OptLevel;

mod common;
use common::RecConfig;

/// One access into the 8-slot stack array `a` (indices ≥ 8 trap).
#[derive(Debug, Clone)]
enum Access {
    /// `a[idx] = val` with a compile-time constant index (out of bounds
    /// when `idx >= 8`).
    StoreConst { idx: u8, val: i8 },
    /// `for i = lo, hi do a[i + off] = i end` — bounded by the loop;
    /// out of bounds when `hi - 1 + off >= 8`.
    StoreLoop { lo: u8, hi: u8, off: u8 },
    /// `a[(n + k) % 8] = k` — the index flows through `%` into `[0, 7]`.
    StoreRem { k: u8 },
    /// `a[n] = val` — a runtime index.
    StoreParam { val: i8 },
    /// `s = s + a[idx]` accumulated into the checksum.
    LoadConst { idx: u8 },
}

fn access_txt(acc: &Access) -> String {
    match acc {
        Access::StoreConst { idx, val } => format!("a[{}] = {}", idx % 12, val),
        Access::StoreLoop { lo, hi, off } => {
            let (lo, hi, off) = (lo % 9, hi % 10, off % 3);
            format!("for i = {lo}, {hi} do a[i + {off}] = i end")
        }
        Access::StoreRem { k } => format!("a[(n + {k}) % 8] = {k}"),
        Access::StoreParam { val } => format!("a[n] = {val}"),
        Access::LoadConst { idx } => format!("s = s + a[{}]", idx % 12),
    }
}

fn program_txt(accs: &[Access]) -> String {
    let mut body = String::new();
    for acc in accs {
        body.push_str(&format!("    {}\n", access_txt(acc)));
    }
    format!(
        "local std = terralib.includec(\"stdlib.h\")\n\
         terra prog(n : int) : &double\n\
         \u{20}   var buf = [&double](std.malloc(16))\n\
         \u{20}   var a : int[8]\n\
         \u{20}   for i = 0, 8 do a[i] = 0 end\n\
         \u{20}   var s : int = 0\n\
         {body}\
         \u{20}   for i = 0, 8 do s = s + a[i] end\n\
         \u{20}   buf[0] = [double](s)\n\
         \u{20}   return buf\n\
         end\n\
         return prog"
    )
}

fn access_strategy() -> impl Strategy<Value = Access> {
    prop_oneof![
        (any::<u8>(), any::<i8>()).prop_map(|(idx, val)| Access::StoreConst { idx, val }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(lo, hi, off)| Access::StoreLoop {
            lo,
            hi,
            off
        }),
        any::<u8>().prop_map(|k| Access::StoreRem { k: k % 16 }),
        any::<i8>().prop_map(|val| Access::StoreParam { val }),
        any::<u8>().prop_map(|idx| Access::LoadConst { idx }),
    ]
}

/// Runs the kernel; returns the checksum read back from VM heap memory on
/// success or the trap message on failure.
fn run_at(level: OptLevel, src: &str, n: i32) -> Result<u64, String> {
    let mut t = Interp::new();
    t.opt = level;
    t.exec(src).map_err(|e| e.to_string())?;
    let out = t
        .exec(&format!("return prog({n})"))
        .map_err(|e| e.to_string())?;
    let LuaValue::Number(addr) = out[0] else {
        panic!("prog must return a pointer, got {out:?}");
    };
    // The read itself is part of the differential: a kernel that stomps the
    // frame slot holding `buf` may return a bad pointer, and every level
    // must then fail the same way.
    match t.ctx.exec.memory.load_f64(addr as u64) {
        Ok(v) => Ok(v.to_bits()),
        Err(e) => Err(e.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `-O1` and `-O2` agree with `-O0` — same checksum bits, same trap
    /// message.
    #[test]
    fn bounds_checks_agree_at_every_level(
        accs in proptest::collection::vec(access_strategy(), 1..8),
        n in 0i32..8,
    ) {
        let src = program_txt(&accs);
        let call = format!("return prog({n})");
        let base = run_at(OptLevel::O0, &src, n);
        for level in [OptLevel::O1, OptLevel::O2] {
            let got = run_at(level, &src, n);
            // On failure, the flight recorder bisects to the first
            // divergent heap effect rather than just "checksums differ".
            let bisect = if got == base {
                String::new()
            } else {
                common::divergence_report(
                    &src,
                    &call,
                    RecConfig::at(OptLevel::O0),
                    RecConfig::at(level),
                )
            };
            prop_assert_eq!(
                &got, &base,
                "{:?} diverged from -O0\nprogram:\n{}\n{}", level, src, bisect
            );
        }
    }
}

/// Guards against vacuous agreement: a known kernel must actually produce
/// its checksum, and a seeded null store must trap, at every level.
#[test]
fn harness_is_not_vacuous() {
    let good = program_txt(&[
        Access::StoreConst { idx: 3, val: 7 },
        Access::StoreLoop {
            lo: 0,
            hi: 4,
            off: 1,
        },
        Access::LoadConst { idx: 3 },
    ]);
    // A null store must trap identically everywhere — unlike a small
    // constant OOB, which lands inside the frame and cannot fault the VM's
    // whole-segment check.
    let bad =
        "terra prog(n : int) : int\n  var p : &int = nil\n  @p = 1\n  return 0\nend\nreturn prog";
    for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
        let sum = run_at(level, &good, 2).expect("good kernel must run");
        // a = [0,0,1,2,3,0,0,0]: the 7 in a[3] is overwritten by the
        // loop; LoadConst then adds a[3]=2, the final sweep adds 6.
        assert_eq!(f64::from_bits(sum), 8.0, "at {level:?}");
        let err = run_at(level, bad, 0).expect_err("null store must trap");
        assert!(err.contains("invalid memory access"), "{err}");
    }
}

/// The sanitizer catches a use-after-free at `-O2`.
#[test]
fn sanitizer_traps_uaf_at_o2() {
    let src = r#"
local std = terralib.includec("stdlib.h")
terra uaf() : double
  var a = [&double](std.malloc(64))
  a[2] = 7.0
  std.free([&int8](a))
  return a[2]
end
return uaf()
"#;
    let mut t = Interp::new();
    t.opt = OptLevel::O2;
    t.ctx.exec.memory.set_sanitize(true);
    let err = t.exec(src).expect_err("use-after-free must trap");
    assert!(err.to_string().contains("use-after-free"), "{err}");
}

/// The sanitizer also catches a plain out-of-bounds heap access at `-O2`.
#[test]
fn sanitizer_traps_oob_at_o2() {
    let src = r#"
local std = terralib.includec("stdlib.h")
terra oob(i : int) : double
  var a = [&double](std.malloc(32))
  var v = a[i]
  std.free([&int8](a))
  return v
end
return oob(1000000000)
"#;
    let mut t = Interp::new();
    t.opt = OptLevel::O2;
    t.ctx.exec.memory.set_sanitize(true);
    let err = t.exec(src).expect_err("OOB must trap");
    assert!(err.to_string().contains("invalid memory access"), "{err}");
}
