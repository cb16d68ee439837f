//! The calibration loop: the unit every gated time is divided by.
//!
//! It is a small match-dispatched bytecode interpreter shaped like the terra
//! VM — 256-bit registers, a byte-addressed bounds-checked heap, f64 and
//! integer ops, compare-and-branch — running a naive-GEMM guest program with
//! an integer hash-table update in its inner loop. It shares no code with
//! the terra crates. Host contention that slows the VM's dispatch and memory
//! traffic slows this loop too, so a ratio against it cancels most of the
//! host and keeps what the terra code itself costs. README.md records the
//! loops that were tried and rejected, with their numbers.
//!
//! FROZEN: the program, the heap and the repeat count define the unit `cu`.
//! Changing any of them rescales every gated metric, so `frozen_unit` pins
//! the retired-instruction count and the checksum.

use std::hint::black_box;

const MEM: usize = 64 * 1024;
/// Hash-table region of the heap (past the three matrices).
const TABLE: usize = 0x8000;
/// Guest matrix side.
const N: i64 = 24;
/// Guest repeats of the whole multiply.
const REPEATS: i64 = 25;

#[derive(Clone, Copy)]
enum Ins {
    ConstI(u8, i64),
    ConstF(u8, f64),
    Add(u8, u8, u8),
    AddK(u8, u8, i64),
    Mul(u8, u8, u8),
    ShlK(u8, u8, u32),
    FAdd(u8, u8, u8),
    FMul(u8, u8, u8),
    LoadF64(u8, u8),
    StoreF64(u8, u8),
    LoadU32(u8, u8),
    StoreU32(u8, u8),
    XorRot(u8, u8, u8),
    AndK(u8, u8, i64),
    Lt(u8, u8, u8),
    BrZero(u8, u16),
    Jmp(u16),
    Halt,
}

/// `for rep, i, j: acc = Σ_k a[i*N+k] * b[k*N+j]; c[i*N+j] = acc`, with a
/// hash of the `a` addresses read-modify-writing a word table each step.
/// Registers: 1 rep, 2 REPEATS, 3 i, 4 j, 5 k, 6 N, 7 acc, 8–15 temporaries,
/// 20/21/22 the a/b/c bases, 23 the hash.
const PROGRAM: [Ins; 50] = {
    use Ins::*;
    [
        ConstI(1, 0),
        ConstI(2, REPEATS),
        ConstI(6, N),
        ConstI(20, 0),
        ConstI(21, 8 * N * N),
        ConstI(22, 16 * N * N),
        ConstI(23, 7),
        ConstI(3, 0),   // 7: rep loop
        ConstI(4, 0),   // 8: i loop
        ConstF(7, 0.0), // 9: j loop
        ConstI(5, 0),
        Mul(8, 3, 6), // 11: k loop
        Add(8, 8, 5),
        ShlK(8, 8, 3),
        Add(8, 8, 20),
        LoadF64(9, 8),
        Mul(10, 5, 6),
        Add(10, 10, 4),
        ShlK(10, 10, 3),
        Add(10, 10, 21),
        LoadF64(11, 10),
        FMul(12, 9, 11),
        FAdd(7, 7, 12),
        XorRot(23, 23, 8),
        AndK(13, 23, 0x1FFC),
        LoadU32(14, 13),
        Add(14, 14, 5),
        StoreU32(13, 14),
        AddK(5, 5, 1),
        Lt(15, 5, 6),
        BrZero(15, 32),
        Jmp(11),
        Mul(8, 3, 6), // 32: store c[i*N+j]
        Add(8, 8, 4),
        ShlK(8, 8, 3),
        Add(8, 8, 22),
        StoreF64(8, 7),
        AddK(4, 4, 1),
        Lt(15, 4, 6),
        BrZero(15, 41),
        Jmp(9),
        AddK(3, 3, 1), // 41
        Lt(15, 3, 6),
        BrZero(15, 45),
        Jmp(8),
        AddK(1, 1, 1), // 45
        Lt(15, 1, 2),
        BrZero(15, 49),
        Jmp(7),
        Halt, // 49
    ]
};

/// One run's result: instructions retired and the state checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalRun {
    pub retired: u64,
    pub checksum: u64,
}

/// Runs the calibration program once; the caller must consume the
/// checksum.
pub fn run() -> CalRun {
    // `black_box` keeps the compiler from specialising the interpreter to
    // the program.
    let prog: &[Ins] = black_box(&PROGRAM);
    let mut mem = vec![0u8; MEM];
    for i in 0..(2 * N * N) as usize {
        let v = ((i * 37 + 11) % 64) as f64 / 16.0 - 2.0;
        mem[8 * i..8 * i + 8].copy_from_slice(&v.to_le_bytes());
    }
    let mut r = [[0u64; 4]; 32];
    let mut pc = 0usize;
    let mut retired = 0u64;
    macro_rules! i {
        ($x:expr) => {
            r[$x as usize][0] as i64
        };
    }
    macro_rules! f {
        ($x:expr) => {
            f64::from_bits(r[$x as usize][0])
        };
    }
    loop {
        retired += 1;
        match prog.get(pc).copied().unwrap_or(Ins::Halt) {
            Ins::ConstI(d, k) => r[d as usize] = [k as u64, 0, 0, 0],
            Ins::ConstF(d, k) => r[d as usize] = [k.to_bits(), 0, 0, 0],
            Ins::Add(d, a, b) => r[d as usize][0] = i!(a).wrapping_add(i!(b)) as u64,
            Ins::AddK(d, a, k) => r[d as usize][0] = i!(a).wrapping_add(k) as u64,
            Ins::Mul(d, a, b) => r[d as usize][0] = i!(a).wrapping_mul(i!(b)) as u64,
            Ins::ShlK(d, a, k) => r[d as usize][0] = i!(a).wrapping_shl(k) as u64,
            Ins::FAdd(d, a, b) => r[d as usize][0] = (f!(a) + f!(b)).to_bits(),
            Ins::FMul(d, a, b) => r[d as usize][0] = (f!(a) * f!(b)).to_bits(),
            Ins::LoadF64(d, a) => match load::<8>(&mem, i!(a) as usize) {
                Some(b) => r[d as usize][0] = u64::from_le_bytes(b),
                None => break,
            },
            Ins::StoreF64(a, s) => match slot(&mut mem, i!(a) as usize, 8) {
                Some(b) => b.copy_from_slice(&r[s as usize][0].to_le_bytes()),
                None => break,
            },
            Ins::LoadU32(d, a) => match load::<4>(&mem, TABLE + i!(a) as usize) {
                Some(b) => r[d as usize][0] = u32::from_le_bytes(b) as u64,
                None => break,
            },
            Ins::StoreU32(a, s) => match slot(&mut mem, TABLE + i!(a) as usize, 4) {
                Some(b) => b.copy_from_slice(&(r[s as usize][0] as u32).to_le_bytes()),
                None => break,
            },
            Ins::XorRot(d, a, b) => {
                r[d as usize][0] = r[a as usize][0] ^ r[b as usize][0].rotate_left(7)
            }
            Ins::AndK(d, a, k) => r[d as usize][0] = (i!(a) & k) as u64,
            Ins::Lt(d, a, b) => r[d as usize][0] = (i!(a) < i!(b)) as u64,
            Ins::BrZero(c, t) => {
                if r[c as usize][0] == 0 {
                    pc = t as usize;
                    continue;
                }
            }
            Ins::Jmp(t) => {
                pc = t as usize;
                continue;
            }
            Ins::Halt => break,
        }
        pc += 1;
    }
    let heap_sum = mem.chunks_exact(8).fold(0u64, |s, c| {
        s.wrapping_add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
    });
    CalRun {
        retired,
        checksum: heap_sum ^ r[23][0],
    }
}

fn load<const W: usize>(mem: &[u8], at: usize) -> Option<[u8; W]> {
    mem.get(at..)?.get(..W)?.try_into().ok()
}

fn slot(mem: &mut [u8], at: usize, width: usize) -> Option<&mut [u8]> {
    mem.get_mut(at..)?.get_mut(..width)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unit is frozen: these two numbers change only if the loop does.
    #[test]
    fn frozen_unit() {
        let a = run();
        assert_eq!(a.retired, 7_404_107);
        assert_eq!(a.checksum, 0x2df3_9500_0000_0007);
        assert_eq!(run(), a, "the calibration loop is deterministic");
    }
}
