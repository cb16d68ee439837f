//! Seeded input generators and the host-side references the outputs are
//! checked against. Nothing here reads terra output: every expected value
//! is computed in plain Rust from the generated inputs.

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_CA1B_0000_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (exclusive).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    pub fn pick<'a, T>(&mut self, v: &'a [T]) -> &'a T {
        &v[self.range(0, v.len() as i64) as usize]
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.range(0, i as i64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// An `n`×`n` matrix of small integers, so every product and sum is exact
/// in a double and the check needs no tolerance.
pub fn int_matrix(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n * n).map(|_| rng.range(-4, 5) as f64).collect()
}

pub fn matmul(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    c
}

/// An image of multiples of 1/8 in `[0, 4)`.
pub fn image(rng: &mut Rng, w: usize, h: usize) -> Vec<f32> {
    (0..w * h).map(|_| rng.range(0, 32) as f32 / 8.0).collect()
}

/// The separable 5×5 area filter (mean in y, then mean in x) with zero
/// outside the source image.
pub fn area_filter(img: &[f32], w: usize, h: usize) -> Vec<f32> {
    let at = |x: i64, y: i64| -> f32 {
        if x < 0 || y < 0 || x >= w as i64 || y >= h as i64 {
            0.0
        } else {
            img[y as usize * w + x as usize]
        }
    };
    let col = |x: i64, y: i64| -> f32 { (-2..=2).map(|d| at(x, y + d)).sum::<f32>() / 5.0 };
    let mut out = Vec::with_capacity(w * h);
    for y in 0..h as i64 {
        for x in 0..w as i64 {
            out.push((-2..=2).map(|d| col(x + d, y)).sum::<f32>() / 5.0);
        }
    }
    out
}

/// The Orion point-wise chain: black level, brightness, clamp, invert.
pub fn pointwise(img: &[f32], black: f64, bright: f64) -> Vec<f32> {
    img.iter()
        .map(|&v| 1.0 - ((v as f64 - black) * bright).clamp(0.0, 1.0) as f32)
        .collect()
}

/// A `side`×`side` grid mesh with seeded heights, its triangles visited in
/// seeded order so vertex gathers are sparse (Fig. 9's normals workload).
pub struct Mesh {
    pub positions: Vec<f32>,
    pub indices: Vec<i32>,
}

pub fn mesh(rng: &mut Rng, side: usize) -> Mesh {
    let mut positions = Vec::with_capacity(3 * side * side);
    for y in 0..side {
        for x in 0..side {
            positions.extend([x as f32, y as f32, rng.range(0, 13) as f32 * 0.1]);
        }
    }
    let mut tris: Vec<[i32; 3]> = Vec::new();
    for y in 0..side - 1 {
        for x in 0..side - 1 {
            let a = (y * side + x) as i32;
            let c = a + side as i32;
            tris.push([a, a + 1, c]);
            tris.push([a + 1, c + 1, c]);
        }
    }
    rng.shuffle(&mut tris);
    Mesh {
        positions,
        indices: tris.into_iter().flatten().collect(),
    }
}

/// Area-weighted vertex normals, accumulated in triangle order as the
/// staged kernel does.
pub fn normals(m: &Mesh) -> Vec<f32> {
    let p = &m.positions;
    let mut acc = vec![0.0f32; p.len()];
    for t in m.indices.chunks_exact(3) {
        let [i0, i1, i2] = [t[0] as usize, t[1] as usize, t[2] as usize];
        let d = |i: usize, k: usize| p[3 * i + k] - p[3 * i0 + k];
        let (a, b) = (
            [d(i1, 0), d(i1, 1), d(i1, 2)],
            [d(i2, 0), d(i2, 1), d(i2, 2)],
        );
        let f = [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ];
        for i in [i0, i1, i2] {
            for k in 0..3 {
                acc[3 * i + k] += f[k];
            }
        }
    }
    for v in acc.chunks_exact_mut(3) {
        let len = ((v[0] * v[0] + v[1] * v[1] + v[2] * v[2]) as f64).sqrt() as f32;
        if len > 0.0 {
            v.iter_mut().for_each(|c| *c /= len);
        }
    }
    acc
}

/// Primes below `n`.
pub fn prime_count(n: usize) -> i64 {
    let mut marked = vec![false; n];
    let mut count = 0;
    for i in 2..n {
        if !marked[i] {
            count += 1;
            let mut j = i * i;
            while j < n {
                marked[j] = true;
                j += i;
            }
        }
    }
    count
}

/// The longest Collatz trajectory (in steps) over seeds `1..limit`.
pub fn longest_collatz(limit: i64) -> i64 {
    (1..limit)
        .map(|mut x| {
            let mut steps = 0;
            while x != 1 {
                x = if x % 2 == 0 { x / 2 } else { 3 * x + 1 };
                steps += 1;
            }
            steps
        })
        .max()
        .unwrap_or(0)
}

/// Whether `got` matches `want` element-wise within a relative tolerance.
pub fn close<T: Copy + Into<f64>>(got: &[T], want: &[T], tol: f64) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(&g, &w)| {
            let (g, w): (f64, f64) = (g.into(), w.into());
            (g - w).abs() <= tol * w.abs().max(1.0)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(int_matrix(&mut a, 8), int_matrix(&mut b, 8));
        assert_ne!(int_matrix(&mut a, 8), int_matrix(&mut Rng::new(8), 8));
    }

    #[test]
    fn references_on_known_inputs() {
        assert_eq!(prime_count(30), 10);
        assert_eq!(longest_collatz(10), 19);
        assert_eq!(
            matmul(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0], 2),
            [19.0, 22.0, 43.0, 50.0]
        );
        let flat = area_filter(&[1.0; 25], 5, 5);
        assert_eq!(
            flat[12], 1.0,
            "the centre of a 5x5 ones image sees no boundary"
        );
        assert!(close(&[1.0f32], &[1.0 + 1e-7], 1e-6));
        assert!(!close(&[1.0f32], &[1.1], 1e-6));
    }
}
