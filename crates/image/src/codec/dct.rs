//! 8×8 type-II discrete cosine transform and its inverse.
//!
//! Implemented as a separable transform (rows then columns) with a
//! precomputed cosine basis, matching the orthonormal DCT used by JPEG.
//!
//! Each pass computes eight outputs side by side, so the compiler keeps
//! them in vector lanes, but every output is still the one sum
//! `0.0 + t₀·b₀ + t₁·b₁ + …` over ascending index, one `f32` multiply and
//! one add per term (DESIGN §6's exact-order rule).

use std::f32::consts::FRAC_1_SQRT_2;

/// The cosine basis `cos((2x + 1) * u * PI / 16)`, as `basis[u * 8 + x]`
/// and transposed, as `transposed[x * 8 + u]`.
struct Basis {
    basis: [f32; 64],
    transposed: [f32; 64],
}

fn tables() -> &'static Basis {
    use std::sync::OnceLock;
    static BASIS: OnceLock<Basis> = OnceLock::new();
    BASIS.get_or_init(|| {
        let mut basis = [0f32; 64];
        let mut transposed = [0f32; 64];
        for u in 0..8 {
            for x in 0..8 {
                let c = (((2 * x + 1) as f32) * (u as f32) * std::f32::consts::PI / 16.0).cos();
                basis[u * 8 + x] = c;
                transposed[x * 8 + u] = c;
            }
        }
        Basis { basis, transposed }
    })
}

/// `alpha(u)`: the orthonormal weight of frequency `u`.
const ALPHA: [f32; 8] = [FRAC_1_SQRT_2, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];

/// `0.5 * alpha(u)`, the forward transform's output scale.
const SCALE: [f32; 8] = [0.5 * FRAC_1_SQRT_2, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5];

/// `out[lane] = 0.0 + m[0][lane]·w[0] + m[1][lane]·w[1] + …`: eight
/// weighted sums of the rows of `m` (row-major 8×8), in ascending row
/// order.
#[inline(always)]
fn combine(m: &[f32; 64], w: &[f32; 8]) -> [f32; 8] {
    let mut acc = [0f32; 8];
    for (row, &wk) in m.chunks_exact(8).zip(w) {
        for (a, &v) in acc.iter_mut().zip(row) {
            *a += v * wk;
        }
    }
    acc
}

/// Forward 2-D DCT of one 8×8 block (row-major `input[y*8 + x]`).
///
/// # Examples
///
/// ```
/// use bees_image::codec::dct;
///
/// let flat = [10.0f32; 64];
/// let mut out = [0f32; 64];
/// dct::forward_dct_8x8(&flat, &mut out);
/// // A constant block has all its energy in the DC coefficient.
/// assert!((out[0] - 80.0).abs() < 1e-3);
/// assert!(out[1..].iter().all(|&c| c.abs() < 1e-3));
/// ```
pub fn forward_dct_8x8(input: &[f32; 64], output: &mut [f32; 64]) {
    let Basis { basis, transposed } = tables();
    // Rows: tmp[y][u] = 0.5·alpha(u) · Σx input[y][x]·b[u][x].
    let mut tmp = [0f32; 64];
    for (row, dst) in input.chunks_exact(8).zip(tmp.chunks_exact_mut(8)) {
        let acc = combine(transposed, row.try_into().expect("8 samples"));
        for ((d, s), a) in dst.iter_mut().zip(SCALE).zip(acc) {
            *d = s * a;
        }
    }
    // Columns: output[v][u] = 0.5·alpha(v) · Σy tmp[y][u]·b[v][y].
    for ((bv, dst), s) in basis
        .chunks_exact(8)
        .zip(output.chunks_exact_mut(8))
        .zip(SCALE)
    {
        let acc = combine(&tmp, bv.try_into().expect("8 weights"));
        for (d, a) in dst.iter_mut().zip(acc) {
            *d = s * a;
        }
    }
}

/// Inverse 2-D DCT of one 8×8 coefficient block.
pub fn inverse_dct_8x8(coeffs: &[f32; 64], output: &mut [f32; 64]) {
    let Basis { basis, transposed } = tables();
    // Columns first (inverse of the forward order, though the transform is
    // separable so order does not matter mathematically):
    // tmp[y][u] = 0.5 · Σv (alpha(v)·coeffs[v][u])·b[v][y].
    let mut weighted = *coeffs;
    for (row, a) in weighted.chunks_exact_mut(8).zip(ALPHA) {
        for c in row {
            *c *= a;
        }
    }
    let mut tmp = [0f32; 64];
    for (by, dst) in transposed.chunks_exact(8).zip(tmp.chunks_exact_mut(8)) {
        let acc = combine(&weighted, by.try_into().expect("8 weights"));
        for (d, a) in dst.iter_mut().zip(acc) {
            *d = 0.5 * a;
        }
    }
    // Rows: output[y][x] = 0.5 · Σu (alpha(u)·tmp[y][u])·b[u][x].
    for (row, dst) in tmp.chunks_exact(8).zip(output.chunks_exact_mut(8)) {
        let mut w = [0f32; 8];
        for ((wu, &t), a) in w.iter_mut().zip(row).zip(ALPHA) {
            *wu = a * t;
        }
        let acc = combine(basis, &w);
        for (d, a) in dst.iter_mut().zip(acc) {
            *d = 0.5 * a;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block(seed: u32) -> [f32; 64] {
        let mut block = [0f32; 64];
        for (i, v) in block.iter_mut().enumerate() {
            // Deterministic pseudo-random values in [-128, 127].
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
            *v = ((h >> 8) % 256) as f32 - 128.0;
        }
        block
    }

    #[test]
    fn roundtrip_recovers_input() {
        for seed in [1u32, 42, 12345] {
            let block = sample_block(seed);
            let mut coeffs = [0f32; 64];
            let mut back = [0f32; 64];
            forward_dct_8x8(&block, &mut coeffs);
            inverse_dct_8x8(&coeffs, &mut back);
            for i in 0..64 {
                assert!((block[i] - back[i]).abs() < 1e-2, "i={i} seed={seed}");
            }
        }
    }

    #[test]
    fn transform_is_orthonormal_energy_preserving() {
        let block = sample_block(7);
        let mut coeffs = [0f32; 64];
        forward_dct_8x8(&block, &mut coeffs);
        let e_in: f32 = block.iter().map(|v| v * v).sum();
        let e_out: f32 = coeffs.iter().map(|v| v * v).sum();
        assert!(
            (e_in - e_out).abs() / e_in < 1e-4,
            "Parseval: {e_in} vs {e_out}"
        );
    }

    #[test]
    fn dc_of_constant_block() {
        let block = [-64.0f32; 64];
        let mut coeffs = [0f32; 64];
        forward_dct_8x8(&block, &mut coeffs);
        // DC = 8 * mean for the orthonormal normalization.
        assert!((coeffs[0] - (-512.0)).abs() < 1e-3);
    }

    #[test]
    fn linearity() {
        let a = sample_block(3);
        let b = sample_block(9);
        let mut sum = [0f32; 64];
        for i in 0..64 {
            sum[i] = a[i] + b[i];
        }
        let (mut ca, mut cb, mut cs) = ([0f32; 64], [0f32; 64], [0f32; 64]);
        forward_dct_8x8(&a, &mut ca);
        forward_dct_8x8(&b, &mut cb);
        forward_dct_8x8(&sum, &mut cs);
        for i in 0..64 {
            assert!((cs[i] - (ca[i] + cb[i])).abs() < 1e-2);
        }
    }
}
