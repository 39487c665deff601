//! Flat structure-of-arrays storage for 256-bit binary descriptors.
//!
//! A [`DescriptorBlock`] is how every binary descriptor set is stored:
//! ORB pushes each BRIEF descriptor into one, and it is what
//! [`Descriptors::Binary`] holds. Every hot loop in the system — brute-force
//! matching, MIH candidate rescoring, the SSMM pairwise similarity graph —
//! reduces to "XOR + popcount this query against *many* stored
//! descriptors", and the block keeps the words of a whole set in one flat
//! contiguous `u64` array so a batch scan is a single linear sweep the
//! compiler can keep in registers (and, where the CPU provides it, lower to
//! the hardware `popcnt` instruction — see the dispatch notes below).
//! [`BinaryDescriptor`] remains the element type that goes in and comes
//! out.
//!
//! [`Descriptors::Binary`]: crate::Descriptors::Binary
//!
//! # Kernel dispatch
//!
//! `rustc` targets baseline `x86-64` by default, which predates the
//! `POPCNT` instruction, so `u64::count_ones()` compiles to a ~15-op
//! bit-twiddling sequence per word. The batch kernels here come in three
//! tiers selected once at runtime via `is_x86_feature_detected!`: a
//! portable fallback, a `#[target_feature(enable = "popcnt")]` scalar
//! variant with explicit `_popcnt64` intrinsics, and — where the CPU has
//! AVX-512VPOPCNTDQ — a `VPOPCNTQ` variant that counts eight words (two
//! whole descriptors) per instruction. Every tier computes exactly the
//! same integers, so results are byte-identical regardless of which one
//! runs — the dispatch moves throughput, never answers. The measured gaps
//! are recorded in `BENCH_baseline.json` by the `descriptor_hotloop`
//! bench.
//!
//! # Pruned scans
//!
//! The scalar [`DescriptorBlock::nearest_within`] kernels additionally
//! early-exit the word loop of each candidate once the partial distance
//! over the first two words already exceeds the running bound
//! (partial-distance pruning); the AVX-512 kernel scans fully instead —
//! at eight words per instruction the straight-line sweep outruns the
//! branchy pruned loop. All kernels return the same first-argmin answer,
//! and the parity tests in `tests/soa_parity.rs` pin the full match lists
//! against the unpruned reference over `BinaryDescriptor` slices.

use crate::descriptor::BinaryDescriptor;

/// 64-bit words per 256-bit descriptor.
pub const WORDS_PER_DESCRIPTOR: usize = 4;

/// A descriptor set stored as one flat, contiguous `u64`-word array.
///
/// Word layout is descriptor-major: descriptor `i` occupies
/// `words[4*i .. 4*i + 4]` in little-endian word order, matching
/// [`BinaryDescriptor::word`]. Batch scans therefore stream the array
/// front to back with unit stride.
///
/// # Examples
///
/// ```
/// use bees_features::{BinaryDescriptor, DescriptorBlock};
///
/// let descs = vec![BinaryDescriptor::zero(); 3];
/// let block = DescriptorBlock::from_descriptors(&descs);
/// assert_eq!(block.len(), 3);
/// let mut row = Vec::new();
/// block.distances_into([0, 0, 0, 0], &mut row);
/// assert_eq!(row, vec![0, 0, 0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DescriptorBlock {
    words: Vec<u64>,
}

impl DescriptorBlock {
    /// Creates an empty block.
    pub fn new() -> Self {
        DescriptorBlock::default()
    }

    /// Creates an empty block with room for `n` descriptors.
    pub fn with_capacity(n: usize) -> Self {
        DescriptorBlock {
            words: Vec::with_capacity(n * WORDS_PER_DESCRIPTOR),
        }
    }

    /// Builds a block holding `descs` in order.
    pub fn from_descriptors(descs: &[BinaryDescriptor]) -> Self {
        let mut block = DescriptorBlock::with_capacity(descs.len());
        for d in descs {
            block.push(d);
        }
        block
    }

    /// Number of descriptors in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.len() / WORDS_PER_DESCRIPTOR
    }

    /// Whether the block holds no descriptors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Appends one descriptor.
    pub fn push(&mut self, d: &BinaryDescriptor) {
        for chunk in 0..WORDS_PER_DESCRIPTOR {
            self.words.push(d.word(chunk));
        }
    }

    /// The flat word array (4 words per descriptor, descriptor-major).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The four words of descriptor `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn descriptor_words(&self, i: usize) -> [u64; 4] {
        let w = &self.words[i * WORDS_PER_DESCRIPTOR..(i + 1) * WORDS_PER_DESCRIPTOR];
        [w[0], w[1], w[2], w[3]]
    }

    /// Reconstructs descriptor `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn descriptor(&self, i: usize) -> BinaryDescriptor {
        let w = self.descriptor_words(i);
        let mut bytes = [0u8; 32];
        for (chunk, word) in w.iter().enumerate() {
            bytes[chunk * 8..(chunk + 1) * 8].copy_from_slice(&word.to_le_bytes());
        }
        BinaryDescriptor::from_bytes(bytes)
    }

    /// Iterates over the stored descriptors in order.
    pub fn iter(&self) -> impl Iterator<Item = BinaryDescriptor> + '_ {
        (0..self.len()).map(|i| self.descriptor(i))
    }

    /// Computes the Hamming distance of `query` to every descriptor in the
    /// block, writing one `u32` per descriptor into `out` (cleared first;
    /// capacity is reused across calls, so a warmed buffer never
    /// reallocates).
    pub fn distances_into(&self, query: [u64; 4], out: &mut Vec<u32>) {
        #[cfg(target_arch = "x86_64")]
        if vpopcnt_available() {
            out.clear();
            out.resize(self.len(), 0);
            // SAFETY: `vpopcnt_available` verified AVX-512F and
            // AVX-512VPOPCNTDQ support at runtime.
            unsafe { distances_avx512(&self.words, query, out) };
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if popcnt_available() {
            // SAFETY: `popcnt_available` verified the CPU supports the
            // POPCNT instruction this function is compiled to use.
            unsafe { distances_popcnt(&self.words, query, out) };
            return;
        }
        distances_generic(&self.words, query, out);
    }

    /// Finds the nearest descriptor to `query` among those within Hamming
    /// distance `cap`, returning `(index, distance)`; ties break toward
    /// the lower index. Returns `None` when no descriptor is within `cap`.
    ///
    /// The scalar kernels prune each candidate's word loop once the
    /// partial distance over the first two words exceeds the running bound
    /// `min(best_so_far, cap)` — exact for the returned result because a
    /// candidate can only be pruned when its full distance is provably
    /// above the bound. The AVX-512 kernel scans fully with a vectorized
    /// running minimum instead; every kernel returns the identical
    /// first-argmin answer.
    pub fn nearest_within(&self, query: [u64; 4], cap: u32) -> Option<(usize, u32)> {
        let best = {
            #[cfg(target_arch = "x86_64")]
            {
                if vpopcnt_available() {
                    // SAFETY: AVX-512F + AVX-512VPOPCNTDQ verified at
                    // runtime.
                    unsafe { nearest_avx512(&self.words, query, cap) }
                } else if popcnt_available() {
                    // SAFETY: POPCNT support was verified at runtime.
                    unsafe { nearest_popcnt(&self.words, query, cap) }
                } else {
                    nearest_generic(&self.words, query, cap)
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                nearest_generic(&self.words, query, cap)
            }
        };
        (best.0 != usize::MAX).then_some(best)
    }
}

/// Whether the CPU supports the `POPCNT` instruction (cached by the
/// `is_x86_feature_detected!` machinery).
#[cfg(target_arch = "x86_64")]
#[inline]
fn popcnt_available() -> bool {
    std::arch::is_x86_feature_detected!("popcnt")
}

/// Whether the CPU supports AVX-512 vector popcount
/// (`VPOPCNTQ` on 512-bit registers).
#[cfg(target_arch = "x86_64")]
#[inline]
fn vpopcnt_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
}

/// Portable batch-distance kernel: one linear sweep over the flat word
/// array; the `chunks_exact(4)` shape keeps the XOR + popcount reduction
/// free of bounds checks so the compiler can unroll or vectorize it.
fn distances_generic(words: &[u64], q: [u64; 4], out: &mut Vec<u32>) {
    out.clear();
    out.extend(words.chunks_exact(WORDS_PER_DESCRIPTOR).map(|w| {
        (q[0] ^ w[0]).count_ones()
            + (q[1] ^ w[1]).count_ones()
            + (q[2] ^ w[2]).count_ones()
            + (q[3] ^ w[3]).count_ones()
    }));
}

/// Hardware-popcount batch-distance kernel. Identical arithmetic to
/// [`distances_generic`]; the explicit `_popcnt64` intrinsics stop LLVM
/// from re-vectorizing the loop with the slow baseline `ctpop` lowering.
///
/// # Safety
///
/// The CPU must support the `POPCNT` instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn distances_popcnt(words: &[u64], q: [u64; 4], out: &mut Vec<u32>) {
    use std::arch::x86_64::_popcnt64;
    out.clear();
    out.extend(words.chunks_exact(WORDS_PER_DESCRIPTOR).map(|w| {
        (_popcnt64((q[0] ^ w[0]) as i64)
            + _popcnt64((q[1] ^ w[1]) as i64)
            + _popcnt64((q[2] ^ w[2]) as i64)
            + _popcnt64((q[3] ^ w[3]) as i64)) as u32
    }));
}

/// AVX-512 vector-popcount batch-distance kernel: `VPOPCNTQ` counts eight
/// `u64` words (two whole descriptors) per instruction. Each 512-bit lane
/// group is XORed against the query broadcast twice, popcounted, and
/// horizontally folded with two rotate-and-add steps so lanes 0 and 4 hold
/// the two descriptors' distances; four such vectors are then merged into
/// one row of eight `u32` distances per store. Identical integers to
/// [`distances_generic`] — popcounts are exact, so dispatch moves
/// throughput, never answers. `out.len()` must equal the descriptor count;
/// the sub-8 tail falls back to scalar `POPCNT` (implied by AVX-512F).
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512VPOPCNTDQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
unsafe fn distances_avx512(words: &[u64], q: [u64; 4], out: &mut [u32]) {
    use std::arch::x86_64::*;
    let n = out.len();
    debug_assert_eq!(words.len(), n * WORDS_PER_DESCRIPTOR);
    let qv = _mm512_broadcast_i64x4(_mm256_loadu_si256(q.as_ptr() as *const __m256i));
    // Lane selectors: `merge_lo` picks lanes {0,4} of two folded vectors
    // (four distances), `merge_all` concatenates two such quads.
    let merge_lo = _mm512_setr_epi64(0, 4, 8, 12, 0, 0, 0, 0);
    let merge_all = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
    let mut i = 0usize;
    while i + 8 <= n {
        let p = words.as_ptr().add(WORDS_PER_DESCRIPTOR * i);
        let mut folded = [_mm512_setzero_si512(); 4];
        for (k, slot) in folded.iter_mut().enumerate() {
            let v = _mm512_loadu_si512(p.add(8 * k) as *const _);
            let x = _mm512_popcnt_epi64(_mm512_xor_si512(v, qv));
            // Rotate-and-add twice: lane 0 <- x0+x1+x2+x3, lane 4 <- x4..x7.
            let t = _mm512_add_epi64(x, _mm512_alignr_epi64(x, x, 1));
            *slot = _mm512_add_epi64(t, _mm512_alignr_epi64(t, t, 2));
        }
        let r01 = _mm512_permutex2var_epi64(folded[0], merge_lo, folded[1]);
        let r23 = _mm512_permutex2var_epi64(folded[2], merge_lo, folded[3]);
        let r = _mm512_permutex2var_epi64(r01, merge_all, r23);
        _mm256_storeu_si256(
            out.as_mut_ptr().add(i) as *mut __m256i,
            _mm512_cvtepi64_epi32(r),
        );
        i += 8;
    }
    for (j, slot) in out.iter_mut().enumerate().skip(i) {
        let w = &words[WORDS_PER_DESCRIPTOR * j..WORDS_PER_DESCRIPTOR * (j + 1)];
        *slot = (_popcnt64((q[0] ^ w[0]) as i64)
            + _popcnt64((q[1] ^ w[1]) as i64)
            + _popcnt64((q[2] ^ w[2]) as i64)
            + _popcnt64((q[3] ^ w[3]) as i64)) as u32;
    }
}

/// Portable pruned nearest-neighbor kernel; returns
/// `(usize::MAX, u32::MAX)` when nothing lies within `cap`.
fn nearest_generic(words: &[u64], q: [u64; 4], cap: u32) -> (usize, u32) {
    let mut best = (usize::MAX, u32::MAX);
    let mut bound = cap;
    for (i, w) in words.chunks_exact(WORDS_PER_DESCRIPTOR).enumerate() {
        let d01 = (q[0] ^ w[0]).count_ones() + (q[1] ^ w[1]).count_ones();
        if d01 > bound {
            continue;
        }
        let d = d01 + (q[2] ^ w[2]).count_ones() + (q[3] ^ w[3]).count_ones();
        // `d <= bound` keeps the result inside `cap`; `d < best.1` keeps
        // ties broken toward the lower index.
        if d <= bound && d < best.1 {
            best = (i, d);
            bound = d;
        }
    }
    best
}

/// Hardware-popcount pruned nearest-neighbor kernel (same algorithm as
/// [`nearest_generic`]).
///
/// # Safety
///
/// The CPU must support the `POPCNT` instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn nearest_popcnt(words: &[u64], q: [u64; 4], cap: u32) -> (usize, u32) {
    use std::arch::x86_64::_popcnt64;
    let mut best = (usize::MAX, u32::MAX);
    let mut bound = cap;
    for (i, w) in words.chunks_exact(WORDS_PER_DESCRIPTOR).enumerate() {
        let d01 = (_popcnt64((q[0] ^ w[0]) as i64) + _popcnt64((q[1] ^ w[1]) as i64)) as u32;
        if d01 > bound {
            continue;
        }
        let d = d01 + (_popcnt64((q[2] ^ w[2]) as i64) + _popcnt64((q[3] ^ w[3]) as i64)) as u32;
        // `d <= bound` keeps the result inside `cap`; `d < best.1` keeps
        // ties broken toward the lower index.
        if d <= bound && d < best.1 {
            best = (i, d);
            bound = d;
        }
    }
    best
}

/// AVX-512 vector-popcount nearest-neighbor kernel: full scan (no
/// pruning — at eight words per `VPOPCNTQ` the scan outruns the branchy
/// pruned loop) tracking a per-lane running minimum and its index with a
/// strict `>` compare, so each lane keeps its *earliest* minimum. The
/// cross-lane reduction then breaks ties toward the lower index, and the
/// sub-8 tail (whose indices all exceed the vector ones) uses a strict
/// compare — together reproducing the scalar kernels' first-argmin answer
/// exactly. Anything beyond `cap` returns the sentinel, like the scalar
/// kernels.
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512VPOPCNTDQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq,avx2,popcnt")]
unsafe fn nearest_avx512(words: &[u64], q: [u64; 4], cap: u32) -> (usize, u32) {
    use std::arch::x86_64::*;
    let n = words.len() / WORDS_PER_DESCRIPTOR;
    let qv = _mm512_broadcast_i64x4(_mm256_loadu_si256(q.as_ptr() as *const __m256i));
    let merge_lo = _mm512_setr_epi64(0, 4, 8, 12, 0, 0, 0, 0);
    let merge_all = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
    // Untouched lanes keep i32::MAX, which loses to any real distance in
    // the reduction below (and to the tail loop's strict compare).
    let mut lane_best = _mm256_set1_epi32(i32::MAX);
    let mut lane_idx = _mm256_setzero_si256();
    let mut idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let eight = _mm256_set1_epi32(8);
    let mut i = 0usize;
    while i + 8 <= n {
        let p = words.as_ptr().add(WORDS_PER_DESCRIPTOR * i);
        let mut folded = [_mm512_setzero_si512(); 4];
        for (k, slot) in folded.iter_mut().enumerate() {
            let v = _mm512_loadu_si512(p.add(8 * k) as *const _);
            let x = _mm512_popcnt_epi64(_mm512_xor_si512(v, qv));
            let t = _mm512_add_epi64(x, _mm512_alignr_epi64(x, x, 1));
            *slot = _mm512_add_epi64(t, _mm512_alignr_epi64(t, t, 2));
        }
        let r01 = _mm512_permutex2var_epi64(folded[0], merge_lo, folded[1]);
        let r23 = _mm512_permutex2var_epi64(folded[2], merge_lo, folded[3]);
        let d32 = _mm512_cvtepi64_epi32(_mm512_permutex2var_epi64(r01, merge_all, r23));
        let better = _mm256_cmpgt_epi32(lane_best, d32);
        lane_best = _mm256_blendv_epi8(lane_best, d32, better);
        lane_idx = _mm256_blendv_epi8(lane_idx, idx, better);
        idx = _mm256_add_epi32(idx, eight);
        i += 8;
    }
    let mut dists = [0i32; 8];
    let mut idxs = [0i32; 8];
    _mm256_storeu_si256(dists.as_mut_ptr() as *mut __m256i, lane_best);
    _mm256_storeu_si256(idxs.as_mut_ptr() as *mut __m256i, lane_idx);
    let mut best = (usize::MAX, u32::MAX);
    for k in 0..8 {
        let (d, ix) = (dists[k] as u32, idxs[k] as usize);
        if d < best.1 || (d == best.1 && ix < best.0) {
            best = (ix, d);
        }
    }
    for j in i..n {
        let w = &words[WORDS_PER_DESCRIPTOR * j..WORDS_PER_DESCRIPTOR * (j + 1)];
        let d = (_popcnt64((q[0] ^ w[0]) as i64)
            + _popcnt64((q[1] ^ w[1]) as i64)
            + _popcnt64((q[2] ^ w[2]) as i64)
            + _popcnt64((q[3] ^ w[3]) as i64)) as u32;
        if d < best.1 {
            best = (j, d);
        }
    }
    if best.1 > cap {
        return (usize::MAX, u32::MAX);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use bees_rng::ChaCha8Rng;

    fn random_descs(seed: u64, n: usize) -> Vec<BinaryDescriptor> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut bytes = [0u8; 32];
                rng.fill(&mut bytes);
                BinaryDescriptor::from_bytes(bytes)
            })
            .collect()
    }

    #[test]
    fn round_trips_descriptors() {
        let descs = random_descs(1, 17);
        let block = DescriptorBlock::from_descriptors(&descs);
        assert_eq!(block.len(), descs.len());
        for (i, d) in descs.iter().enumerate() {
            assert_eq!(&block.descriptor(i), d, "descriptor {i}");
            for chunk in 0..4 {
                assert_eq!(block.descriptor_words(i)[chunk], d.word(chunk));
            }
        }
    }

    #[test]
    fn push_matches_bulk_construction() {
        let descs = random_descs(2, 9);
        let bulk = DescriptorBlock::from_descriptors(&descs);
        let mut inc = DescriptorBlock::new();
        assert!(inc.is_empty());
        for d in &descs {
            inc.push(d);
        }
        assert_eq!(bulk, inc);
    }

    #[test]
    fn batch_distances_match_scalar_hamming() {
        let descs = random_descs(3, 64);
        let queries = random_descs(4, 8);
        let block = DescriptorBlock::from_descriptors(&descs);
        let mut row = Vec::new();
        for q in &queries {
            let qw = [q.word(0), q.word(1), q.word(2), q.word(3)];
            block.distances_into(qw, &mut row);
            assert_eq!(row.len(), descs.len());
            for (j, d) in descs.iter().enumerate() {
                assert_eq!(row[j], q.hamming_distance(d), "pair {j}");
            }
        }
    }

    #[test]
    fn generic_and_dispatched_kernels_agree() {
        let descs = random_descs(5, 40);
        let queries = random_descs(6, 6);
        let block = DescriptorBlock::from_descriptors(&descs);
        let mut dispatched = Vec::new();
        let mut generic = Vec::new();
        for q in &queries {
            let qw = [q.word(0), q.word(1), q.word(2), q.word(3)];
            block.distances_into(qw, &mut dispatched);
            distances_generic(block.words(), qw, &mut generic);
            assert_eq!(dispatched, generic);
            assert_eq!(
                block.nearest_within(qw, 256),
                {
                    let b = nearest_generic(block.words(), qw, 256);
                    (b.0 != usize::MAX).then_some(b)
                },
                "nearest"
            );
        }
    }

    #[test]
    fn nearest_within_is_exact_inside_the_cap() {
        let descs = random_descs(7, 120);
        let queries = random_descs(8, 16);
        let block = DescriptorBlock::from_descriptors(&descs);
        for q in &queries {
            let qw = [q.word(0), q.word(1), q.word(2), q.word(3)];
            // Unpruned reference: first index with the minimum distance.
            let mut reference = (usize::MAX, u32::MAX);
            for (j, d) in descs.iter().enumerate() {
                let dist = q.hamming_distance(d);
                if dist < reference.1 {
                    reference = (j, dist);
                }
            }
            for cap in [0u32, 64, 128, reference.1, 256] {
                let got = block.nearest_within(qw, cap);
                if reference.1 <= cap {
                    assert_eq!(got, Some(reference), "cap {cap}");
                } else {
                    assert_eq!(got, None, "cap {cap}");
                }
            }
        }
    }

    #[test]
    fn nearest_ties_break_toward_lower_index() {
        let d = random_descs(9, 1).remove(0);
        // Two identical candidates: the first must win.
        let block = DescriptorBlock::from_descriptors(&[d, d]);
        let qw = [d.word(0), d.word(1), d.word(2), d.word(3)];
        assert_eq!(block.nearest_within(qw, 256), Some((0, 0)));
    }

    #[test]
    fn empty_block_has_no_nearest() {
        let block = DescriptorBlock::new();
        assert_eq!(block.nearest_within([0; 4], 256), None);
        let mut row = vec![1, 2, 3];
        block.distances_into([0; 4], &mut row);
        assert!(row.is_empty());
    }
}
