//! Flat structure-of-arrays storage for 256-bit binary descriptors.
//!
//! A [`DescriptorBlock`] is how every binary descriptor set is stored:
//! ORB pushes each BRIEF descriptor into one, and it is what
//! [`Descriptors::Binary`] holds. Every hot loop in the system — brute-force
//! matching, MIH candidate rescoring, the SSMM pairwise similarity graph —
//! reduces to "score one descriptor set against another", and the block
//! keeps the words of a whole set in one flat contiguous `u64` array so that
//! the pair kernel behind the matcher sweeps both sets with unit stride.
//! [`BinaryDescriptor`] remains the element type that goes in and comes
//! out.
//!
//! [`Descriptors::Binary`]: crate::Descriptors::Binary
//!
//! # The pair kernel
//!
//! The matcher needs, for a pair of blocks, each query row's nearest train
//! row and — for the cross-check — each train row's nearest query row.
//! One pass computes every distance of the pair once and keeps both
//! minima, each as the key `distance << 32 | index`: the minimum key is the
//! first argmin, so ties break toward the lower index.
//!
//! `rustc` targets baseline `x86-64` by default, which predates the
//! `POPCNT` instruction, so `u64::count_ones()` compiles to a ~15-op
//! bit-twiddling sequence per word. The kernel therefore comes in three
//! tiers selected once at runtime via `is_x86_feature_detected!`. The two
//! scalar tiers share one `#[inline(always)]` body: its portable build, and
//! a `#[target_feature(enable = "popcnt")]` shell that inlines it so
//! `count_ones()` compiles to one `POPCNT` per word. They skip a pair once
//! its first two words already exceed the cap (partial-distance pruning).
//! Where the CPU has AVX-512VPOPCNTDQ, the kernel transposes each 8-row
//! train tile once, so the inner loop over query rows is XOR, `VPOPCNTQ`,
//! add and unsigned minimum on eight pairs at a time, with no shuffles.
//! Every tier returns the same key for every row whose nearest neighbor
//! lies within the cap, so the dispatch moves throughput, never results;
//! the tests below run each tier against an unpruned reference, and
//! `tests/soa_parity.rs` pins the full match lists against
//! [`match_binary_exhaustive`](crate::matcher::match_binary_exhaustive).

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
/// let mut d = BinaryDescriptor::zero();
/// d.set_bit(65);
/// let block = DescriptorBlock::from_descriptors(&[BinaryDescriptor::zero(), d]);
/// assert_eq!(block.len(), 2);
/// // Bit 65 is bit 1 of word 1.
/// assert_eq!(block.descriptor_words(1), [0, 2, 0, 0]);
/// assert_eq!(block.descriptor(1), d);
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

    /// Both nearest-neighbor tables of the pair (`self` as the query
    /// set, `train` as the train set) from one pass over its distances.
    ///
    /// Returns `(forward, backward)`: `forward[i]` is the minimum of
    /// `distance << 32 | j` over the train rows `j`, and `backward[j]` the
    /// minimum of `distance << 32 | i` over the query rows `i`. A minimum
    /// key is the first argmin. Keys whose distance is at most `cap` are
    /// exact; a row whose nearest neighbor lies beyond `cap` gets some key
    /// whose distance exceeds `cap`, since the scalar tiers skip a pair
    /// once its first two words already exceed it.
    pub(crate) fn nearest_keys(&self, train: &DescriptorBlock, cap: u32) -> (Vec<u64>, Vec<u64>) {
        #[cfg(target_arch = "x86_64")]
        {
            if vpopcnt_available() {
                // SAFETY: AVX-512F + AVX-512VPOPCNTDQ verified at runtime.
                return unsafe { keys_avx512(&self.words, &train.words, cap) };
            }
            if popcnt_available() {
                // SAFETY: POPCNT support was verified at runtime.
                return unsafe { keys_popcnt(&self.words, &train.words, cap) };
            }
        }
        keys(&self.words, &train.words, cap)
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

/// The fused pair pass of the scalar tiers, skipping a pair once its first
/// two words exceed `cap`. Always inlined, so each tier compiles it with
/// its own target features.
#[inline(always)]
fn keys(query: &[u64], train: &[u64], cap: u32) -> (Vec<u64>, Vec<u64>) {
    let mut forward = vec![u64::MAX; query.len() / WORDS_PER_DESCRIPTOR];
    let mut backward = vec![u64::MAX; train.len() / WORDS_PER_DESCRIPTOR];
    for (i, (q, f)) in query
        .chunks_exact(WORDS_PER_DESCRIPTOR)
        .zip(&mut forward)
        .enumerate()
    {
        let mut best = u64::MAX;
        for (j, (t, b)) in train
            .chunks_exact(WORDS_PER_DESCRIPTOR)
            .zip(&mut backward)
            .enumerate()
        {
            let d01 = (q[0] ^ t[0]).count_ones() + (q[1] ^ t[1]).count_ones();
            if d01 > cap {
                continue;
            }
            let d = d01 + (q[2] ^ t[2]).count_ones() + (q[3] ^ t[3]).count_ones();
            let key = u64::from(d) << 32;
            best = best.min(key | j as u64);
            *b = (*b).min(key | i as u64);
        }
        *f = best;
    }
    (forward, backward)
}

/// [`keys`] compiled with `POPCNT` enabled.
///
/// # Safety
///
/// The CPU must support the `POPCNT` instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn keys_popcnt(query: &[u64], train: &[u64], cap: u32) -> (Vec<u64>, Vec<u64>) {
    keys(query, train, cap)
}

/// AVX-512 vector-popcount pair pass, unpruned (`cap` is not needed).
///
/// Each 8-row train tile is transposed once into four vectors, lane `l`
/// holding a word of train row `j0 + l`. Each query row then costs four
/// broadcasts, XORs and `VPOPCNTQ`s and three adds for eight distances,
/// and two unsigned minima: one into that row's eight forward lanes, one
/// into the tile's eight backward lanes. Padding lanes of a short tile get
/// an all-ones forward key, which never wins, and are never stored
/// backward. Each row's eight forward lanes reduce to one key at the end.
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512VPOPCNTDQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn keys_avx512(query: &[u64], train: &[u64], _cap: u32) -> (Vec<u64>, Vec<u64>) {
    use std::arch::x86_64::*;
    let nq = query.len() / WORDS_PER_DESCRIPTOR;
    let nt = train.len() / WORDS_PER_DESCRIPTOR;
    let mut forward = vec![u64::MAX; 8 * nq];
    let mut backward = vec![u64::MAX; nt];
    let lanes = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
    let one = _mm512_set1_epi64(1);
    for j0 in (0..nt).step_by(8) {
        let rows = (nt - j0).min(8);
        let mut tile = [[0u64; 8]; WORDS_PER_DESCRIPTOR];
        for (l, t) in train[WORDS_PER_DESCRIPTOR * j0..]
            .chunks_exact(WORDS_PER_DESCRIPTOR)
            .take(rows)
            .enumerate()
        {
            for (w, plane) in tile.iter_mut().enumerate() {
                plane[l] = t[w];
            }
        }
        let mut t = [_mm512_setzero_si512(); WORDS_PER_DESCRIPTOR];
        for (v, plane) in t.iter_mut().zip(&tile) {
            *v = _mm512_loadu_si512(plane.as_ptr() as *const _);
        }
        let padding = !(0xffu16 >> (8 - rows)) as u8;
        let train_idx = _mm512_or_si512(
            _mm512_add_epi64(_mm512_set1_epi64(j0 as i64), lanes),
            _mm512_maskz_set1_epi64(padding, -1),
        );
        let mut query_idx = _mm512_setzero_si512();
        let mut column = _mm512_set1_epi64(-1);
        for (q, f) in query
            .chunks_exact(WORDS_PER_DESCRIPTOR)
            .zip(forward.chunks_exact_mut(8))
        {
            let mut d = _mm512_setzero_si512();
            for (w, plane) in t.iter().enumerate() {
                let x = _mm512_xor_si512(*plane, _mm512_set1_epi64(q[w] as i64));
                d = _mm512_add_epi64(d, _mm512_popcnt_epi64(x));
            }
            let key = _mm512_slli_epi64::<32>(d);
            let f = f.as_mut_ptr() as *mut __m512i;
            let row = _mm512_min_epu64(_mm512_loadu_si512(f), _mm512_or_si512(key, train_idx));
            _mm512_storeu_si512(f, row);
            column = _mm512_min_epu64(column, _mm512_or_si512(key, query_idx));
            query_idx = _mm512_add_epi64(query_idx, one);
        }
        let mut out = [0u64; 8];
        _mm512_storeu_si512(out.as_mut_ptr() as *mut _, column);
        backward[j0..j0 + rows].copy_from_slice(&out[..rows]);
    }
    for i in 0..nq {
        forward[i] = *forward[8 * i..8 * i + 8].iter().min().expect("eight lanes");
    }
    forward.truncate(nq);
    (forward, backward)
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

    /// The unpruned first argmin of `from` over `to` as a key
    /// (`distance << 32 | index`), or `u64::MAX` when `to` is empty.
    fn first_argmin(from: &BinaryDescriptor, to: &[BinaryDescriptor]) -> u64 {
        let mut best = (usize::MAX, u32::MAX);
        for (j, t) in to.iter().enumerate() {
            let dist = from.hamming_distance(t);
            if dist < best.1 {
                best = (j, dist);
            }
        }
        if to.is_empty() {
            u64::MAX
        } else {
            (u64::from(best.1) << 32) | best.0 as u64
        }
    }

    /// Whether a kernel key honours the reference key under `cap`: equal
    /// when the nearest neighbor lies within the cap, beyond it otherwise.
    fn agrees(got: u64, reference: u64, cap: u32) -> bool {
        if reference >> 32 <= u64::from(cap) {
            got == reference
        } else {
            got >> 32 > u64::from(cap)
        }
    }

    /// A query and a train set of the given sizes: rows duplicated across
    /// the AVX-512 tier's lanes and tail (row and column ties), train rows
    /// that copy or nearly copy query rows, and an all-zero first and
    /// all-one last descriptor on each side.
    fn pair_sets(
        seed: u64,
        nq: usize,
        nt: usize,
    ) -> (Vec<BinaryDescriptor>, Vec<BinaryDescriptor>) {
        let mut query = random_descs(seed, nq);
        for i in (2..nq).step_by(3) {
            query[i] = query[i / 3];
        }
        let mut train = random_descs(seed + 1, nt);
        for (j, t) in train.iter_mut().enumerate() {
            if nq > 0 && j % 3 != 2 {
                let mut bytes = *query[(7 * j) % nq].as_bytes();
                bytes[j % 32] ^= j as u8 & 0x55;
                *t = BinaryDescriptor::from_bytes(bytes);
            }
        }
        for set in [&mut query, &mut train] {
            if let Some(first) = set.first_mut() {
                *first = BinaryDescriptor::zero();
            }
            if set.len() > 1 {
                let last = set.len() - 1;
                set[last] = BinaryDescriptor::from_bytes([0xff; 32]);
            }
        }
        (query, train)
    }

    /// Every tier of the pair kernel against the unpruned first argmin in
    /// both directions and, through the matcher's filter, against
    /// `match_binary_exhaustive`: 0/1/7/8/9/150/151 rows on each side
    /// (both sides of the AVX-512 tier's 8-row tile), `max_hamming`
    /// 0/30/64/256 with and without the cross-check. A tier the CPU lacks
    /// is reported as skipped (visible with `--nocapture`).
    #[test]
    fn every_nearest_tier_matches_the_first_argmin_reference() {
        use crate::matcher::{collect_binary_matches, match_binary_exhaustive, MatchConfig};
        type Kernel = fn(&[u64], &[u64], u32) -> (Vec<u64>, Vec<u64>);
        #[allow(unused_mut)] // only x86-64 adds tiers
        let mut tiers: Vec<(&str, Option<Kernel>)> = vec![("generic", Some(keys))];
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: each tier is only listed when its CPU support was
            // verified at runtime.
            let popcnt: Kernel = |q, t, cap| unsafe { keys_popcnt(q, t, cap) };
            let avx512: Kernel = |q, t, cap| unsafe { keys_avx512(q, t, cap) };
            tiers.push(("popcnt", popcnt_available().then_some(popcnt)));
            tiers.push(("avx512", vpopcnt_available().then_some(avx512)));
        }
        let sizes = [0usize, 1, 7, 8, 9, 150, 151];
        for &nq in &sizes {
            for &nt in &sizes {
                let (query, train) = pair_sets((nq * 1000 + nt) as u64, nq, nt);
                let (qb, tb) = (
                    DescriptorBlock::from_descriptors(&query),
                    DescriptorBlock::from_descriptors(&train),
                );
                let forward: Vec<u64> = query.iter().map(|q| first_argmin(q, &train)).collect();
                let backward: Vec<u64> = train.iter().map(|t| first_argmin(t, &query)).collect();
                for max_hamming in [0u32, 30, 64, 256] {
                    for cross_check in [true, false] {
                        let config = MatchConfig {
                            max_hamming,
                            cross_check,
                            ..MatchConfig::default()
                        };
                        let expected = match_binary_exhaustive(&query, &train, &config);
                        for (name, kernel) in &tiers {
                            let Some(kernel) = kernel else { continue };
                            let at = format!("{name} tier, {nq}x{nt}, cap {max_hamming}");
                            let (f, b) = kernel(qb.words(), tb.words(), max_hamming);
                            assert_eq!((f.len(), b.len()), (nq, nt), "{at}");
                            for (i, (&got, &want)) in f.iter().zip(&forward).enumerate() {
                                assert!(agrees(got, want, max_hamming), "{at}: query row {i}");
                            }
                            for (j, (&got, &want)) in b.iter().zip(&backward).enumerate() {
                                assert!(agrees(got, want, max_hamming), "{at}: train row {j}");
                            }
                            let got = collect_binary_matches(&f, &b, &config);
                            assert_eq!(got, expected, "{at}, cross-check {cross_check}");
                        }
                    }
                }
            }
        }
        for (name, kernel) in &tiers {
            let verdict = if kernel.is_some() {
                "ran"
            } else {
                "skipped: this CPU lacks it"
            };
            eprintln!("pair kernel {name} tier: {verdict}");
        }
    }

    #[test]
    fn nearest_keys_are_exact_inside_the_cap() {
        let query = random_descs(7, 40);
        let mut train = random_descs(8, 120);
        // Near copies, so some nearest neighbors fall inside small caps.
        for (j, t) in train.iter_mut().enumerate().step_by(4) {
            let mut bytes = *query[j % 40].as_bytes();
            bytes[j % 32] ^= 0b1011;
            *t = BinaryDescriptor::from_bytes(bytes);
        }
        let (qb, tb) = (
            DescriptorBlock::from_descriptors(&query),
            DescriptorBlock::from_descriptors(&train),
        );
        for cap in [0u32, 3, 64, 128, 256] {
            let (f, b) = qb.nearest_keys(&tb, cap);
            for (q, &got) in query.iter().zip(&f) {
                assert!(agrees(got, first_argmin(q, &train), cap), "cap {cap}");
            }
            for (t, &got) in train.iter().zip(&b) {
                assert!(agrees(got, first_argmin(t, &query), cap), "cap {cap}");
            }
        }
    }

    #[test]
    fn nearest_ties_break_toward_lower_index() {
        let d = random_descs(9, 1).remove(0);
        // Two identical rows on each side: the first wins both ways.
        let block = DescriptorBlock::from_descriptors(&[d, d]);
        let (f, b) = block.nearest_keys(&block, 256);
        assert_eq!(f, vec![0, 0]);
        assert_eq!(b, vec![0, 0]);
    }

    #[test]
    fn empty_block_has_no_nearest() {
        let empty = DescriptorBlock::new();
        let some = DescriptorBlock::from_descriptors(&random_descs(10, 3));
        assert_eq!(empty.nearest_keys(&some, 256), (vec![], vec![u64::MAX; 3]));
        assert_eq!(some.nearest_keys(&empty, 256), (vec![u64::MAX; 3], vec![]));
    }
}
