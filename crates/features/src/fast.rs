//! FAST-9 corner detection (Rosten & Drummond) with non-maximum suppression.
//!
//! ORB's detector is "oFAST": FAST-9 corners ranked by a Harris response and
//! given an intensity-centroid orientation. This module implements the
//! segment-test detector itself; ranking and orientation live in
//! [`harris`](crate::harris) and [`orientation`](crate::orientation).

use bees_image::GrayImage;

/// Offsets of the 16-pixel Bresenham circle of radius 3 used by FAST,
/// starting at 12 o'clock and proceeding clockwise.
pub const CIRCLE: [(i32, i32); 16] = [
    (0, -3),
    (1, -3),
    (2, -2),
    (3, -1),
    (3, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 3),
    (-1, 3),
    (-2, 2),
    (-3, 1),
    (-3, 0),
    (-3, -1),
    (-2, -2),
    (-1, -3),
];

/// Minimum contiguous arc length for the FAST-9 segment test.
pub const ARC_LENGTH: usize = 9;

/// A raw FAST corner: integer position plus segment-test score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FastCorner {
    /// Column of the corner.
    pub x: u32,
    /// Row of the corner.
    pub y: u32,
    /// Segment-test score (sum of absolute differences over the arc beyond
    /// the threshold); larger is stronger.
    pub score: f32,
}

/// The start positions (bit `i` for circle pixel `i`) of every arc of
/// [`ARC_LENGTH`] contiguous set bits, with wraparound, in the 16-bit circle
/// mask `m`; zero when `m` holds no such arc.
///
/// The mask is doubled into 32 bits so a wrapping arc is contiguous; bit
/// `i` of `run` then marks a run of set bits starting at `i`, of length 2,
/// 4 and 8, and finally `ARC_LENGTH` (at most 16).
#[inline]
fn arc_starts(m: u32) -> u32 {
    let d = m | (m << 16);
    let mut run = d & (d >> 1);
    run &= run >> 2;
    run &= run >> 4;
    run &= run >> (ARC_LENGTH - 8);
    run & 0xFFFF
}

/// The segment-test score of one class: the summed excess `|v - p| - t`
/// over the class's longest contiguous run of circle pixels, given the
/// nonzero [`arc_starts`] of its mask.
///
/// An arc of 9 or more is longer than half the circle, so the longest run
/// is the only one that long, and it is exactly the union of the arcs
/// starting at `starts`. This is the excess a walk of the doubled circle
/// keeps for its longest run, summed without a branch per pixel.
#[inline]
fn arc_score(values: &[i32; 16], starts: u32, p: i32, t: i32) -> f32 {
    let starts = starts as u16;
    let mut run = 0u16;
    for k in 0..ARC_LENGTH as u32 {
        run |= starts.rotate_left(k);
    }
    let mut excess = 0i32;
    for (i, &v) in values.iter().enumerate() {
        excess += ((v - p).abs() - t) * i32::from(run >> i & 1);
    }
    excess as f32
}

/// Collects in `passing` the indices `j` of the `center` pixels that pass
/// FAST's quick rejection test, with `ring` the 16 circle slices that line
/// up with `center` (see [`detect`]).
///
/// For an arc of 9 to exist, at least two of the compass pixels
/// {0, 4, 8, 12} must be on the same side. The test runs branch-free over
/// the row into `flags`, then the passing indices are gathered without a
/// branch per pixel.
fn compass_pass(
    center: &[u8],
    ring: &[&[u8]; 16],
    threshold: u8,
    flags: &mut Vec<u8>,
    passing: &mut Vec<u32>,
) {
    let t = i16::from(threshold);
    flags.clear();
    flags.extend(
        center
            .iter()
            .zip(ring[0])
            .zip(ring[4])
            .zip(ring[8])
            .zip(ring[12])
            .map(|((((&p, &n), &e), &s), &w)| {
                let (hi, lo) = (i16::from(p) + t, i16::from(p) - t);
                let compass = [n, e, s, w].map(i16::from);
                let brighter: u8 = compass.iter().map(|&v| u8::from(v >= hi)).sum();
                let darker: u8 = compass.iter().map(|&v| u8::from(v <= lo)).sum();
                u8::from(brighter >= 2) | u8::from(darker >= 2)
            }),
    );
    passing.clear();
    passing.resize(flags.len(), 0);
    let mut n = 0;
    for (j, &flag) in (0u32..).zip(flags.iter()) {
        passing[n] = j;
        n += usize::from(flag);
    }
    passing.truncate(n);
}

/// Runs the rest of the FAST-9 segment test at index `j` of a row that
/// passed [`compass_pass`], with centre pixel `p`, returning the corner
/// score, or `None` if the pixel is not a corner.
///
/// Bit `i` of each class mask marks circle pixel `i` brighter than
/// `p + t` or darker than `p - t`; only a class whose mask holds an arc is
/// scored, the brighter class first.
#[inline]
fn segment_test(p: u8, ring: &[&[u8]; 16], j: usize, threshold: u8) -> Option<f32> {
    let p = i32::from(p);
    let t = i32::from(threshold);
    let (hi, lo) = (p + t, p - t);
    let values: [i32; 16] = std::array::from_fn(|i| i32::from(ring[i][j]));
    let (mut bright, mut dark) = (0u32, 0u32);
    for (i, &v) in values.iter().enumerate() {
        bright |= u32::from(v >= hi) << i;
        dark |= u32::from(v <= lo) << i;
    }
    let mut best_score = None::<f32>;
    for members in [bright, dark] {
        let starts = arc_starts(members);
        if starts != 0 {
            let score = arc_score(&values, starts, p, t);
            if best_score.is_none_or(|s| score > s) {
                best_score = Some(score);
            }
        }
    }
    best_score
}

/// Detects FAST-9 corners with the given brightness threshold, applying 3×3
/// non-maximum suppression on the score map.
///
/// Returns corners sorted by descending score.
///
/// # Examples
///
/// ```
/// use bees_features::fast::detect;
/// use bees_image::GrayImage;
///
/// // A bright square on dark background has corners at its 4 vertices.
/// let img = GrayImage::from_fn(32, 32, |x, y| {
///     if (8..24).contains(&x) && (8..24).contains(&y) { 220 } else { 20 }
/// });
/// let corners = detect(&img, 40);
/// assert!(corners.len() >= 4);
/// ```
pub fn detect(img: &GrayImage, threshold: u8) -> Vec<FastCorner> {
    let (w, h) = img.dimensions();
    if w < 7 || h < 7 {
        return Vec::new();
    }
    let mut scores = vec![0f32; (w * h) as usize];
    let mut candidates = Vec::new();
    let (mut flags, mut passing) = (Vec::new(), Vec::new());
    for y in 3..h - 3 {
        // Row y's testable pixels, and for each circle offset the slice of
        // its row whose index j holds that circle pixel of `center[j]`.
        let rows: [&[u8]; 7] = std::array::from_fn(|k| img.row(y - 3 + k as u32));
        let center = &rows[3][3..w as usize - 3];
        let ring: [&[u8]; 16] = std::array::from_fn(|i| {
            let (dx, dy) = CIRCLE[i];
            &rows[(3 + dy) as usize][(3 + dx) as usize..][..center.len()]
        });
        compass_pass(center, &ring, threshold, &mut flags, &mut passing);
        let score_row = &mut scores[(y * w) as usize + 3..][..center.len()];
        for &j in &passing {
            let j = j as usize;
            if let Some(score) = segment_test(center[j], &ring, j, threshold) {
                score_row[j] = score;
                candidates.push((j as u32 + 3, y, score));
            }
        }
    }
    // 3x3 non-maximum suppression.
    let mut corners = Vec::new();
    'cand: for (x, y, score) in candidates {
        for dy in -1i32..=1 {
            for dx in -1i32..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let nx = (x as i32 + dx) as u32;
                let ny = (y as i32 + dy) as u32;
                let neighbor = scores[(ny * w + nx) as usize];
                // Strict inequality on one side breaks ties deterministically
                // toward the top-left pixel.
                if neighbor > score || (neighbor == score && (dy < 0 || (dy == 0 && dx < 0))) {
                    continue 'cand;
                }
            }
        }
        corners.push(FastCorner { x, y, score });
    }
    corners.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("scores are finite"));
    corners
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_image() -> GrayImage {
        GrayImage::from_fn(40, 40, |x, y| {
            if (12..28).contains(&x) && (12..28).contains(&y) {
                230
            } else {
                25
            }
        })
    }

    #[test]
    fn flat_image_has_no_corners() {
        let img = GrayImage::from_fn(32, 32, |_, _| 128);
        assert!(detect(&img, 20).is_empty());
    }

    #[test]
    fn tiny_image_is_handled() {
        let img = GrayImage::from_fn(5, 5, |x, y| ((x * y) % 256) as u8);
        assert!(detect(&img, 20).is_empty());
    }

    #[test]
    fn square_corners_are_found_near_vertices() {
        let corners = detect(&square_image(), 40);
        assert!(!corners.is_empty());
        let vertices = [(12.0, 12.0), (27.0, 12.0), (12.0, 27.0), (27.0, 27.0)];
        for (vx, vy) in vertices {
            let close = corners
                .iter()
                .any(|c| ((c.x as f32 - vx).powi(2) + (c.y as f32 - vy).powi(2)).sqrt() < 3.0);
            assert!(close, "no corner near ({vx}, {vy}): {corners:?}");
        }
    }

    #[test]
    fn straight_edges_are_not_corners() {
        let corners = detect(&square_image(), 40);
        // Midpoint of the top edge must not be detected.
        assert!(!corners.iter().any(|c| c.x == 20 && c.y == 12));
    }

    #[test]
    fn higher_threshold_finds_fewer_corners() {
        let img = GrayImage::from_fn(64, 64, |x, y| (((x / 7) * 37 + (y / 7) * 61) % 200) as u8);
        let low = detect(&img, 10).len();
        let high = detect(&img, 60).len();
        assert!(high <= low, "high {high} vs low {low}");
    }

    #[test]
    fn corners_sorted_by_score() {
        let corners = detect(&square_image(), 30);
        for pair in corners.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn dark_corners_detected_too() {
        // Dark square on bright background.
        let img = GrayImage::from_fn(40, 40, |x, y| {
            if (12..28).contains(&x) && (12..28).contains(&y) {
                20
            } else {
                230
            }
        });
        assert!(!detect(&img, 40).is_empty());
    }
}
