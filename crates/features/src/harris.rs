//! Harris corner response.
//!
//! ORB ranks FAST corners by their Harris response before keeping the top-N
//! (the FAST score alone correlates poorly with repeatability).

use bees_image::GrayImage;

/// Harris detector free parameter `k`; 0.04 is the standard choice.
pub const HARRIS_K: f32 = 0.04;

/// Computes the Harris response at `(x, y)` using Sobel gradients summed
/// over a `(2·block + 1)²` window.
///
/// Returns `None` when the window would leave the image.
pub fn harris_response(img: &GrayImage, x: u32, y: u32, block: u32) -> Option<f32> {
    let b = block as i64;
    let (w, h) = (img.width() as i64, img.height() as i64);
    let (cx, cy) = (x as i64, y as i64);
    if cx - b - 1 < 0 || cy - b - 1 < 0 || cx + b + 1 >= w || cy + b + 1 >= h {
        return None;
    }
    // The window's columns plus the Sobel margin on each side.
    let cols = (cx - b - 1) as usize..=(cx + b + 1) as usize;
    let p = |row: &[u8], k: usize| row[k] as i64;
    let mut sxx = 0i64;
    let mut syy = 0i64;
    let mut sxy = 0i64;
    for yy in (cy - b) as u32..=(cy + b) as u32 {
        let up = &img.row(yy - 1)[cols.clone()];
        let mid = &img.row(yy)[cols.clone()];
        let down = &img.row(yy + 1)[cols.clone()];
        for i in 1..up.len() - 1 {
            let gx = (p(up, i + 1) + 2 * p(mid, i + 1) + p(down, i + 1))
                - (p(up, i - 1) + 2 * p(mid, i - 1) + p(down, i - 1));
            let gy = (p(down, i - 1) + 2 * p(down, i) + p(down, i + 1))
                - (p(up, i - 1) + 2 * p(up, i) + p(up, i + 1));
            sxx += gx * gx;
            syy += gy * gy;
            sxy += gx * gy;
        }
    }
    // Each Sobel product is an integer of magnitude at most 1020², and a
    // window sum stays far below 2^53, so these integer sums equal the
    // `f64` sums of the `f32` products in any order.
    let (sxx, syy, sxy) = (sxx as f64, syy as f64, sxy as f64);
    // Normalize so the response is independent of the window size.
    let n = ((2 * b + 1) * (2 * b + 1)) as f64;
    let (sxx, syy, sxy) = (sxx / n, syy / n, sxy / n);
    let det = sxx * syy - sxy * sxy;
    let trace = sxx + syy;
    Some((det - HARRIS_K as f64 * trace * trace) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corner_image() -> GrayImage {
        // Bright quadrant: a strong corner at (16, 16).
        GrayImage::from_fn(32, 32, |x, y| if x >= 16 && y >= 16 { 220 } else { 20 })
    }

    #[test]
    fn corner_beats_edge_and_flat() {
        let img = corner_image();
        let corner = harris_response(&img, 16, 16, 3).unwrap();
        let edge = harris_response(&img, 24, 16, 3).unwrap(); // horizontal edge
        let flat = harris_response(&img, 8, 8, 3).unwrap();
        assert!(corner > edge, "corner {corner} vs edge {edge}");
        assert!(corner > flat, "corner {corner} vs flat {flat}");
    }

    #[test]
    fn edge_response_is_negative_or_small() {
        let img = corner_image();
        let edge = harris_response(&img, 24, 16, 3).unwrap();
        let corner = harris_response(&img, 16, 16, 3).unwrap();
        // The Harris measure penalizes pure edges.
        assert!(edge < corner / 10.0);
    }

    #[test]
    fn window_outside_image_is_none() {
        let img = corner_image();
        assert!(harris_response(&img, 0, 0, 3).is_none());
        assert!(harris_response(&img, 31, 31, 3).is_none());
        assert!(harris_response(&img, 16, 16, 3).is_some());
    }

    #[test]
    fn flat_image_response_near_zero() {
        let img = GrayImage::from_fn(32, 32, |_, _| 99);
        let r = harris_response(&img, 16, 16, 3).unwrap();
        assert!(r.abs() < 1e-3);
    }
}
