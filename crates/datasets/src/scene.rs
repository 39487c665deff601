//! Seeded synthetic scenes and jittered views of them.

use bees_image::{draw, Rgb, RgbImage};
use bees_rng::ChaCha8Rng;

/// Size and complexity of generated scenes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneConfig {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Number of random shapes layered onto the background.
    pub n_shapes: usize,
    /// Amplitude of the deterministic mid-frequency texture overlaid on
    /// the scene (0 disables it). Texture raises the scene's entropy so
    /// that encoded file sizes behave like real photographs instead of
    /// flat cartoons, and it feeds the corner detectors.
    pub texture_amp: f32,
}

impl Default for SceneConfig {
    fn default() -> Self {
        SceneConfig {
            width: 384,
            height: 288,
            n_shapes: 30,
            texture_amp: 12.0,
        }
    }
}

/// One shape in a scene, in scene coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Rect {
        x: f32,
        y: f32,
        w: f32,
        h: f32,
        color: Rgb,
    },
    Disk {
        x: f32,
        y: f32,
        r: f32,
        color: Rgb,
    },
    Triangle {
        pts: [(f32, f32); 3],
        color: Rgb,
    },
    Checker {
        x: f32,
        y: f32,
        w: f32,
        h: f32,
        cell: u32,
        a: Rgb,
        b: Rgb,
    },
    Line {
        x0: f32,
        y0: f32,
        x1: f32,
        y1: f32,
        color: Rgb,
    },
}

/// How one *view* of a scene differs from the canonical view: the synthetic
/// analogue of a second photographer shooting the same subject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewJitter {
    /// Horizontal shift in pixels.
    pub dx: f32,
    /// Vertical shift in pixels.
    pub dy: f32,
    /// Scale factor around the image center (1.0 = none).
    pub scale: f32,
    /// Global brightness shift.
    pub brightness: i32,
    /// Seed of the per-pixel sensor noise.
    pub noise_seed: u64,
    /// Peak amplitude of the sensor noise (0 disables it).
    pub noise_amp: u8,
}

impl ViewJitter {
    /// The canonical (unjittered) view.
    pub fn identity() -> Self {
        ViewJitter {
            dx: 0.0,
            dy: 0.0,
            scale: 1.0,
            brightness: 0,
            noise_seed: 0,
            noise_amp: 0,
        }
    }

    /// A small random jitter — enough to make descriptors differ, small
    /// enough that the views remain clearly similar.
    pub fn sample(rng: &mut ChaCha8Rng) -> Self {
        ViewJitter {
            dx: rng.gen_range(-4.0..4.0),
            dy: rng.gen_range(-4.0..4.0),
            scale: rng.gen_range(0.96..1.04),
            brightness: rng.gen_range(-12..=12),
            noise_seed: rng.gen(),
            noise_amp: rng.gen_range(2..=6),
        }
    }
}

impl Default for ViewJitter {
    fn default() -> Self {
        ViewJitter::identity()
    }
}

/// A deterministic synthetic scene: the shapes are fixed by the seed, and
/// any number of views can be rendered from it.
///
/// # Examples
///
/// ```
/// use bees_datasets::{Scene, SceneConfig, ViewJitter};
///
/// let scene = Scene::new(7, SceneConfig::default());
/// let a = scene.render(&ViewJitter::identity());
/// let b = scene.render(&ViewJitter::identity());
/// assert_eq!(a, b); // fully deterministic
/// ```
#[derive(Debug, Clone)]
pub struct Scene {
    config: SceneConfig,
    background: (Rgb, Rgb),
    shapes: Vec<Shape>,
    /// Per-scene texture waves: `(fx, fy, phase, weight)` per component.
    texture: [(f32, f32, f32, f32); 3],
}

impl Scene {
    /// Generates the scene for `seed`. Shape sizes scale with the sides,
    /// down to a floor (8 px rectangles, 4 px disks, 16 px checkers) that
    /// small scenes keep, so any side is accepted.
    pub fn new(seed: u64, config: SceneConfig) -> Self {
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1));
        let (w, h) = (config.width as f32, config.height as f32);
        let color = |rng: &mut ChaCha8Rng| Rgb::new(rng.gen(), rng.gen(), rng.gen());
        let background = (color(&mut rng), color(&mut rng));
        let mut shapes = Vec::with_capacity(config.n_shapes);
        for _ in 0..config.n_shapes {
            let shape = match rng.gen_range(0..5) {
                0 => Shape::Rect {
                    x: rng.gen_range(0.0..w),
                    y: rng.gen_range(0.0..h),
                    w: rng.gen_range(8.0..(w / 3.0).max(8.0)),
                    h: rng.gen_range(8.0..(h / 3.0).max(8.0)),
                    color: color(&mut rng),
                },
                1 => Shape::Disk {
                    x: rng.gen_range(0.0..w),
                    y: rng.gen_range(0.0..h),
                    r: rng.gen_range(4.0..(w / 6.0).max(4.0)),
                    color: color(&mut rng),
                },
                2 => {
                    let cx = rng.gen_range(0.0..w);
                    let cy = rng.gen_range(0.0..h);
                    let pt = |rng: &mut ChaCha8Rng| {
                        (
                            cx + rng.gen_range(-40.0..40.0),
                            cy + rng.gen_range(-40.0..40.0),
                        )
                    };
                    Shape::Triangle {
                        pts: [pt(&mut rng), pt(&mut rng), pt(&mut rng)],
                        color: color(&mut rng),
                    }
                }
                3 => Shape::Checker {
                    x: rng.gen_range(0.0..w),
                    y: rng.gen_range(0.0..h),
                    w: rng.gen_range(16.0..(w / 2.5).max(16.0)),
                    h: rng.gen_range(16.0..(h / 2.5).max(16.0)),
                    cell: rng.gen_range(3..9),
                    a: color(&mut rng),
                    b: color(&mut rng),
                },
                _ => Shape::Line {
                    x0: rng.gen_range(0.0..w),
                    y0: rng.gen_range(0.0..h),
                    x1: rng.gen_range(0.0..w),
                    y1: rng.gen_range(0.0..h),
                    color: color(&mut rng),
                },
            };
            shapes.push(shape);
        }
        // Texture waves: mid frequencies (periods of ~5-30 px) survive
        // moderate DCT quantization, which is what makes encoded sizes
        // realistic.
        let wave = |rng: &mut ChaCha8Rng| {
            (
                rng.gen_range(0.2..1.3),
                rng.gen_range(0.2..1.3),
                rng.gen_range(0.0..std::f32::consts::TAU),
                rng.gen_range(0.5..1.0),
            )
        };
        let texture = [wave(&mut rng), wave(&mut rng), wave(&mut rng)];
        Scene {
            config,
            background,
            shapes,
            texture,
        }
    }

    /// The scene's configuration.
    pub fn config(&self) -> &SceneConfig {
        &self.config
    }

    /// Renders one view of the scene.
    ///
    /// # Panics
    ///
    /// Panics if the scene's width or height is zero.
    pub fn render(&self, view: &ViewJitter) -> RgbImage {
        let (w, h) = (self.config.width, self.config.height);
        let mut img = RgbImage::new(w, h).expect("scene dimensions are non-zero");
        draw::fill_vertical_gradient(&mut img, self.background.0, self.background.1);
        let (cx, cy) = (w as f32 / 2.0, h as f32 / 2.0);
        // Map a scene point through the view transform.
        let tx = |x: f32| -> f32 { (x - cx) * view.scale + cx + view.dx };
        let ty = |y: f32| -> f32 { (y - cy) * view.scale + cy + view.dy };
        for shape in &self.shapes {
            match *shape {
                Shape::Rect {
                    x,
                    y,
                    w: sw,
                    h: sh,
                    color,
                } => {
                    draw::fill_rect(
                        &mut img,
                        tx(x) as i64,
                        ty(y) as i64,
                        (sw * view.scale) as u32,
                        (sh * view.scale) as u32,
                        color,
                    );
                }
                Shape::Disk { x, y, r, color } => {
                    draw::fill_disk(
                        &mut img,
                        tx(x) as i64,
                        ty(y) as i64,
                        (r * view.scale) as u32,
                        color,
                    );
                }
                Shape::Triangle { pts, color } => {
                    draw::fill_triangle(
                        &mut img,
                        (tx(pts[0].0) as i64, ty(pts[0].1) as i64),
                        (tx(pts[1].0) as i64, ty(pts[1].1) as i64),
                        (tx(pts[2].0) as i64, ty(pts[2].1) as i64),
                        color,
                    );
                }
                Shape::Checker {
                    x,
                    y,
                    w: sw,
                    h: sh,
                    cell,
                    a,
                    b,
                } => {
                    draw::draw_checker(
                        &mut img,
                        tx(x) as i64,
                        ty(y) as i64,
                        (sw * view.scale) as u32,
                        (sh * view.scale) as u32,
                        cell,
                        a,
                        b,
                    );
                }
                Shape::Line {
                    x0,
                    y0,
                    x1,
                    y1,
                    color,
                } => {
                    draw::draw_line(
                        &mut img,
                        tx(x0) as i64,
                        ty(y0) as i64,
                        tx(x1) as i64,
                        ty(y1) as i64,
                        color,
                    );
                }
            }
        }
        if self.config.texture_amp > 0.0 {
            // Texture is scene content: evaluate it in scene coordinates so
            // it moves/scales with the view like everything else.
            let amp = self.config.texture_amp;
            for y in 0..h {
                for x in 0..w {
                    let sx = (x as f32 - cx - view.dx) / view.scale + cx;
                    let sy = (y as f32 - cy - view.dy) / view.scale + cy;
                    let mut t = 0.0f32;
                    for &(fx, fy, phase, weight) in &self.texture {
                        // Product waves give blob-like texture (corner
                        // responses), not just diagonal stripes.
                        t += weight * (fx * sx + phase).sin() * (fy * sy + 1.7 * phase).sin();
                    }
                    let p = img.get(x, y);
                    let adj = |v: u8| (v as f32 + amp * t).clamp(0.0, 255.0) as u8;
                    img.set(x, y, Rgb::new(adj(p.r), adj(p.g), adj(p.b)));
                }
            }
        }
        if view.brightness != 0 {
            draw::adjust_brightness(&mut img, view.brightness);
        }
        if view.noise_amp > 0 {
            apply_noise(&mut img, view.noise_seed, view.noise_amp);
        }
        img
    }

    /// Renders the canonical view plus `extra` jittered views, all from a
    /// deterministic per-scene jitter stream.
    pub fn render_views(&self, jitter_seed: u64, count: usize) -> Vec<RgbImage> {
        let mut rng = ChaCha8Rng::seed_from_u64(jitter_seed);
        (0..count)
            .map(|i| {
                if i == 0 {
                    self.render(&ViewJitter::identity())
                } else {
                    self.render(&ViewJitter::sample(&mut rng))
                }
            })
            .collect()
    }
}

/// Adds deterministic per-pixel uniform noise in `[-amp, amp]`.
fn apply_noise(img: &mut RgbImage, seed: u64, amp: u8) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let amp = amp as i32;
    for y in 0..img.height() {
        for x in 0..img.width() {
            let p = img.get(x, y);
            let n = rng.gen_range(-amp..=amp);
            let adj = |v: u8| (v as i32 + n).clamp(0, 255) as u8;
            img.set(x, y, Rgb::new(adj(p.r), adj(p.g), adj(p.b)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bees_features::orb::Orb;
    use bees_features::similarity::{jaccard_similarity, SimilarityConfig};
    use bees_features::FeatureExtractor;

    #[test]
    fn scenes_are_deterministic() {
        let cfg = SceneConfig::default();
        let a = Scene::new(5, cfg).render(&ViewJitter::identity());
        let b = Scene::new(5, cfg).render(&ViewJitter::identity());
        assert_eq!(a, b);
    }

    #[test]
    fn small_scenes_build_and_render() {
        // Shape sizes used to be drawn from ranges that are empty below a
        // 40 px side; every shape kind must now fit any non-zero side.
        let view = ViewJitter {
            noise_amp: 4,
            ..ViewJitter::identity()
        };
        for side in 1..=48 {
            for (width, height) in [(side, side), (side, 48), (48, side)] {
                let cfg = SceneConfig {
                    width,
                    height,
                    ..SceneConfig::default()
                };
                for seed in 0..5 {
                    let img = Scene::new(seed, cfg).render(&view);
                    assert_eq!(img.dimensions(), (width, height), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn different_seeds_give_different_scenes() {
        let cfg = SceneConfig::default();
        let a = Scene::new(1, cfg).render(&ViewJitter::identity());
        let b = Scene::new(2, cfg).render(&ViewJitter::identity());
        assert_ne!(a, b);
    }

    #[test]
    fn views_of_one_scene_are_orb_similar_and_cross_scene_is_not() {
        let cfg = SceneConfig::default();
        let orb = Orb::default();
        let sim_cfg = SimilarityConfig::default();
        let mut within = Vec::new();
        let mut across = Vec::new();
        let mut prev_features = None;
        for seed in 0..4u64 {
            let scene = Scene::new(seed, cfg);
            let views = scene.render_views(seed * 100 + 1, 2);
            let f0 = orb.extract(&views[0].to_gray());
            let f1 = orb.extract(&views[1].to_gray());
            assert!(f0.len() > 30, "scene {seed} too feature-poor: {}", f0.len());
            within.push(jaccard_similarity(&f0, &f1, &sim_cfg));
            if let Some(prev) = prev_features.take() {
                across.push(jaccard_similarity(&f0, &prev, &sim_cfg));
            }
            prev_features = Some(f0);
        }
        let min_within = within.iter().cloned().fold(f64::MAX, f64::min);
        let max_across = across.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            min_within > 2.0 * max_across + 0.01,
            "similar views {within:?} must score far above dissimilar pairs {across:?}"
        );
    }

    #[test]
    fn noise_changes_pixels_but_preserves_structure() {
        let scene = Scene::new(9, SceneConfig::default());
        let clean = scene.render(&ViewJitter::identity());
        let noisy = scene.render(&ViewJitter {
            noise_seed: 3,
            noise_amp: 5,
            ..ViewJitter::identity()
        });
        assert_ne!(clean, noisy);
        let s = bees_image::metrics::ssim(&clean.to_gray(), &noisy.to_gray()).unwrap();
        assert!(s > 0.6, "noise should not destroy the scene, ssim {s}");
    }

    #[test]
    fn render_views_first_is_canonical() {
        let scene = Scene::new(11, SceneConfig::default());
        let views = scene.render_views(1, 3);
        assert_eq!(views.len(), 3);
        assert_eq!(views[0], scene.render(&ViewJitter::identity()));
        assert_ne!(views[0], views[1]);
        assert_ne!(views[1], views[2]);
    }

    #[test]
    fn small_scene_config_renders() {
        let cfg = SceneConfig {
            width: 64,
            height: 48,
            n_shapes: 6,
            texture_amp: 8.0,
        };
        let img = Scene::new(3, cfg).render(&ViewJitter::identity());
        assert_eq!(img.dimensions(), (64, 48));
    }
}
