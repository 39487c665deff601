#![warn(missing_docs)]

//! Battery and energy-cost modeling for the BEES reproduction.
//!
//! The paper's prototype measures joules on a real smartphone (3150 mAh at
//! 3.8 V). This crate replaces the physical battery with an explicit model
//! so every joule is an auditable function of work performed:
//!
//! * [`Battery`] — capacity bookkeeping; `Ebat` (the remaining-energy
//!   fraction that drives every energy-aware adaptive scheme) is
//!   [`Battery::fraction`],
//! * [`model`] — the cost coefficients, as constants: CPU joules per pixel
//!   of feature detection (per extractor), per keypoint described, per
//!   pixel resized / DCT-encoded, and radio power during transmission,
//! * [`EnergyLedger`] — per-category accounting backing the paper's Fig. 8
//!   breakdown (feature extraction vs feature upload vs image upload),
//! * [`adaptive`] — the three energy-aware adaptive schemes: EAC
//!   (`C = 0.4 − 0.4·Ebat`), EDR (`T = T0 + k·Ebat`), and EAU
//!   (`Cr = 0.8 − 0.8·Ebat`).
//!
//! # Examples
//!
//! ```
//! use bees_energy::{model, Battery};
//!
//! let mut battery = Battery::from_mah(3150.0, 3.8);
//! assert!((battery.fraction() - 1.0).abs() < 1e-9);
//! let j = model::radio_tx_energy(10.0); // 10 s of transmission
//! battery.drain(j);
//! assert!(battery.fraction() < 1.0);
//! ```

pub mod adaptive;
mod battery;
mod ledger;
pub mod model;

pub use adaptive::LinearScheme;
pub use battery::Battery;
pub use ledger::{EnergyCategory, EnergyLedger};
