#![warn(missing_docs)]

//! Simulated disaster-constrained network for the BEES reproduction.
//!
//! The paper evaluates over WiFi throttled to "fluctuate from 0 Kbps to
//! 512 Kbps" to emulate a disaster-damaged network. This crate provides the
//! same emulation one level deeper:
//!
//! * [`SimClock`] — simulated wall-clock time in seconds,
//! * [`BandwidthTrace`] — deterministic piecewise-constant bandwidth over
//!   time (constant, seeded-fluctuating, or an explicit schedule),
//! * [`Channel`] — computes how long a payload of N bytes takes to transfer
//!   starting at a given instant by integrating the trace; transfer
//!   durations feed both the delay metrics (Fig. 11) and the radio energy
//!   model,
//! * [`FaultModel`] / [`FaultyChannel`] — deterministic fault injection
//!   (blackout windows, mid-flight drops, timeouts) layered on any trace,
//!   reporting partial progress per attempt,
//! * [`RetryPolicy`] — energy-aware retry budgets with deterministic
//!   exponential backoff and seeded jitter, consumed by the resumable
//!   transfer path in `bees-core`,
//! * [`SharedCell`] / [`SharedCellConfig`] — one oversubscribed uplink
//!   cell (with seeded outage windows) that a whole fleet draws airtime
//!   from through per-epoch grants.
//!
//! # Examples
//!
//! ```
//! use bees_net::{BandwidthTrace, Channel};
//!
//! # fn main() -> Result<(), bees_net::NetError> {
//! let channel = Channel::new(BandwidthTrace::constant(256_000.0)?); // 256 Kbps
//! let t = channel.transfer_duration(0.0, 32_000)?; // 32 KB
//! assert!((t - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

mod cell;
mod channel;
mod clock;
mod error;
mod fault;
mod retry;
mod trace;
pub mod wire;

pub use cell::{SharedCell, SharedCellConfig};
pub use channel::{Channel, TransferProgress, DEFAULT_STALL_LIMIT_S};
pub use clock::SimClock;
pub use error::NetError;
pub use fault::{FaultKind, FaultModel, FaultyChannel, TransferOutcome};
pub use retry::RetryPolicy;
pub use trace::BandwidthTrace;

/// Shorthand result type for network operations.
pub type Result<T> = std::result::Result<T, NetError>;
