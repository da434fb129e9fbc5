//! Live execution runtime: the paper's loop on real threads.
//!
//! Everything below `adaptcomm-sim` *predicts*; this crate *executes*.
//! A [`channel::run_shaped`] run spawns one OS thread per processor and
//! moves real byte buffers through a pluggable [`transport::Transport`]
//! while a central fabric drives the shared §3 port engine
//! ([`adaptcomm_core::port`]: one send and one receive at a time per
//! node, FCFS receiver grants), each transfer occupying its ports for
//! `T_ij + m/B_ij` modeled milliseconds priced live from a
//! [`adaptcomm_sim::NetworkEvolution`]. The fabric coordinates threads
//! in virtual time, so the realized modeled timeline is deterministic
//! and bit-compatible with the discrete-event simulator — the
//! cross-validation the integration tests enforce at 5% and usually see
//! at ~1e-6.
//!
//! On top of the engine:
//!
//! * [`channel::price_shaped`] — the same commit engine on the calling
//!   thread, which prices a plan without spawning workers;
//! * [`transport`] — the physical byte path: in-process shaped channels
//!   or genuinely concurrent loopback TCP ([`tcp`]);
//! * [`trace`] — per-event traces stamped in wall *and* modeled time,
//!   convertible to `sim::metrics` records;
//! * [`prober`] — fits live `(T_ij, B_ij)` from completed transfers and
//!   publishes them back into the `DirectoryService`;
//! * [`adapt`] — [`adapt::CheckpointedRun`] closes the measure →
//!   schedule → execute → adapt loop of §6.4, replanning at checkpoints
//!   with the simulator's own open-shop rule and retrying around typed
//!   link failures ([`error::RuntimeError`]);
//! * [`run`] — a one-call facade (`execute` / `execute_adaptive`) over
//!   either backend with receipt verification.
//!
//! # Example
//!
//! ```
//! use adaptcomm_core::algorithms::{OpenShop, Scheduler};
//! use adaptcomm_core::matrix::CommMatrix;
//! use adaptcomm_model::{Bandwidth, Bytes, Millis, NetParams};
//! use adaptcomm_runtime::channel::FrozenNetwork;
//! use adaptcomm_runtime::run::{execute, BackendKind};
//! use adaptcomm_runtime::channel::ShapedConfig;
//!
//! let p = 4;
//! let net = NetParams::uniform(p, Millis::new(5.0), Bandwidth::from_kbps(1_000.0));
//! let sizes: Vec<Vec<Bytes>> = (0..p).map(|s| (0..p)
//!     .map(|d| if s == d { Bytes::ZERO } else { Bytes::KB }).collect()).collect();
//! let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
//! let report = execute(&order.order, &sizes, &mut FrozenNetwork(net),
//!     BackendKind::Channel, ShapedConfig::default()).unwrap();
//! assert!(report.receipts_ok);
//! assert_eq!(report.records.len(), p * (p - 1));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)]

pub mod adapt;
pub mod channel;
pub mod error;
pub mod obs_bridge;
pub mod prober;
pub mod run;
pub mod tcp;
pub mod telemetry;
pub mod trace;
pub mod transport;

pub use adapt::{
    AdaptReport, AdaptSettings, CheckpointedRun, DetectorSettings, FaultKind, RecoveryEvent,
    ReplanTrigger,
};
pub use adaptcomm_sim::dynamic::Replanner;
pub use channel::{
    price_shaped, run_shaped, CheckpointAction, CheckpointView, FaultPolicy, FrozenNetwork,
    ShapedConfig, ShapedFailure, ShapedOutcome,
};
pub use error::RuntimeError;
pub use prober::{LinkMeasurement, MeasurementTamper, Prober, PublishOutcome, TrustPolicy};
pub use run::{execute, execute_adaptive, execute_adaptive_monitored, BackendKind, RunReport};
pub use tcp::TcpTransport;
pub use telemetry::Telemetry;
pub use trace::{EventKind, RunTrace, RuntimeEvent};
pub use transport::{ChannelTransport, ReceiptSummary, Transport};
