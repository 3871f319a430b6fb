//! Discrete-event simulation kernel for the SPCP chip-multiprocessor model.
//!
//! This crate provides the time base ([`Cycle`]), a deterministic event queue
//! ([`EventQueue`]), a reproducible random-number source ([`DetRng`]) and a
//! small statistics toolkit ([`stats`]) shared by every other crate in the
//! workspace.
//!
//! The kernel is intentionally single-threaded: the whole point of the
//! reproduction is *determinism* — two runs with the same seed produce
//! bit-identical results, which is what makes the paper's figures
//! regenerable.
//!
//! # Examples
//!
//! ```
//! use spcp_sim::{Cycle, EventQueue};
//!
//! let mut q = EventQueue::new();
//! q.push(Cycle::new(10), "b");
//! q.push(Cycle::new(5), "a");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t, e), (Cycle::new(5), "a"));
//! ```

#![warn(missing_docs)]

pub mod cycle;
pub mod event;
pub mod flatmap;
pub mod hash;
pub mod ids;
pub mod rng;
pub mod stats;

pub use cycle::Cycle;
pub use event::EventQueue;
pub use flatmap::FlatMap;
pub use ids::{CoreId, CoreSet};
pub use rng::DetRng;
pub use stats::{Counter, Histogram, MeanAccumulator};
