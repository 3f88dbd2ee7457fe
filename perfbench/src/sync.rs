//! The single import point for synchronisation primitives.
//!
//! Follows the workspace's shim discipline (R1 in `ntx-lint`): every
//! benchmark module gets its `Arc`, mutexes and atomics from here, never
//! from `std::sync` directly.

pub(crate) use std::sync::{Arc, Mutex};

/// Atomic types and `Ordering`.
pub(crate) mod atomic {
    pub(crate) use std::sync::atomic::{AtomicU8, Ordering};
}
