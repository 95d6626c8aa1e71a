//! Traced fan-out: rayon's parallel map and join, with the caller's
//! trace context carried onto the workers.
//!
//! Worker threads have no trace context of their own, so spans opened
//! on them would drop out of the caller's trace. These helpers capture
//! the active trace (if any) before fanning out and attach every work
//! item under the span open at that capture point. The parent edge is
//! fixed at capture, not by scheduling, which keeps the span-tree shape
//! identical at every thread count (`docs/CONCURRENCY.md` rule seven).
//! Results come back in input order, as rayon's `collect` guarantees.
//!
//! They live in this crate because it is the lowest one that links both
//! rayon and the trace recorder and is shared by `experiments` and
//! `serve`, the other crates that fan out.

use rayon::prelude::*;
use thirstyflops_obs::trace;

/// Maps `f` over `items` across the configured rayon workers, each item
/// attached to the caller's trace; results in input order.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync + Send,
{
    let handle = trace::handle();
    items
        .par_iter()
        .map(|item| {
            let _trace = handle.as_ref().map(|h| h.attach());
            f(item)
        })
        .collect()
}

/// Runs `a` and `b` as a `rayon::join`, both attached to the caller's
/// trace.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let handle = trace::handle();
    let handle = handle.as_ref();
    rayon::join(
        || {
            let _trace = handle.map(|h| h.attach());
            a()
        },
        || {
            let _trace = handle.map(|h| h.attach());
            b()
        },
    )
}
