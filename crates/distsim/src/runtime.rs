//! Station execution modes.
//!
//! Every mode runs the station protocol the same way: one plain call per
//! active station on the calling thread, in station order. The mode picks
//! only whether the network models time. [`ExecutionMode::Sequential`]
//! runs over an unmodeled network (every stamp zero).
//! [`ExecutionMode::Async`] stamps every envelope with its modeled flight
//! time and every station's report with its own timeline: its broadcast
//! copy's delivery tick plus the modeled scan ticks of its shards. The
//! paper's experiment environment runs "one thread as a base station"
//! (Section V-A); the modeled timeline is that setup, since no station's
//! stamps depend on when another station ran. Both modes must produce
//! identical results and byte-identical cost reports (property-tested at
//! pipeline level in the facade crate's `mode_agreement` suite).

/// Whether a run models time; station steps run the same way in every mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// Run station steps one after another on the calling thread; time is
    /// not modeled.
    #[default]
    Sequential,
    /// Run station steps one after another on the calling thread, like
    /// [`ExecutionMode::Sequential`], over a network that models time. In
    /// the matching pipeline, broadcast and report envelopes are stamped
    /// with modeled delivery ticks, producing the `makespan_ticks` latency
    /// meter; results and byte meters stay identical to
    /// [`ExecutionMode::Sequential`].
    Async {
        /// Not read: stations run on the calling thread whatever its
        /// value. It stays so that code naming the variant with a worker
        /// count keeps compiling; pass `1`.
        workers: usize,
    },
}
