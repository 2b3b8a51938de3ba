//! Station execution modes.
//!
//! Every mode runs the station protocol the same way: one future per
//! station on the vendored executor ([`block_on_all`]). The mode picks only
//! the worker count and whether time is modeled.
//! [`ExecutionMode::Sequential`] is the executor's inline worker on the
//! calling thread over an unmodeled network, which is deterministic and
//! convenient for tests. [`ExecutionMode::Async`] adds workers (a
//! work-stealing pool) and stamps envelopes against a [`VirtualClock`]. The
//! paper's experiment environment runs "one thread as a base station"
//! (Section V-A); `Async { workers: stations }` is that setup. Both modes
//! must produce identical results and byte-identical cost reports
//! (property-tested at pipeline level in the facade crate's
//! `mode_agreement` suite).
//!
//! [`block_on_all`]: crate::block_on_all
//! [`VirtualClock`]: crate::VirtualClock

use crate::error::{DistSimError, Result};

/// How per-station work is executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// Run station tasks one after another on the calling thread (the
    /// executor's single inline worker); time is not modeled.
    #[default]
    Sequential,
    /// Run station tasks on the vendored mini-executor
    /// ([`block_on_all`](crate::block_on_all)): `workers == 1` is the
    /// deterministic single-threaded task queue, more workers the
    /// work-stealing pool. In the matching pipeline this mode additionally
    /// models broadcast/report flight times on a
    /// [`VirtualClock`](crate::VirtualClock), producing the `makespan_ticks`
    /// latency meter; results and byte meters stay identical to
    /// [`ExecutionMode::Sequential`].
    Async {
        /// Number of executor workers; clamped to `1..=tasks`.
        workers: usize,
    },
}

impl ExecutionMode {
    /// The number of executor workers station tasks run on (one for
    /// [`ExecutionMode::Sequential`]).
    pub fn workers(self) -> usize {
        match self {
            ExecutionMode::Sequential => 1,
            ExecutionMode::Async { workers } => workers,
        }
    }

    /// Reads the mode from the `DIPM_MODE` environment variable: `default`
    /// when unset or empty, an error when set to anything outside the
    /// grammar.
    ///
    /// Accepted forms: `sequential` (or `seq`), `async`, `async:N` (`async`
    /// alone means one deterministic worker). The CI example jobs use this
    /// to re-run every example under [`ExecutionMode::Async`] without code
    /// changes — which is exactly why a typo must fail loudly instead of
    /// silently running the default runtime under the wrong label.
    ///
    /// # Errors
    ///
    /// Returns [`DistSimError::InvalidMode`] when the variable is set to a
    /// value [`ExecutionMode::parse`] rejects.
    ///
    /// # Examples
    ///
    /// ```
    /// use dipm_distsim::ExecutionMode;
    ///
    /// // Unset (or empty) falls back to the given default.
    /// let mode = ExecutionMode::from_env(ExecutionMode::Sequential)?;
    /// assert!(matches!(
    ///     mode,
    ///     ExecutionMode::Sequential | ExecutionMode::Async { .. }
    /// ));
    /// # Ok::<(), dipm_distsim::DistSimError>(())
    /// ```
    pub fn from_env(default: ExecutionMode) -> Result<ExecutionMode> {
        match std::env::var("DIPM_MODE") {
            Ok(value) => ExecutionMode::from_env_value(Some(&value), default),
            Err(std::env::VarError::NotPresent) => Ok(default),
            // Non-UTF-8 is set-but-garbage — the same loud-error class as
            // a value outside the grammar, never a silent fallback.
            Err(std::env::VarError::NotUnicode(raw)) => Err(DistSimError::InvalidMode {
                value: raw.to_string_lossy().into_owned(),
            }),
        }
    }

    /// The pure core of [`ExecutionMode::from_env`]: resolves an optional
    /// `DIPM_MODE` value against a default. Split out so the grammar's
    /// error path is unit-testable without touching process-global
    /// environment state.
    ///
    /// # Errors
    ///
    /// Returns [`DistSimError::InvalidMode`] on a non-empty value outside
    /// the grammar. An unset variable or an empty/whitespace value (e.g. a
    /// CI matrix arm passing `DIPM_MODE=""`) resolves to `default`.
    pub fn from_env_value(value: Option<&str>, default: ExecutionMode) -> Result<ExecutionMode> {
        match value {
            None => Ok(default),
            Some(value) if value.trim().is_empty() => Ok(default),
            Some(value) => ExecutionMode::parse(value).ok_or_else(|| DistSimError::InvalidMode {
                value: value.to_string(),
            }),
        }
    }

    /// Parses the `DIPM_MODE` grammar; `None` on unrecognized input.
    pub fn parse(value: &str) -> Option<ExecutionMode> {
        let value = value.trim().to_ascii_lowercase();
        match value.as_str() {
            "sequential" | "seq" => Some(ExecutionMode::Sequential),
            "async" => Some(ExecutionMode::Async { workers: 1 }),
            other => {
                let workers = other.strip_prefix("async:")?.parse().ok()?;
                Some(ExecutionMode::Async { workers })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::executor::block_on_all;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Runs `work` once per item as one task each on the executor `mode`
    /// selects, returning outputs in item order.
    fn run<S: Sync, T: Send>(
        mode: ExecutionMode,
        items: &[S],
        work: impl Fn(usize, &S) -> T + Sync,
    ) -> Vec<T> {
        let clock = Arc::new(VirtualClock::new());
        let work = &work;
        let tasks: Vec<_> = items
            .iter()
            .enumerate()
            .map(|(i, s)| async move { work(i, s) })
            .collect();
        block_on_all(mode.workers(), &clock, tasks).0
    }

    #[test]
    fn sequential_preserves_order() {
        assert_eq!(ExecutionMode::Sequential.workers(), 1);
        let stations = vec!["a", "b", "c"];
        let out = run(ExecutionMode::Sequential, &stations, |i, s| {
            format!("{i}{s}")
        });
        assert_eq!(out, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn async_matches_sequential_in_item_order() {
        let items: Vec<u64> = (0..41).collect();
        let seq = run(ExecutionMode::Sequential, &items, |i, s| s * 5 + i as u64);
        let single = run(ExecutionMode::Async { workers: 1 }, &items, |i, s| {
            s * 5 + i as u64
        });
        assert_eq!(seq, single);
    }

    #[test]
    fn pool_matches_sequential_in_item_order() {
        let items: Vec<u64> = (0..57).collect();
        let seq = run(ExecutionMode::Sequential, &items, |i, s| s * 7 + i as u64);
        for workers in [2, 3, 8, 200] {
            let pooled = run(ExecutionMode::Async { workers }, &items, |i, s| {
                s * 7 + i as u64
            });
            assert_eq!(seq, pooled, "workers = {workers}");
        }
    }

    #[test]
    fn pool_clamps_zero_workers() {
        let items = vec![1u32, 2, 3];
        let out = run(ExecutionMode::Async { workers: 0 }, &items, |_, s| s * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn pool_runs_every_item_exactly_once() {
        let counter = AtomicU64::new(0);
        let items = vec![(); 64];
        run(ExecutionMode::Async { workers: 4 }, &items, |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn empty_station_list() {
        for mode in [
            ExecutionMode::Sequential,
            ExecutionMode::Async { workers: 4 },
        ] {
            let out: Vec<u32> = run(mode, &[] as &[u32], |_, s| *s);
            assert!(out.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn pool_propagates_panics() {
        run(
            ExecutionMode::Async { workers: 2 },
            &[1u32, 2],
            |_, _| -> u32 {
                panic!("boom");
            },
        );
    }

    #[test]
    fn mode_env_grammar() {
        assert_eq!(
            ExecutionMode::parse("sequential"),
            Some(ExecutionMode::Sequential)
        );
        assert_eq!(ExecutionMode::parse("SEQ"), Some(ExecutionMode::Sequential));
        assert_eq!(
            ExecutionMode::parse("async"),
            Some(ExecutionMode::Async { workers: 1 })
        );
        assert_eq!(
            ExecutionMode::parse(" async:3 "),
            Some(ExecutionMode::Async { workers: 3 })
        );
        assert_eq!(ExecutionMode::parse("fibers:2"), None);
        // `from_env` treats empty as unset (no warning); `parse` rejects it.
        assert_eq!(ExecutionMode::parse(""), None);
    }

    #[test]
    fn from_env_value_resolves_the_full_grammar() {
        let default = ExecutionMode::Async { workers: 2 };
        // Unset and empty/whitespace values mean "use the default".
        for value in [None, Some(""), Some("  ")] {
            assert_eq!(ExecutionMode::from_env_value(value, default), Ok(default));
        }
        // Every documented form resolves.
        for (value, expect) in [
            ("sequential", ExecutionMode::Sequential),
            ("SEQ", ExecutionMode::Sequential),
            ("async", ExecutionMode::Async { workers: 1 }),
            (" async:3 ", ExecutionMode::Async { workers: 3 }),
        ] {
            assert_eq!(
                ExecutionMode::from_env_value(Some(value), default),
                Ok(expect)
            );
        }
    }

    #[test]
    fn from_env_value_rejects_malformed_values_loudly() {
        let default = ExecutionMode::Sequential;
        for bad in [
            "fibers:2",
            // Retired runtimes: rejected, never a silent fallback.
            "threaded",
            "pool:6",
            "pool",
            "pool:",
            "pool:x",
            "pool:-1",
            "async:",
            "async:two",
            "Async 3",
            "seq,threaded",
        ] {
            let err = ExecutionMode::from_env_value(Some(bad), default).unwrap_err();
            assert_eq!(
                err,
                DistSimError::InvalidMode {
                    value: bad.to_string()
                },
                "{bad:?} must error, not silently fall back"
            );
            assert!(err.to_string().contains("DIPM_MODE"));
        }
    }
}
