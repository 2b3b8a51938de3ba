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

use crate::error::{DistSimError, Result};

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

impl ExecutionMode {
    /// Reads the mode from the `DIPM_MODE` environment variable: `default`
    /// when unset or empty, an error when set to anything outside the
    /// grammar.
    ///
    /// Accepted forms: `sequential` (or `seq`) and `async`. The retired
    /// worker-count form `async:N` is rejected like any other value outside
    /// the grammar. The CI example jobs use this to re-run every example
    /// under [`ExecutionMode::Async`] without code changes — which is
    /// exactly why a typo must fail loudly instead of silently running the
    /// default runtime under the wrong label.
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
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_env_grammar() {
        assert_eq!(
            ExecutionMode::parse("sequential"),
            Some(ExecutionMode::Sequential)
        );
        assert_eq!(ExecutionMode::parse("SEQ"), Some(ExecutionMode::Sequential));
        assert_eq!(
            ExecutionMode::parse(" async "),
            Some(ExecutionMode::Async { workers: 1 })
        );
        // The retired worker-count form is outside the grammar.
        assert_eq!(ExecutionMode::parse("async:3"), None);
        assert_eq!(ExecutionMode::parse("fibers:2"), None);
        // `from_env` treats empty as unset (no warning); `parse` rejects it.
        assert_eq!(ExecutionMode::parse(""), None);
    }

    #[test]
    fn from_env_value_resolves_the_full_grammar() {
        let default = ExecutionMode::Async { workers: 1 };
        // Unset and empty/whitespace values mean "use the default".
        for value in [None, Some(""), Some("  ")] {
            assert_eq!(ExecutionMode::from_env_value(value, default), Ok(default));
        }
        // Every documented form resolves.
        for (value, expect) in [
            ("sequential", ExecutionMode::Sequential),
            ("SEQ", ExecutionMode::Sequential),
            ("async", ExecutionMode::Async { workers: 1 }),
            (" Async ", ExecutionMode::Async { workers: 1 }),
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
            "async:1",
            "async:3",
            " async:8 ",
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
