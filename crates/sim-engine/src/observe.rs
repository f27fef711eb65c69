//! Observer-facing event metadata.
//!
//! The kernel is generic over the event alphabet, so it cannot name event
//! kinds itself. Simulations that expose an observer layer (trace
//! recorders, online invariant checkers, telemetry) implement
//! [`EventLabel`] for their alphabet; observers then group and count
//! events by the returned label without knowing the concrete enum.

/// A stable, human-readable label per event kind.
///
/// Labels must be `'static` (they key counters and appear in trace lines)
/// and must not depend on the event's payload — two events of the same
/// kind return the same label.
///
/// # Examples
///
/// ```
/// use netbatch_sim_engine::observe::EventLabel;
///
/// #[derive(Clone, Copy)]
/// enum Ev { Tick, Done }
/// impl EventLabel for Ev {
///     fn label(&self) -> &'static str {
///         match self {
///             Ev::Tick => "tick",
///             Ev::Done => "done",
///         }
///     }
/// }
/// assert_eq!(Ev::Tick.label(), "tick");
/// ```
pub trait EventLabel {
    /// The label for this event's kind.
    fn label(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy)]
    enum Ev {
        A,
        B(u32),
    }

    impl EventLabel for Ev {
        fn label(&self) -> &'static str {
            match self {
                Ev::A => "a",
                Ev::B(_) => "b",
            }
        }
    }

    #[test]
    fn labels_ignore_payload() {
        assert_eq!(Ev::A.label(), "a");
        for payload in [1u32, 2, u32::MAX] {
            let Ev::B(echoed) = Ev::B(payload) else {
                unreachable!()
            };
            assert_eq!(echoed, payload);
            assert_eq!(Ev::B(payload).label(), "b");
        }
    }
}
