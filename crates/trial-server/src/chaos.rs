//! Fault injection for robustness testing.
//!
//! A [`Chaos`] plan is parsed from a spec string (the `--chaos` flag or the
//! `TRIAL_CHAOS` environment variable) and consulted at **named sites** on
//! the serving path. Each rule fires deterministically every N-th hit of
//! its site, which makes chaos runs reproducible: the same request sequence
//! injects the same faults.
//!
//! Spec grammar (comma-separated rules):
//!
//! ```text
//! <site>=<action>[@<every>]
//! ```
//!
//! * `action` is `panic` (unwind the worker right there), `ioerror`
//!   (surface a synthetic `ConnectionReset` from a socket write), or
//!   `slow<ms>` (sleep that many milliseconds — a drip-feeding peer);
//! * `every` is the firing period in site hits (default 1 = every hit).
//!
//! The wired sites:
//!
//! | site           | where it fires                                        |
//! |----------------|-------------------------------------------------------|
//! | `route`        | request dispatch, before any handler runs             |
//! | `eval`         | `/query` evaluation, after the admission permit       |
//! | `stream.pump`  | the streaming row pump, after the chunked head        |
//! | `stream.chunk` | each streamed row, as an injected socket error        |
//! | `stream.slow`  | each streamed row, as an injected stall               |
//!
//! Example: `--chaos "eval=panic@3,stream.chunk=ioerror@2"` panics every
//! third fresh evaluation and kills every second streamed response with a
//! synthetic socket error. The chaos test suite drives exactly these rules
//! and asserts the invariants that matter: no leaked admission permits, no
//! poisoned locks, no partial cache entries, accurate error counters.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What an armed rule does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Panic on the worker thread (exercises the `catch_unwind` paths).
    Panic,
    /// Surface a synthetic `ConnectionReset` I/O error.
    IoError,
    /// Sleep this many milliseconds before proceeding.
    Slow(u64),
}

/// One parsed injection rule: fire `action` every `every`-th hit of `site`.
#[derive(Debug)]
struct Rule {
    site: String,
    action: Action,
    every: u64,
    hits: AtomicU64,
}

/// A set of fault-injection rules consulted at named sites.
///
/// The default ([`Chaos::none`]) carries no rules; every site check is then
/// one `is_empty()` test, so production servers pay nothing.
#[derive(Debug, Default)]
pub struct Chaos {
    rules: Vec<Rule>,
}

impl Chaos {
    /// The inert plan: no rules, no injected faults.
    pub fn none() -> Chaos {
        Chaos { rules: Vec::new() }
    }

    /// Parses a spec string (see the module docs for the grammar).
    pub fn parse(spec: &str) -> Result<Chaos, String> {
        let mut rules = Vec::new();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let part = part.trim();
            let (site, action_spec) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos rule `{part}` is missing `=<action>`"))?;
            let (action_name, every) = match action_spec.split_once('@') {
                Some((a, n)) => {
                    let every = n
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("chaos rule `{part}` has a bad period `{n}`"))?;
                    (a, every)
                }
                None => (action_spec, 1),
            };
            let action = match action_name {
                "panic" => Action::Panic,
                "ioerror" => Action::IoError,
                slow if slow.starts_with("slow") => {
                    let ms = slow["slow".len()..]
                        .parse::<u64>()
                        .map_err(|_| format!("chaos rule `{part}` has a bad slow duration"))?;
                    Action::Slow(ms)
                }
                other => {
                    return Err(format!(
                        "chaos rule `{part}` has unknown action `{other}` \
                         (expected panic, ioerror or slow<ms>)"
                    ))
                }
            };
            rules.push(Rule {
                site: site.trim().to_owned(),
                action,
                every,
                hits: AtomicU64::new(0),
            });
        }
        Ok(Chaos { rules })
    }

    /// `true` when at least one rule is armed.
    pub fn enabled(&self) -> bool {
        !self.rules.is_empty()
    }

    /// Counts one hit of `site` and returns the action of a rule whose
    /// period divides the hit count, if any.
    fn fire(&self, site: &str) -> Option<Action> {
        let rule = self.rules.iter().find(|r| r.site == site)?;
        let hit = rule.hits.fetch_add(1, Ordering::Relaxed) + 1;
        (hit % rule.every == 0).then_some(rule.action)
    }

    /// Checkpoint for panic/slow sites: a firing `panic` rule unwinds right
    /// here, a `slow` rule sleeps, an `ioerror` rule is ignored (use
    /// [`Chaos::io`] at sites that can surface an `io::Error`).
    pub fn trigger(&self, site: &str) {
        match self.fire(site) {
            Some(Action::Panic) => panic!("chaos: injected panic at site `{site}`"),
            Some(Action::Slow(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(Action::IoError) | None => {}
        }
    }

    /// Checkpoint for I/O sites: a firing `ioerror` rule returns a synthetic
    /// `ConnectionReset`, `slow` sleeps, `panic` unwinds.
    pub fn io(&self, site: &str) -> io::Result<()> {
        match self.fire(site) {
            Some(Action::Panic) => panic!("chaos: injected panic at site `{site}`"),
            Some(Action::IoError) => Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                format!("chaos: injected socket error at site `{site}`"),
            )),
            Some(Action::Slow(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(())
            }
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_fires() {
        let chaos = Chaos::none();
        assert!(!chaos.enabled());
        chaos.trigger("route");
        assert!(chaos.io("stream.chunk").is_ok());
    }

    #[test]
    fn parses_rules_with_periods() {
        let chaos = Chaos::parse("eval=panic@3,stream.chunk=ioerror,stream.slow=slow5@2").unwrap();
        assert!(chaos.enabled());
        // Every hit of an @1 rule fires.
        assert!(chaos.io("stream.chunk").is_err());
        assert!(chaos.io("stream.chunk").is_err());
        // An @3 rule fires on the third hit only.
        assert_eq!(chaos.fire("eval"), None);
        assert_eq!(chaos.fire("eval"), None);
        assert_eq!(chaos.fire("eval"), Some(Action::Panic));
        assert_eq!(chaos.fire("eval"), None);
        // Unknown sites never fire.
        assert_eq!(chaos.fire("nope"), None);
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(Chaos::parse("no-equals").is_err());
        assert!(Chaos::parse("eval=explode").is_err());
        assert!(Chaos::parse("eval=panic@0").is_err());
        assert!(Chaos::parse("eval=slowx").is_err());
        // Empty specs are fine (no rules).
        assert!(!Chaos::parse("").unwrap().enabled());
    }

    #[test]
    #[should_panic(expected = "chaos: injected panic at site `eval`")]
    fn panic_rules_unwind() {
        Chaos::parse("eval=panic").unwrap().trigger("eval");
    }
}
