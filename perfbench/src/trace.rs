//! Timing: spans around the benchmark's calls into each layer, kept in
//! memory and written out as JSON when a traced run ends, and the
//! quiet-host gate every timed step passes through.
//!
//! Every call is timed whether or not tracing is on — the end-to-end
//! numbers come from those timings — and a traced run additionally
//! records the span, so the traced-minus-untraced difference is the
//! cost of recording.
//!
//! The benchmark shares its machine with other tenants, which slow it by
//! up to 2× for stretches of 0.5–3 s. A timed step therefore waits (a
//! little) until a short probe — a pointer chase, code of this crate only
//! — runs at most 15% slower than the fastest probe of the run, and is
//! measured again — same inputs, same result — when the probe after it
//! reads slow, at most [`MAX_ATTEMPTS`] times; the fastest attempt's
//! reading is kept. Waiting and discarded attempts may add at most
//! [`GATE_SHARE`] of the time measured so far, so a busy host lengthens
//! a run by at most that share. Values are kept as measured; the gate
//! only chooses when to measure.

use crate::json::{self, Obj};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Attempts per timed step before its fastest reading is kept anyway.
pub const MAX_ATTEMPTS: u32 = 3;
/// Slots of the probe's pointer chain (4 MiB of `u32`).
const CHAIN_SLOTS: usize = 1 << 20;
/// Hops per probe walk (~30 µs on the reference machine).
const CHAIN_HOPS: usize = 4096;
/// A probe reads quiet when within this factor of the best probe.
const QUIET_SLACK: f64 = 1.15;
/// Longest wait for a quiet probe before an attempt runs regardless.
const MAX_WAIT: Duration = Duration::from_millis(200);
/// Waiting and discarded attempts may cost at most this share of the
/// time measured so far, plus [`GATE_ALLOWANCE`].
pub const GATE_SHARE: f64 = 1.0;
/// Gating time allowed before anything is measured.
const GATE_ALLOWANCE: Duration = Duration::from_millis(200);

/// The quiet-host gate.
pub struct Gate {
    chain: Vec<u32>,
    best_ns: u64,
    /// Time of kept attempts.
    measured: Duration,
    /// Timed attempts made.
    pub attempts: u64,
    /// Steps whose kept attempt still read busy.
    pub busy_steps: u64,
    /// Time spent waiting for quiet or on discarded attempts.
    pub spent: Duration,
}

impl Default for Gate {
    fn default() -> Gate {
        Gate::new()
    }
}

impl Gate {
    /// Builds the probe chain (a single random cycle, so hardware
    /// prefetchers cannot follow it) and calibrates the best probe.
    pub fn new() -> Gate {
        // Sattolo's shuffle: `i -> chain[i]` is one cycle through every slot
        let mut chain: Vec<u32> = (0..CHAIN_SLOTS as u32).collect();
        let mut rng = StdRng::seed_from_u64(0x9A7E);
        for i in (1..CHAIN_SLOTS).rev() {
            chain.swap(i, rng.gen_range(0..i));
        }
        let mut gate = Gate {
            chain,
            best_ns: u64::MAX,
            measured: Duration::ZERO,
            attempts: 0,
            busy_steps: 0,
            spent: Duration::ZERO,
        };
        for _ in 0..64 {
            gate.probe();
        }
        gate
    }

    fn walk(&self) -> u64 {
        let start = Instant::now();
        let mut i = 0u32;
        for _ in 0..CHAIN_HOPS {
            i = self.chain[i as usize];
        }
        black_box(i);
        start.elapsed().as_nanos() as u64
    }

    /// Probes the host; true iff it reads quiet.
    pub fn probe(&mut self) -> bool {
        let ns = self.walk().min(self.walk());
        self.best_ns = self.best_ns.min(ns);
        ns as f64 <= self.best_ns as f64 * QUIET_SLACK
    }

    fn budget_left(&self) -> bool {
        self.spent < self.measured.mul_f64(GATE_SHARE) + GATE_ALLOWANCE
    }

    /// Before an attempt: counts it and spins on the probe until the
    /// host reads quiet (at most [`MAX_WAIT`], and not past the budget).
    fn begin(&mut self) {
        self.attempts += 1;
        let start = Instant::now();
        while self.budget_left() && !self.probe() && start.elapsed() < MAX_WAIT {}
        self.spent += start.elapsed();
    }

    /// After attempt number `attempt`, which took `elapsed`: the reading
    /// to keep once the step is done — the fastest attempt so far (`best`
    /// holds it) when the host stayed quiet or the attempts or the budget
    /// are used up — or `None` to try again.
    fn settle(&mut self, attempt: u32, elapsed: Duration, best: &mut Duration) -> Option<f64> {
        *best = (*best).min(elapsed);
        let quiet = self.probe();
        if !quiet && attempt < MAX_ATTEMPTS && self.budget_left() {
            self.spent += elapsed;
            return None;
        }
        self.busy_steps += u64::from(!quiet);
        self.measured += *best;
        Some(best.as_secs_f64() * 1e3)
    }

    /// Times a repeatable step: `f` must give the same result and leave
    /// the same state on every call. Returns the output and the kept
    /// reading in milliseconds.
    pub fn measure<T>(&mut self, mut f: impl FnMut() -> T) -> (T, f64) {
        let mut best = Duration::MAX;
        for attempt in 1.. {
            self.begin();
            let start = Instant::now();
            let out = f();
            if let Some(ms) = self.settle(attempt, start.elapsed(), &mut best) {
                return (out, ms);
            }
        }
        unreachable!("settle keeps a reading by the last attempt")
    }
}

/// One recorded span.
pub struct Span {
    /// Layer call the span wraps.
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Times calls and, when enabled, records them as spans.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    /// The quiet-host gate of [`Tracer::timed`] steps.
    pub gate: Gate,
    attempts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer that records spans iff `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            gate: Gate::new(),
            attempts: BTreeMap::new(),
        }
    }

    /// Starts a new operation: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`; returns its output and its
    /// wall time in milliseconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                op: self.op,
                start_ns: self.ns(start),
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(idx) = idx {
            self.open.pop();
            self.spans[idx].end_ns = self.ns(end);
        }
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// A timed step: [`Tracer::span`] behind the quiet-host gate, repeated
    /// while the host read busy (see [`Gate::measure`]; `f` must be
    /// repeatable). Every attempt is a span.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        mut f: impl FnMut(&mut Tracer) -> T,
    ) -> (T, f64) {
        let mut best = Duration::MAX;
        for attempt in 1.. {
            *self.attempts.entry(name).or_default() += 1;
            self.gate.begin();
            let (out, ms) = self.span(name, &mut f);
            let elapsed = Duration::from_secs_f64(ms / 1e3);
            if let Some(ms) = self.gate.settle(attempt, elapsed, &mut best) {
                return (out, ms);
            }
        }
        unreachable!("settle keeps a reading by the last attempt")
    }

    /// [`Tracer::timed`] for a step that draws from `rng`: every attempt
    /// starts from the same generator state, and `rng` ends where the
    /// kept attempt left it.
    pub fn timed_rng<T>(
        &mut self,
        name: &'static str,
        rng: &mut StdRng,
        mut f: impl FnMut(&mut Tracer, &mut StdRng) -> T,
    ) -> (T, f64) {
        let start = rng.clone();
        let ((out, end), ms) = self.timed(name, |t| {
            let mut r = start.clone();
            let out = f(t, &mut r);
            (out, r)
        });
        *rng = end;
        (out, ms)
    }

    /// Attempts made of timed steps named `name`, retries included.
    pub fn attempts(&self, name: &str) -> u64 {
        self.attempts.get(name).copied().unwrap_or(0)
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part its children
    /// cover, in nanoseconds.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let selfs = self.self_times();
        json::array(self.spans.iter().zip(selfs).map(|(s, self_ns)| {
            Obj::new()
                .str("name", s.name)
                .int("op", s.op)
                .num("start_us", s.start_ns as f64 / 1e3)
                .num("end_us", s.end_ns as f64 / 1e3)
                .num("self_us", self_ns as f64 / 1e3)
                .raw(
                    "parent",
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                )
                .finish()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.next_op();
        let ((), outer_ms) = t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        assert!(outer_ms >= 2.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 1);
        let selfs = t.self_times();
        assert!(selfs[0] < selfs[1], "outer self time excludes the child");
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, ms) = t.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn repeated_rng_steps_replay_the_same_draws() {
        let mut t = Tracer::new(false);
        let mut rng = StdRng::seed_from_u64(5);
        let mut calls = 0;
        let (v, _) = t.timed_rng("draw", &mut rng, |_, r| {
            calls += 1;
            r.gen_range(0..u64::MAX)
        });
        let mut fresh = StdRng::seed_from_u64(5);
        assert_eq!(v, fresh.gen_range(0..u64::MAX));
        assert_eq!(rng.gen_range(0..u64::MAX), fresh.gen_range(0..u64::MAX));
        assert!((1..=MAX_ATTEMPTS as usize).contains(&calls));
        assert_eq!(t.attempts("draw"), calls as u64);
    }
}
