//! The client-side truth ledger and the answer checks.
//!
//! Every generator thread that writes owns one [`WriterLedger`]: the
//! weight it has *invoked* (counted before a frame is sent) and the
//! weight it has *completed* (counted after the ack), per object and,
//! for the CountMin, per key. A single writer per slice means plain
//! Release stores, no read-modify-write. A reader sums the slices: the
//! completed sum read before a query is sent is `f_start`, the invoked
//! sum read after its answer arrives is `f_end` — the two ends of the
//! Theorem 6 interval every answer must respect.

use crate::gen::{Frame, ROSTER};
use crate::stats::Sample;
use ivl_service::ErrorEnvelope;
use std::sync::atomic::{AtomicU64, Ordering};

/// One writer thread's slice of the ledger.
#[derive(Debug)]
pub struct WriterLedger {
    key_invoked: Vec<AtomicU64>,
    key_completed: Vec<AtomicU64>,
    obj_invoked: Vec<AtomicU64>,
    obj_completed: Vec<AtomicU64>,
}

fn zeroed(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

/// Single-writer increment: only the owning thread stores here.
fn bump(cell: &AtomicU64, by: u64) {
    cell.store(cell.load(Ordering::Relaxed) + by, Ordering::Release);
}

impl WriterLedger {
    fn new(keys: usize) -> Self {
        WriterLedger {
            key_invoked: zeroed(keys),
            key_completed: zeroed(keys),
            obj_invoked: zeroed(ROSTER.len()),
            obj_completed: zeroed(ROSTER.len()),
        }
    }

    /// Records `frame` as invoked; call before sending it.
    pub fn invoke(&self, frame: &Frame) {
        self.count(frame, &self.key_invoked, &self.obj_invoked);
    }

    /// Records `frame` as completed; call after its ack.
    pub fn complete(&self, frame: &Frame) {
        self.count(frame, &self.key_completed, &self.obj_completed);
    }

    fn count(&self, frame: &Frame, keys: &[AtomicU64], objs: &[AtomicU64]) {
        if frame.object == 0 {
            for &(key, weight) in &frame.items {
                bump(&keys[key as usize], weight);
            }
        }
        bump(&objs[frame.object as usize], frame.weight());
    }
}

/// The whole ledger: one slice per writer thread.
#[derive(Debug)]
pub struct Ledger {
    writers: Vec<WriterLedger>,
}

/// The truth interval around one answer: the object's and (CountMin)
/// the key's completed weight before the query was sent, and invoked
/// weight after its answer arrived.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Truth {
    /// Object weight completed before the query was sent.
    pub obj_start: u64,
    /// Object weight invoked before the answer arrived.
    pub obj_end: u64,
    /// Key frequency completed before the query was sent.
    pub key_start: u64,
    /// Key frequency invoked before the answer arrived.
    pub key_end: u64,
}

impl Ledger {
    /// A ledger for `writers` writer threads over CountMin keys
    /// `0..keys`.
    pub fn new(writers: usize, keys: usize) -> Self {
        Ledger {
            writers: (0..writers).map(|_| WriterLedger::new(keys)).collect(),
        }
    }

    /// Zeroes every count, for a fresh rig (cheaper than a new ledger,
    /// and the resident set does not grow with set-up trials).
    pub fn reset(&self) {
        for w in &self.writers {
            for c in w
                .key_invoked
                .iter()
                .chain(&w.key_completed)
                .chain(&w.obj_invoked)
                .chain(&w.obj_completed)
            {
                c.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Writer `i`'s slice.
    pub fn writer(&self, i: usize) -> &WriterLedger {
        &self.writers[i]
    }

    fn sum(&self, pick: impl Fn(&WriterLedger) -> &AtomicU64) -> u64 {
        self.writers
            .iter()
            .map(|w| pick(w).load(Ordering::Acquire))
            .sum()
    }

    /// `(object completed, key completed)`: read before sending a
    /// query.
    pub fn start(&self, object: u32, key: u64) -> (u64, u64) {
        let o = object as usize;
        let key_start = if object == 0 {
            self.sum(|w| &w.key_completed[key as usize])
        } else {
            0
        };
        (self.sum(|w| &w.obj_completed[o]), key_start)
    }

    /// Completes a [`Truth`] after the answer arrived.
    pub fn end(&self, object: u32, key: u64, (obj_start, key_start): (u64, u64)) -> Truth {
        let o = object as usize;
        let key_end = if object == 0 {
            self.sum(|w| &w.key_invoked[key as usize])
        } else {
            0
        };
        Truth {
            obj_start,
            obj_end: self.sum(|w| &w.obj_invoked[o]),
            key_start,
            key_end,
        }
    }

    /// Completed weight of `object` (quiescent reads).
    pub fn completed(&self, object: u32) -> u64 {
        self.sum(|w| &w.obj_completed[object as usize])
    }
}

/// How one answer measured up against its truth interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Inside the envelope.
    Covered,
    /// Above `f_end + ε`: the (ε,δ) bound's probability-δ side.
    ProbabilisticMiss,
    /// Below `f_start − lag`, or `observed` outside
    /// `[obj_start, obj_end]`: impossible for a correct server.
    DeterministicMiss,
}

/// Checks one answer: `observed ∈ [obj_start, obj_end]` for every
/// kind, and `Envelope::covers(key_start, key_end)` for frequencies.
pub fn check(env: &ErrorEnvelope, truth: Truth) -> Verdict {
    let observed = env.observed();
    if observed < truth.obj_start || observed > truth.obj_end {
        return Verdict::DeterministicMiss;
    }
    if let ErrorEnvelope::Frequency(f) = env {
        if truth.key_start > f.estimate + f.lag {
            return Verdict::DeterministicMiss;
        }
        if !f.covers(truth.key_start, truth.key_end) {
            return Verdict::ProbabilisticMiss;
        }
    }
    Verdict::Covered
}

/// `(ε + lag) / observed` of a frequency answer — the envelope's
/// relative width (`None` for other kinds or an empty stream).
pub fn rel_width(env: &ErrorEnvelope) -> Option<f64> {
    match env {
        ErrorEnvelope::Frequency(f) if f.stream_len > 0 => {
            Some((f.epsilon + f.lag) as f64 / f.stream_len as f64)
        }
        _ => None,
    }
}

/// Tally of checked answers.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Answers checked.
    pub checked: u64,
    /// Probabilistic-side misses.
    pub prob_misses: u64,
    /// Deterministic-side misses (each fails the run).
    pub det_misses: u64,
    /// Relative widths of the frequency answers (a fixed-size sample,
    /// so the benchmark's memory does not grow with the answer count).
    pub rel_widths: Sample,
}

impl Checks {
    /// Checks and tallies one answer; returns its verdict.
    pub fn record(&mut self, env: &ErrorEnvelope, truth: Truth) -> Verdict {
        self.checked += 1;
        let v = check(env, truth);
        match v {
            Verdict::Covered => {}
            Verdict::ProbabilisticMiss => self.prob_misses += 1,
            Verdict::DeterministicMiss => self.det_misses += 1,
        }
        if let Some(w) = rel_width(env) {
            self.rel_widths.push(w);
        }
        v
    }

    /// Folds another tally in.
    pub fn absorb(&mut self, other: Checks) {
        self.checked += other.checked;
        self.prob_misses += other.prob_misses;
        self.det_misses += other.det_misses;
        self.rel_widths.merge(&other.rel_widths);
    }

    /// Misses of either side over answers checked.
    pub fn miss_frac(&self) -> f64 {
        if self.checked == 0 {
            0.0
        } else {
            (self.prob_misses + self.det_misses) as f64 / self.checked as f64
        }
    }
}
