//! What one measuring pass collects, and the memory probe it uses.

use crate::layers::{mode_slot, Layers};
use crate::stats::Digest;
use eudoxus::core::{FrameRecord, Summary};
use eudoxus::telemetry::{Span, SpanScope};
use std::time::Instant;

/// Everything one pass (untraced or traced) measured over its replays.
#[derive(Debug, Default)]
pub struct Pass {
    /// Per-frame latency (ms), pooled over every replay.
    pub latencies_ms: Vec<f64>,
    /// Median frame latency (ms) of each replay.
    pub replay_p50_ms: Vec<f64>,
    /// Wall time of the timed replays, set-up excluded.
    pub replay_s: f64,
    /// Records produced.
    pub frames: u64,
    /// One set-up time per replay (for the cheap single-session set-up,
    /// the mean of a batch).
    pub setup_s: Vec<f64>,
    /// `VmHWM` after each replay minus `VmRSS` before it.
    pub rss_mb: Vec<f64>,
    /// Image frames offered to the sessions.
    pub offered: u64,
    /// Offered frames without a record (and not dropped by the fault
    /// injector), plus records with a non-finite pose.
    pub failed: u64,
    /// Trajectory RMSE of each input's first replay.
    pub rmse_m: Vec<f64>,
    /// Pose digest of each input's first replay.
    pub digests: Vec<Digest>,
    /// Whether every later replay of an input matched its first digest;
    /// `None` until some input is replayed twice.
    pub reproducible: Option<bool>,
    /// Records by mode (VIO, SLAM, registration).
    pub modes: [u64; 3],
    /// Misconfigurations found; any entry fails the run.
    pub problems: Vec<String>,
    /// Whether `VmHWM` could be reset before each replay.
    pub peak_reset: bool,
    /// Per-layer totals; `Some` on the traced pass only.
    pub layers: Option<Layers>,
}

impl Pass {
    pub fn new(traced: bool) -> Self {
        Pass {
            layers: traced.then(Layers::default),
            peak_reset: true,
            ..Pass::default()
        }
    }

    /// Number of replays completed.
    pub fn replays(&self) -> usize {
        self.setup_s.len()
    }

    /// Books the wall time of one timed replay and the median latency of
    /// the frames it added to `latencies_ms` from index `first` on.
    pub fn end_timed_replay(&mut self, first: usize, seconds: f64) {
        self.replay_s += seconds;
        self.replay_p50_ms
            .push(Summary::percentile(&self.latencies_ms[first..], 50.0));
    }

    /// Accounts for every image offered to one session: each must come
    /// back as a record or be dropped by the fault injector; the rest
    /// failed.
    pub fn account(&mut self, who: &str, offered: u64, records: u64, dropped: u64) {
        self.offered += offered;
        self.frames += records;
        match (records + dropped).checked_sub(offered) {
            Some(0) => {}
            Some(extra) => self
                .problems
                .push(format!("{who}: {extra} more records than offered images")),
            None => self.failed += offered - records - dropped,
        }
    }

    /// Checks one replay of input `input` (records of every session it
    /// served, in order) and books its accuracy and digest.
    pub fn finish_replay(&mut self, input: usize, records: &[&[FrameRecord]], rmse: f64) {
        let mut digest = Digest::default();
        for r in records.iter().flat_map(|s| s.iter()) {
            let p = r.pose;
            let words = [
                p.translation.x,
                p.translation.y,
                p.translation.z,
                p.rotation.w,
                p.rotation.x,
                p.rotation.y,
                p.rotation.z,
            ];
            if !words.iter().all(|v| v.is_finite()) {
                self.failed += 1;
            }
            for v in words {
                digest.add(v);
            }
            self.modes[mode_slot(r.mode)] += 1;
        }
        if input < self.digests.len() {
            let same = self.digests[input] == digest;
            self.reproducible = Some(self.reproducible.unwrap_or(true) && same);
        } else {
            if !rmse.is_finite() {
                self.problems
                    .push(format!("input {input}: trajectory RMSE is {rmse}"));
            }
            self.digests.push(digest);
            self.rmse_m.push(rmse);
        }
    }
}

/// A span the benchmark records around one of its own calls into the
/// program (`push`, `poll`, `ingest`), on the `Worker` scope so it stays
/// apart from the session's spans in the dump.
pub fn bench_span(
    kernel: &'static str,
    frame: usize,
    track: u32,
    epoch: Instant,
    start: Instant,
    end: Instant,
) -> Span {
    Span {
        scope: SpanScope::Worker,
        kernel,
        frame_idx: frame as u64,
        start_ns: (start - epoch).as_nanos() as u64,
        dur_ns: (end - start).as_nanos() as u64,
        track,
    }
}

/// Resets the process's peak RSS so the next `VmHWM` read covers only
/// what follows. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// A `kB` field of `/proc/self/status`, in MB; 0 when unreadable.
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
