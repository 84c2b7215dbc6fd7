//! Per-layer breakdown of a traced pass.
//!
//! Sources, all reached through public API:
//! * the benchmark's own frame times (the `push` that returned a record,
//!   or for the fleet the `poll` that did) and ingest times;
//! * the spans an armed session records on its telemetry hub: the six
//!   frontend kernels, `backend_step`, `execute_frame` and
//!   `health_observe`;
//! * each `FrameRecord`'s frontend counters, backend kernel samples,
//!   engine report and mode.
//!
//! A frame's time must add up: frontend kernels + `backend_step` +
//! `execute_frame` + `health_observe` + unattributed = frame time. All of
//! those spans nest inside the frame time, so an attributed sum above it
//! means something was counted twice, and the run fails.

use crate::stats::ratio;
use eudoxus::backend::Kernel;
use eudoxus::core::{FrameRecord, Mode, Summary};
use eudoxus::telemetry::{Span, SpanScope};

/// Frontend kernel spans, in pipeline order.
pub const FRONTEND_KERNELS: [&str; 6] = [
    "gaussian_blur",
    "detect_fast",
    "compute_orb",
    "match_stereo",
    "pyramid_rebuild",
    "track_pyramidal",
];

/// Backend kernels of paper Figs. 6–8, with their metric names.
pub const BACKEND_KERNELS: [(Kernel, &str); 13] = [
    (Kernel::ImuIntegration, "imu_integration"),
    (Kernel::Jacobian, "jacobian"),
    (Kernel::Covariance, "covariance"),
    (Kernel::KalmanGain, "kalman_gain"),
    (Kernel::QrCompression, "qr_compression"),
    (Kernel::GpsFusion, "gps_fusion"),
    (Kernel::SlamInit, "slam_init"),
    (Kernel::Solver, "solver"),
    (Kernel::Marginalization, "marginalization"),
    (Kernel::Projection, "projection"),
    (Kernel::MapMatch, "map_match"),
    (Kernel::PoseOptimization, "pose_optimization"),
    (Kernel::MapUpdate, "map_update"),
];

/// Per-session counters read after a replay (faults, health).
#[derive(Debug, Default, Clone, Copy)]
pub struct SessionCounters {
    pub dead_reckoned_frames: u64,
    pub recoveries: u64,
    pub images_dropped: u64,
    pub images_blacked_out: u64,
    pub images_corrupted: u64,
}

/// Totals of a traced pass, turned into per-layer metrics by
/// [`Layers::metrics`].
#[derive(Debug, Default)]
pub struct Layers {
    replays: u64,
    frames: u64,
    frame_ns: u64,
    frontend_ns: [u64; 6],
    backend_step_ms: Vec<f64>,
    execute_ns: u64,
    health_ns: u64,
    unattributed_ns: u64,
    /// Frames whose attributed spans exceed the frame time.
    pub overcounted_frames: u64,
    /// Frames without a session frame span (ring overflow or a missing
    /// record).
    pub unmatched_frames: u64,
    keypoints: u64,
    tracks_continued: u64,
    tracks_lost: u64,
    kernel_ms: [f64; 13],
    qr_rows: u64,
    qr_calls: u64,
    tracking: u64,
    modes: [u64; 3],
    offloadable: u64,
    offloaded: u64,
    modeled_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    events: u64,
    counters: SessionCounters,
    survey_s: Vec<f64>,
    map_points: Vec<f64>,
}

impl Layers {
    /// Adds one session's frames: its drained hub spans, the
    /// benchmark-measured frame time of each record (`(record index,
    /// ns)`), and the records themselves.
    pub fn add_session(
        &mut self,
        spans: &[Span],
        frame_ns: &[(usize, u64)],
        records: &[FrameRecord],
    ) {
        let n = records.iter().map(|r| r.index + 1).max().unwrap_or(0);
        let mut fe = vec![[0u64; 6]; n];
        let mut backend = vec![0u64; n];
        let mut engine = vec![0u64; n];
        let mut health = vec![0u64; n];
        let mut seen = vec![false; n];
        for s in spans {
            let Some(i) = usize::try_from(s.frame_idx).ok().filter(|&i| i < n) else {
                continue;
            };
            match s.scope {
                SpanScope::Kernel => {
                    if let Some(k) = FRONTEND_KERNELS.iter().position(|&name| name == s.kernel) {
                        fe[i][k] += s.dur_ns;
                    }
                }
                SpanScope::Backend => backend[i] += s.dur_ns,
                SpanScope::Engine => engine[i] += s.dur_ns,
                SpanScope::Health => health[i] += s.dur_ns,
                SpanScope::Frame => seen[i] = true,
                SpanScope::Worker => {}
            }
        }
        for &(i, total) in frame_ns {
            if i >= n || !seen[i] {
                self.unmatched_frames += 1;
                continue;
            }
            let attributed = fe[i].iter().sum::<u64>() + backend[i] + engine[i] + health[i];
            if attributed > total {
                self.overcounted_frames += 1;
            }
            self.frames += 1;
            self.frame_ns += total;
            for (acc, ns) in self.frontend_ns.iter_mut().zip(fe[i]) {
                *acc += ns;
            }
            self.backend_step_ms.push(backend[i] as f64 / 1e6);
            self.execute_ns += engine[i];
            self.health_ns += health[i];
            self.unattributed_ns += total.saturating_sub(attributed);
        }
        for r in records {
            let st = &r.frontend_stats;
            self.keypoints += (st.keypoints_left + st.keypoints_right) as u64;
            self.tracks_continued += st.tracks_continued as u64;
            self.tracks_lost += st.tracks_lost as u64;
            for k in &r.backend_kernels {
                if let Some(slot) = BACKEND_KERNELS
                    .iter()
                    .position(|(kernel, _)| *kernel == k.kernel)
                {
                    self.kernel_ms[slot] += k.millis;
                }
                if k.kernel == Kernel::QrCompression {
                    self.qr_rows += k.size as u64;
                    self.qr_calls += 1;
                }
            }
            self.tracking += u64::from(r.tracking);
            self.modes[mode_slot(r.mode)] += 1;
            if let Some(report) = &r.execution {
                self.offloadable += report.offloadable as u64;
                self.offloaded += report.offloaded as u64;
                self.modeled_ms.push(report.total_ms());
            }
        }
    }

    /// Counts one whole replay (every session of it added).
    pub fn end_replay(&mut self, counters: SessionCounters, events: u64) {
        self.replays += 1;
        self.events += events;
        let c = &mut self.counters;
        c.dead_reckoned_frames += counters.dead_reckoned_frames;
        c.recoveries += counters.recoveries;
        c.images_dropped += counters.images_dropped;
        c.images_blacked_out += counters.images_blacked_out;
        c.images_corrupted += counters.images_corrupted;
    }

    /// Fleet only: one round's ingest time.
    pub fn add_ingest(&mut self, ns: u64) {
        self.ingest_ms.push(ns as f64 / 1e6);
    }

    /// Fleet only: a frame's latency minus its own `poll` time.
    pub fn add_queue_wait(&mut self, ns: u64) {
        self.queue_wait_ms.push(ns as f64 / 1e6);
    }

    /// Fleet only: one set-up's map survey.
    pub fn add_survey(&mut self, seconds: f64, points: usize) {
        self.survey_s.push(seconds);
        self.map_points.push(points as f64);
    }

    /// The per-layer metrics, as `(name, value, unit)`.
    pub fn metrics(&self, overhead_ratio: f64) -> Vec<(String, f64, &'static str)> {
        let frames = self.frames as f64;
        let per_frame_ms = |ns: u64| ratio(ns as f64 / 1e6, frames);
        let per_replay = |count: u64| ratio(count as f64, self.replays as f64);
        let records: u64 = self.modes.iter().sum();
        let mut out: Vec<(String, f64, &'static str)> = Vec::new();
        for (name, ns) in FRONTEND_KERNELS.iter().zip(self.frontend_ns) {
            out.push((format!("frontend.{name}_ms"), per_frame_ms(ns), "ms"));
        }
        out.push((
            "frontend.keypoints".into(),
            ratio(self.keypoints as f64, records as f64),
            "count",
        ));
        out.push((
            "frontend.tracks_continued".into(),
            ratio(self.tracks_continued as f64, records as f64),
            "count",
        ));
        out.push((
            "frontend.track_keep_ratio".into(),
            ratio(
                self.tracks_continued as f64,
                (self.tracks_continued + self.tracks_lost) as f64,
            ),
            "ratio",
        ));
        out.push((
            "backend.step_ms".into(),
            Summary::of(&self.backend_step_ms).mean,
            "ms",
        ));
        out.push((
            "backend.step_p95_ms".into(),
            Summary::percentile(&self.backend_step_ms, 95.0),
            "ms",
        ));
        for ((_, name), ms) in BACKEND_KERNELS.iter().zip(self.kernel_ms) {
            out.push((
                format!("backend.{name}_ms"),
                ratio(ms, records as f64),
                "ms",
            ));
        }
        out.push((
            "backend.qr_compression_rows".into(),
            ratio(self.qr_rows as f64, self.qr_calls as f64),
            "count",
        ));
        out.push((
            "backend.tracking_ratio".into(),
            ratio(self.tracking as f64, records as f64),
            "ratio",
        ));
        for (mode, name) in [
            (Mode::Vio, "vio"),
            (Mode::Slam, "slam"),
            (Mode::Registration, "registration"),
        ] {
            out.push((
                format!("backend.frames_{name}"),
                per_replay(self.modes[mode_slot(mode)]),
                "count",
            ));
        }
        let unattributed_ms = per_frame_ms(self.unattributed_ns);
        out.push(("session.push_ms".into(), per_frame_ms(self.frame_ns), "ms"));
        out.push(("session.unattributed_ms".into(), unattributed_ms, "ms"));
        out.push((
            "session.unattributed_share".into(),
            ratio(self.unattributed_ns as f64, self.frame_ns as f64),
            "ratio",
        ));
        out.push((
            "stream.ingest_ms".into(),
            Summary::of(&self.ingest_ms).mean,
            "ms",
        ));
        out.push((
            "stream.events_per_frame".into(),
            ratio(self.events as f64, records as f64),
            "count",
        ));
        out.push((
            "manager.queue_wait_ms".into(),
            Summary::of(&self.queue_wait_ms).mean,
            "ms",
        ));
        out.push((
            "engine.execute_frame_ms".into(),
            per_frame_ms(self.execute_ns),
            "ms",
        ));
        out.push((
            "engine.offload_rate".into(),
            ratio(self.offloaded as f64, self.offloadable as f64),
            "ratio",
        ));
        out.push((
            "engine.modeled_frame_ms".into(),
            Summary::of(&self.modeled_ms).mean,
            "ms",
        ));
        out.push((
            "health.observe_ms".into(),
            per_frame_ms(self.health_ns),
            "ms",
        ));
        let c = &self.counters;
        out.push((
            "health.dead_reckoned_frames".into(),
            per_replay(c.dead_reckoned_frames),
            "count",
        ));
        out.push((
            "health.recoveries".into(),
            per_replay(c.recoveries),
            "count",
        ));
        out.push((
            "faults.images_dropped".into(),
            per_replay(c.images_dropped),
            "count",
        ));
        out.push((
            "faults.images_blacked_out".into(),
            per_replay(c.images_blacked_out),
            "count",
        ));
        out.push((
            "faults.images_corrupted".into(),
            per_replay(c.images_corrupted),
            "count",
        ));
        out.push((
            "setup.map_survey_s".into(),
            Summary::of(&self.survey_s).mean,
            "s",
        ));
        out.push((
            "setup.map_points".into(),
            Summary::of(&self.map_points).mean,
            "count",
        ));
        out.push(("trace.overhead_ratio".into(), overhead_ratio, "ratio"));
        out
    }
}

/// Index of `mode` in the (VIO, SLAM, registration) counters.
pub fn mode_slot(mode: Mode) -> usize {
    match mode {
        Mode::Vio => 0,
        Mode::Slam => 1,
        Mode::Registration => 2,
    }
}
