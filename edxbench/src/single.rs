//! Single-session workloads: one closed-loop client pushes one drone
//! stream into one `LocalizationSession`, the next event as soon as
//! `push` returns.

use crate::layers::SessionCounters;
use crate::pass::{bench_span, reset_peak_rss, status_mb, Pass};
use eudoxus::core::{
    LocalizationSession, Mode, PipelineConfig, RunLog, SensorEvent, SessionBuilder, Summary,
};
use eudoxus::sim::{Platform, ScenarioBuilder, ScenarioKind};
use eudoxus::telemetry::{Span, TelemetryConfig};
use std::time::Instant;

/// Sessions per set-up batch. One construction takes about a
/// microsecond and, timed alone, swings 2x with the allocator's state, so
/// set-up is timed over batches kept alive: one untimed batch warms the
/// allocator, and the replay's set-up time is the median of
/// `SETUP_ROUNDS` timed batches' means.
const SETUP_BATCH: usize = 200;
const SETUP_ROUNDS: usize = 3;

/// Trace track of the benchmark's own `push` spans in the span dump.
const BENCH_TRACK: u32 = 100;

/// One generated stream, flattened to events ahead of the timed replay.
pub struct Input {
    pub events: Vec<SensorEvent>,
    pub images: u64,
}

/// The drone rig at 10 fps over one scenario.
pub fn synthesize(kind: ScenarioKind, frames: usize, seed: u64) -> Input {
    let dataset = ScenarioBuilder::new(kind)
        .platform(Platform::Drone)
        .fps(10.0)
        .frames(frames)
        .seed(seed)
        .build();
    Input {
        events: dataset.events().collect(),
        images: dataset.frames.len() as u64,
    }
}

/// Builds a fresh session, replays `input` through it, checks that every
/// record ran `expect`, and books the replay into `pass`. On a traced
/// pass, the first replay's spans are appended to `dump`.
pub fn replay(index: usize, input: &Input, expect: Mode, pass: &mut Pass, dump: &mut Vec<Span>) {
    let traced = pass.layers.is_some();
    let build = || {
        let builder = SessionBuilder::new(PipelineConfig::anchored());
        if traced {
            builder.telemetry(TelemetryConfig::new()).build()
        } else {
            builder.build()
        }
    };
    drop((0..SETUP_BATCH).map(|_| build()).collect::<Vec<_>>());
    let mut rounds = Vec::with_capacity(SETUP_ROUNDS);
    let mut session = None;
    for _ in 0..SETUP_ROUNDS {
        let start = Instant::now();
        let mut batch: Vec<LocalizationSession> = (0..SETUP_BATCH).map(|_| build()).collect();
        rounds.push(start.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        session = batch.pop();
    }
    pass.setup_s.push(Summary::percentile(&rounds, 50.0));
    let mut session = session.expect("SETUP_ROUNDS and SETUP_BATCH are positive");

    let events = input.events.clone();
    let event_count = events.len() as u64;
    let mut log = RunLog {
        records: Vec::with_capacity(input.images as usize),
    };
    let mut frame_ns: Vec<(usize, u64)> = Vec::with_capacity(input.images as usize);
    let mut push_spans: Vec<Span> = Vec::new();
    pass.peak_reset &= reset_peak_rss();
    let rss_before = status_mb("VmRSS");
    let first_latency = pass.latencies_ms.len();
    let epoch = Instant::now();
    for event in events {
        let start = Instant::now();
        let out = session.push(event);
        let end = Instant::now();
        if let Some(record) = out {
            let ns = (end - start).as_nanos() as u64;
            pass.latencies_ms.push(ns as f64 / 1e6);
            if traced {
                frame_ns.push((record.index, ns));
                push_spans.push(bench_span(
                    "push",
                    record.index,
                    BENCH_TRACK,
                    epoch,
                    start,
                    end,
                ));
            }
            log.records.push(record);
        }
    }
    pass.end_timed_replay(first_latency, epoch.elapsed().as_secs_f64());
    pass.rss_mb.push(status_mb("VmHWM") - rss_before);

    // No fault injection here: every image must come back as a record.
    pass.account("session", input.images, log.len() as u64, 0);
    if let Some(bad) = log.records.iter().find(|r| r.mode != expect) {
        pass.problems.push(format!(
            "frame {} ran {} but this workload is all {expect}",
            bad.index, bad.mode
        ));
    }
    pass.finish_replay(index, &[&log.records], log.translation_rmse());

    if let (Some(layers), Some(hub)) = (pass.layers.as_mut(), session.telemetry()) {
        if hub.spans_dropped() > 0 {
            pass.problems
                .push(format!("{} spans overflowed the ring", hub.spans_dropped()));
        }
        let spans = hub.drain();
        layers.add_session(&spans, &frame_ns, &log.records);
        // Neither faults nor health are armed on a single session.
        layers.end_replay(SessionCounters::default(), event_count);
        if dump.is_empty() {
            dump.extend(spans);
            dump.extend(push_spans);
        }
    }
}
