//! The multi-agent workload: four drones, one `SessionManager`, one
//! thread.
//!
//! Each agent replays its own seeded `Mixed` dataset (VIO outdoors, SLAM
//! indoors, then registration against a map that set-up surveys from
//! the agent's indoor-known segment). Two agents run under the
//! `dusty_site` fault profile with the health monitor armed; all four
//! carry the EDX-DRONE accelerator model. Each round releases one camera
//! period of every agent's events through a `StreamMux`; `ingest` takes
//! them in, `poll` drains them, and the next round starts when the
//! queues are empty — four closed-loop clients released together.

use crate::layers::SessionCounters;
use crate::pass::{bench_span, reset_peak_rss, status_mb, Pass};
use crate::stats::derive_seed;
use eudoxus::core::{
    build_map, FaultProfile, FrameRecord, Mode, ModeledAccelEngine, PipelineConfig, RunLog,
    SensorEvent, SessionBuilder, SessionManager, Summary,
};
use eudoxus::sim::{Dataset, Platform, ScenarioBuilder, ScenarioKind};
use eudoxus::stream::{Environment, IterSource, Segment, StreamMux};
use eudoxus::telemetry::{Span, TelemetryConfig};
use std::time::Instant;

/// Agents in the fleet.
pub const AGENTS: usize = 4;

/// Agents that run under `dusty_site` (with the health monitor armed).
const DUSTY: [bool; AGENTS] = [true, false, true, false];

/// Trace track offset of the benchmark's `poll` spans (agent `a` gets
/// `BENCH_TRACK + a`).
const BENCH_TRACK: u32 = 100;

/// One agent's generated inputs.
struct Agent {
    id: String,
    /// The indoor-known segment, surveyed into the agent's map.
    survey: Dataset,
    /// Events grouped by camera period: round `k` carries everything up
    /// to and including image `k`.
    rounds: Vec<Vec<SensorEvent>>,
    fault_seed: u64,
}

/// The fleet's inputs.
pub struct Input {
    agents: Vec<Agent>,
}

impl Input {
    fn rounds(&self) -> usize {
        self.agents
            .iter()
            .map(|a| a.rounds.len())
            .max()
            .unwrap_or(0)
    }
}

/// Generates every agent's `Mixed` drone dataset (10 fps) from `seed`.
pub fn synthesize(frames_per_agent: usize, seed: u64) -> Input {
    let agents = (0..AGENTS)
        .map(|a| {
            let dataset = ScenarioBuilder::new(ScenarioKind::Mixed)
                .platform(Platform::Drone)
                .fps(10.0)
                .frames(frames_per_agent)
                .seed(derive_seed(seed, 1 + a as u64))
                .build();
            let mut rounds = Vec::with_capacity(dataset.frames.len());
            let mut current = Vec::new();
            for event in dataset.events() {
                let closes_round = event.is_image();
                current.push(event);
                if closes_round {
                    rounds.push(std::mem::take(&mut current));
                }
            }
            Agent {
                id: format!("drone-{a}"),
                survey: segment(&dataset, Environment::IndoorKnown),
                rounds,
                fault_seed: derive_seed(seed, 100 + a as u64),
            }
        })
        .collect();
    Input { agents }
}

/// The frames of `dataset` labelled `env`, as a dataset of their own.
fn segment(dataset: &Dataset, env: Environment) -> Dataset {
    let lo = dataset
        .frames
        .iter()
        .position(|f| f.environment == env)
        .expect("a Mixed dataset has every segment");
    let hi = lo
        + dataset.frames[lo..]
            .iter()
            .take_while(|f| f.environment == env)
            .count();
    let t_prev = if lo == 0 {
        -1.0
    } else {
        dataset.frames[lo - 1].t
    };
    let t_last = dataset.frames[hi - 1].t;
    Dataset {
        name: format!("{}[{env}]", dataset.name),
        rig: dataset.rig,
        fps: dataset.fps,
        frames: dataset.frames[lo..hi]
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let mut f = f.clone();
                f.index = i;
                f
            })
            .collect(),
        imu: dataset.imu_between(t_prev, t_last).to_vec(),
        gps: dataset.gps_between(t_prev, t_last).to_vec(),
        ground_truth: dataset.ground_truth[lo..hi].to_vec(),
        segments: vec![Segment {
            start_frame: 0,
            environment: env,
        }],
    }
}

/// Sets the fleet up (map surveys, sessions, manager), replays every
/// round, checks the records and books the replay into `pass`. On a
/// traced pass, the first replay's spans are appended to `dump`.
pub fn replay(input: &Input, pass: &mut Pass, dump: &mut Vec<Span>) {
    let traced = pass.layers.is_some();
    let first_traced = traced && dump.is_empty();
    let config = PipelineConfig::anchored();

    let setup_start = Instant::now();
    let mut survey_s = 0.0;
    let mut map_points = 0;
    let mut manager = SessionManager::new();
    for (agent, dusty) in input.agents.iter().zip(DUSTY) {
        let survey_start = Instant::now();
        let map = build_map(&agent.survey, &config);
        survey_s += survey_start.elapsed().as_secs_f64();
        map_points += map.points.len();
        let mut builder = SessionBuilder::new(config.clone())
            .engine(ModeledAccelEngine::edx_drone())
            .map(map);
        if dusty {
            // Attaching faults also arms the health monitor.
            builder = builder.faults(FaultProfile::dusty_site().plan, agent.fault_seed);
        }
        if traced {
            builder = builder.telemetry(TelemetryConfig::new());
        }
        manager.add_agent(agent.id.clone(), builder.build());
    }
    pass.setup_s.push(setup_start.elapsed().as_secs_f64());

    // Every round's mux is assembled before the clock starts: releasing
    // events is the load generator's work.
    let mut muxes: Vec<StreamMux<'static>> = (0..input.rounds())
        .map(|k| {
            let mut mux = StreamMux::new();
            for agent in &input.agents {
                if let Some(events) = agent.rounds.get(k) {
                    mux.add_source(agent.id.clone(), IterSource::from_vec(events.clone()));
                }
            }
            mux
        })
        .collect();

    let n = input.agents.len();
    let mut logs: Vec<RunLog> = vec![RunLog::new(); n];
    let mut frame_ns: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    let mut bench_spans: Vec<Span> = Vec::new();
    let mut events = 0u64;
    pass.peak_reset &= reset_peak_rss();
    let rss_before = status_mb("VmRSS");
    let first_latency = pass.latencies_ms.len();
    let epoch = Instant::now();
    for (round, mux) in muxes.iter_mut().enumerate() {
        let round_start = Instant::now();
        let report = manager.ingest(mux);
        let ingested = Instant::now();
        events += report.enqueued;
        // Unbounded queues and no admission control: a refused event
        // means the workload is misconfigured.
        if report.dropped + report.shed + report.unknown_agent + report.deferred > 0 {
            pass.problems
                .push(format!("round {round}: ingest refused events: {report:?}"));
        }
        if let Some(layers) = pass.layers.as_mut() {
            layers.add_ingest((ingested - round_start).as_nanos() as u64);
            bench_spans.push(bench_span(
                "ingest",
                round,
                BENCH_TRACK + n as u32,
                epoch,
                round_start,
                ingested,
            ));
        }
        loop {
            let poll_start = Instant::now();
            let Some((id, record)) = manager.poll() else {
                break;
            };
            let end = Instant::now();
            let latency = (end - round_start).as_nanos() as u64;
            pass.latencies_ms.push(latency as f64 / 1e6);
            let a = input
                .agents
                .iter()
                .position(|x| x.id == id)
                .expect("known agent");
            if let Some(layers) = pass.layers.as_mut() {
                let own = (end - poll_start).as_nanos() as u64;
                layers.add_queue_wait(latency - own);
                frame_ns[a].push((record.index, own));
                bench_spans.push(bench_span(
                    "poll",
                    record.index,
                    BENCH_TRACK + a as u32,
                    epoch,
                    poll_start,
                    end,
                ));
            }
            logs[a].records.push(record);
        }
    }
    pass.end_timed_replay(first_latency, epoch.elapsed().as_secs_f64());
    pass.rss_mb.push(status_mb("VmHWM") - rss_before);

    let mut counters = SessionCounters::default();
    let mut rmse = Vec::with_capacity(n);
    for (a, agent) in input.agents.iter().enumerate() {
        let session = manager
            .session(&agent.id)
            .expect("agent registered in set-up");
        let faults = session.fault_counters().unwrap_or_default();
        let log = &logs[a];
        pass.account(
            &agent.id,
            agent.rounds.len() as u64,
            log.len() as u64,
            faults.images_dropped,
        );
        rmse.push(log.translation_rmse());
        let health = session.health_stats();
        counters.dead_reckoned_frames += health.dead_reckoned_frames;
        counters.recoveries += health.recoveries;
        counters.images_dropped += faults.images_dropped;
        counters.images_blacked_out += faults.images_blacked_out;
        counters.images_corrupted += faults.images_corrupted;
        if let (Some(layers), Some(hub)) = (pass.layers.as_mut(), session.telemetry()) {
            if hub.spans_dropped() > 0 {
                pass.problems.push(format!(
                    "{}: {} spans overflowed the ring",
                    agent.id,
                    hub.spans_dropped()
                ));
            }
            let spans = hub.drain();
            layers.add_session(&spans, &frame_ns[a], &log.records);
            if first_traced {
                dump.extend(spans);
            }
        }
    }
    if let Some(layers) = pass.layers.as_mut() {
        layers.end_replay(counters, events);
        layers.add_survey(survey_s, map_points);
    }
    if first_traced {
        dump.extend(bench_spans);
    }
    // Registration must really run: a `*_known` segment whose map is
    // missing falls back to SLAM silently.
    for mode in Mode::ALL {
        if !logs
            .iter()
            .any(|log| log.records.iter().any(|r| r.mode == mode))
        {
            pass.problems.push(format!("no {mode} frame served"));
        }
    }
    let served: Vec<&[FrameRecord]> = logs.iter().map(|log| log.records.as_slice()).collect();
    // The maps are surveyed afresh in every replay, so each replay is
    // booked as the same input: later replays test bit-reproducibility.
    pass.finish_replay(0, &served, Summary::of(&rmse).mean);
}
