//! Map construction via a SLAM pass.
//!
//! In deployment, "the robots would spend a few days mapping new
//! warehouses" (paper Sec. III) before registration can run there. This
//! helper performs that survey pass: run the pipeline in SLAM mode over a
//! dataset and persist the resulting map.

use crate::builder::SessionBuilder;
use crate::pipeline::PipelineConfig;
use eudoxus_backend::WorldMap;
use eudoxus_sim::{Dataset, Environment};

/// Runs a SLAM mapping pass over the dataset and returns the persisted
/// map. The dataset's environment labels are ignored — every frame is
/// treated as unmapped territory, exactly like a survey run.
pub fn build_map(dataset: &Dataset, config: &PipelineConfig) -> WorldMap {
    // Relabel every frame as indoor-unknown so the mode selector picks
    // SLAM throughout.
    let mut survey = dataset.clone();
    for f in &mut survey.frames {
        f.environment = Environment::IndoorUnknown;
    }
    for s in &mut survey.segments {
        s.environment = Environment::IndoorUnknown;
    }
    let mut system = SessionBuilder::new(config.clone()).build_batch();
    let _ = system.process_dataset(&survey);
    system
        .persisted_map()
        .expect("the default registry always includes a mapping (SLAM) backend")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eudoxus_sim::{Platform, ScenarioBuilder, ScenarioKind};

    #[test]
    fn survey_produces_nonempty_map() {
        let data = ScenarioBuilder::new(ScenarioKind::IndoorKnown)
            .frames(5)
            .seed(11)
            .platform(Platform::Drone)
            .build();
        let map = build_map(&data, &PipelineConfig::anchored());
        assert!(map.points.len() > 30, "only {} points", map.points.len());
        assert!(!map.keyframes.is_empty());
    }

    /// The survey is reproducible: two passes over one dataset give the
    /// same map, point order included, so two map-armed sessions on the
    /// same data stay bit-identical through their registration frames.
    #[test]
    fn survey_and_registration_are_reproducible() {
        // Without the sorted survey, map-armed sessions on this scene
        // diverge in almost every pair of runs.
        let data = ScenarioBuilder::new(ScenarioKind::Mixed)
            .frames(12)
            .seed(3)
            .platform(Platform::Drone)
            .build();
        let config = PipelineConfig::anchored();
        let first = build_map(&data, &config);
        let second = build_map(&data, &config);
        assert!(first.points.len() > 1, "only {} points", first.points.len());
        assert_eq!(first, second);

        let poses = |map: WorldMap| {
            let mut session = SessionBuilder::new(config.clone()).map(map).build();
            let records: Vec<_> = data.events().filter_map(|e| session.push(e)).collect();
            assert!(records.iter().any(|r| r.mode == crate::Mode::Registration));
            records
                .iter()
                .map(|r| {
                    let (t, q) = (r.pose.translation, r.pose.rotation);
                    [t.x, t.y, t.z, q.w, q.x, q.y, q.z].map(f64::to_bits)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(poses(first), poses(second));
    }

    #[test]
    fn map_points_lie_in_the_room() {
        let data = ScenarioBuilder::new(ScenarioKind::IndoorUnknown)
            .frames(4)
            .seed(5)
            .platform(Platform::Drone)
            .build();
        let map = build_map(&data, &PipelineConfig::anchored());
        // Indoor room is 12×8×4 m centered at origin. Stereo depth noise
        // at low parallax can throw individual triangulated points well
        // past the walls, so require the bulk (90 %) of the map to lie
        // within a sane margin of the room rather than every point.
        let inside = map
            .points
            .iter()
            .filter(|p| {
                p.position.x.abs() < 10.0
                    && p.position.y.abs() < 8.0
                    && (-2.0..7.0).contains(&p.position.z)
            })
            .count();
        assert!(
            inside * 10 >= map.points.len() * 9,
            "only {inside}/{} map points near the room",
            map.points.len()
        );
    }
}
