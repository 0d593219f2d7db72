//! Integration tests for the criticality heuristic against empirical fault
//! injection — the §4.1 claim that the structural rule predicts which
//! layers need protection.

use ft2::core::critical::{critical_layers, CriticalityReport};
use ft2::core::{offline_profile, Correction, Coverage, NanPolicy, Protector};
use ft2::fault::{Campaign, CampaignConfig, FaultModel, ProtectionFactory};
use ft2::model::{ArchStyle, LayerKind, LayerTap, ZooModel};
use ft2::parallel::WorkStealingPool;
use ft2::tasks::datasets::generate_prompts;
use ft2::tasks::{DatasetId, TaskSpec, TaskType};
use std::sync::Arc;

struct CoverageFactory {
    kinds: Vec<LayerKind>,
    offline: Arc<ft2::core::profile::OfflineBounds>,
}

impl ProtectionFactory for CoverageFactory {
    fn make(&self) -> Vec<Box<dyn LayerTap>> {
        vec![Box::new(Protector::offline(
            Coverage::linears(self.kinds.clone()),
            self.offline.linear.clone(),
            Correction::ClampToBound,
            NanPolicy::ToZero,
        ))]
    }
}

#[test]
fn heuristic_matches_paper_table1_for_all_zoo_models() {
    for spec in ft2::model::model_zoo() {
        let report = CriticalityReport::analyse(&spec.config);
        assert!(
            report.matches_table1(),
            "{} diverges from Table 1",
            spec.name()
        );
    }
}

#[test]
fn critical_sets_per_family() {
    assert_eq!(
        critical_layers(ArchStyle::OptStyle),
        vec![LayerKind::VProj, LayerKind::OutProj, LayerKind::Fc2]
    );
    assert_eq!(
        critical_layers(ArchStyle::LlamaStyle),
        vec![
            LayerKind::VProj,
            LayerKind::OutProj,
            LayerKind::UpProj,
            LayerKind::DownProj
        ]
    );
}

#[test]
fn empirical_criticality_supports_the_heuristic() {
    // Protect everything except one layer kind, inject EXP faults only into
    // that kind, and compare conditional SDC between the heuristic's
    // critical and non-critical groups.
    let spec = ZooModel::Opt6_7B.spec();
    let model = spec.build();
    let pool = WorkStealingPool::new(2);
    let prompts = generate_prompts(DatasetId::Squad, 5, 61);
    let profile = generate_prompts(DatasetId::Squad, 8, 62);
    let offline = Arc::new(offline_profile(&model, &profile, 12, &pool));
    let task = TaskSpec::new(TaskType::Qa, 12);
    let judge = task.judge();

    let all: Vec<LayerKind> = model.config().block_layers().to_vec();
    let mut critical_sdc = 0.0;
    let mut noncritical_sdc = 0.0;
    for &excluded in &all {
        let mut cfg = CampaignConfig {
            trials_per_input: 60,
            gen_tokens: 12,
            ..CampaignConfig::quick(FaultModel::ExponentBit)
        };
        cfg.layer_filter = Some(vec![excluded]);
        let campaign = Campaign::new(&model, &prompts, &judge, cfg, &pool);
        let kinds: Vec<LayerKind> = all.iter().copied().filter(|k| *k != excluded).collect();
        let r = campaign.run(
            &CoverageFactory {
                kinds,
                offline: offline.clone(),
            },
            &pool,
        );
        if CriticalityReport::table1_expectation(excluded) {
            critical_sdc += r.sdc_rate();
        } else {
            noncritical_sdc += r.sdc_rate();
        }
    }
    assert!(
        critical_sdc > noncritical_sdc,
        "critical group ({critical_sdc:.4}) must leak more than non-critical ({noncritical_sdc:.4})"
    );
}

#[test]
fn ft2_coverage_is_exactly_the_critical_set() {
    use ft2::core::Scheme;
    for style in [ArchStyle::OptStyle, ArchStyle::LlamaStyle] {
        let coverage = Scheme::Ft2.coverage(style);
        assert_eq!(coverage.linear, critical_layers(style));
        assert!(!coverage.activations);
    }
}
