//! The load-tester feature matrix (Table I).

/// Which of the paper's five requirements a load tester satisfies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureSupport {
    /// Proper open-loop query inter-arrival generation (§II-A).
    pub query_interarrival: bool,
    /// Sound statistical aggregation — adaptive histograms, per-client
    /// metric extraction (§II-B).
    pub statistical_aggregation: bool,
    /// Avoids client-side queueing bias via multiple lightly-utilised
    /// clients (§II-C).
    pub client_side_queueing: bool,
    /// Handles performance hysteresis via repeated experiments (§II-D).
    pub performance_hysteresis: bool,
    /// General: new workloads integrate without invasive changes.
    pub generality: bool,
}

impl FeatureSupport {
    /// Number of requirements satisfied.
    #[cfg(test)]
    pub fn score(&self) -> u8 {
        u8::from(self.query_interarrival)
            + u8::from(self.statistical_aggregation)
            + u8::from(self.client_side_queueing)
            + u8::from(self.performance_hysteresis)
            + u8::from(self.generality)
    }
}

/// One row of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureRow {
    /// Tester name.
    pub name: &'static str,
    /// Its feature support.
    pub support: FeatureSupport,
}

/// The full Table I: which load tester satisfies which requirement, as
/// the paper assesses them.
pub fn feature_table() -> Vec<FeatureRow> {
    vec![
        FeatureRow {
            name: "YCSB",
            support: FeatureSupport {
                query_interarrival: false,     // closed loop
                statistical_aggregation: false, // static histogram
                client_side_queueing: false,   // single client
                performance_hysteresis: false,
                generality: true, // pluggable DB bindings
            },
        },
        FeatureRow {
            name: "Faban",
            support: FeatureSupport {
                query_interarrival: false, // closed-loop driver
                statistical_aggregation: false,
                client_side_queueing: true, // multi-agent
                performance_hysteresis: false,
                generality: true, // workload creation framework
            },
        },
        FeatureRow {
            name: "CloudSuite",
            support: FeatureSupport {
                query_interarrival: true, // open loop
                statistical_aggregation: false,
                client_side_queueing: false, // single client
                performance_hysteresis: false,
                generality: false, // fixed benchmark set
            },
        },
        FeatureRow {
            name: "Mutilate",
            support: FeatureSupport {
                query_interarrival: false, // closed loop
                statistical_aggregation: true, // fine-grained sampling
                client_side_queueing: true,    // 8 agents + master
                performance_hysteresis: false,
                generality: false, // memcached-only
            },
        },
        FeatureRow {
            name: "Treadmill",
            support: FeatureSupport {
                query_interarrival: true,
                statistical_aggregation: true,
                client_side_queueing: true,
                performance_hysteresis: true,
                generality: true,
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn treadmill_satisfies_everything() {
        let table = feature_table();
        let treadmill = table.iter().find(|r| r.name == "Treadmill").unwrap();
        assert_eq!(treadmill.support.score(), 5);
    }

    #[test]
    fn no_baseline_satisfies_everything() {
        for row in feature_table() {
            if row.name != "Treadmill" {
                assert!(row.support.score() < 5, "{} scores full marks", row.name);
            }
        }
    }

    #[test]
    fn only_treadmill_handles_hysteresis() {
        let with_hysteresis: Vec<&str> = feature_table()
            .iter()
            .filter(|r| r.support.performance_hysteresis)
            .map(|r| r.name)
            .collect();
        assert_eq!(with_hysteresis, vec!["Treadmill"]);
    }

    #[test]
    fn closed_loop_testers_fail_interarrival() {
        let table = feature_table();
        for name in ["YCSB", "Faban", "Mutilate"] {
            let row = table.iter().find(|r| r.name == name).unwrap();
            assert!(!row.support.query_interarrival, "{name}");
        }
    }

    #[test]
    fn single_client_testers_fail_queueing() {
        let table = feature_table();
        for name in ["YCSB", "CloudSuite"] {
            let row = table.iter().find(|r| r.name == name).unwrap();
            assert!(!row.support.client_side_queueing, "{name}");
        }
    }
}
