//! JSON load-test configuration — the paper's "JSON formatted
//! configuration file … fed into Treadmill" (§III-A), extended to the
//! whole test: workload, rate, clients, and windows.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use treadmill_cluster::{FaultSpec, HardwareConfig, RetryPolicy};
use treadmill_sim_core::SimDuration;
use treadmill_workloads::{SpecError, WorkloadSpec};

use crate::runner::LoadTest;

/// Errors from load-test configuration.
///
/// `Invalid` is *typed*: it names the offending field, so an HTTP
/// front-end can turn it into a structured 400 body instead of
/// string-matching a message.
#[derive(Debug)]
pub enum ConfigError {
    /// Malformed JSON.
    Json(serde_json::Error),
    /// A workload-spec problem.
    Workload(SpecError),
    /// Semantically invalid settings.
    Invalid {
        /// The configuration field that failed validation.
        field: &'static str,
        /// Why the value is rejected.
        message: String,
    },
}

impl ConfigError {
    /// A short machine-readable error kind (`json` / `workload` /
    /// `invalid`) for structured error bodies.
    pub fn kind(&self) -> &'static str {
        match self {
            ConfigError::Json(_) => "json",
            ConfigError::Workload(_) => "workload",
            ConfigError::Invalid { .. } => "invalid",
        }
    }

    /// The offending field for `Invalid` errors.
    pub fn field(&self) -> Option<&'static str> {
        match self {
            ConfigError::Invalid { field, .. } => Some(field),
            _ => None,
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Json(e) => write!(f, "invalid load-test JSON: {e}"),
            ConfigError::Workload(e) => write!(f, "workload error: {e}"),
            ConfigError::Invalid { field, message } => {
                write!(f, "invalid load test: {field}: {message}")
            }
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Json(e) => Some(e),
            ConfigError::Workload(e) => Some(e),
            ConfigError::Invalid { .. } => None,
        }
    }
}

impl From<serde_json::Error> for ConfigError {
    fn from(e: serde_json::Error) -> Self {
        ConfigError::Json(e)
    }
}

impl From<SpecError> for ConfigError {
    fn from(e: SpecError) -> Self {
        ConfigError::Workload(e)
    }
}

/// A declarative load-test description.
///
/// # Examples
///
/// ```
/// use treadmill_core::LoadTestConfig;
///
/// let config = LoadTestConfig::from_json(r#"{
///     "workload": { "workload": "memcached" },
///     "target_rps": 100000,
///     "clients": 8,
///     "connections_per_client": 16,
///     "duration_ms": 300,
///     "warmup_ms": 50
/// }"#)?;
/// let test = config.build()?;
/// assert_eq!(test.warmup_window().as_nanos(), 50_000_000);
/// # Ok::<(), treadmill_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadTestConfig {
    /// The workload specification.
    pub workload: WorkloadSpec,
    /// Target aggregate throughput.
    pub target_rps: f64,
    /// Number of Treadmill instances.
    #[serde(default = "default_clients")]
    pub clients: usize,
    /// Connections per instance.
    #[serde(default = "default_connections")]
    pub connections_per_client: u32,
    /// Sending window, milliseconds.
    #[serde(default = "default_duration_ms")]
    pub duration_ms: u64,
    /// Warm-up window, milliseconds.
    #[serde(default = "default_warmup_ms")]
    pub warmup_ms: u64,
    /// Master seed.
    #[serde(default)]
    pub seed: u64,
    /// Number of simulated servers. Each server forms one shard with
    /// its own replica of the client set; `target_rps` is per-server
    /// offered load. 1 (the default) is a single world with no
    /// cross-shard traffic.
    #[serde(default = "default_servers")]
    pub servers: u32,
    /// Worker threads for sharded execution. 0 (the default) defers to
    /// the `TML_THREADS` environment variable, then to 1. Seeded runs
    /// are bit-identical at any thread count.
    #[serde(default)]
    pub threads: u32,
    /// Every `remote_every`-th connection targets a foreign server
    /// when `servers > 1` (0 keeps all traffic shard-local).
    #[serde(default = "default_remote_every")]
    pub remote_every: u32,
    /// Fault-injection configuration (default: no faults).
    #[serde(default)]
    pub faults: FaultSpec,
    /// Client-side timeout / retry / hedging policy (default: off).
    #[serde(default)]
    pub retry: RetryPolicy,
    /// Pins the run to one cell of the 2⁴ hardware factor space
    /// (`HardwareConfig::from_index`). `None` (the default) keeps the
    /// all-low baseline. Factorial sweeps set this per cell.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub hardware: Option<u8>,
    /// Analytic screening for factorial sweeps: when set, the sweep
    /// runs the analytic fast-path estimator over every hardware cell
    /// first and spends DES runs only on cells whose predicted tail
    /// effect reaches `threshold`. `None` (the default) means
    /// full-factorial (or single-cell) behaviour.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub screen: Option<ScreenSpec>,
}

/// Screening knobs for a factorial sweep (see `LoadTestConfig::screen`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct ScreenSpec {
    /// Relative predicted-p99 excess over the best cell at which a cell
    /// is flagged for DES simulation. 0 screens every cell in (useful
    /// for validating the screened path against full-factorial).
    pub threshold: f64,
}

impl Default for ScreenSpec {
    fn default() -> Self {
        ScreenSpec { threshold: 0.25 }
    }
}

/// Validation ceilings — generous enough for every benchmark world
/// (the million-connection perf stage runs 100 servers x 8 clients x
/// 1250 connections) while keeping a hostile or typo'd spec from
/// sizing an absurd simulation. These bound the service's 400 path:
/// anything past them is rejected before any allocation happens.
pub const MAX_TARGET_RPS: f64 = 1e9;
/// Upper bound on [`LoadTestConfig::clients`].
pub const MAX_CLIENTS: usize = 4096;
/// Upper bound on [`LoadTestConfig::connections_per_client`].
pub const MAX_CONNECTIONS: u32 = 65_536;
/// Upper bound on [`LoadTestConfig::duration_ms`] (24 hours).
pub const MAX_DURATION_MS: u64 = 86_400_000;
/// Upper bound on [`LoadTestConfig::servers`].
pub const MAX_SERVERS: u32 = 4096;
/// Upper bound on [`LoadTestConfig::threads`].
pub const MAX_THREADS: u32 = 1024;
/// Upper bound on clients x connections x servers.
pub const MAX_TOTAL_CONNECTIONS: u64 = 16_777_216;

fn default_clients() -> usize {
    8
}
fn default_connections() -> u32 {
    16
}
fn default_duration_ms() -> u64 {
    600
}
fn default_warmup_ms() -> u64 {
    100
}
fn default_servers() -> u32 {
    1
}
fn default_remote_every() -> u32 {
    4
}

impl LoadTestConfig {
    /// Parses a configuration from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Json`] on malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, ConfigError> {
        Ok(serde_json::from_str(json)?)
    }

    /// Serialises the configuration to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serialisation cannot fail")
    }

    /// Validates every knob without building anything — the single
    /// gate between untrusted input (a JSON file, an HTTP request
    /// body) and the engine. Any configuration that passes here must
    /// build and run without panicking; anything that could drive the
    /// engine into a degenerate state (zero connections, NaN rates,
    /// astronomically sized worlds) is rejected with a typed error
    /// naming the field.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Invalid`] naming the offending field and
    /// [`ConfigError::Workload`] for workload-spec problems.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn invalid(field: &'static str, message: String) -> ConfigError {
            ConfigError::Invalid { field, message }
        }
        if !self.target_rps.is_finite() || self.target_rps <= 0.0 {
            return Err(invalid(
                "target_rps",
                format!("must be positive and finite, got {}", self.target_rps),
            ));
        }
        if self.target_rps > MAX_TARGET_RPS {
            return Err(invalid(
                "target_rps",
                format!("must be at most {MAX_TARGET_RPS:.0}, got {}", self.target_rps),
            ));
        }
        if self.clients == 0 || self.clients > MAX_CLIENTS {
            return Err(invalid(
                "clients",
                format!("must be in 1..={MAX_CLIENTS}, got {}", self.clients),
            ));
        }
        if self.connections_per_client == 0 || self.connections_per_client > MAX_CONNECTIONS {
            return Err(invalid(
                "connections_per_client",
                format!(
                    "must be in 1..={MAX_CONNECTIONS}, got {}",
                    self.connections_per_client
                ),
            ));
        }
        if self.duration_ms == 0 || self.duration_ms > MAX_DURATION_MS {
            return Err(invalid(
                "duration_ms",
                format!("must be in 1..={MAX_DURATION_MS}, got {}", self.duration_ms),
            ));
        }
        if self.warmup_ms >= self.duration_ms {
            return Err(invalid(
                "warmup_ms",
                format!(
                    "warm-up ({} ms) must be shorter than the run ({} ms)",
                    self.warmup_ms, self.duration_ms
                ),
            ));
        }
        if self.servers == 0 || self.servers > MAX_SERVERS {
            return Err(invalid(
                "servers",
                format!("must be in 1..={MAX_SERVERS}, got {}", self.servers),
            ));
        }
        if self.threads > MAX_THREADS {
            return Err(invalid(
                "threads",
                format!("must be at most {MAX_THREADS}, got {}", self.threads),
            ));
        }
        let total_connections = self.clients as u64
            * u64::from(self.connections_per_client)
            * u64::from(self.servers);
        if total_connections > MAX_TOTAL_CONNECTIONS {
            return Err(invalid(
                "connections_per_client",
                format!(
                    "clients x connections x servers = {total_connections} exceeds the \
                     {MAX_TOTAL_CONNECTIONS}-connection world budget"
                ),
            ));
        }
        if let Some(cell) = self.hardware {
            if cell >= 16 {
                return Err(invalid(
                    "hardware",
                    format!("cell index must be in 0..=15, got {cell}"),
                ));
            }
        }
        if let Some(screen) = &self.screen {
            if !screen.threshold.is_finite() || screen.threshold < 0.0 {
                return Err(invalid(
                    "screen",
                    format!(
                        "threshold must be finite and non-negative, got {}",
                        screen.threshold
                    ),
                ));
            }
        }
        self.faults
            .validate()
            .map_err(|message| invalid("faults", message))?;
        self.retry
            .validate()
            .map_err(|message| invalid("retry", message))?;
        self.workload.build()?;
        Ok(())
    }

    /// Builds the runnable [`LoadTest`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Workload`] for workload problems and
    /// [`ConfigError::Invalid`] for nonsensical settings — everything
    /// [`LoadTestConfig::validate`] checks.
    pub fn build(&self) -> Result<LoadTest, ConfigError> {
        self.validate()?;
        let workload: Arc<dyn treadmill_workloads::Workload> = self.workload.build()?;
        let hardware = self
            .hardware
            .map_or_else(HardwareConfig::all_low, |cell| {
                HardwareConfig::from_index(usize::from(cell))
            });
        Ok(LoadTest::new(workload, self.target_rps)
            .hardware(hardware)
            .clients(self.clients)
            .connections_per_client(self.connections_per_client)
            .duration(SimDuration::from_millis(self.duration_ms))
            .warmup(SimDuration::from_millis(self.warmup_ms))
            .seed(self.seed)
            .servers(self.servers)
            .threads(self.threads)
            .remote_every(self.remote_every)
            .faults(self.faults)
            .retry_policy(self.retry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_json() -> &'static str {
        r#"{ "workload": { "workload": "memcached" }, "target_rps": 50000 }"#
    }

    #[test]
    fn defaults_fill_in() {
        let config = LoadTestConfig::from_json(minimal_json()).unwrap();
        assert_eq!(config.clients, 8);
        assert_eq!(config.connections_per_client, 16);
        assert_eq!(config.duration_ms, 600);
        assert_eq!(config.warmup_ms, 100);
        assert!(config.build().is_ok());
    }

    #[test]
    fn sharding_defaults_and_validation() {
        let config = LoadTestConfig::from_json(minimal_json()).unwrap();
        assert_eq!(config.servers, 1);
        assert_eq!(config.threads, 0);
        assert_eq!(config.remote_every, 4);
        let config = LoadTestConfig::from_json(
            r#"{ "workload": { "workload": "memcached" }, "target_rps": 1000, "servers": 0 }"#,
        )
        .unwrap();
        assert_eq!(config.build().unwrap_err().field(), Some("servers"));
    }

    #[test]
    fn json_round_trip() {
        let config = LoadTestConfig::from_json(minimal_json()).unwrap();
        let back = LoadTestConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn invalid_rate_rejected() {
        let config = LoadTestConfig::from_json(
            r#"{ "workload": { "workload": "memcached" }, "target_rps": -5 }"#,
        )
        .unwrap();
        let err = config.build().unwrap_err();
        assert!(matches!(err, ConfigError::Invalid { .. }));
        assert_eq!(err.field(), Some("target_rps"));
        assert_eq!(err.kind(), "invalid");
    }

    #[test]
    fn nan_rate_rejected_by_validate() {
        let mut config = LoadTestConfig::from_json(minimal_json()).unwrap();
        config.target_rps = f64::NAN;
        assert_eq!(config.validate().unwrap_err().field(), Some("target_rps"));
        config.target_rps = f64::INFINITY;
        assert_eq!(config.validate().unwrap_err().field(), Some("target_rps"));
    }

    #[test]
    fn zero_connections_rejected() {
        let mut config = LoadTestConfig::from_json(minimal_json()).unwrap();
        config.connections_per_client = 0;
        assert_eq!(
            config.validate().unwrap_err().field(),
            Some("connections_per_client")
        );
    }

    #[test]
    fn zero_duration_rejected() {
        let mut config = LoadTestConfig::from_json(minimal_json()).unwrap();
        config.duration_ms = 0;
        config.warmup_ms = 0;
        assert_eq!(config.validate().unwrap_err().field(), Some("duration_ms"));
    }

    #[test]
    fn oversized_world_rejected() {
        let mut config = LoadTestConfig::from_json(minimal_json()).unwrap();
        config.clients = 4096;
        config.connections_per_client = 65_536;
        config.servers = 512;
        assert_eq!(
            config.validate().unwrap_err().field(),
            Some("connections_per_client")
        );
    }

    #[test]
    fn fault_knobs_validated_with_field() {
        let mut config = LoadTestConfig::from_json(minimal_json()).unwrap();
        config.faults.uplink_loss = 1.5;
        assert_eq!(config.validate().unwrap_err().field(), Some("faults"));
    }

    #[test]
    fn warmup_longer_than_run_rejected() {
        let config = LoadTestConfig::from_json(
            r#"{
                "workload": { "workload": "memcached" },
                "target_rps": 1000,
                "duration_ms": 50,
                "warmup_ms": 60
            }"#,
        )
        .unwrap();
        let err = config.build().unwrap_err();
        assert!(err.to_string().contains("warm-up"));
    }

    #[test]
    fn unknown_workload_propagates() {
        let config = LoadTestConfig::from_json(
            r#"{ "workload": { "workload": "redis" }, "target_rps": 1000 }"#,
        )
        .unwrap();
        assert!(matches!(config.build(), Err(ConfigError::Workload(_))));
    }

    #[test]
    fn hardware_and_screen_knobs() {
        // Absent knobs serialise away: old configs hash identically.
        let config = LoadTestConfig::from_json(minimal_json()).unwrap();
        assert!(config.hardware.is_none() && config.screen.is_none());
        assert!(!config.to_json().contains("hardware"));
        assert!(!config.to_json().contains("screen"));
        let config = LoadTestConfig::from_json(
            r#"{ "workload": { "workload": "memcached" }, "target_rps": 1000,
                 "hardware": 9, "screen": { "threshold": 0.1 } }"#,
        )
        .unwrap();
        assert_eq!(config.hardware, Some(9));
        assert_eq!(config.screen.unwrap().threshold, 0.1);
        assert!(config.validate().is_ok());
        let back = LoadTestConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn out_of_range_hardware_and_screen_rejected() {
        let mut config = LoadTestConfig::from_json(minimal_json()).unwrap();
        config.hardware = Some(16);
        assert_eq!(config.validate().unwrap_err().field(), Some("hardware"));
        config.hardware = None;
        config.screen = Some(ScreenSpec { threshold: -0.5 });
        assert_eq!(config.validate().unwrap_err().field(), Some("screen"));
        config.screen = Some(ScreenSpec {
            threshold: f64::NAN,
        });
        assert_eq!(config.validate().unwrap_err().field(), Some("screen"));
    }

    #[test]
    fn malformed_json_reported() {
        assert!(matches!(
            LoadTestConfig::from_json("{"),
            Err(ConfigError::Json(_))
        ));
    }
}
