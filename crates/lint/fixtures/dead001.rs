// Fixture for DEAD001: library fns that no product root reaches.
use serde::Deserialize;

pub fn positive_uncalled() -> u32 {
    1
}

pub fn positive_unit_test_only() -> u32 {
    2
}

// Each of these is called from one kind of non-library file.
pub fn called_from_main() {}
pub fn called_from_integration_test() {}
pub fn called_from_crate_test() {}
pub fn called_from_example() {}
pub fn called_from_bench() {}
pub fn called_from_perfbench() {}

pub trait Source {
    fn start(&mut self) -> u32;
    fn on_sent(&mut self) -> u32 {
        default_body_helper()
    }
}

fn default_body_helper() -> u32 {
    3
}

pub struct Replay;

impl Source for Replay {
    fn start(&mut self) -> u32 {
        impl_helper()
    }
}

fn impl_helper() -> u32 {
    4
}

#[derive(Deserialize)]
pub struct Spec {
    #[serde(default = "default_runs")]
    pub runs: u32,
}

fn default_runs() -> u32 {
    30
}

pub fn reached_from_main() -> Result<u32, String> {
    install(on_signal);
    "7".parse::<u32>().map_err(describe)
}

fn install(handler: fn(i32)) {
    handler(0);
}

fn on_signal(_signum: i32) {}

fn describe(e: std::num::ParseIntError) -> String {
    e.to_string()
}

// tml-lint: allow(DEAD001, fixture: stands in for an oracle only the golden tests call)
pub fn suppressed_with_reason() {}

// tml-lint: allow(DEAD001)
pub fn allow_without_reason() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_test_is_not_a_root() {
        assert_eq!(positive_unit_test_only(), 2);
    }
}
