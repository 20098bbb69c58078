//! The host record printed with every result.

use std::process::Command;
use synrd_store::JsonValue;

/// SIMD features the ML kernels dispatch on, reported when the CPU has them.
const FEATURES: [&str; 6] = ["sse4_2", "avx", "avx2", "fma", "avx512f", "neon"];

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpuinfo_field(cpuinfo: &str, key: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.split(':').next().is_some_and(|k| k.trim() == key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Facts about the host and build that every result depends on.
pub fn record(grid_threads: usize, fit_threads: &[usize]) -> Vec<(&'static str, JsonValue)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags = cpuinfo_field(&cpuinfo, "flags")
        .or_else(|| cpuinfo_field(&cpuinfo, "Features"))
        .unwrap_or_default();
    let features: Vec<JsonValue> = FEATURES
        .iter()
        .filter(|f| flags.split_whitespace().any(|x| x == **f))
        .map(|f| JsonValue::Str((*f).to_string()))
        .collect();
    // The benchmark runs from a plain checkout too, where there is no commit.
    let commit = if std::path::Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".to_string()
    };
    vec![
        ("nproc", JsonValue::Uint(nproc() as u64)),
        ("grid_threads", JsonValue::Uint(grid_threads as u64)),
        (
            "fit_threads_per_part",
            JsonValue::Arr(
                fit_threads
                    .iter()
                    .map(|&t| JsonValue::Uint(t as u64))
                    .collect(),
            ),
        ),
        (
            "ml_backend",
            JsonValue::Str(synrd_synth::ml_backend::global_name().to_string()),
        ),
        (
            "cpu_model",
            JsonValue::Str(
                cpuinfo_field(&cpuinfo, "model name").unwrap_or_else(|| "unknown".to_string()),
            ),
        ),
        ("cpu_features", JsonValue::Arr(features)),
        (
            "rustc",
            JsonValue::Str(command_output("rustc", &["--version"])),
        ),
        ("git_commit", JsonValue::Str(commit)),
    ]
}
