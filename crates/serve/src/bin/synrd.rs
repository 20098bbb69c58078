//! The `synrd` serve-mode binary.
//!
//! ```text
//! synrd serve --out-dir DIR [--addr HOST:PORT] [--workers N]
//!             [--fit-threads auto|N] [grid knobs]
//! synrd request ADDR 'JSON'        # one request line, prints the response
//! synrd bench-serve [--quick] [--out BENCH_serve.json]
//! ```
//!
//! `serve` answers sampling / workload requests from the fit cache a grid
//! run left under `--out-dir` (see `synrd_serve` for the protocol). The
//! grid knobs (`--seeds`, `--scale`, ...) must match the run that
//! populated the store — they determine the dataset digests and the fit
//! fingerprint requests resolve against. A malformed or non-positive
//! `--seeds`, `--bootstraps`, `--scale` or `--workers` exits 2 with a
//! message, as `fig3`/`fig4` do, instead of serving a different grid.
//!
//! `bench-serve` measures the serve-path win and writes `BENCH_serve.json`:
//! cold fit-and-sample versus warm serve-mode sampling from a cached fit.
//! Exits nonzero when the warm path is not at least 5x the cold path —
//! the CI gate for the whole fit-cache tentpole.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;
use synrd::benchmark::{BenchmarkConfig, FitStore};
use synrd::publication_by_id;
use synrd_serve::{handle_request, serve, FitService};
use synrd_store::JsonValue;
use synrd_synth::SynthKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("request") => cmd_request(&args[1..]),
        Some("bench-serve") => cmd_bench_serve(&args[1..]),
        _ => {
            eprintln!(
                "usage: synrd serve --out-dir DIR [--addr HOST:PORT] [--workers N] [grid knobs]\n\
                 \x20      synrd request ADDR 'JSON'\n\
                 \x20      synrd bench-serve [--quick] [--out PATH]"
            );
            std::process::exit(2);
        }
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `flag`'s value as a positive integer; `Ok(None)` when the flag is absent.
fn positive_knob(args: &[String], flag: &str) -> Result<Option<usize>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let spec = args.get(i + 1).map_or("", String::as_str);
    match spec.parse::<usize>() {
        Ok(v) if v >= 1 => Ok(Some(v)),
        _ => Err(format!("bad {flag} '{spec}': expected a positive integer")),
    }
}

/// The grid knobs that change dataset digests / the fit fingerprint.
/// Malformed or non-positive values are errors, as in `fig3`/`fig4`.
fn config_from(args: &[String]) -> Result<BenchmarkConfig, String> {
    let mut config = if args.iter().any(|a| a == "--paper-scale") {
        BenchmarkConfig::paper()
    } else {
        BenchmarkConfig::quick()
    };
    if let Some(v) = positive_knob(args, "--seeds")? {
        config.seeds = v;
    }
    if let Some(v) = positive_knob(args, "--bootstraps")? {
        config.bootstraps = v;
    }
    if let Some(i) = args.iter().position(|a| a == "--scale") {
        let spec = args.get(i + 1).map_or("", String::as_str);
        config.data_scale = match spec.parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => v,
            _ => return Err(format!("bad --scale '{spec}': expected a positive number")),
        };
    }
    Ok(config)
}

/// `serve`'s grid configuration and worker count (default 4).
fn serve_knobs(args: &[String]) -> Result<(BenchmarkConfig, usize), String> {
    let workers = positive_knob(args, "--workers")?.unwrap_or(4);
    Ok((config_from(args)?, workers))
}

fn cmd_serve(args: &[String]) {
    let Some(out_dir) = flag_value(args, "--out-dir") else {
        eprintln!("serve requires --out-dir (the grid run's result store)");
        std::process::exit(2);
    };
    let (config, workers) = serve_knobs(args).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    // Intra-fit thread allowance for any fits the process performs
    // (bit-identical at any count; the `stats` response reports it).
    // `auto` keeps the default (`SYNRD_FIT_THREADS`, else sequential).
    if let Some(spec) = flag_value(args, "--fit-threads") {
        match spec.as_str() {
            "auto" => {}
            n => match n.parse::<usize>() {
                Ok(v) if v >= 1 => synrd_synth::set_default_fit_threads(v),
                _ => {
                    eprintln!(
                        "bad --fit-threads '{spec}': expected 'auto' or a positive thread count"
                    );
                    std::process::exit(2);
                }
            },
        }
    }
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let service = match FitService::open(&out_dir, config) {
        Ok(service) => Arc::new(service),
        Err(e) => {
            eprintln!("cannot open fit cache {out_dir}: {e}");
            std::process::exit(2);
        }
    };
    match serve(service, &addr, workers) {
        Ok(handle) => {
            // CI and scripts parse this line for the bound port.
            println!("[serve] listening on {} workers={workers}", handle.addr());
            handle.join();
            println!("[serve] shut down");
        }
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(2);
        }
    }
}

fn cmd_request(args: &[String]) {
    let (Some(addr), Some(body)) = (args.first(), args.get(1)) else {
        eprintln!("usage: synrd request ADDR 'JSON'");
        std::process::exit(2);
    };
    let mut stream = match TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    if writeln!(stream, "{body}").is_err() {
        eprintln!("send failed");
        std::process::exit(1);
    }
    let mut response = String::new();
    if BufReader::new(&stream).read_line(&mut response).is_err() {
        eprintln!("no response");
        std::process::exit(1);
    }
    print!("{response}");
    // Non-ok responses fail the invoking script.
    if !response.contains("\"ok\":true") {
        std::process::exit(1);
    }
}

/// Cold fit-and-sample versus warm serve-mode sampling, on a real paper's
/// dataset at quick scale.
fn cmd_bench_serve(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = flag_value(args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let reps = if quick { 3 } else { 10 };
    let n = 2_000usize;
    let paper_id = "fruiht2018";
    let kind = SynthKind::Mst;
    let epsilon = 1.0;
    let config = BenchmarkConfig::quick();

    let paper = publication_by_id(paper_id).expect("registered paper");
    let rows = config.rows_for(paper.dataset().paper_n());
    let data = paper.generate(rows, config.data_seed);
    let privacy = kind.native_privacy(epsilon, data.n_rows());

    // Cold path: every batch pays a fresh fit, the cost the cache removes.
    let cold_started = Instant::now();
    for rep in 0..reps {
        let mut synth = kind.build();
        synth.fit(&data, privacy, rep as u64).expect("cold fit");
        synth.sample(n, rep as u64).expect("cold sample");
    }
    let cold_ns = cold_started.elapsed().as_nanos() as f64 / reps as f64;

    // Warm path: one cached fit, served through the full request protocol.
    let dir = std::env::temp_dir().join(format!("synrd-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = FitService::open(&dir, config).expect("open fit cache");
    let mut synth = kind.build();
    synth.fit(&data, privacy, 0).expect("seed fit");
    let state = synth.fitted_state().expect("fitted state");
    service
        .fits()
        .save(data.content_digest(), kind, epsilon, 0, &state);
    let request = JsonValue::obj(vec![
        ("op", JsonValue::Str("sample".to_string())),
        ("paper", JsonValue::Str(paper_id.to_string())),
        ("synth", JsonValue::Str(kind.name().to_string())),
        ("epsilon", JsonValue::Num(epsilon)),
        ("seed_index", JsonValue::Uint(0)),
        ("n", JsonValue::Uint(n as u64)),
        ("seed", JsonValue::Uint(1)),
    ]);
    // Untimed warm-up: the first request pays the one-off disk load +
    // restore; steady-state serving is what the gate measures.
    let first = handle_request(&service, &request);
    assert_eq!(
        first.get("ok"),
        Some(&JsonValue::Bool(true)),
        "warm-up request failed: {}",
        first.to_text()
    );
    let warm_started = Instant::now();
    for _ in 0..reps {
        let response = handle_request(&service, &request);
        assert_eq!(response.get("ok"), Some(&JsonValue::Bool(true)));
    }
    let warm_ns = warm_started.elapsed().as_nanos() as f64 / reps as f64;
    let _ = std::fs::remove_dir_all(&dir);

    let speedup = cold_ns / warm_ns;
    let doc = JsonValue::obj(vec![
        ("schema", JsonValue::Str("synrd-bench-serve/1".to_string())),
        (
            "mode",
            JsonValue::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        ("paper", JsonValue::Str(paper_id.to_string())),
        ("synth", JsonValue::Str(kind.name().to_string())),
        ("epsilon", JsonValue::Num(epsilon)),
        ("fit_rows", JsonValue::Uint(data.n_rows() as u64)),
        ("sample_rows", JsonValue::Uint(n as u64)),
        ("reps", JsonValue::Uint(reps as u64)),
        ("cold_fit_and_sample_ns", JsonValue::Num(cold_ns)),
        ("warm_serve_sample_ns", JsonValue::Num(warm_ns)),
        ("speedup", JsonValue::Num(speedup)),
        ("gate", JsonValue::Num(5.0)),
    ]);
    std::fs::write(&out_path, format!("{}\n", doc.to_text())).expect("write BENCH_serve.json");
    println!(
        "[bench-serve] cold={:.2}ms warm={:.2}ms speedup={speedup:.1}x (gate 5x) -> {out_path}",
        cold_ns / 1e6,
        warm_ns / 1e6,
    );
    if speedup < 5.0 {
        eprintln!("serve-mode warm sampling is below the 5x gate");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn accepts_a_full_serve_command_line() {
        let (config, workers) = serve_knobs(&args(
            "--out-dir d --addr 127.0.0.1:0 --workers 2 --seeds 1 --bootstraps 2 --scale 0.02",
        ))
        .unwrap();
        assert_eq!(workers, 2);
        assert_eq!(config.seeds, 1);
        assert_eq!(config.bootstraps, 2);
        assert_eq!(config.data_scale, 0.02);
    }

    #[test]
    fn defaults_apply_when_knobs_are_absent() {
        let (config, workers) = serve_knobs(&args("--out-dir d")).unwrap();
        assert_eq!(workers, 4);
        let quick = BenchmarkConfig::quick();
        assert_eq!(config.seeds, quick.seeds);
        assert_eq!(config.bootstraps, quick.bootstraps);
        assert_eq!(config.data_scale, quick.data_scale);
    }

    #[test]
    fn rejects_malformed_seeds() {
        for line in ["--seeds x", "--seeds 0", "--seeds -1", "--seeds"] {
            let err = serve_knobs(&args(line)).unwrap_err();
            assert!(err.contains("--seeds"), "{line}: {err}");
        }
    }

    #[test]
    fn rejects_malformed_bootstraps() {
        for line in ["--bootstraps x", "--bootstraps 0", "--bootstraps 1.5"] {
            let err = serve_knobs(&args(line)).unwrap_err();
            assert!(err.contains("--bootstraps"), "{line}: {err}");
        }
    }

    #[test]
    fn rejects_malformed_scale() {
        for line in [
            "--scale -1",
            "--scale 0",
            "--scale x",
            "--scale NaN",
            "--scale inf",
        ] {
            let err = serve_knobs(&args(line)).unwrap_err();
            assert!(err.contains("--scale"), "{line}: {err}");
        }
    }

    #[test]
    fn rejects_malformed_workers() {
        for line in ["--workers 0", "--workers x", "--workers -3", "--workers"] {
            let err = serve_knobs(&args(line)).unwrap_err();
            assert!(err.contains("--workers"), "{line}: {err}");
        }
    }
}
