//! The serve workload: a seeded closed-loop request mix against
//! `synrd_serve` over loopback TCP.

use crate::procfs::{cpu_times, CpuTimes};
use crate::trace::{Span, Tracer};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::Instant;
use synrd_serve::{handle_line, FitService};
use synrd_store::{fnv1a64, hex16, parse, JsonValue};
use synrd_synth::SynthKind;

/// Rows per sampled dataset, for both request kinds.
pub const ROWS: usize = 2_500;

/// One cached fit the mix may address.
#[derive(Debug, Clone, Copy)]
pub struct Fit {
    pub paper: &'static str,
    pub kind: SynthKind,
    pub epsilon: f64,
}

/// One request of the mix, with the line sent for it.
pub struct Request {
    /// The request line, newline included, so it goes out in one write.
    pub line: String,
    pub fit: Fit,
    pub sample: bool,
    pub seed: u64,
    pub queries: usize,
    /// Whether the reply's digest is checked against a direct sample.
    pub verify: bool,
}

/// `sample` and `workload` requests per cached fit in one pass, two thirds
/// `sample`. Every fit gets the same share, so that the pass's cost does not
/// hinge on how often the seed happens to pick the expensive fits.
/// PATE-CTGAN fits get a seventh of that share: one of its samples costs
/// about ten others, and the run-to-run noise of its MLP kernels on a shared
/// host would otherwise set the whole pass's spread. Its samples still set
/// the tail.
const SAMPLES_PER_FIT: usize = 14;
const WORKLOADS_PER_FIT: usize = 7;
const PATECTGAN_SHARE_DIVISOR: usize = 7;

/// The request mix for `seed`: for every fit, its share of `sample`
/// requests and `workload` requests (two 1-way marginals and one 2-way
/// marginal over random attributes), each with its own draw seed, in a
/// seeded random order. `attrs` gives each paper's
/// attribute count.
pub fn make_requests(
    fits: &[Fit],
    attrs: &HashMap<&'static str, usize>,
    seed: u64,
) -> Vec<Request> {
    let mut rng = synrd_dp::rng_for(seed, "perfbench-serve-mix");
    let mut kinds: Vec<(Fit, bool)> =
        fits.iter()
            .flat_map(|&fit| {
                let divisor = if fit.kind == SynthKind::PateCtgan {
                    PATECTGAN_SHARE_DIVISOR
                } else {
                    1
                };
                std::iter::repeat_n((fit, true), SAMPLES_PER_FIT / divisor).chain(
                    std::iter::repeat_n((fit, false), WORKLOADS_PER_FIT / divisor),
                )
            })
            .collect();
    kinds.shuffle(&mut rng);
    kinds
        .into_iter()
        .map(|(fit, sample)| {
            let draw_seed: u64 = rng.gen_range(0..u64::MAX);
            let mut fields = vec![
                (
                    "op",
                    JsonValue::Str(if sample { "sample" } else { "workload" }.into()),
                ),
                ("paper", JsonValue::Str(fit.paper.into())),
                ("synth", JsonValue::Str(fit.kind.name().into())),
                ("epsilon", JsonValue::Num(fit.epsilon)),
                ("seed_index", JsonValue::Uint(0)),
                ("n", JsonValue::Uint(ROWS as u64)),
                ("seed", JsonValue::Uint(draw_seed)),
            ];
            let mut queries = 0;
            if !sample {
                let d = attrs[fit.paper];
                let a = rng.gen_range(0..d);
                let b = (a + rng.gen_range(1..d)) % d;
                let sets = [vec![a], vec![b], vec![a.min(b), a.max(b)]];
                queries = sets.len();
                fields.push((
                    "queries",
                    JsonValue::Arr(
                        sets.iter()
                            .map(|s| {
                                JsonValue::Arr(
                                    s.iter().map(|&x| JsonValue::Uint(x as u64)).collect(),
                                )
                            })
                            .collect(),
                    ),
                ));
            }
            let verify = sample && rng.gen_range(0..8) == 0;
            let mut line = JsonValue::obj(fields).to_text();
            line.push('\n');
            Request {
                line,
                fit,
                sample,
                seed: draw_seed,
                queries,
                verify,
            }
        })
        .collect()
}

/// The checked reply to one request.
#[derive(Debug, Clone)]
pub struct Reply {
    pub latency: f64,
    /// Fingerprint of the reply line, to compare replies across passes.
    pub hash: u64,
    /// `None` unless the reply was a well-formed success.
    pub digest: Option<String>,
    pub ok: bool,
}

fn check_reply(request: &Request, text: &str, latency: f64) -> Reply {
    let doc = parse(text.trim_end()).ok();
    let field = |k: &str| doc.as_ref().and_then(|d| d.get(k));
    let ok = field("ok").and_then(JsonValue::as_bool) == Some(true)
        && field("n").and_then(JsonValue::as_u64) == Some(ROWS as u64)
        && if request.sample {
            field("digest").and_then(JsonValue::as_str).is_some()
        } else {
            field("results")
                .and_then(JsonValue::as_arr)
                .is_some_and(|r| r.len() == request.queries)
        };
    Reply {
        latency,
        hash: fnv1a64(text.as_bytes()),
        digest: field("digest")
            .and_then(JsonValue::as_str)
            .map(str::to_string),
        ok,
    }
}

/// One client connection sending its share of the requests in a closed loop:
/// each request goes out in a single write, and the next only after its
/// reply. `on_connect` sees the socket before the first request;
/// `on_reply` gets each request index with its latency.
fn client(
    addr: SocketAddr,
    requests: &[Request],
    mine: impl Iterator<Item = usize>,
    mut on_connect: impl FnMut(&TcpStream),
    mut on_reply: impl FnMut(usize, f64),
) -> Vec<(usize, Option<Reply>)> {
    let mut out = Vec::new();
    let connected = TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        let reader = BufReader::new(s.try_clone()?);
        Ok((s, reader))
    });
    let (mut writer, mut reader) = match connected {
        Ok(pair) => pair,
        Err(_) => return mine.map(|i| (i, None)).collect(),
    };
    on_connect(&writer);
    let mut broken = false;
    let mut text = String::new();
    for i in mine {
        if broken {
            out.push((i, None));
            continue;
        }
        text.clear();
        let sent = Instant::now();
        let result = writer
            .write_all(requests[i].line.as_bytes())
            .and_then(|()| reader.read_line(&mut text));
        let latency = sent.elapsed().as_secs_f64();
        match result {
            Ok(n) if n > 0 => {
                on_reply(i, latency);
                out.push((i, Some(check_reply(&requests[i], &text, latency))));
            }
            _ => {
                broken = true;
                out.push((i, None));
            }
        }
    }
    out
}

/// What one pass of the request mix produced.
pub struct ServePass {
    pub wall: f64,
    /// One entry per request, in request order; `None` on an I/O error.
    pub replies: Vec<Option<Reply>>,
    pub cpu: CpuTimes,
}

fn collect(
    requests: &[Request],
    per_client: Vec<Vec<(usize, Option<Reply>)>>,
) -> Vec<Option<Reply>> {
    let mut replies = vec![None; requests.len()];
    for (i, reply) in per_client.into_iter().flatten() {
        replies[i] = reply;
    }
    replies
}

/// Send every request over `clients` connections to a running server;
/// connection `c` carries requests `c, c + clients, …`.
pub fn pass(addr: SocketAddr, requests: &[Request], clients: usize) -> ServePass {
    let cpu = cpu_times();
    let started = Instant::now();
    let per_client = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    client(
                        addr,
                        requests,
                        (c..requests.len()).step_by(clients),
                        |_| {},
                        |_, _| {},
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    ServePass {
        wall: started.elapsed().as_secs_f64(),
        replies: collect(requests, per_client),
        cpu: cpu_times().since(&cpu),
    }
}

/// The traced counterpart of [`pass`]: the benchmark runs the server loop
/// itself — one worker per connection calling the public `handle_line`, as
/// `synrd_serve::serve` does — so each request gets a client-side
/// `serve.request` span and a server-side `serve.handle` child span.
pub fn traced_pass(
    service: &FitService,
    requests: &[Request],
    clients: usize,
    tracer: &Tracer,
) -> ServePass {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let ids: Vec<u64> = requests.iter().map(|_| tracer.next_id()).collect();
    // Client local port → client index, registered before its first request.
    let ports: Mutex<HashMap<u16, usize>> = Mutex::new(HashMap::new());
    let cpu = cpu_times();
    let started = Instant::now();
    let per_client = std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let Ok((stream, peer)) = listener.accept() else {
                    return;
                };
                let Ok(mut writer) = stream.try_clone() else {
                    return;
                };
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                let mut seq = 0;
                while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                    let c = ports.lock().expect("port map poisoned")[&peer.port()];
                    let i = c + clients * seq;
                    seq += 1;
                    let reply = tracer.span(
                        "serve.handle",
                        requests[i].fit.kind.name(),
                        i as u64,
                        Some(ids[i]),
                        |_| handle_line(service, line.trim_end()),
                    );
                    let mut text = reply.to_text();
                    text.push('\n');
                    if writer.write_all(text.as_bytes()).is_err() {
                        return;
                    }
                    line.clear();
                }
            });
        }
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let ports = &ports;
                let ids = &ids;
                s.spawn(move || {
                    client(
                        addr,
                        requests,
                        (c..requests.len()).step_by(clients),
                        |stream| {
                            let port = stream.local_addr().expect("connected socket").port();
                            ports.lock().expect("port map poisoned").insert(port, c);
                        },
                        |i, latency| {
                            let end = tracer.now();
                            tracer.record(Span {
                                id: ids[i],
                                parent: None,
                                name: "serve.request",
                                label: requests[i].fit.kind.name(),
                                group: i as u64,
                                start: end - latency,
                                end,
                            });
                        },
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    ServePass {
        wall: started.elapsed().as_secs_f64(),
        replies: collect(requests, per_client),
        cpu: cpu_times().since(&cpu),
    }
}

/// Restore every fit through the service and draw one row from it, so lazy
/// restore work is paid before timing, as a long-running server pays it once.
pub fn warm_up(service: &FitService, fits: &[Fit]) -> Result<(), String> {
    for fit in fits {
        let digest = service.dataset_digest(fit.paper)?;
        let synth = service.synthesizer(digest, fit.kind, fit.epsilon, 0)?;
        synth.sample(1, 0).map_err(|e| {
            format!(
                "{} {}: warm-up sample failed: {e}",
                fit.paper,
                fit.kind.name()
            )
        })?;
    }
    Ok(())
}

/// Check the digest of each flagged `sample` reply against a direct
/// `restore_state` + `sample` of the same stored fit.
pub fn verify_digests(
    service: &FitService,
    requests: &[Request],
    replies: &[Option<Reply>],
) -> Result<usize, String> {
    let mut checked = 0;
    for (request, reply) in requests.iter().zip(replies) {
        if !request.verify {
            continue;
        }
        let Fit {
            paper,
            kind,
            epsilon,
        } = request.fit;
        let digest = service.dataset_digest(paper)?;
        let state = synrd::FitStore::load(service.fits(), digest, kind, epsilon, 0)
            .ok_or_else(|| format!("{paper} {}: fit missing from the cache", kind.name()))?;
        let mut synth = kind.build();
        synth.restore_state(state).map_err(|e| e.to_string())?;
        let direct = synth
            .sample(ROWS, request.seed)
            .map_err(|e| e.to_string())?;
        let expected = hex16(direct.content_digest());
        let got = reply.as_ref().and_then(|r| r.digest.as_deref());
        if got != Some(expected.as_str()) {
            return Err(format!(
                "{paper} {} eps={epsilon} seed {}: served digest {got:?}, direct sample {expected}",
                kind.name(),
                request.seed
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Ask a running `synrd_serve` server to stop.
pub fn shutdown(addr: SocketAddr) {
    if let Ok(mut stream) = TcpStream::connect(addr) {
        let _ = stream.write_all(b"{\"op\":\"shutdown\"}\n");
        let mut reply = String::new();
        let _ = BufReader::new(stream).read_line(&mut reply);
    }
}
