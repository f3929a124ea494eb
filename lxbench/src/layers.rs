//! The traced run's per-layer figures. Every figure comes from spans
//! the benchmark records around calls into a layer's public functions,
//! made in this process on the workload's own inputs, or from the
//! server's drain report. Tiny calls are timed in spans of `CHUNK`
//! calls; the server's request path is replayed in-process one request
//! at a time, so each stage's self time can be set against the
//! end-to-end median.

use crate::plancheck;
use crate::stats::{median, truncated_median, Metric};
use crate::trace::Tracer;
use crate::{server, workloads, Books, Ctx};
use forensic_law::prelude::*;
use forensic_law::spec::ActionSpec;
use journal::{Journal, JournalConfig, JournalReader, Mode, RecordData};
use obs::{SpanRing, Stage, TraceId};
use planner::{parse_problem, Planner};
use service::prelude::*;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use wire::frame::{self, Frame, Request, Response, Status, StreamDecoder, MAX_FRAME};

/// Calls per span for the small operations.
const CHUNK: usize = 256;
/// Requests replayed through the in-process request path.
const PIPELINE: usize = 2000;
/// Operations per small-operation probe.
const OPS: usize = 8192;
/// Durable appends (each waits for its group commit).
const DURABLE: usize = 200;
/// Frontier-sized `assess_all` calls timed.
const FRONTIER_CALLS: usize = 200;
/// Strict scans of the probe journal, and runs of each audit tool on it.
const TOOL_RUNS: usize = 3;
/// Warm plan solves timed, and problem parses timed.
const SOLVES: usize = 5;
const PARSES: usize = 50;

/// What the traced run works on: the workload's own inputs.
pub struct Scene {
    /// Request payloads, as sent.
    pub payloads: Vec<Vec<u8>>,
    /// The engine inputs of the workload's distinct facts.
    pub actions: Vec<InvestigativeAction>,
    /// Whether the server's cache is warm when the measured phase runs.
    pub warm: bool,
    /// Whether the server journals and explains every answer.
    pub audited: bool,
    /// A plan problem of the workload's shape.
    pub plan: String,
}

/// End-to-end figures of the traced run.
pub struct EndToEnd<'a> {
    /// The workload's measured phase, untraced and traced.
    pub untraced_p50_us: f64,
    pub traced_p50_us: f64,
    /// The p50 of the assess phase the stage costs are set against.
    pub assess_p50_us: f64,
    /// The queue-wait field of each response in that phase.
    pub queue_wait_us: &'a [u64],
    /// The drain report of the server that ran it.
    pub report: &'a str,
}

/// Times `op` over `items` (cycled to `OPS` calls) in spans of `CHUNK`.
fn chunked<T>(tracer: &mut Tracer, name: &'static str, items: &[T], mut op: impl FnMut(&T)) -> u64 {
    let mut done = 0;
    while done < OPS {
        let start = Instant::now();
        for k in done..done + CHUNK {
            op(&items[k % items.len()]);
        }
        tracer.span(name, done as u64, None, start, Instant::now(), CHUNK as u64);
        done += CHUNK;
    }
    done as u64
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

fn service_config() -> ServiceConfig {
    // What `serve --workers 1` runs: one worker, default queue.
    ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }
}

pub fn run(
    ctx: &Ctx,
    books: &mut Books,
    tracer: &mut Tracer,
    scene: &Scene,
    e2e: &EndToEnd<'_>,
) -> io::Result<Vec<Metric>> {
    let engine = ComplianceEngine::new();
    let mut ops = 0u64;
    let frames: Vec<Vec<u8>> = scene
        .payloads
        .iter()
        .enumerate()
        .map(|(i, p)| {
            frame::encode(&Frame::Request(Request {
                id: i as u64,
                deadline_ms: 0,
                want_explain: false,
                payload: p.clone(),
            }))
        })
        .collect();
    let parsed: Vec<InvestigativeAction> = scene
        .payloads
        .iter()
        .map(|p| {
            ActionSpec::from_json_line(std::str::from_utf8(p).expect("payloads are UTF-8"))
                .and_then(|s| s.to_action())
                .expect("payloads parse")
        })
        .collect();

    // The server's request path, one request at a time: decode, parse,
    // hand-off to a one-worker service, verdict line, the audit sinks
    // when the workload has them, encode.
    let service = ComplianceService::start(service_config());
    if scene.warm {
        for action in &scene.actions {
            service
                .submit(action.clone())
                .map_err(|e| io::Error::other(e.to_string()))?
                .wait();
        }
    }
    let (journal, _) = Journal::open(&ctx.work.join("journal-probe"), JournalConfig::default())
        .map_err(io::Error::other)?;
    let ring = SpanRing::with_capacity(1024);
    ring.set_enabled(true);
    let mut decoder = StreamDecoder::new(MAX_FRAME);
    let count = PIPELINE.min(frames.len());
    for f in &frames[..count] {
        decoder.extend(f);
    }
    let mut mismatched = 0;
    for (i, expected) in parsed[..count].iter().enumerate() {
        let id = i as u64;
        let root = tracer.open("server.request", id, None);
        let request = tracer.time("wire.decode", id, Some(root), 1, || decoder.next_frame());
        let Ok(Some(Frame::Request(request))) = request else {
            return Err(io::Error::other("in-process decode failed"));
        };
        let action = tracer.time("spec.parse", id, Some(root), 1, || {
            ActionSpec::from_json_line(std::str::from_utf8(&request.payload).expect("UTF-8"))
                .and_then(|s| s.to_action())
        });
        let action = action.map_err(|e| io::Error::other(e.to_string()))?;
        let response = tracer.time("service.handoff", id, Some(root), 1, || {
            service.submit(action).map(Ticket::wait)
        });
        let response = response.map_err(|e| io::Error::other(e.to_string()))?;
        let assessment = response
            .outcome
            .assessment()
            .ok_or_else(|| io::Error::other("in-process service did not assess"))?
            .clone();
        let line = tracer.time("engine.verdict_line", id, Some(root), 1, || {
            assessment.verdict_line()
        });
        mismatched += usize::from(line != engine.assess(expected).verdict_line());
        if scene.audited {
            let json = tracer.time("engine.explain", id, Some(root), 1, || {
                assessment.provenance().to_json()
            });
            black_box(json);
            tracer.time("obs.span_pair", id, Some(root), 1, || {
                let span = obs::Span {
                    trace: response.trace,
                    stage: Stage::Queue,
                    start_us: 0,
                    dur_us: 1,
                    detail: 0,
                };
                ring.record_pair(
                    span,
                    obs::Span {
                        stage: Stage::Engine,
                        ..span
                    },
                );
            });
            let appended = tracer.time("journal.append", id, Some(root), 1, || {
                journal.append(RecordData {
                    trace: response.trace,
                    at_us: journal::now_us(),
                    status: Status::Ok.as_byte(),
                    request: request.payload.clone(),
                    verdict: line.clone().into_bytes(),
                })
            });
            appended.map_err(io::Error::other)?;
        }
        let bytes = tracer.time("wire.encode", id, Some(root), 1, || {
            frame::encode(&Frame::Response(Response {
                id,
                status: Status::Ok,
                queue_wait_us: 0,
                total_us: 0,
                explain: None,
                payload: line.into_bytes(),
            }))
        });
        black_box(bytes);
        tracer.close(root);
    }
    ops += count as u64;
    books.check(mismatched == 0, || {
        format!("in-process request path: {mismatched} verdicts differ from the engine's")
    });
    let stage_names: &[&str] = if scene.audited {
        &[
            "wire.decode",
            "spec.parse",
            "service.handoff",
            "engine.verdict_line",
            "engine.explain",
            "obs.span_pair",
            "journal.append",
            "wire.encode",
        ]
    } else {
        &[
            "wire.decode",
            "spec.parse",
            "service.handoff",
            "engine.verdict_line",
            "wire.encode",
        ]
    };
    drop(service);

    // Small operations, timed in chunks on the workload's inputs.
    let mut big = Vec::new();
    for f in frames.iter().take(OPS) {
        big.extend_from_slice(f);
    }
    let mut decoder = StreamDecoder::new(MAX_FRAME);
    decoder.extend(&big);
    let mut left = frames.len().min(OPS);
    while left > 0 {
        let n = left.min(CHUNK);
        let start = Instant::now();
        for _ in 0..n {
            black_box(decoder.next_frame().map_err(io::Error::other)?);
        }
        tracer.span(
            "wire.decode.chunk",
            0,
            None,
            start,
            Instant::now(),
            n as u64,
        );
        left -= n;
        ops += n as u64;
    }
    let verdicts: Vec<Arc<LegalAssessment>> = scene
        .actions
        .iter()
        .map(|a| Arc::new(engine.assess(a)))
        .collect();
    let lines: Vec<String> = verdicts.iter().map(|a| a.verdict_line()).collect();
    ops += chunked(tracer, "wire.encode.chunk", &lines, |line| {
        black_box(frame::encode(&Frame::Response(Response {
            id: 7,
            status: Status::Ok,
            queue_wait_us: 0,
            total_us: 0,
            explain: None,
            payload: line.clone().into_bytes(),
        })));
    });
    ops += chunked(tracer, "spec.parse.chunk", &scene.payloads, |p| {
        black_box(
            ActionSpec::from_json_line(std::str::from_utf8(p).expect("UTF-8"))
                .and_then(|s| s.to_action())
                .ok(),
        );
    });
    ops += chunked(tracer, "batch.factkey", &scene.actions, |a| {
        black_box(FactKey::of(a));
    });
    let cache = VerdictCache::new();
    let keys: Vec<FactKey> = scene.actions.iter().map(FactKey::of).collect();
    for a in &scene.actions {
        cache.assess(&engine, a);
    }
    ops += chunked(tracer, "batch.cache_hit", &keys, |k| {
        black_box(cache.get(k));
    });
    ops += chunked(tracer, "engine.assess", &scene.actions, |a| {
        black_box(engine.assess(a));
    });
    ops += chunked(tracer, "engine.verdict_line.chunk", &verdicts, |a| {
        black_box(a.verdict_line());
    });
    ops += chunked(tracer, "engine.explain.chunk", &verdicts, |a| {
        black_box(a.provenance().to_json());
    });
    ops += chunked(tracer, "obs.span_pair.chunk", &scene.actions, |_| {
        let span = obs::Span {
            trace: TraceId::mint(),
            stage: Stage::Queue,
            start_us: 0,
            dur_us: 1,
            detail: 0,
        };
        ring.record_pair(
            span,
            obs::Span {
                stage: Stage::Engine,
                ..span
            },
        );
    });

    // The workload's hit rate: its request stream through a cache in
    // the state the server's is in when the measured phase starts.
    let stream_cache = VerdictCache::new();
    if scene.warm {
        for a in &scene.actions {
            stream_cache.assess(&engine, a);
        }
    }
    let before = stream_cache.stats();
    for a in &parsed {
        stream_cache.assess(&engine, a);
    }
    let after = stream_cache.stats();
    let hits = (after.hits - before.hits) as f64;
    let hit_rate = hits / (hits + (after.misses - before.misses) as f64);
    ops += parsed.len() as u64;

    // The journal: appends under group commit, durable appends, and a
    // strict scan of what was written.
    let (appends, _) = Journal::open(&ctx.work.join("journal-append"), JournalConfig::default())
        .map_err(io::Error::other)?;
    let records: Vec<RecordData> = scene
        .payloads
        .iter()
        .zip(parsed.iter())
        .take(OPS)
        .map(|(p, a)| RecordData {
            trace: TraceId::mint(),
            at_us: journal::now_us(),
            status: Status::Ok.as_byte(),
            request: p.clone(),
            verdict: engine.assess(a).verdict_line().into_bytes(),
        })
        .collect();
    let mut failed_appends = 0;
    ops += chunked(tracer, "journal.append.chunk", &records, |r| {
        failed_appends += usize::from(appends.append(r.clone()).is_err());
    });
    appends.close().map_err(io::Error::other)?;
    let started = Instant::now();
    for r in records.iter().cycle().take(DURABLE) {
        let seq = journal.append(r.clone()).map_err(io::Error::other)?;
        journal.wait_durable(seq).map_err(io::Error::other)?;
    }
    let durable_rps = DURABLE as f64 / started.elapsed().as_secs_f64();
    tracer.span(
        "journal.durable",
        0,
        None,
        started,
        Instant::now(),
        DURABLE as u64,
    );
    ops += DURABLE as u64;
    journal.close().map_err(io::Error::other)?;
    let mut scans = Vec::new();
    for round in 0..TOOL_RUNS as u64 {
        let start = Instant::now();
        let mut reader = JournalReader::open(&ctx.work.join("journal-append"), Mode::Strict)
            .map_err(io::Error::other)?;
        let mut n = 0u64;
        while reader.next_record().map_err(io::Error::other)?.is_some() {
            n += 1;
        }
        tracer.span("journal.scan", round, None, start, Instant::now(), n);
        scans.push(n as f64 / start.elapsed().as_secs_f64());
        books.check(n == OPS as u64, || {
            format!("journal scan read {n} of {OPS} records")
        });
        ops += n;
    }
    books.check(failed_appends == 0, || {
        format!("{failed_appends} journal appends failed")
    });

    // The audit tools on that journal: strict replay verify, and
    // compaction of copies of it.
    let appended = ctx.work.join("journal-append");
    let bytes_per_record = dir_bytes(&appended)? as f64 / OPS as f64;
    let dir = appended.display().to_string();
    let mut verifies = Vec::new();
    let mut compacts = Vec::new();
    for k in 0..TOOL_RUNS {
        let wall = workloads::audit(
            books,
            ctx,
            &format!("probe verify {k}"),
            &["replay", &dir, "--verify"],
        )?;
        verifies.push(OPS as f64 / wall.as_secs_f64());
        let copy = ctx.work.join(format!("journal-compact-{k}"));
        copy_dir(&appended, &copy)?;
        let copy = copy.display().to_string();
        let wall = workloads::audit(
            books,
            ctx,
            &format!("probe compact {k}"),
            &["journal", "compact", &copy],
        )?;
        compacts.push(OPS as f64 / wall.as_secs_f64());
    }

    // The planner on the workload's plan problem, and one
    // frontier-sized batch call of all-hits at the default thread count.
    let mut parses = Vec::new();
    let mut problem = None;
    for k in 0..PARSES {
        let start = Instant::now();
        problem = Some(
            parse_problem(scene.plan.as_bytes()).map_err(|e| io::Error::other(format!("{e:?}")))?,
        );
        tracer.span("planner.parse", k as u64, None, start, Instant::now(), 1);
        parses.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let problem = problem.expect("parsed at least once");
    let planner = Planner::new();
    let cold = planner
        .solve(&problem)
        .map_err(|e| io::Error::other(e.to_string()))?;
    // The plan must be lawful step by step and as cheap as an
    // exhaustive search finds possible.
    match plancheck::reference(&scene.plan, &engine) {
        Ok(reference) => books.check(cold.render() == reference.render, || {
            "the planner's plan differs from the checked reference plan".into()
        }),
        Err(e) => books.check(false, || e),
    }
    let nodes = cold.stats().nodes_expanded;
    let candidates = cold.stats().candidates_evaluated;
    let mut per_expansion = Vec::new();
    for k in 0..SOLVES {
        let start = Instant::now();
        let warm = planner
            .solve(&problem)
            .map_err(|e| io::Error::other(e.to_string()))?;
        tracer.span(
            "planner.solve",
            k as u64,
            None,
            start,
            Instant::now(),
            warm.stats().nodes_expanded,
        );
        per_expansion
            .push(warm.stats().wall.as_secs_f64() * 1e6 / warm.stats().nodes_expanded as f64);
        books.check(warm.render() == cold.render(), || {
            "warm and cold plans differ".into()
        });
    }
    let mut frontier = Vec::new();
    for item in &problem.items {
        for variant in item
            .variants(&problem.routes)
            .map_err(|e| io::Error::other(e.to_string()))?
        {
            frontier.push(variant.action);
        }
    }
    let assessor = BatchAssessor::new();
    assessor.assess_all(&frontier);
    let mut calls = Vec::new();
    for k in 0..FRONTIER_CALLS {
        let start = Instant::now();
        black_box(assessor.assess_all(&frontier));
        tracer.span("batch.assess_all", k as u64, None, start, Instant::now(), 1);
        calls.push(start.elapsed().as_secs_f64() * 1e6);
    }
    ops += (PARSES + 1 + SOLVES + FRONTIER_CALLS) as u64;
    books.phase("layer probes", ops, 0, "");

    // From the drain report of the server that ran the assess phase.
    let wire = server::report_line(e2e.report, "wire metrics: ").unwrap_or("");
    let num = |key: &str| server::json_number(wire, key).unwrap_or(f64::NAN);
    let frames_out = num("frames_out");

    tracer.write(&ctx.work.with_extension("spans.jsonl"))?;
    eprintln!(
        "traced: {} spans written to {}",
        tracer.spans.len(),
        ctx.work.with_extension("spans.jsonl").display()
    );
    let self_ns = tracer.per_op_self_ns();
    let per_op = |name: &str| self_ns.get(name).map_or(f64::NAN, |v| median(v));
    let stages_us: f64 = stage_names.iter().map(|n| per_op(n)).sum::<f64>() / 1e3;
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    Ok(vec![
        m("wire.decode_ns", per_op("wire.decode.chunk"), "ns"),
        m("wire.encode_ns", per_op("wire.encode.chunk"), "ns"),
        m("wire.wakeups_per_req", num("wakeups") / frames_out, "count"),
        m(
            "wire.frames_per_writev",
            frames_out / num("writev_batches"),
            "count",
        ),
        m("wire.residual_us", e2e.assess_p50_us - stages_us, "us"),
        m("spec.parse_ns", per_op("spec.parse.chunk"), "ns"),
        m("batch.factkey_ns", per_op("batch.factkey"), "ns"),
        m("batch.cache_hit_ns", per_op("batch.cache_hit"), "ns"),
        m("batch.hit_rate", hit_rate, "ratio"),
        m("batch.assess_all_call_us", median(&calls), "us"),
        m("engine.assess_ns", per_op("engine.assess"), "ns"),
        m(
            "engine.verdict_line_ns",
            per_op("engine.verdict_line.chunk"),
            "ns",
        ),
        m("engine.explain_ns", per_op("engine.explain.chunk"), "ns"),
        m("service.handoff_us", per_op("service.handoff") / 1e3, "us"),
        m(
            "service.queue_wait_us",
            truncated_median(e2e.queue_wait_us),
            "us",
        ),
        m("obs.span_pair_ns", per_op("obs.span_pair.chunk"), "ns"),
        m("journal.append_ns", per_op("journal.append.chunk"), "ns"),
        m("journal.durable_rps", durable_rps, "1/s"),
        m("journal.scan_rps", median(&scans), "1/s"),
        m("journal.bytes_per_record", bytes_per_record, "B"),
        m("journal.verify_rps", median(&verifies), "1/s"),
        m("journal.compact_rps", median(&compacts), "1/s"),
        m("planner.nodes_expanded", nodes as f64, "count"),
        m(
            "planner.candidates_per_node",
            candidates as f64 / nodes as f64,
            "count",
        ),
        m("planner.us_per_expansion", median(&per_expansion), "us"),
        m("planner.parse_us", median(&parses), "us"),
        m(
            "trace.overhead_us",
            e2e.traced_p50_us - e2e.untraced_p50_us,
            "us",
        ),
    ])
}
