//! The three workloads. Each runs several server instances one after
//! another: every instance is started (the median start is `setup_s`),
//! serves an equal share of the measured phase, and is stopped and
//! checked. Every answer is checked against a computation made apart
//! from the serving path. With `--trace 1` each instance serves its
//! share untraced and then traced, and the layers are probed in-process
//! afterwards (see `layers.rs`).

use crate::gen::{self, Fact, Rng, Walk};
use crate::layers::{self, Scene};
use crate::load::{self, Expect, OpenLoopRun};
use crate::plancheck;
use crate::server::{self, Server};
use crate::stats::{median, quantile, Metric};
use crate::trace::Tracer;
use crate::{Books, Ctx};
use forensic_law::prelude::*;
use journal::{JournalReader, Mode};
use std::collections::{HashMap, HashSet};
use std::io;
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};
use wire::frame::Status;
use wire::WireClient;

/// Server instances per run. Which vCPUs an instance's threads end up
/// sharing is settled per instance and changes its figures by 10–20%,
/// so each run measures several and reports medians over all of them.
const INSTANCES: usize = 5;
/// Fixed-rate phases are measured in windows of this many seconds.
const WINDOW_S: f64 = 0.5;
/// A fixed-rate window fails when more than this much offered load (in
/// seconds) is still outstanding after its last send.
const BACKLOG_LIMIT_S: f64 = 0.2;
/// Distinct facts in the `serve_hot` pool.
const HOT_POOL: usize = 320;
/// The fixed open-loop rate of `serve_hot`, requests/s.
const HOT_RATE: f64 = 10_000.0;
/// `serve_hot`'s throughput: closed-loop windows of this many requests
/// at the server's default per-connection in-flight cap, per instance.
const SATURATION_WINDOWS: usize = 2;
const SATURATION_REQUESTS: usize = 40_000;
const IN_FLIGHT: usize = 64;
/// The fixed open-loop rate of `serve_audited`, requests/s.
const AUDIT_RATE: f64 = 3_000.0;
/// Refires of each `serve_audited` session journal.
const REFIRES: usize = 2;

fn fail(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

/// A request stream: payloads plus, per request, the index of its fact
/// in a table of expected verdicts.
struct Stream {
    payloads: Vec<Vec<u8>>,
    fact: Vec<u32>,
}

/// `n` requests drawn from `pool` by `rng`, each with a unique
/// `describe` so only the fact key, never the bytes, repeats.
fn pool_stream(rng: &mut Rng, tag: &str, pool: &[Fact], n: usize) -> Stream {
    let mut payloads = Vec::with_capacity(n);
    let mut fact = Vec::with_capacity(n);
    for i in 0..n {
        let p = rng.below(pool.len() as u64) as usize;
        payloads.push(pool[p].json(&format!("{tag}-{i}")).into_bytes());
        fact.push(p as u32);
    }
    Stream { payloads, fact }
}

/// The share of a `total`-request stream that instance `i` serves.
fn share_of(i: usize, total: usize) -> Range<usize> {
    i * total / INSTANCES..(i + 1) * total / INSTANCES
}

fn verdict_table(engine: &ComplianceEngine, facts: &[Fact]) -> Vec<Vec<u8>> {
    facts
        .iter()
        .map(|f| engine.assess(&f.action()).verdict_line().into_bytes())
        .collect()
}

fn latencies_us(run: &OpenLoopRun) -> Vec<f64> {
    run.latency_ns.iter().map(|&l| l as f64 / 1e3).collect()
}

/// Books one open-loop window with the generator's lateness, and checks
/// its answers.
fn book_open_loop(books: &mut Books, name: &str, run: &OpenLoopRun) {
    let late: Vec<f64> = run.late_ns.iter().map(|&l| l as f64 / 1e3).collect();
    let failed = (run.sent - run.answered + run.not_ok) as u64;
    books.phase(
        name,
        run.sent as u64,
        failed,
        &format!(
            "; generator late p50 {:.1} us, p99 {:.1} us, max {:.1} us; {} outstanding after the last send",
            quantile(&late, 0.5),
            quantile(&late, 0.99),
            quantile(&late, 1.0),
            run.backlog_at_last_send
        ),
    );
    books.check(run.answered == run.sent && run.duplicate == 0, || {
        format!(
            "{name}: {} sent, {} answered, {} duplicate answers",
            run.sent, run.answered, run.duplicate
        )
    });
    books.check(run.wrong == 0, || {
        format!("{name}: {} verdicts differ from the engine's", run.wrong)
    });
    books.check(run.inconsistent == 0, || {
        format!(
            "{name}: {} requests sharing facts got different verdicts",
            run.inconsistent
        )
    });
}

/// Per window of a fixed-rate phase: the p50 latency and the server CPU
/// per request, µs.
type Window = (f64, f64);

/// The median window p50 and the median window CPU per request.
fn medians(windows: &[Window]) -> Window {
    let p50: Vec<f64> = windows.iter().map(|w| w.0).collect();
    let cpu: Vec<f64> = windows.iter().map(|w| w.1).collect();
    (median(&p50), median(&cpu))
}

/// Runs the requests `range` of `stream` open-loop at `rate` as
/// consecutive windows, books and checks each, and appends each window's
/// figures to `windows` and every response's queue-wait field to
/// `queue_wait_us`. Fails loudly, reporting no latency, if the backlog
/// grows within a window. Returns the requests sent.
#[allow(clippy::too_many_arguments)]
fn fixed_phase(
    books: &mut Books,
    name: &str,
    server: &Server,
    stream: &Stream,
    range: Range<usize>,
    verdicts: &[Vec<u8>],
    rate: f64,
    windows: &mut Vec<Window>,
    queue_wait_us: &mut Vec<u64>,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<u64> {
    let per_window = ((rate * WINDOW_S) as usize).max(1);
    for from in range.clone().step_by(per_window) {
        let to = (from + per_window).min(range.end);
        let expect = Expect {
            verdicts,
            fact: &stream.fact[from..to],
        };
        let cpu0 = server.cpu_seconds()?;
        let run = load::open_loop(
            server.addr,
            &stream.payloads[from..to],
            from as u64,
            rate,
            &expect,
            tracer.as_deref_mut(),
        )?;
        let cpu = server.cpu_seconds()? - cpu0;
        let label = format!("{name} requests {from}..{to}");
        book_open_loop(books, &label, &run);
        if run.backlog_at_last_send as f64 > rate * BACKLOG_LIMIT_S {
            return Err(fail(format!(
                "{label}: the backlog grew at {rate} req/s ({} outstanding after the last send); \
                 no latency is reported",
                run.backlog_at_last_send
            )));
        }
        let lat = latencies_us(&run);
        let window = (median(&lat), cpu * 1e6 / run.answered as f64);
        eprintln!(
            "{label} at {rate} req/s: p10 {:.1}, p50 {:.1}, p90 {:.1}, p99 {:.1} us; \
             server CPU {:.1} us per request",
            quantile(&lat, 0.1),
            window.0,
            quantile(&lat, 0.9),
            quantile(&lat, 0.99),
            window.1,
        );
        windows.push(window);
        queue_wait_us.extend_from_slice(&run.queue_wait_us);
    }
    Ok(range.len() as u64)
}

/// Checks the drain report: no protocol errors, and exactly `requests`
/// request frames in and as many response frames out.
fn check_drain(books: &mut Books, name: &str, report: &str, requests: u64) {
    let wire = server::report_line(report, "wire metrics: ").unwrap_or("");
    let errors = server::json_number(wire, "protocol_errors");
    let frames_in = server::json_number(wire, "frames_in");
    let frames_out = server::json_number(wire, "frames_out");
    books.check(errors == Some(0.0), || {
        format!("{name}: drain report {wire:?}")
    });
    books.check(
        frames_in == Some(requests as f64) && frames_out == frames_in,
        || format!("{name}: {requests} requests sent but the drain report says {wire:?}"),
    );
}

fn check_table1(books: &mut Books, engine: &ComplianceEngine) {
    if let Err(e) = gen::check_table1(engine) {
        books.check(false, || e);
    }
}

/// What one server instance did.
struct Instance {
    requests: u64,
    peak_rss_mib: f64,
    report: String,
}

/// Set-up-only cycles (start, prepare, stop) before each instance, so
/// `setup_s` is a median over `INSTANCES * (1 + SETUP_ONLY)` starts.
const SETUP_ONLY: usize = 2;

/// Runs `INSTANCES` servers one after another. Each is started with
/// `extra(i)` options and `prepare`d (together timed as its set-up),
/// then `measure`d, then stopped; its drain report must account for
/// exactly the requests both closures say they sent. Set-up-only cycles
/// get option indices from `INSTANCES` up. Returns the instances and
/// every set-up time.
fn run_instances(
    ctx: &Ctx,
    books: &mut Books,
    extra: &dyn Fn(usize) -> Vec<String>,
    prepare: &mut dyn FnMut(&mut Books, &Server) -> io::Result<u64>,
    measure: &mut dyn FnMut(&mut Books, usize, &Server) -> io::Result<u64>,
) -> io::Result<(Vec<Instance>, Vec<f64>)> {
    let mut instances = Vec::with_capacity(INSTANCES);
    let mut setups = Vec::new();
    let mut start = |books: &mut Books, options: usize| -> io::Result<(Server, u64)> {
        let args = extra(options);
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let t0 = Instant::now();
        let server = Server::start(&ctx.bin, &args)?;
        let sent = prepare(books, &server)?;
        setups.push(t0.elapsed().as_secs_f64());
        Ok((server, sent))
    };
    for i in 0..INSTANCES {
        for k in 0..SETUP_ONLY {
            let (server, sent) = start(books, INSTANCES + i * SETUP_ONLY + k)?;
            let report = server.stop()?;
            check_drain(books, "set-up", &report, sent);
        }
        let (server, mut requests) = start(books, i)?;
        requests += measure(books, i, &server)?;
        let peak_rss_mib = server.peak_rss_mib()?;
        let report = server.stop()?;
        check_drain(books, &format!("server {i}"), &report, requests);
        instances.push(Instance {
            requests,
            peak_rss_mib,
            report,
        });
    }
    Ok((instances, setups))
}

/// `setup_s`, the median over every start, and `peak_rss_mb`, the
/// median over the instances.
fn instance_metrics(instances: &[Instance], setups: &[f64]) -> [Metric; 2] {
    let peak: Vec<f64> = instances.iter().map(|i| i.peak_rss_mib).collect();
    eprintln!(
        "set-up: median {:.2} ms over {} server starts",
        median(setups) * 1e3,
        setups.len()
    );
    [
        Metric {
            name: "setup_s",
            value: median(setups),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: median(&peak),
            unit: "MiB",
        },
    ]
}

pub fn serve_hot(ctx: &Ctx, books: &mut Books) -> io::Result<Vec<Metric>> {
    let engine = ComplianceEngine::new();
    check_table1(books, &engine);
    let (pool, rows) = gen::hot_pool(ctx.seed, HOT_POOL);
    let verdicts = verdict_table(&engine, &pool);
    for (f, row) in pool.iter().zip(&rows) {
        if let Some((row, needs)) = row {
            let verdict = engine.assess(&f.action()).verdict();
            books.check(verdict.needs_process() == *needs, || {
                format!("Table 1 row {row} would get {verdict} over the wire")
            });
        }
    }
    let warm: Vec<Vec<u8>> = pool
        .iter()
        .enumerate()
        .map(|(i, f)| f.json(&format!("warm-{i}")).into_bytes())
        .collect();
    let mut rng = Rng::new(ctx.seed ^ 0x484f_5452);
    let share = if ctx.trace { 0.25 } else { 0.6 };
    let total = (HOT_RATE * ctx.seconds * share) as usize;
    let stream = pool_stream(&mut rng, "hot", &pool, total);

    let mut windows = Vec::new();
    let mut traced_windows = Vec::new();
    let mut queue_wait = Vec::new();
    let mut tracer = Tracer::new();
    let mut saturation = Vec::new();
    let (instances, setups) = run_instances(
        ctx,
        books,
        &|_| Vec::new(),
        // Set-up includes warming the cache with every pool fact.
        &mut |books, server| {
            let answers = load::pipelined(server.addr, &warm, 0, IN_FLIGHT)?;
            let bad = answers
                .iter()
                .zip(&verdicts)
                .filter(|((status, got), want)| *status != Status::Ok || got != *want)
                .count();
            books.phase("warm-up", answers.len() as u64, bad as u64, "");
            books.check(bad == 0, || {
                format!("warm-up: {bad} answers differ from the engine's verdicts")
            });
            Ok(answers.len() as u64)
        },
        &mut |books, i, server| {
            let range = share_of(i, total);
            let mut sent = fixed_phase(
                books,
                "fixed-rate",
                server,
                &stream,
                range.clone(),
                &verdicts,
                HOT_RATE,
                &mut windows,
                &mut queue_wait,
                None,
            )?;
            if ctx.trace {
                sent += fixed_phase(
                    books,
                    "fixed-rate traced",
                    server,
                    &stream,
                    range,
                    &verdicts,
                    HOT_RATE,
                    &mut traced_windows,
                    &mut Vec::new(),
                    Some(&mut tracer),
                )?;
                return Ok(sent);
            }
            // Saturation: closed-loop windows at the in-flight cap, so
            // the backlog cannot grow.
            for w in 0..SATURATION_WINDOWS {
                let batch = pool_stream(&mut rng, "sat", &pool, SATURATION_REQUESTS);
                let began = Instant::now();
                let answers = load::pipelined(server.addr, &batch.payloads, 0, IN_FLIGHT)?;
                let rate = answers.len() as f64 / began.elapsed().as_secs_f64();
                let not_ok = answers.iter().filter(|(s, _)| *s != Status::Ok).count();
                let wrong = answers
                    .iter()
                    .zip(&batch.fact)
                    .filter(|((_, got), &f)| *got != verdicts[f as usize])
                    .count();
                books.phase(
                    &format!("saturation {i}.{w}"),
                    answers.len() as u64,
                    not_ok as u64,
                    &format!("; {rate:.0} req/s"),
                );
                books.check(wrong == 0, || {
                    format!("saturation {i}.{w}: {wrong} answers differ from the engine's verdicts")
                });
                sent += answers.len() as u64;
                saturation.push(rate);
            }
            Ok(sent)
        },
    )?;
    let (p50, cpu_per_req) = medians(&windows);
    eprintln!(
        "fixed-rate: median window p50 {p50:.1} us, server CPU {cpu_per_req:.1} us per request"
    );

    if ctx.trace {
        let scene = Scene {
            payloads: stream.payloads,
            actions: pool.iter().map(|f| f.action()).collect(),
            warm: true,
            audited: false,
            plan: gen::plan_problem(ctx.seed),
        };
        let e2e = layers::EndToEnd {
            untraced_p50_us: p50,
            traced_p50_us: medians(&traced_windows).0,
            assess_p50_us: p50,
            queue_wait_us: &queue_wait,
            report: &instances[INSTANCES - 1].report,
        };
        return layers::run(ctx, books, &mut tracer, &scene, &e2e);
    }

    let saturation = median(&saturation);
    eprintln!("saturation: median window {saturation:.0} req/s at {IN_FLIGHT} in flight");
    let [setup, peak] = instance_metrics(&instances, &setups);
    Ok(vec![
        setup,
        Metric {
            name: "latency_p50_us",
            value: p50,
            unit: "us",
        },
        Metric {
            name: "server_cpu_us_per_req",
            value: cpu_per_req,
            unit: "us",
        },
        peak,
        Metric {
            name: "throughput_rps",
            value: saturation,
            unit: "1/s",
        },
    ])
}

/// The filesystem type of the mount holding `path`, from mountinfo.
fn filesystem_of(path: &Path) -> String {
    let (Ok(abs), Ok(info)) = (
        std::fs::canonicalize(path),
        std::fs::read_to_string("/proc/self/mountinfo"),
    ) else {
        return "unknown".into();
    };
    let mut best = (0, "unknown".to_string());
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(dash), Some(mount)) = (fields.iter().position(|f| *f == "-"), fields.get(4))
        else {
            continue;
        };
        if abs.starts_with(mount) && mount.len() >= best.0 {
            best = (
                mount.len(),
                fields.get(dash + 1).unwrap_or(&"?").to_string(),
            );
        }
    }
    best.1
}

/// Runs one audit tool invocation, booked as one operation, and returns
/// its wall time. The tool must succeed, and a replay must report zero
/// divergences.
pub fn audit(books: &mut Books, ctx: &Ctx, name: &str, args: &[&str]) -> io::Result<Duration> {
    let (wall, ok, stderr) = server::run_tool(&ctx.bin, args)?;
    books.phase(
        name,
        1,
        u64::from(!ok),
        &format!("; {:.1} ms", wall.as_secs_f64() * 1e3),
    );
    books.check(ok, || format!("{name} failed: {}", stderr.trim()));
    if args[0] == "replay" {
        books.check(stderr.contains(" 0 divergence(s)"), || {
            format!("{name} reported divergences: {}", stderr.trim())
        });
    }
    Ok(wall)
}

/// Whether a journaled request is one this run sent (requests carry
/// their index in `describe`) and its verdict the one the engine gives.
fn record_matches(request: &[u8], verdict: &[u8], stream: &Stream, verdicts: &[Vec<u8>]) -> bool {
    let text = String::from_utf8_lossy(request);
    let Some(i) = text
        .rsplit_once("\"audit-")
        .and_then(|(_, rest)| rest.split('"').next())
        .and_then(|i| i.parse::<usize>().ok())
    else {
        return false;
    };
    stream
        .payloads
        .get(i)
        .is_some_and(|p| p.as_slice() == request)
        && verdicts[stream.fact[i] as usize] == verdict
}

pub fn serve_audited(ctx: &Ctx, books: &mut Books) -> io::Result<Vec<Metric>> {
    let engine = ComplianceEngine::new();
    check_table1(books, &engine);
    let journal_of = |i: usize| ctx.work.join(format!("journal-{i}"));
    let explain_of = |i: usize| ctx.work.join(format!("explain-{i}.jsonl"));

    // The request stream: Table 1's wire-expressible rows first, then a
    // seeded walk of the whole fact space (every eighth request a
    // repeat). Facts are numbered in order of first appearance.
    let share = if ctx.trace { 0.25 } else { 0.6 };
    let total = (AUDIT_RATE * ctx.seconds * share) as usize;
    let rows: Vec<(usize, bool, Fact)> = gen::table1_rows()
        .into_iter()
        .filter_map(|(row, needs, fact)| fact.map(|f| (row, needs, f)))
        .collect();
    let mut facts: Vec<Fact> = Vec::new();
    let mut number: HashMap<Fact, u32> = HashMap::new();
    let mut stream = Stream {
        payloads: Vec::with_capacity(total),
        fact: Vec::with_capacity(total),
    };
    let mut walk = Walk::new(ctx.seed);
    for i in 0..total {
        let f = match rows.get(i) {
            Some(&(_, _, f)) => f,
            None => walk.next_fact(),
        };
        let k = *number.entry(f).or_insert_with(|| {
            facts.push(f);
            facts.len() as u32 - 1
        });
        stream
            .payloads
            .push(f.json(&format!("audit-{i}")).into_bytes());
        stream.fact.push(k);
    }
    let verdicts = verdict_table(&engine, &facts);
    for &(row, needs, f) in &rows {
        let verdict = engine.assess(&f.action()).verdict();
        books.check(verdict.needs_process() == needs, || {
            format!("Table 1 row {row} would get {verdict} over the wire")
        });
    }
    eprintln!(
        "audited stream: {total} requests over {} distinct facts; journal on {}",
        facts.len(),
        filesystem_of(&ctx.work)
    );

    // Each instance is a cold server with a fresh journal and explain
    // file, serving its share of the walk.
    let mut windows = Vec::new();
    let mut traced_windows = Vec::new();
    let mut queue_wait = Vec::new();
    let mut tracer = Tracer::new();
    let (instances, setups) = run_instances(
        ctx,
        books,
        &|i| {
            vec![
                "--journal".into(),
                journal_of(i).display().to_string(),
                "--explain".into(),
                explain_of(i).display().to_string(),
            ]
        },
        &mut |_, _| Ok(0),
        &mut |books, i, server| {
            let range = share_of(i, total);
            let mut sent = fixed_phase(
                books,
                "fixed-rate",
                server,
                &stream,
                range.clone(),
                &verdicts,
                AUDIT_RATE,
                &mut windows,
                &mut queue_wait,
                None,
            )?;
            if ctx.trace {
                sent += fixed_phase(
                    books,
                    "fixed-rate traced",
                    server,
                    &stream,
                    range,
                    &verdicts,
                    AUDIT_RATE,
                    &mut traced_windows,
                    &mut Vec::new(),
                    Some(&mut tracer),
                )?;
            }
            Ok(sent)
        },
    )?;
    let (p50, cpu_per_req) = medians(&windows);
    eprintln!(
        "fixed-rate: median window p50 {p50:.1} us, server CPU {cpu_per_req:.1} us per request"
    );

    // Each journal holds one checksum-clean record per answered
    // request, in contiguous sequence order, with the verdict the engine
    // gives; each explain file one line per answer.
    for (i, instance) in instances.iter().enumerate() {
        let answered = instance.requests;
        books.check(
            server::report_line(&instance.report, "journal durable through seq ")
                .is_some_and(|seq| seq.trim() == answered.to_string()),
            || format!("server {i}: journal not durable through every answer"),
        );
        let mut reader =
            JournalReader::open(&journal_of(i), Mode::Strict).map_err(io::Error::other)?;
        let (mut records, mut contiguous, mut matching) = (0u64, true, true);
        while let Some(record) = reader.next_record().map_err(io::Error::other)? {
            records += 1;
            contiguous &= record.seq == records;
            matching &= record.status == Status::Ok.as_byte()
                && record_matches(&record.request, &record.verdict, &stream, &verdicts);
        }
        books.check(records == answered && contiguous && matching, || {
            format!(
                "journal {i}: {records} records for {answered} answers \
                 (contiguous: {contiguous}, verdicts match: {matching})"
            )
        });
        let explained = std::fs::read_to_string(explain_of(i))?.lines().count() as u64;
        books.check(explained == answered, || {
            format!("explain file {i}: {explained} lines for {answered} answers")
        });
    }

    if ctx.trace {
        let scene = Scene {
            payloads: stream.payloads,
            actions: facts.iter().map(|f| f.action()).collect(),
            warm: false,
            audited: true,
            plan: gen::plan_problem(ctx.seed),
        };
        let e2e = layers::EndToEnd {
            untraced_p50_us: p50,
            traced_p50_us: medians(&traced_windows).0,
            assess_p50_us: p50,
            queue_wait_us: &queue_wait,
            report: &instances[INSTANCES - 1].report,
        };
        return layers::run(ctx, books, &mut tracer, &scene, &e2e);
    }

    // The audit of each session journal: a strict replay verify,
    // max-pacing refires over two connections, each against a fresh
    // cold server, and a compaction that must keep one verdict record per
    // distinct fact tuple the generator sent that instance and still
    // verify strictly.
    let mut refire_rps = Vec::new();
    for (i, instance) in instances.iter().enumerate() {
        let dir = journal_of(i).display().to_string();
        audit(
            books,
            ctx,
            &format!("verify {i}"),
            &["replay", &dir, "--verify"],
        )?;
        for r in 0..REFIRES {
            let target = Server::start(&ctx.bin, &[])?;
            let addr = target.addr.to_string();
            let wall = audit(
                books,
                ctx,
                &format!("refire {i}.{r}"),
                &[
                    "replay", &dir, "--serve", &addr, "--speed", "0", "--conns", "2",
                ],
            )?;
            let report = target.stop()?;
            check_drain(
                books,
                &format!("refire target {i}.{r}"),
                &report,
                instance.requests,
            );
            refire_rps.push(instance.requests as f64 / wall.as_secs_f64());
        }
        audit(
            books,
            ctx,
            &format!("compact {i}"),
            &["journal", "compact", &dir],
        )?;
        let (kept, _) =
            journal::read_all(&journal_of(i), Mode::Strict).map_err(io::Error::other)?;
        let kept = kept
            .iter()
            .filter(|r| r.status == Status::Ok.as_byte())
            .count();
        let distinct = stream.fact[share_of(i, total)]
            .iter()
            .collect::<HashSet<_>>()
            .len();
        books.check(kept == distinct, || {
            format!(
                "compaction {i} kept {kept} verdict records for {distinct} distinct fact tuples"
            )
        });
        audit(
            books,
            ctx,
            &format!("verify compacted {i}"),
            &["replay", &dir, "--verify"],
        )?;
    }
    let refire_rps = median(&refire_rps);
    eprintln!("refire: median {refire_rps:.0} records/s");

    let [setup, peak] = instance_metrics(&instances, &setups);
    Ok(vec![
        setup,
        Metric {
            name: "latency_p50_us",
            value: p50,
            unit: "us",
        },
        Metric {
            name: "server_cpu_us_per_req",
            value: cpu_per_req,
            unit: "us",
        },
        peak,
        Metric {
            name: "throughput_rps",
            value: refire_rps,
            unit: "1/s",
        },
    ])
}

/// Per plan window: p50 latency (µs), server CPU per plan (µs), plans
/// per second.
type PlanWindow = (f64, f64, f64);

/// Closed-loop plan requests on one connection for at least `seconds`
/// (and one plan), booked as one window and checked against the
/// reference rendering. Returns the plans sent.
#[allow(clippy::too_many_arguments)]
fn plan_window(
    books: &mut Books,
    name: &str,
    server: &Server,
    problem: &[u8],
    expected: &[u8],
    seconds: f64,
    windows: &mut Vec<PlanWindow>,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<u64> {
    let client = WireClient::connect(server.addr)?;
    // Plan solves spawn threads that exit, so this counts the whole
    // process's CPU rather than its live threads'.
    let cpu0 = server.process_cpu_seconds()?;
    let began = Instant::now();
    let mut lat = Vec::new();
    let mut failed = 0u64;
    while lat.is_empty() || began.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let response = client
            .plan_roundtrip(problem.to_vec())
            .map_err(io::Error::other)?;
        let (status, answer) = (response.status, response.payload);
        let t1 = Instant::now();
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.span("client.plan", lat.len() as u64, None, t0, t1, 1);
        }
        lat.push((t1 - t0).as_secs_f64() * 1e6);
        failed += u64::from(status != Status::Ok);
        books.check(status == Status::Ok && answer == expected, || {
            format!(
                "{name}: plan answer differs from the reference plan ({status}): {}",
                String::from_utf8_lossy(&answer)
            )
        });
    }
    let wall = began.elapsed().as_secs_f64();
    let cpu = server.process_cpu_seconds()? - cpu0;
    let n = lat.len() as f64;
    let window = (median(&lat), cpu * 1e6 / n, n / wall);
    books.phase(
        name,
        lat.len() as u64,
        failed,
        &format!(
            "; p50 {:.1} us, server CPU {:.1} us per plan, {:.3} plans/s",
            window.0, window.1, window.2
        ),
    );
    windows.push(window);
    Ok(lat.len() as u64)
}

pub fn plan_solve(ctx: &Ctx, books: &mut Books) -> io::Result<Vec<Metric>> {
    let engine = ComplianceEngine::new();
    check_table1(books, &engine);
    let text = gen::plan_problem(ctx.seed);
    let reference = plancheck::reference(&text, &engine).map_err(fail)?;
    eprintln!(
        "plan problem: {} items, optimal cost {} (exhaustive search over {} states)",
        gen::PLAN_ITEMS,
        reference.cost,
        reference.states
    );
    let (problem, expected) = (text.as_bytes(), reference.render.as_bytes());

    // The problem's collect patterns as assess traffic, which the traced
    // run sends so the wire and service layers have samples here too.
    let verdicts = verdict_table(&engine, &reference.facts);
    let mut rng = Rng::new(ctx.seed ^ 0x504c_4153);
    let assess_total = (HOT_RATE * ctx.seconds * 0.15) as usize;
    let assess = pool_stream(&mut rng, "plan-assess", &reference.facts, assess_total);

    let share = if ctx.trace { 0.25 } else { 1.0 };
    let seconds = ctx.seconds * share / INSTANCES as f64;
    let mut windows = Vec::new();
    let mut traced_windows = Vec::new();
    let mut assess_windows = Vec::new();
    let mut queue_wait = Vec::new();
    let mut tracer = Tracer::new();
    let (instances, setups) = run_instances(
        ctx,
        books,
        &|_| Vec::new(),
        // Set-up includes one solve, which warms the cache.
        &mut |books, server| {
            plan_window(
                books,
                "warm-up plan",
                server,
                problem,
                expected,
                0.0,
                &mut Vec::new(),
                None,
            )
        },
        &mut |books, i, server| {
            let mut sent = plan_window(
                books,
                &format!("plans {i}"),
                server,
                problem,
                expected,
                seconds,
                &mut windows,
                None,
            )?;
            if ctx.trace {
                sent += plan_window(
                    books,
                    &format!("plans traced {i}"),
                    server,
                    problem,
                    expected,
                    seconds,
                    &mut traced_windows,
                    Some(&mut tracer),
                )?;
                sent += fixed_phase(
                    books,
                    "assess fixed-rate",
                    server,
                    &assess,
                    share_of(i, assess_total),
                    &verdicts,
                    HOT_RATE,
                    &mut assess_windows,
                    &mut queue_wait,
                    None,
                )?;
            }
            Ok(sent)
        },
    )?;
    let plan_medians = |w: &[PlanWindow]| {
        let of = |f: fn(&PlanWindow) -> f64| median(&w.iter().map(f).collect::<Vec<_>>());
        (of(|w| w.0), of(|w| w.1), of(|w| w.2))
    };
    let (p50, cpu_per_plan, plans_per_s) = plan_medians(&windows);
    eprintln!(
        "plans: median window p50 {p50:.1} us, server CPU {cpu_per_plan:.1} us per plan, \
         {plans_per_s:.3} plans/s"
    );

    if ctx.trace {
        let scene = Scene {
            payloads: assess.payloads,
            actions: reference.facts.iter().map(|f| f.action()).collect(),
            warm: true,
            audited: false,
            plan: text,
        };
        let e2e = layers::EndToEnd {
            untraced_p50_us: p50,
            traced_p50_us: plan_medians(&traced_windows).0,
            assess_p50_us: medians(&assess_windows).0,
            queue_wait_us: &queue_wait,
            report: &instances[INSTANCES - 1].report,
        };
        return layers::run(ctx, books, &mut tracer, &scene, &e2e);
    }

    let [setup, peak] = instance_metrics(&instances, &setups);
    Ok(vec![
        setup,
        Metric {
            name: "latency_p50_us",
            value: p50,
            unit: "us",
        },
        Metric {
            name: "server_cpu_us_per_req",
            value: cpu_per_plan,
            unit: "us",
        },
        peak,
        Metric {
            name: "throughput_rps",
            value: plans_per_s,
            unit: "1/s",
        },
    ])
}
