//! Load from one thread over one connection: an open-loop generator and
//! a window-limited pipelined client.
//! Open-loop requests are timed from when they were due, so a stall also
//! charges the requests it delayed; the generator's own lateness is
//! recorded separately.

use crate::trace::Tracer;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use wire::frame::{self, Frame, Request, Status, StreamDecoder, MAX_FRAME};

/// What each answer is checked against.
pub struct Expect<'a> {
    /// The exact verdict bytes of each distinct fact.
    pub verdicts: &'a [Vec<u8>],
    /// Per request, the index of its fact: requests with the same fact
    /// must get identical verdicts, and that fact's verdict.
    pub fact: &'a [u32],
}

pub struct OpenLoopRun {
    pub sent: usize,
    pub answered: usize,
    /// Responses that were not `ok`.
    pub not_ok: usize,
    /// Answers whose bytes differ from the engine's verdict.
    pub wrong: usize,
    /// Requests sharing facts that got different verdicts.
    pub inconsistent: usize,
    /// Ids answered more than once (or never sent).
    pub duplicate: usize,
    /// Due-to-response latency per request, ns.
    pub latency_ns: Vec<u64>,
    /// Send time minus due time per request, ns.
    pub late_ns: Vec<u64>,
    /// The service's queue-wait field from each response, µs.
    pub queue_wait_us: Vec<u64>,
    /// Requests outstanding when the last one was sent.
    pub backlog_at_last_send: usize,
}

/// Sends `payloads[i]` with id `first_id + i` at `i / rate` seconds
/// after the start, reads every answer and checks it. One thread does
/// both, spinning on a nonblocking socket and yielding the core between
/// polls: on a virtual machine a halted vCPU takes milliseconds to wake,
/// which would otherwise dominate every latency reported here. With a
/// tracer, records a span per request (due to answer) with the
/// client's encode and decode calls as children.
pub fn open_loop(
    addr: SocketAddr,
    payloads: &[Vec<u8>],
    first_id: u64,
    rate: f64,
    expect: &Expect<'_>,
    tracer: Option<&mut Tracer>,
) -> io::Result<OpenLoopRun> {
    let n = payloads.len();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let interval_ns = 1e9 / rate;
    let due =
        |start: Instant, i: usize| start + Duration::from_nanos((i as f64 * interval_ns) as u64);
    let traced = tracer.is_some();

    let mut latency_ns = vec![u64::MAX; n];
    let mut late_ns = vec![0u64; n];
    let mut queue_wait_us = vec![0u64; n];
    let mut first_of_group: Vec<Option<Vec<u8>>> = Vec::new();
    let (mut not_ok, mut wrong, mut inconsistent, mut duplicate) = (0, 0, 0, 0);
    let mut encode_spans: Vec<(Instant, Instant)> = Vec::new();
    let mut decode_spans: Vec<(usize, Instant, Instant)> = Vec::new();
    let mut decoder = StreamDecoder::new(MAX_FRAME);
    let mut buf = vec![0u8; 64 * 1024];
    let mut out: Vec<u8> = Vec::new();
    let mut out_at = 0usize;
    let (mut sent, mut answered) = (0usize, 0usize);
    let mut backlog_at_last_send = 0usize;
    let mut progress_at = Instant::now();
    let start = Instant::now() + Duration::from_millis(1);

    while answered < n {
        let mut busy = false;
        let now = Instant::now();
        while sent < n && due(start, sent) <= now {
            let t0 = Instant::now();
            out.extend_from_slice(&frame::encode(&Frame::Request(Request {
                id: first_id + sent as u64,
                deadline_ms: 0,
                want_explain: false,
                payload: payloads[sent].clone(),
            })));
            if traced {
                encode_spans.push((t0, Instant::now()));
            }
            late_ns[sent] = now.saturating_duration_since(due(start, sent)).as_nanos() as u64;
            sent += 1;
            if sent == n {
                backlog_at_last_send = n - answered;
            }
        }
        while out_at < out.len() {
            match stream.write(&out[out_at..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "server stopped reading",
                    ))
                }
                Ok(k) => out_at += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if out_at == out.len() {
            out.clear();
            out_at = 0;
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("server closed with {} answers missing", n - answered),
                ))
            }
            Ok(got) => {
                busy = true;
                decoder.extend(&buf[..got]);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        loop {
            let t0 = Instant::now();
            let Some(frame) = decoder.next_frame().map_err(io::Error::other)? else {
                break;
            };
            let now = Instant::now();
            let Frame::Response(response) = frame else {
                return Err(io::Error::other("server sent a non-response frame"));
            };
            let Some(i) = response
                .id
                .checked_sub(first_id)
                .map(|i| i as usize)
                .filter(|&i| i < sent && latency_ns[i] == u64::MAX)
            else {
                duplicate += 1;
                continue;
            };
            if traced {
                decode_spans.push((i, t0, now));
            }
            latency_ns[i] = now.saturating_duration_since(due(start, i)).as_nanos() as u64;
            queue_wait_us[i] = response.queue_wait_us;
            answered += 1;
            if response.status != Status::Ok {
                not_ok += 1;
                continue;
            }
            let g = expect.fact[i] as usize;
            if response.payload != expect.verdicts[g] {
                wrong += 1;
            }
            if first_of_group.len() <= g {
                first_of_group.resize(g + 1, None);
            }
            match &first_of_group[g] {
                None => first_of_group[g] = Some(response.payload),
                Some(first) if *first != response.payload => inconsistent += 1,
                Some(_) => {}
            }
        }
        if busy {
            progress_at = Instant::now();
        } else if sent == n && progress_at.elapsed() > Duration::from_secs(10) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("no answer for 10 s with {} outstanding", n - answered),
            ));
        } else {
            std::thread::yield_now();
        }
    }

    if let Some(tracer) = tracer {
        // One root span per request, due to answer, with the client's
        // own wire calls as children.
        let mut decode_by_req = vec![None; n];
        for (i, t0, t1) in decode_spans {
            decode_by_req[i] = Some((t0, t1));
        }
        for i in 0..n {
            let id = first_id + i as u64;
            let begin = due(start, i);
            let root = tracer.span(
                "client.request",
                id,
                None,
                begin,
                begin + Duration::from_nanos(latency_ns[i]),
                1,
            );
            if let Some(&(t0, t1)) = encode_spans.get(i) {
                tracer.span("client.encode", id, Some(root), t0, t1, 1);
            }
            if let Some((t0, t1)) = decode_by_req[i] {
                tracer.span("client.decode", id, Some(root), t0, t1, 1);
            }
        }
    }

    Ok(OpenLoopRun {
        sent,
        answered,
        not_ok,
        wrong,
        inconsistent,
        duplicate,
        latency_ns,
        late_ns,
        queue_wait_us,
        backlog_at_last_send,
    })
}

/// Sends each payload as a pipelined request (at most `window` in
/// flight) and returns the answers in order: the warm-up path.
pub fn pipelined(
    addr: SocketAddr,
    payloads: &[Vec<u8>],
    first_id: u64,
    window: usize,
) -> io::Result<Vec<(Status, Vec<u8>)>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let n = payloads.len();
    let mut answers: Vec<Option<(Status, Vec<u8>)>> = vec![None; n];
    let mut decoder = StreamDecoder::new(MAX_FRAME);
    let mut buf = vec![0u8; 64 * 1024];
    let (mut sent, mut got) = (0usize, 0usize);
    while got < n {
        let mut out = Vec::new();
        while sent < n && sent - got < window {
            out.extend_from_slice(&frame::encode(&Frame::Request(Request {
                id: first_id + sent as u64,
                deadline_ms: 0,
                want_explain: false,
                payload: payloads[sent].clone(),
            })));
            sent += 1;
        }
        stream.write_all(&out)?;
        let read = stream.read(&mut buf)?;
        if read == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        decoder.extend(&buf[..read]);
        while let Some(frame) = decoder.next_frame().map_err(io::Error::other)? {
            let Frame::Response(r) = frame else {
                return Err(io::Error::other("server sent a non-response frame"));
            };
            let i =
                r.id.checked_sub(first_id)
                    .map(|i| i as usize)
                    .filter(|&i| i < n && answers[i].is_none())
                    .ok_or_else(|| io::Error::other("unknown or repeated response id"))?;
            answers[i] = Some((r.status, r.payload));
            got += 1;
        }
    }
    Ok(answers
        .into_iter()
        .map(|a| a.expect("all answered"))
        .collect())
}
