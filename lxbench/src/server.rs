//! The shipped `lexforensica serve --tcp` binary as a child process,
//! and what the benchmark reads about it from outside: readiness from
//! its stderr, CPU and peak RSS from `/proc/<pid>`, and the counts in
//! its drain report.

use std::io::{self, BufRead as _, BufReader, Read as _};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStderr, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stderr: BufReader<ChildStderr>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `bin serve --tcp 127.0.0.1:0 --workers 1 EXTRA..` and
    /// waits until it says where it listens.
    pub fn start(bin: &Path, extra: &[&str]) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["serve", "--tcp", "127.0.0.1:0", "--workers", "1"])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut addr = None;
        let mut line = String::new();
        loop {
            line.clear();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("server exited before it was ready"));
            }
            if let Some(rest) = line.trim().strip_prefix("listening on ") {
                addr = Some(rest.parse().map_err(io::Error::other)?);
            } else if line.starts_with("serving model: epoll") {
                break;
            } else if line.starts_with("serving model:") {
                return Err(io::Error::other(format!("unexpected {}", line.trim())));
            }
        }
        Ok(Server {
            child,
            stdin,
            stderr,
            addr: addr.ok_or_else(|| io::Error::other("no listening line"))?,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time of the server's live threads, in seconds, from each
    /// thread's `schedstat` (nanosecond resolution).
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let mut ns = 0u64;
        for task in std::fs::read_dir(format!("/proc/{}/task", self.pid()))? {
            let Ok(stat) = std::fs::read_to_string(task?.path().join("schedstat")) else {
                continue; // the thread exited meanwhile
            };
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| io::Error::other("bad schedstat"))?;
        }
        Ok(ns as f64 / 1e9)
    }

    /// User plus system CPU of the whole process, threads that have
    /// exited included, in seconds (clock-tick resolution).
    pub fn process_cpu_seconds(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        // utime and stime are fields 14 and 15; count from after the
        // parenthesised command name, which may contain spaces.
        let rest = &stat[stat
            .rfind(')')
            .ok_or_else(|| io::Error::other("bad stat"))?
            + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks: u64 = fields[11].parse::<u64>().map_err(io::Error::other)?
            + fields[12].parse::<u64>().map_err(io::Error::other)?;
        Ok(ticks as f64 / clock_ticks_per_second())
    }

    /// Peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        let kib: u64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM"))?;
        Ok(kib as f64 / 1024.0)
    }

    /// Closes stdin (the server's drain signal), waits for it to exit
    /// and returns the drain report it printed on stderr.
    pub fn stop(mut self) -> io::Result<String> {
        drop(self.stdin.take());
        let mut report = String::new();
        self.stderr.read_to_string(&mut report)?;
        let status = self.child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!(
                "server exited with {status}: {report}"
            )));
        }
        Ok(report)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer name and reads no memory of
    // ours; _SC_CLK_TCK is 2 on Linux.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// Runs `bin ARGS`, returning its wall time, exit success and stderr.
pub fn run_tool(bin: &Path, args: &[&str]) -> io::Result<(Duration, bool, String)> {
    let started = Instant::now();
    let out = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()?;
    let wall = started.elapsed();
    Ok((
        wall,
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    ))
}

/// The number after the first `"key": ` in a one-line JSON report.
pub fn json_number(report: &str, key: &str) -> Option<f64> {
    let at = report.find(&format!("\"{key}\": "))? + key.len() + 4;
    let num: String = report[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

/// The line of `report` that starts with `prefix`, without it.
pub fn report_line<'a>(report: &'a str, prefix: &str) -> Option<&'a str> {
    report.lines().find_map(|l| l.strip_prefix(prefix))
}
