//! `lxbench`: drives the shipped `lexforensica serve --tcp` binary on
//! one of three workloads and prints one JSON result line.
//!
//! ```console
//! $ lxbench --server PATH --workload serve_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `README.md` beside this crate for the workloads, metrics, and
//! how each layer metric relates to the end-to-end ones.

mod gen;
mod layers;
mod load;
mod plancheck;
mod server;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;

/// Everything a workload needs to know about this run.
pub struct Ctx {
    /// The `lexforensica` binary: the server and the audit tools.
    pub bin: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Operations attempted and failed, per phase, plus the checks that
/// did not hold.
#[derive(Default)]
pub struct Books {
    pub attempted: u64,
    pub failed: u64,
    pub broken: Vec<String>,
}

impl Books {
    /// Books one phase and reports it on stderr.
    pub fn phase(&mut self, name: &str, attempted: u64, failed: u64, note: &str) {
        self.attempted += attempted;
        self.failed += failed;
        eprintln!("phase {name}: attempted {attempted}, failed {failed}{note}");
    }

    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("CHECK FAILED: {what}");
            self.broken.push(what);
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: lxbench --server PATH --workload serve_hot|serve_audited|plan_solve \
         --seed N --seconds S --trace 0|1 [--work DIR]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut server_bin = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work = PathBuf::from(".lxbench_work");
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--server" => server_bin = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = Some(value == "1"),
            "--work" => work = PathBuf::from(value),
            _ => usage(),
        }
    }
    let (Some(server_bin), Some(workload), Some(seed), Some(seconds), Some(trace)) =
        (server_bin, workload, seed, seconds, trace)
    else {
        usage()
    };
    let run: fn(&Ctx, &mut Books) -> std::io::Result<Vec<stats::Metric>> = match workload.as_str() {
        "serve_hot" => workloads::serve_hot,
        "serve_audited" => workloads::serve_audited,
        "plan_solve" => workloads::plan_solve,
        _ => usage(),
    };
    let work = work.join(&workload);
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("work directory is writable");
    let ctx = Ctx {
        bin: server_bin,
        work,
        seed,
        seconds,
        trace,
    };

    let mut books = Books::default();
    let metrics = match run(&ctx, &mut books) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("lxbench {workload}: {e}");
            let _ = std::fs::remove_dir_all(&ctx.work);
            std::process::exit(1);
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    for m in &metrics {
        books.check(m.value.is_finite(), || {
            format!("{} was not measured", m.name)
        });
    }
    let correct = books.broken.is_empty();
    println!(
        "{}",
        stats::result_line(correct, books.attempted, books.failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
