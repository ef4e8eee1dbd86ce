//! Offline stand-in for the `criterion` crate.
//!
//! Provides the criterion 0.5 API subset the workspace's benches use —
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`] with
//! `sample_size`, [`Bencher::iter`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros — measuring wall-clock time with
//! `std::time::Instant` and printing one line per benchmark: the
//! minimum, median and maximum of the per-iteration times, so a number
//! carries its spread. Each sample times a batch of calls long enough
//! (at least 1 µs) that timer overhead does not swamp
//! nanosecond-scale bodies, and divides by the batch size. There are no
//! further statistical analyses, plots, or baselines; swap the workspace
//! `criterion` entry back to the registry for those.
//!
//! Under `cargo test` (which runs bench targets with `--test`) each
//! benchmark body executes exactly once, so the tier-1 suite stays fast
//! while still smoke-testing every bench.

use std::time::Instant;

pub use std::hint::black_box;

/// Shortest wall-clock time one sample's batch of calls may take.
const MIN_SAMPLE_NANOS: u128 = 1_000;

/// Largest batch of calls one sample may time.
const MAX_BATCH: u64 = 1 << 20;

/// Entry point handed to each benchmark function.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        let test_mode = std::env::args().any(|a| a == "--test");
        Criterion {
            sample_size: 10,
            test_mode,
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            sample_count: if self.test_mode { 1 } else { self.sample_size },
            batch: 1,
            samples: Vec::new(),
        };
        f(&mut bencher);
        bencher.report(id, self.test_mode);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.to_string(),
            sample_size: None,
        }
    }
}

/// A named set of benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the timed iteration count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1));
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        let saved = self.parent.sample_size;
        if let Some(n) = self.sample_size {
            self.parent.sample_size = n;
        }
        self.parent.bench_function(&full, f);
        self.parent.sample_size = saved;
        self
    }

    /// Ends the group. (No-op in this shim; present for API parity.)
    pub fn finish(self) {}
}

/// Times closures handed to it by a benchmark body.
#[derive(Debug)]
pub struct Bencher {
    sample_count: usize,
    /// Calls per timed sample.
    batch: u64,
    /// Mean wall-clock nanoseconds per call of each timed sample.
    samples: Vec<f64>,
}

impl Bencher {
    /// Calls `routine` repeatedly: `sample_count` timed samples of `batch`
    /// calls each.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let time_batch = |routine: &mut R, batch: u64| {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            start.elapsed().as_nanos()
        };
        // Unless in single-shot test mode, untimed warm-up batches double
        // until one lasts MIN_SAMPLE_NANOS; a body slower than that keeps
        // one call per sample.
        self.batch = 1;
        if self.sample_count > 1 {
            while time_batch(&mut routine, self.batch) < MIN_SAMPLE_NANOS && self.batch < MAX_BATCH
            {
                self.batch *= 2;
            }
        }
        for _ in 0..self.sample_count {
            let nanos = time_batch(&mut routine, self.batch);
            self.samples.push(nanos as f64 / self.batch as f64);
        }
    }

    fn report(&mut self, id: &str, test_mode: bool) {
        if test_mode {
            println!("bench {id}: ok (ran once in test mode)");
            return;
        }
        self.samples.sort_unstable_by(f64::total_cmp);
        match (self.samples.first(), self.samples.last()) {
            (Some(min), Some(max)) => println!(
                "bench {id}: min {min:.1} / median {:.1} / max {max:.1} ns/iter \
                 ({} samples of {} iterations)",
                self.samples[self.samples.len() / 2],
                self.samples.len(),
                self.batch
            ),
            _ => println!("bench {id}: no iterations recorded"),
        }
    }
}

/// Bundles benchmark functions into a named group runner.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
    ($group:ident; $($rest:tt)*) => {
        compile_error!("the criterion shim only supports criterion_group!(name, targets...)");
    };
}

/// Generates `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
