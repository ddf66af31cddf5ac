//! In-workspace stand-in for the `criterion` crate.
//!
//! Supports the workspace's `benches/*.rs` targets: groups, throughput
//! annotations, `bench_function`, and `Bencher::iter`. Measurement is a
//! simple warmup + timed loop printing ns/iter (and derived throughput);
//! there is no statistical analysis, HTML report, or baseline comparison.

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Entry point handed to each benchmark function by `criterion_group!`.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
        }
    }

    pub fn bench_function(
        &mut self,
        id: impl fmt::Display,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_one("", None, &id.to_string(), f);
        self
    }
}

/// Named group of related benchmarks sharing a throughput annotation.
pub struct BenchmarkGroup {
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function(
        &mut self,
        id: impl fmt::Display,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_one(&self.name, self.throughput, &id.to_string(), f);
        self
    }

    pub fn finish(self) {}
}

/// Work-per-iteration annotation used to derive rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// Two-part benchmark identifier (`name/parameter`).
pub struct BenchmarkId {
    repr: String,
}

impl BenchmarkId {
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            repr: format!("{name}/{parameter}"),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.repr)
    }
}

/// Timer handed to the closure in `bench_function`.
#[derive(Debug, Default)]
pub struct Bencher {
    ns_per_iter: f64,
}

impl Bencher {
    /// Time `f`: brief warmup, then iterate for a fixed budget.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        for _ in 0..3 {
            black_box(f());
        }
        let budget = Duration::from_millis(300);
        let start = Instant::now();
        let mut iters: u64 = 0;
        loop {
            black_box(f());
            iters += 1;
            if start.elapsed() >= budget || iters >= 1_000_000 {
                break;
            }
        }
        self.ns_per_iter = start.elapsed().as_nanos() as f64 / iters as f64;
    }
}

fn run_one(group: &str, throughput: Option<Throughput>, id: &str, mut f: impl FnMut(&mut Bencher)) {
    let mut bencher = Bencher::default();
    f(&mut bencher);
    let label = if group.is_empty() {
        id.to_string()
    } else {
        format!("{group}/{id}")
    };
    let rate = match throughput {
        Some(Throughput::Bytes(n)) => {
            let gbps = n as f64 / bencher.ns_per_iter;
            format!("  ({gbps:.3} GB/s)")
        }
        Some(Throughput::Elements(n)) => {
            let meps = n as f64 / bencher.ns_per_iter * 1e3;
            format!("  ({meps:.1} Melem/s)")
        }
        None => String::new(),
    };
    println!("{label:<48} {:>12.1} ns/iter{rate}", bencher.ns_per_iter);
}

/// Bundle benchmark functions into one runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_api_runs() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.throughput(Throughput::Elements(10));
        let mut ran = 0u64;
        group.bench_function(BenchmarkId::new("noop", 10), |b| {
            b.iter(|| {
                ran += 1;
            })
        });
        group.finish();
        assert!(ran > 0);
    }
}
