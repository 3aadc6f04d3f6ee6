//! The `registry_quick` workload: all 17 registry experiments at quick
//! scale through `run_experiment`, each into a JSON sink whose writer the
//! benchmark times, with the output diffed against the committed goldens.

use crate::spans::span;
use selectors::prelude::*;
use std::cell::Cell;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};
use wakeup_analysis::ensemble::WorkStats;
use wakeup_analysis::serial::{parse_json_object, Value};
use wakeup_bench::diff::diff_dirs;
use wakeup_bench::experiment::{run_experiment, Experiment};
use wakeup_bench::experiments::{find, registry};
use wakeup_bench::sink::JsonSink;
use wakeup_bench::Scale;
use wakeup_core::FamilyProvider;

/// The relative threshold `wakeup diff` gates CI with.
const DIFF_THRESHOLD: f64 = 0.05;

/// Set-up product: the experiments in pass order and the loaded goldens.
pub struct Registry {
    order: Vec<(Experiment, &'static str)>,
    goldens: Vec<(String, Vec<u8>)>,
    golden_dir: PathBuf,
    out_dir: PathBuf,
}

/// Byte and time counters shared between the benchmark and a sink's
/// writer.
#[derive(Default)]
struct WriteMeter {
    bytes: Cell<u64>,
    time: Cell<Duration>,
    failed: Cell<bool>,
}

/// A writer that times every write the sink makes into the file below it.
struct TimedWriter {
    inner: io::BufWriter<std::fs::File>,
    meter: Rc<WriteMeter>,
}

impl TimedWriter {
    fn timed<T>(
        &mut self,
        f: impl FnOnce(&mut io::BufWriter<std::fs::File>) -> io::Result<T>,
    ) -> io::Result<T> {
        let t = Instant::now();
        let r = span("sink.write", || f(&mut self.inner));
        self.meter.time.set(self.meter.time.get() + t.elapsed());
        if r.is_err() {
            self.meter.failed.set(true);
        }
        r
    }
}

impl Write for TimedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.timed(|w| w.write(buf))?;
        self.meter.bytes.set(self.meter.bytes.get() + n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.timed(|w| w.flush())
    }
}

/// What one pass measured and produced.
#[derive(Default)]
pub struct RegistryPass {
    /// Checks emitted, and how many failed.
    pub checks: u64,
    /// Failed checks.
    pub failed_checks: u64,
    /// Bytes the sinks wrote, and time in their writers.
    pub bytes: u64,
    /// Time inside the sinks' writers.
    pub write_time: Duration,
    /// Engine work summed from the experiments' `work` events.
    pub work: WorkStats,
    /// Ensemble runs summed from the `work` events.
    pub runs: u64,
    /// Rows compared against the goldens.
    pub rows: u64,
    /// Golden-diff regressions plus artifacts whose bytes differ from
    /// their golden.
    pub regressions: u64,
    /// A writer failed.
    pub io_failed: bool,
}

/// Load the goldens. The experiments always run at seed offset 0, the
/// goldens' seed, in registry order: the workload takes no input from the
/// benchmark seed.
pub fn setup(root: &Path) -> io::Result<Registry> {
    let golden_dir = root.join("ci/golden-quick");
    let mut goldens = Vec::new();
    for entry in std::fs::read_dir(&golden_dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "jsonl") {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .expect("golden names are UTF-8")
                .to_string();
            goldens.push((name, std::fs::read(&path)?));
        }
    }
    goldens.sort();
    let order = registry()
        .into_iter()
        .map(|e| {
            let label: &'static str = Box::leak(format!("registry.{}", e.name).into_boxed_str());
            (e, label)
        })
        .collect();
    let out_dir = root.join("perfbench/out/registry_quick");
    std::fs::create_dir_all(&out_dir)?;
    Ok(Registry {
        order,
        goldens,
        golden_dir,
        out_dir,
    })
}

impl Registry {
    /// Run one fixed experiment into a discarding sink, so lazy set-up and
    /// allocator growth finish before the first timed pass.
    pub fn warm_up(&self, threads: usize) {
        let exp = find("exp_scenario_b").expect("registered experiment");
        let mut sink = JsonSink::new(Box::new(io::sink()));
        run_experiment(&exp, Scale::Quick, 0, Some(threads), &mut sink);
    }

    /// Run every experiment once into `out_dir`, timing each.
    pub fn pass(&self, threads: usize) -> io::Result<RegistryPass> {
        let mut out = RegistryPass::default();
        for (exp, label) in &self.order {
            let meter = Rc::new(WriteMeter::default());
            let file = std::fs::File::create(self.out_dir.join(format!("{}.jsonl", exp.name)))?;
            let writer = TimedWriter {
                inner: io::BufWriter::new(file),
                meter: Rc::clone(&meter),
            };
            let failed = span(label, || {
                let mut sink = JsonSink::new(Box::new(writer));
                run_experiment(exp, Scale::Quick, 0, Some(threads), &mut sink)
            });
            out.failed_checks += failed;
            out.bytes += meter.bytes.get();
            out.write_time += meter.time.get();
            out.io_failed |= meter.failed.get();
        }
        Ok(out)
    }

    /// Compare the pass's artifacts with the goldens and fold their check
    /// and work events into `pass`.
    pub fn check(&self, pass: &mut RegistryPass) -> io::Result<()> {
        let mut log = Vec::new();
        let report = diff_dirs(&self.golden_dir, &self.out_dir, DIFF_THRESHOLD, &mut log)?;
        if report.regressions > 0 {
            eprint!("{}", String::from_utf8_lossy(&log));
        }
        pass.rows = report.rows;
        pass.regressions = report.regressions;
        for (name, golden) in &self.goldens {
            let produced = std::fs::read(self.out_dir.join(name))?;
            if &produced != golden {
                eprintln!("perfbench: {name} differs from its golden");
                pass.regressions += 1;
            }
            for line in String::from_utf8_lossy(&produced).lines() {
                let rec = parse_json_object(line).map_err(io::Error::other)?;
                let field = |k: &str| match rec.get(k) {
                    Some(Value::U64(v)) => *v,
                    _ => 0,
                };
                match rec.get("event") {
                    Some(Value::Str(e)) if e == "check" => pass.checks += 1,
                    Some(Value::Str(e)) if e == "work" => {
                        pass.runs += field("runs");
                        pass.work.merge(&WorkStats {
                            slots: field("slots"),
                            polls: field("polls"),
                            skipped: field("skipped"),
                            dense_steps: field("dense_steps"),
                            word_slots: field("word_slots"),
                            mode_switches: field("mode_switches"),
                            peak_units: field("peak_units"),
                        });
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

/// Replay EXP-SEL's family constructions and verifications (quick scale)
/// from outside the registry, timing them as the `selectors` layer.
/// Returns `(verifications, failed)`.
pub fn selectors_replay() -> (u64, u64) {
    let mut runs = 0;
    let mut failed = 0;
    let mut tally = |ok: bool| {
        runs += 1;
        failed += u64::from(!ok);
    };
    for (n, k) in [(12u32, 2u32), (14, 3), (16, 4)] {
        let fam = span("selectors.build", || {
            FamilyProvider::default().family(n, k).materialize()
        });
        tally(span("selectors.verify", || verify::selective_exhaustive(&fam)).is_ok());
        let ks = span("selectors.build", || {
            KautzSingleton::new(n, k).materialize()
        });
        tally(
            span("selectors.verify", || {
                verify::strongly_selective_exhaustive(&ks)
            })
            .is_ok(),
        );
        tally(span("selectors.build", || GreedyBuilder::new(n, k).build()).is_ok());
    }
    for (n, k) in [(1024u32, 16u32), (4096, 32), (16384, 64)] {
        let fam = span("selectors.build", || {
            RandomFamilyBuilder::new(n, k).seed(9).build_explicit()
        });
        tally(
            span("selectors.verify", || {
                verify::selective_monte_carlo(&fam, 3_000, 13)
            })
            .is_ok(),
        );
    }
    (runs, failed)
}
