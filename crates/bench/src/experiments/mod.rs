//! The experiment registry and its runner.
//!
//! Every experiment of the repo — the paper's Table 1 and Figures 8–14,
//! the ablations, and the matrices the later layers added — is one row of
//! [`REGISTRY`]: an id, what it reproduces, and a function from a
//! [`Scale`] to an [`Outcome`]. The `bench` binary is [`parse`] followed
//! by [`run`]: it owns argument parsing, table printing, report writing
//! and the exit code, so an experiment does none of them.

mod adaptive;
mod chaos;
mod concurrency;
mod figures;
mod scale;

use serde::Value;

use crate::cli::{value, Args};
use crate::perf::{emit, BenchResult, BenchRun, MetricRow};
use crate::workload::{run_shuffle_workload, WorkloadConfig, WorkloadResult};

/// How much of an experiment to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// What EXPERIMENTS.md records.
    Full,
    /// The deterministic CI configuration (`--smoke`) that `ci.sh` gates
    /// against a committed baseline.
    Smoke,
}

/// What an experiment hands back: the rows it measured, and whatever it
/// found wrong. Any violation makes the process exit non-zero.
pub struct Outcome {
    /// The measured rows: printed as markdown, written by `--emit`.
    pub run: BenchRun,
    /// Worker errors and broken invariants, one line each.
    pub violations: Vec<String>,
}

impl Outcome {
    fn new(bench: &str, config: Vec<(&str, Value)>) -> Self {
        Outcome {
            run: BenchRun {
                bench: bench.to_string(),
                config: config
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
                results: Vec::new(),
            },
            violations: Vec::new(),
        }
    }

    /// Runs the §5.1 workload and records its worker errors as violations
    /// under `what`.
    fn workload(&mut self, what: &str, cfg: &WorkloadConfig) -> WorkloadResult {
        let r = run_shuffle_workload(cfg);
        let errors = r.errors.iter().map(|e| format!("{what}: {e}"));
        self.violations.extend(errors);
        r
    }

    /// Adds a result row that carries no stage digests.
    fn row(&mut self, id: String, metrics: Vec<MetricRow>) {
        self.run.results.push(BenchResult {
            id,
            metrics,
            stages: Vec::new(),
        });
    }
}

/// One row of the registry.
pub struct Experiment {
    /// What the command line, the report's `bench` field and the committed
    /// baselines call it.
    pub id: &'static str,
    /// The paper artifact or repo claim it reproduces.
    pub reproduces: &'static str,
    /// Runs it.
    pub run: fn(Scale) -> Outcome,
}

/// Every experiment, in the order EXPERIMENTS.md presents them.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        id: "table1",
        reproduces: "Table 1: the six designs' connection counts and contention classes",
        run: figures::table1,
    },
    Experiment {
        id: "fig08_credit",
        reproduces: "Fig. 8: credit write-back frequency vs throughput, 8 nodes, FDR and EDR",
        run: figures::fig08_credit,
    },
    Experiment {
        id: "fig09_msgsize",
        reproduces: "Fig. 9: message size vs throughput and registered memory, 8 nodes, EDR",
        run: figures::fig09_msgsize,
    },
    Experiment {
        id: "fig10_scaleout",
        reproduces: "Fig. 10: repartition and broadcast throughput at 2-16 nodes, FDR and EDR",
        run: figures::fig10_scaleout,
    },
    Experiment {
        id: "fig11_qps",
        reproduces: "Fig. 11: queue pairs per operator vs throughput, 16 nodes, EDR",
        run: figures::fig11_qps,
    },
    Experiment {
        id: "fig12_setup",
        reproduces: "Fig. 12: time to build the RDMA connections at 2-16 nodes, EDR",
        run: figures::fig12_setup,
    },
    Experiment {
        id: "fig13_compute",
        reproduces: "Fig. 13: compute-intensive receiving fragment, 8 nodes, EDR",
        run: figures::fig13_compute,
    },
    Experiment {
        id: "fig14_tpch",
        reproduces: "Fig. 14: TPC-H Q4, Q3, Q10 response time, MPI vs MESQ/SR vs local data",
        run: figures::fig14_tpch,
    },
    Experiment {
        id: "ablate_write",
        reproduces: "Sec. 7 future work: the RDMA Write endpoint against MQ/SR and MQ/RD",
        run: figures::ablate_write,
    },
    Experiment {
        id: "ablate_multicast",
        reproduces: "Sec. 7 hypothesis: native multicast for MESQ/SR broadcast",
        run: figures::ablate_multicast,
    },
    Experiment {
        id: "ablate_zerocopy",
        reproduces: "Sec. 4.3.1: the sender's copy into registered buffers, charged or not",
        run: figures::ablate_zerocopy,
    },
    Experiment {
        id: "chaos",
        reproduces: "every design under seeded fault plans through the recovery ladder",
        run: chaos::chaos,
    },
    Experiment {
        id: "concurrency",
        reproduces: "N co-running queries through the admission scheduler",
        run: concurrency::concurrency,
    },
    Experiment {
        id: "scale",
        reproduces: "the 32-512-node fat-tree matrix and the UD/RC crossover",
        run: scale::scale,
    },
    Experiment {
        id: "adaptive",
        reproduces: "phased vs unphased all-to-all, and the advisor against an oracle",
        run: adaptive::adaptive,
    },
];

/// `bench <id>… [--smoke] [--emit FILE]`, with the registry listed.
pub fn usage() -> String {
    let mut usage = "bench <id>... [--smoke] [--emit FILE]\nexperiments:".to_string();
    for e in REGISTRY {
        usage += &format!("\n  {:<17} {}", e.id, e.reproduces);
    }
    usage
}

/// What one command line asks for: the experiments named, in order,
/// `--smoke` or not, and where `--emit` writes the report.
pub type Invocation = (Vec<&'static Experiment>, Scale, Option<String>);

/// Reads a command line; an unknown id or flag is an error, and so is an
/// id named twice: its rows would appear twice in one report.
pub fn parse(mut args: Args) -> Result<Invocation, String> {
    let smoke = args.flag("--smoke");
    let scale = if smoke { Scale::Smoke } else { Scale::Full };
    let emit = args.option("--emit", value::<String>)?;
    let mut experiments: Vec<&'static Experiment> = Vec::new();
    let find = |id: &str| REGISTRY.iter().find(|e| e.id == id);
    while let Some(experiment) = args.positional("experiment", find)? {
        if experiments.iter().any(|e| e.id == experiment.id) {
            return Err(format!("experiment `{}` named twice", experiment.id));
        }
        experiments.push(experiment);
    }
    if experiments.is_empty() {
        return Err("no experiment named".to_string());
    }
    Ok((experiments, scale, emit))
}

/// Runs the experiments in order, prints each one's rows as markdown on
/// stdout (progress and violations go to stderr), writes the report if
/// asked, and returns the exit status: 1 if anything was violated or the
/// report could not be written.
pub fn run((experiments, scale, emit_path): Invocation) -> i32 {
    let mut runs = Vec::new();
    let mut failures = Vec::new();
    for experiment in experiments {
        let started = std::time::Instant::now();
        let outcome = (experiment.run)(scale);
        println!("{}", outcome.run.markdown());
        eprintln!(
            "[bench] {}: {:.1} s",
            experiment.id,
            started.elapsed().as_secs_f64()
        );
        let named = outcome
            .violations
            .iter()
            .map(|v| format!("{}: {v}", experiment.id));
        failures.extend(named);
        runs.push(outcome.run);
    }
    if let Some(path) = emit_path {
        match emit(&path, runs) {
            Ok(()) => eprintln!("[bench] wrote {path}"),
            Err(e) => failures.push(e),
        }
    }
    for failure in &failures {
        eprintln!("FAIL {failure}");
    }
    i32::from(!failures.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(words: &[&str]) -> Result<Invocation, String> {
        parse(Args(words.iter().map(|w| w.to_string()).collect()))
    }

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), REGISTRY.len());
    }

    #[test]
    fn a_repeated_experiment_id_is_rejected() {
        let twice = parse_words(&["concurrency", "chaos", "concurrency", "--smoke"]);
        assert_eq!(
            twice.err().as_deref(),
            Some("experiment `concurrency` named twice")
        );
        assert!(parse_words(&["concurrency", "chaos", "--smoke"]).is_ok());
    }

    #[test]
    fn command_line_names_experiments_in_order() {
        let (experiments, scale, emit) =
            parse_words(&["scale", "--emit", "s.json", "chaos", "--smoke"]).unwrap();
        let ids: Vec<&str> = experiments.iter().map(|e| e.id).collect();
        assert_eq!(ids, ["scale", "chaos"]);
        assert_eq!(scale, Scale::Smoke);
        assert_eq!(emit.as_deref(), Some("s.json"));
        assert_eq!(parse_words(&["table1"]).unwrap().1, Scale::Full);
    }

    #[test]
    fn unknown_ids_and_flags_are_rejected() {
        assert!(parse_words(&["nope"]).is_err());
        assert!(parse_words(&["chaos", "--smok"]).is_err());
        assert!(parse_words(&["chaos", "--full"]).is_err());
        assert!(parse_words(&["--smoke"]).is_err(), "no experiment named");
        assert!(parse_words(&["chaos", "--emit"]).is_err());
    }
}
