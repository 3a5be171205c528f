//! Versioned JSON export for the figure binaries (no serde in the
//! offline build — emission is hand-written against a fixed schema).
//!
//! # Schema `bds-bench/v2`
//!
//! ```json
//! {
//!   "schema": "bds-bench/v2",
//!   "figure": "fig13",
//!   "scale": "quick",
//!   "max_procs": 8,
//!   "records": [
//!     {
//!       "op": "bestcut", "library": "delay", "n": 200000, "procs": 8,
//!       "policy": "adaptive",
//!       "mean_s": 0.0042, "min_s": 0.0040, "stddev_s": 0.0002,
//!       "repeats": 3, "peak_bytes": 1048576,
//!       "block_size": 1563, "num_blocks": 128,
//!       "sched": {
//!         "jobs": 640, "local_pops": 500, "injector_pops": 30,
//!         "steals": 110, "failed_steals": 45,
//!         "parks": 12, "idle_ns": 123456
//!       },
//!       "gov": {
//!         "respawns": 1, "deadline_trips": 12, "mem_trips": 3
//!       },
//!       "svc": {
//!         "qps": 5120.0, "p50_s": 0.0011, "p99_s": 0.0089,
//!         "submitted": 40960, "completed": 40940, "rejected": 20,
//!         "tenants": [{"name": "alpha", "completed": 10235, "block_retries": 104}]
//!       },
//!       "plan": {
//!         "hits": 40944, "misses": 16, "entries": 16,
//!         "hit_rate": 0.99961
//!       },
//!       "recovery": {
//!         "block_retries": 12, "quarantines": 0, "recovered_jobs": 12
//!       }
//!     }
//!   ]
//! }
//! ```
//!
//! `sched` is `null` for measurements taken without an observability
//! capture. `policy` is `null` when the run used whatever block policy
//! was ambient, or the policy label (`"adaptive"`, `"fixed:8"`, ...)
//! when the binary pinned one — the `--geometry-sweep` mode of the
//! geometry binary sets it on every record. `gov` is `null` except for
//! resource-governance runs (the soak binaries), where it carries the
//! governance counters: workers respawned after a crash, and budget
//! trips by kind. Times are seconds; comparisons should use `min_s` (the
//! noise-robust statistic — see `bds_metrics::Timing`).
//!
//! `svc` is `null` except for service benchmark runs (the
//! `service_soak` binary), where it carries the request-level view:
//! sustained queries per second, request latency quantiles measured
//! from submit to response, the admission ledger (`submitted` =
//! `completed` + `rejected` at quiescence), and per-tenant completion
//! counts for fairness auditing.
//!
//! `plan` is `null` except for runs that resolved their pipelines
//! through a `bds_plan::PlanCache` (the `service_soak` binary), where
//! it carries the shape-cache view aggregated over every tenant: cache
//! hits and misses (a miss runs the optimizer, a hit reuses a plan),
//! resident plan count at the end of the run, and the hit rate
//! (`hits / (hits + misses)`, `0` when there were no lookups).
//!
//! `recovery` is `null` except for runs that retried faulted blocks
//! under a `bds_pool::RetryPolicy` (the transient-fault legs of the
//! soak binaries), where it carries the block-recovery ledger: block
//! attempts re-executed, blocks quarantined, and jobs that completed
//! after at least one retry.
//!
//! v2 is a strict superset of v1 (it adds `policy`, and later the
//! optional `gov`, `svc`, `plan`, and `recovery` blocks); consumers
//! keyed on the schema string should accept both.

use std::fmt::Write as _;
use std::io::Write as _;

use crate::Measurement;

/// The schema identifier emitted in every document.
pub const SCHEMA: &str = "bds-bench/v2";

/// Resource-governance counters attached to soak/overload records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovCounters {
    /// Workers respawned after a crash.
    pub respawns: u64,
    /// Governed runs refused because their deadline passed.
    pub deadline_trips: u64,
    /// Governed runs refused because their memory budget was exceeded.
    pub mem_trips: u64,
}

/// Block-recovery counters attached to records whose runs executed
/// under a `bds_pool::RetryPolicy` (the fault legs of the soak
/// binaries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Individual block attempts re-executed after a transient fault.
    pub block_retries: u64,
    /// Blocks quarantined after exhausting their retry budget.
    pub quarantines: u64,
    /// Jobs that completed successfully after at least one block retry.
    pub recovered_jobs: u64,
}

impl From<bds_pool::RecoveryCounts> for RecoveryCounters {
    fn from(c: bds_pool::RecoveryCounts) -> RecoveryCounters {
        RecoveryCounters {
            block_retries: c.block_retries,
            quarantines: c.quarantines,
            recovered_jobs: c.recovered_jobs,
        }
    }
}

/// Plan-cache counters attached to records whose pipelines were
/// resolved through a `bds_plan::PlanCache`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCounters {
    /// Shape lookups answered with a cached plan.
    pub hits: u64,
    /// Shape lookups that had to run the optimizer.
    pub misses: u64,
    /// Plans resident in the cache(s) at the end of the run.
    pub entries: u64,
}

impl PlanCounters {
    /// `hits / (hits + misses)`, or 0 when there were no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Request-level counters attached to service benchmark records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SvcCounters {
    /// Completed requests per second of wall time.
    pub qps: f64,
    /// Median submit-to-response latency, seconds.
    pub p50_s: f64,
    /// 99th-percentile submit-to-response latency, seconds.
    pub p99_s: f64,
    /// Requests offered to the service.
    pub submitted: u64,
    /// Requests whose ticket resolved (success, budget trip, or panic —
    /// all are deliveries).
    pub completed: u64,
    /// Requests refused at admission (queue-full, deadline, breaker,
    /// shutdown).
    pub rejected: u64,
    /// `(tenant name, completed requests, salvaged block retries)` per
    /// tenant, for fairness and recovery auditing.
    pub tenants: Vec<(String, u64, u64)>,
}

/// One benchmark measurement row.
pub struct Record {
    /// Workload name (e.g. `"bestcut"`).
    pub op: String,
    /// Library variant (`"array"`, `"rad"`, `"delay"`, `"sob"`, ...).
    pub library: String,
    /// Problem size.
    pub n: usize,
    /// Thread count.
    pub procs: usize,
    /// Block-geometry policy the run was pinned to (`None` = ambient).
    pub policy: Option<String>,
    /// Mean wall seconds over the measured repetitions.
    pub mean_s: f64,
    /// Fastest measured run, seconds.
    pub min_s: f64,
    /// Population stddev of the measured runs, seconds.
    pub stddev_s: f64,
    /// Number of measured repetitions.
    pub repeats: usize,
    /// Peak extra heap of one run, bytes.
    pub peak_bytes: usize,
    /// Resolved block size of the dominant pipeline stage (0 = n/a).
    pub block_size: usize,
    /// Block count of that stage (0 = n/a).
    pub num_blocks: usize,
    /// Scheduler counters from the capture run, if one was taken.
    pub sched: Option<bds_pool::WorkerStats>,
    /// Resource-governance counters, if the run governed its pipelines
    /// (soak/overload binaries); `None` for ordinary measurements.
    pub gov: Option<GovCounters>,
    /// Request-level service counters, if the run drove a
    /// `bds_service::Service` (the `service_soak` binary); `None` for
    /// ordinary measurements.
    pub svc: Option<SvcCounters>,
    /// Plan-cache counters, if the run resolved its pipelines through a
    /// `bds_plan::PlanCache`; `None` for ordinary measurements.
    pub plan: Option<PlanCounters>,
    /// Block-recovery counters, if the run retried faulted blocks under
    /// a `bds_pool::RetryPolicy`; `None` for ordinary measurements.
    pub recovery: Option<RecoveryCounters>,
}

impl Record {
    /// Build a record from a [`Measurement`].
    pub fn from_measurement(op: &str, library: &str, n: usize, m: &Measurement) -> Record {
        let (block_size, num_blocks) = m.geometry();
        Record {
            op: op.to_string(),
            library: library.to_string(),
            n,
            procs: m.procs,
            policy: None,
            mean_s: m.timing.mean,
            min_s: m.timing.min,
            stddev_s: m.timing.stddev,
            repeats: m.timing.repeats,
            peak_bytes: m.peak_bytes,
            block_size,
            num_blocks,
            sched: m.capture.as_ref().map(|c| c.sched),
            gov: None,
            svc: None,
            plan: None,
            recovery: None,
        }
    }
}

/// Accumulates records for one figure binary and writes the document.
pub struct JsonReport {
    figure: String,
    scale: String,
    records: Vec<Record>,
}

impl JsonReport {
    /// Start a report for `figure` (e.g. `"fig13"`) at `scale`.
    pub fn new(figure: &str, scale: &str) -> JsonReport {
        JsonReport {
            figure: figure.to_string(),
            scale: scale.to_string(),
            records: Vec::new(),
        }
    }

    /// Append one measurement row.
    pub fn push(&mut self, record: Record) {
        self.records.push(record);
    }

    /// Serialize the document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", escape(SCHEMA));
        let _ = writeln!(out, "  \"figure\": {},", escape(&self.figure));
        let _ = writeln!(out, "  \"scale\": {},", escape(&self.scale));
        let _ = writeln!(out, "  \"max_procs\": {},", crate::max_procs());
        out.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str("    {");
            let _ = write!(
                out,
                "\"op\": {}, \"library\": {}, \"n\": {}, \"procs\": {}, \"policy\": {}, ",
                escape(&r.op),
                escape(&r.library),
                r.n,
                r.procs,
                match &r.policy {
                    Some(p) => escape(p),
                    None => "null".to_string(),
                }
            );
            let _ = write!(
                out,
                "\"mean_s\": {}, \"min_s\": {}, \"stddev_s\": {}, \"repeats\": {}, ",
                num(r.mean_s),
                num(r.min_s),
                num(r.stddev_s),
                r.repeats
            );
            let _ = write!(
                out,
                "\"peak_bytes\": {}, \"block_size\": {}, \"num_blocks\": {}, ",
                r.peak_bytes, r.block_size, r.num_blocks
            );
            match &r.sched {
                Some(s) => {
                    let _ = write!(
                        out,
                        "\"sched\": {{\"jobs\": {}, \"local_pops\": {}, \
                         \"injector_pops\": {}, \"steals\": {}, \
                         \"failed_steals\": {}, \"parks\": {}, \"idle_ns\": {}}}",
                        s.jobs_executed,
                        s.local_pops,
                        s.injector_pops,
                        s.steals,
                        s.failed_steals,
                        s.parks,
                        s.idle_ns
                    );
                }
                None => out.push_str("\"sched\": null"),
            }
            match &r.gov {
                Some(g) => {
                    let _ = write!(
                        out,
                        ", \"gov\": {{\"respawns\": {}, \
                         \"deadline_trips\": {}, \"mem_trips\": {}}}",
                        g.respawns, g.deadline_trips, g.mem_trips
                    );
                }
                None => out.push_str(", \"gov\": null"),
            }
            match &r.svc {
                Some(v) => {
                    let _ = write!(
                        out,
                        ", \"svc\": {{\"qps\": {}, \"p50_s\": {}, \"p99_s\": {}, \
                         \"submitted\": {}, \"completed\": {}, \"rejected\": {}, \
                         \"tenants\": [",
                        num(v.qps),
                        num(v.p50_s),
                        num(v.p99_s),
                        v.submitted,
                        v.completed,
                        v.rejected
                    );
                    for (t, (name, completed, block_retries)) in v.tenants.iter().enumerate() {
                        if t > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(
                            out,
                            "{{\"name\": {}, \"completed\": {}, \"block_retries\": {}}}",
                            escape(name),
                            completed,
                            block_retries
                        );
                    }
                    out.push_str("]}");
                }
                None => out.push_str(", \"svc\": null"),
            }
            match &r.plan {
                Some(p) => {
                    let _ = write!(
                        out,
                        ", \"plan\": {{\"hits\": {}, \"misses\": {}, \
                         \"entries\": {}, \"hit_rate\": {}}}",
                        p.hits,
                        p.misses,
                        p.entries,
                        num(p.hit_rate())
                    );
                }
                None => out.push_str(", \"plan\": null"),
            }
            match &r.recovery {
                Some(rec) => {
                    let _ = write!(
                        out,
                        ", \"recovery\": {{\"block_retries\": {}, \
                         \"quarantines\": {}, \"recovered_jobs\": {}}}",
                        rec.block_retries, rec.quarantines, rec.recovered_jobs
                    );
                }
                None => out.push_str(", \"recovery\": null"),
            }
            out.push('}');
            if i + 1 < self.records.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write the document to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.render().as_bytes())
    }
}

/// JSON string literal with escaping.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite JSON number (non-finite values have no JSON encoding; they can
/// only arise from a pathological clock and are reported as 0).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(jobs: u64, steals: u64) -> bds_pool::WorkerStats {
        bds_pool::WorkerStats {
            jobs_executed: jobs,
            steals,
            ..Default::default()
        }
    }

    #[test]
    fn renders_schema_and_records() {
        let mut rep = JsonReport::new("fig13", "quick");
        rep.push(Record {
            op: "bestcut".into(),
            library: "delay".into(),
            n: 1000,
            procs: 2,
            mean_s: 0.5,
            min_s: 0.25,
            stddev_s: 0.125,
            repeats: 3,
            peak_bytes: 4096,
            block_size: 128,
            num_blocks: 8,
            sched: Some(stats(40, 7)),
            policy: Some("adaptive".into()),
            gov: Some(GovCounters {
                respawns: 1,
                deadline_trips: 12,
                mem_trips: 3,
            }),
            svc: Some(SvcCounters {
                qps: 5120.0,
                p50_s: 0.0011,
                p99_s: 0.0089,
                submitted: 100,
                completed: 98,
                rejected: 2,
                tenants: vec![("alpha".into(), 49, 3), ("beta".into(), 49, 0)],
            }),
            plan: Some(PlanCounters {
                hits: 96,
                misses: 4,
                entries: 4,
            }),
            recovery: Some(RecoveryCounters {
                block_retries: 12,
                quarantines: 1,
                recovered_jobs: 11,
            }),
        });
        rep.push(Record {
            op: "bfs".into(),
            library: "array".into(),
            n: 1000,
            procs: 2,
            mean_s: 1.0,
            min_s: 1.0,
            stddev_s: 0.0,
            repeats: 1,
            peak_bytes: 0,
            block_size: 0,
            num_blocks: 0,
            sched: None,
            policy: None,
            gov: None,
            svc: None,
            plan: None,
            recovery: None,
        });
        let s = rep.render();
        assert!(s.contains("\"schema\": \"bds-bench/v2\""));
        assert!(s.contains("\"policy\": \"adaptive\""));
        assert!(s.contains("\"policy\": null"));
        assert!(s.contains("\"figure\": \"fig13\""));
        assert!(s.contains("\"min_s\": 0.25"));
        assert!(s.contains("\"steals\": 7, \"failed_steals\": 0"));
        assert!(s.contains("\"sched\": null"));
        assert!(s.contains(
            "\"gov\": {\"respawns\": 1, \"deadline_trips\": 12, \"mem_trips\": 3}"
        ));
        assert!(s.contains("\"gov\": null"));
        assert!(s.contains(
            "\"svc\": {\"qps\": 5120, \"p50_s\": 0.0011, \"p99_s\": 0.0089, \
             \"submitted\": 100, \"completed\": 98, \"rejected\": 2, \
             \"tenants\": [{\"name\": \"alpha\", \"completed\": 49, \"block_retries\": 3}, \
             {\"name\": \"beta\", \"completed\": 49, \"block_retries\": 0}]}"
        ));
        assert!(s.contains("\"svc\": null"));
        assert!(s.contains(
            "\"plan\": {\"hits\": 96, \"misses\": 4, \"entries\": 4, \"hit_rate\": 0.96}"
        ));
        assert!(s.contains("\"plan\": null"));
        assert!(s.contains(
            "\"recovery\": {\"block_retries\": 12, \"quarantines\": 1, \
             \"recovered_jobs\": 11}"
        ));
        assert!(s.contains("\"recovery\": null"));
        // Exactly one comma between the two records.
        assert_eq!(s.matches("},\n").count(), 1);
    }

    #[test]
    fn plan_hit_rate_handles_empty_and_full() {
        assert_eq!(PlanCounters::default().hit_rate(), 0.0);
        let p = PlanCounters {
            hits: 3,
            misses: 1,
            entries: 1,
        };
        assert_eq!(p.hit_rate(), 0.75);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("plain"), "\"plain\"");
    }

    #[test]
    fn non_finite_numbers_do_not_break_json() {
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
        assert_eq!(num(0.001), "0.001");
    }
}
