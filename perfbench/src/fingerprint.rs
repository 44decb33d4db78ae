//! Simulated fingerprints and the correctness check behind `failed_frac`.
//!
//! A cell's fingerprint is what the simulation produced: end cycle, events
//! dispatched, locks granted, per-thread acquires, and for chaos cells the
//! oracle verdict (STM cells add their transaction digest). Simulated
//! values repeat exactly, so they compare exactly.
//!
//! At the default seed every cell must match the table recorded in
//! `fingerprints.tsv`. The model is not validated against real hardware,
//! so these values are checked only against the repository's own outputs:
//! the table was written by `perfbench --record` and the test suite checks
//! it against the harness executors (`run_microbench`, `run_stm`,
//! `run_app`, `run_chaos`) called with the same arguments.

use std::collections::BTreeMap;

/// The workload seed the recorded table belongs to.
pub const DEFAULT_SEED: u64 = 42;

/// The recorded default-seed fingerprints.
pub const RECORDED: &str = include_str!("../fingerprints.tsv");

/// One cell's simulated outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Cell label.
    pub label: String,
    /// Simulated cycle the run ended at.
    pub end_cycle: u64,
    /// Simulation events dispatched (`engine.events`).
    pub events: u64,
    /// Lock acquisitions granted (`lock.granted`).
    pub granted: u64,
    /// Acquires granted to each thread, in thread order.
    pub acquires: Vec<u64>,
    /// Chaos verdict (`-` for other cells).
    pub verdict: String,
    /// Extra digest (STM: commits, aborts, transaction and thread cycles).
    pub extra: String,
}

impl Fingerprint {
    /// One tab-separated line (no newline).
    pub fn to_line(&self) -> String {
        let acq: Vec<String> = self.acquires.iter().map(u64::to_string).collect();
        let extra = if self.extra.is_empty() {
            "-"
        } else {
            &self.extra
        };
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.label,
            self.end_cycle,
            self.events,
            self.granted,
            acq.join(","),
            self.verdict,
            extra
        )
    }

    /// Parses a line written by [`Fingerprint::to_line`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn parse(line: &str) -> Result<Fingerprint, String> {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 7 {
            return Err(format!("expected 7 fields, got {}: {line:?}", f.len()));
        }
        let num = |s: &str, what: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("bad {what} {s:?} in {line:?}"))
        };
        let acquires = if f[4].is_empty() {
            Vec::new()
        } else {
            f[4].split(',')
                .map(|a| num(a, "acquire count"))
                .collect::<Result<_, _>>()?
        };
        Ok(Fingerprint {
            label: f[0].to_string(),
            end_cycle: num(f[1], "end cycle")?,
            events: num(f[2], "event count")?,
            granted: num(f[3], "granted count")?,
            acquires,
            verdict: f[5].to_string(),
            extra: if f[6] == "-" {
                String::new()
            } else {
                f[6].to_string()
            },
        })
    }
}

/// Recorded fingerprints keyed by `(workload, label)`.
#[derive(Debug, Clone, Default)]
pub struct Recorded {
    cells: BTreeMap<(String, String), Fingerprint>,
}

impl Recorded {
    /// Parses the recorded table: `workload<TAB>fingerprint line` rows;
    /// `#` lines are comments.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed line.
    pub fn parse(text: &str) -> Result<Recorded, String> {
        let mut cells = BTreeMap::new();
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (workload, rest) = line
                .split_once('\t')
                .ok_or_else(|| format!("missing workload field: {line:?}"))?;
            let fp = Fingerprint::parse(rest)?;
            cells.insert((workload.to_string(), fp.label.clone()), fp);
        }
        Ok(Recorded { cells })
    }

    /// The table compiled into the benchmark.
    pub fn builtin() -> Recorded {
        Recorded::parse(RECORDED).expect("the recorded fingerprint table parses")
    }

    /// The recorded fingerprint of one cell.
    pub fn get(&self, workload: &str, label: &str) -> Option<&Fingerprint> {
        self.cells.get(&(workload.to_string(), label.to_string()))
    }

    /// Replaces one cell's recorded fingerprint.
    pub fn set(&mut self, workload: &str, fp: Fingerprint) {
        self.cells
            .insert((workload.to_string(), fp.label.clone()), fp);
    }
}

/// Compares a cell's fingerprint against its recorded value, naming the
/// first field that differs.
///
/// # Errors
///
/// Returns the mismatch (or the missing record) as a message.
pub fn compare(fp: &Fingerprint, want: Option<&Fingerprint>) -> Result<(), String> {
    let Some(want) = want else {
        return Err(format!("{}: no recorded fingerprint", fp.label));
    };
    if fp == want {
        return Ok(());
    }
    let field = if fp.end_cycle != want.end_cycle {
        format!("end cycle {} != recorded {}", fp.end_cycle, want.end_cycle)
    } else if fp.events != want.events {
        format!("events {} != recorded {}", fp.events, want.events)
    } else if fp.granted != want.granted {
        format!("granted {} != recorded {}", fp.granted, want.granted)
    } else if fp.acquires != want.acquires {
        "per-thread acquires differ".to_string()
    } else if fp.verdict != want.verdict {
        format!("verdict {} != recorded {}", fp.verdict, want.verdict)
    } else {
        format!("digest {} != recorded {}", fp.extra, want.extra)
    };
    Err(format!("{}: {field}", fp.label))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Fingerprint {
        Fingerprint {
            label: "A/lcu/t4/w100".into(),
            end_cycle: 1234,
            events: 99,
            granted: 10,
            acquires: vec![3, 3, 4],
            verdict: "-".into(),
            extra: String::new(),
        }
    }

    #[test]
    fn line_round_trips() {
        let fp = sample();
        assert_eq!(Fingerprint::parse(&fp.to_line()), Ok(fp.clone()));
        let mut stm = fp;
        stm.extra = "commits=4,aborts=0".into();
        assert_eq!(Fingerprint::parse(&stm.to_line()), Ok(stm));
        assert!(Fingerprint::parse("a\tb").is_err());
    }

    #[test]
    fn compare_names_the_differing_field() {
        let fp = sample();
        assert!(compare(&fp, Some(&fp)).is_ok());
        let mut other = fp.clone();
        other.events += 1;
        assert!(compare(&fp, Some(&other)).unwrap_err().contains("events"));
        assert!(compare(&fp, None).unwrap_err().contains("no recorded"));
    }

    #[test]
    fn builtin_table_covers_every_default_cell() {
        let rec = Recorded::builtin();
        for w in crate::cells::Workload::ALL {
            for c in crate::cells::cells(w, DEFAULT_SEED) {
                assert!(rec.get(w.name(), &c.label).is_some(), "{}", c.label);
            }
        }
    }
}
