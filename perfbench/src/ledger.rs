//! Correctness checks made apart from the program.
//!
//! Each generator thread or session keeps its own [`Ledger`] of the deltas
//! its committed transactions applied; children aborted on purpose never
//! enter it. After a run the merged ledger predicts every key's value, and
//! the program's state (read back through its public API) must match it
//! exactly. The checks record their findings in [`Checks`]; any finding
//! makes the run incorrect.

/// Committed deltas per key.
#[derive(Clone, Debug)]
pub struct Ledger {
    delta: Vec<i64>,
    /// Top-level transactions this ledger's owner committed.
    pub commits: u64,
}

impl Ledger {
    /// An empty ledger over `keys` keys.
    pub fn new(keys: usize) -> Ledger {
        Ledger {
            delta: vec![0; keys],
            commits: 0,
        }
    }

    /// Record that a committed transaction added `d` to `key`.
    pub fn add(&mut self, key: usize, d: i64) {
        self.delta[key] += d;
    }

    /// Fold another ledger over the same keys into this one.
    pub fn merge(&mut self, other: &Ledger) {
        for (a, b) in self.delta.iter_mut().zip(&other.delta) {
            *a += b;
        }
        self.commits += other.commits;
    }

    /// The value the ledger predicts for `key` from its initial value.
    pub fn expect(&self, key: usize, initial: i64) -> i64 {
        initial + self.delta[key]
    }

    /// Number of keys.
    pub fn keys(&self) -> usize {
        self.delta.len()
    }
}

/// The findings of every check of one run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Record a finding.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Fold a check's result in.
    pub fn add(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.fail(e);
        }
    }

    /// `true` when no check found anything.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The findings, one a line.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// The state read back from the program must equal initial value plus the
/// ledger, key by key. `what` names the state (for the finding).
pub fn check_state(
    what: &str,
    ledger: &Ledger,
    initial: impl Fn(usize) -> i64,
    actual: &[i64],
) -> Result<(), String> {
    if actual.len() != ledger.keys() {
        return Err(format!(
            "{what}: {} keys read back, ledger has {}",
            actual.len(),
            ledger.keys()
        ));
    }
    let bad: Vec<usize> = (0..actual.len())
        .filter(|&k| actual[k] != ledger.expect(k, initial(k)))
        .collect();
    match bad.first() {
        None => Ok(()),
        Some(&k) => Err(format!(
            "{what}: {} key(s) differ from the ledger, first key {k}: program {} vs ledger {}",
            bad.len(),
            actual[k],
            ledger.expect(k, initial(k))
        )),
    }
}

/// A consistent cut of one group must sum to the group's fixed total.
pub fn check_group_sum(group: usize, values: &[i64], total: i64) -> Result<(), String> {
    let sum: i64 = values.iter().sum();
    if sum == total {
        Ok(())
    } else {
        Err(format!(
            "snapshot of group {group} sums to {sum}, the group total is {total}"
        ))
    }
}

/// Two counts that must agree: the program's and the one the generator or
/// the ledger expects (top-level commits, commits replayed by recovery).
pub fn check_eq(what: &str, program: u64, expected: u64) -> Result<(), String> {
    if program == expected {
        Ok(())
    } else {
        Err(format!("{what}: program {program}, expected {expected}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> Ledger {
        let mut l = Ledger::new(4);
        l.add(1, 5);
        l.add(2, -3);
        l.add(1, 2);
        l.commits = 2;
        l
    }

    #[test]
    fn state_matching_the_ledger_passes() {
        let l = ledger();
        let state = [10, 17, 7, 10];
        assert!(check_state("s", &l, |_| 10, &state).is_ok());
    }

    #[test]
    fn corrupted_state_is_rejected() {
        let l = ledger();
        let e = check_state("s", &l, |_| 10, &[10, 17, 8, 10]).unwrap_err();
        assert!(e.contains("first key 2"), "{e}");
        assert!(check_state("s", &l, |_| 10, &[10, 17, 7]).is_err());
    }

    #[test]
    fn corrupted_ledger_is_rejected() {
        let mut l = ledger();
        // An aborted child's delta that leaked into the ledger.
        l.add(3, 1_000_000);
        assert!(check_state("s", &l, |_| 10, &[10, 17, 7, 10]).is_err());
    }

    #[test]
    fn merged_ledgers_add_up() {
        let mut a = ledger();
        a.merge(&ledger());
        assert_eq!(a.expect(1, 0), 14);
        assert_eq!(a.commits, 4);
    }

    #[test]
    fn torn_snapshot_is_rejected() {
        assert!(check_group_sum(0, &[5, 5, 6], 16).is_ok());
        // Half a transfer: debit seen, credit not.
        assert!(check_group_sum(0, &[5, 5, 1], 16).is_err());
    }

    #[test]
    fn commit_count_mismatch_is_rejected() {
        assert!(check_eq("commits", 10, 10).is_ok());
        assert!(check_eq("commits", 11, 10).is_err());
        assert!(check_eq("replayed", 3, 4).is_err());
    }

    #[test]
    fn checks_collect_findings() {
        let mut c = Checks::default();
        c.add(Ok(()));
        assert!(c.ok());
        c.add(check_eq("commits", 1, 2));
        assert!(!c.ok());
        assert_eq!(c.failures().len(), 1);
    }
}
