//! Output verification: every op's output is digested, compared with
//! the digest pinned for the default seed, and with the first digest
//! the same input produced in this run.

use std::collections::BTreeMap;

/// Digests pinned for seed 0: `<workload> <key> <hex digest>` per line.
const PINNED: &str = include_str!("../pinned.txt");

/// FNV-1a 64 of `bytes`.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Checks op outputs of one workload run.
#[derive(Debug)]
pub struct Verifier {
    workload: String,
    pinned: BTreeMap<String, u64>,
    first: BTreeMap<String, u64>,
    mismatches: Vec<String>,
}

impl Verifier {
    /// A verifier for `workload`; pinned digests apply only to seed 0.
    pub fn new(workload: &str, seed: u64) -> Self {
        let pinned = if seed == 0 { pinned_for(PINNED, workload) } else { BTreeMap::new() };
        Verifier::with_pins(workload, pinned)
    }

    fn with_pins(workload: &str, pinned: BTreeMap<String, u64>) -> Self {
        Verifier {
            workload: workload.to_string(),
            pinned,
            first: BTreeMap::new(),
            mismatches: Vec::new(),
        }
    }

    /// Checks one op's output for input `key`. Returns `false` (and
    /// records why) if the digest differs from the pinned one or from
    /// the first output seen for the same key.
    pub fn check(&mut self, key: &str, output: &[u8]) -> bool {
        let d = digest(output);
        if let Some(&pin) = self.pinned.get(key) {
            if pin != d {
                self.mismatches.push(format!("{key}: {d:016x} != pinned {pin:016x}"));
                return false;
            }
        }
        match self.first.get(key) {
            Some(&first) if first != d => {
                self.mismatches.push(format!("{key}: {d:016x} != first {first:016x}"));
                false
            }
            Some(_) => true,
            None => {
                eprintln!("digest {} {key} {d:016x}", self.workload);
                self.first.insert(key.to_string(), d);
                true
            }
        }
    }

    /// Records a failed check made outside [`Verifier::check`].
    pub fn fail(&mut self, why: String) {
        self.mismatches.push(why);
    }

    /// Every mismatch so far.
    pub fn mismatches(&self) -> &[String] {
        &self.mismatches
    }
}

fn pinned_for(text: &str, workload: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (w, key, hex) = (f.next()?, f.next()?, f.next()?);
            let d = u64::from_str_radix(hex, 16).expect("pinned digests are hex");
            (w == workload).then(|| (key.to_string(), d))
        })
        .collect()
}

/// Ops whose output verified, as a share of ops attempted.
pub fn success_ratio(attempted: u64, failed: u64) -> f64 {
    (attempted - failed.min(attempted)) as f64 / attempted.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_byte_fails_the_op() {
        let output = b"config,kind\nfixed-0.30 GHz,fixed\n".to_vec();
        let mut flipped = output.clone();
        flipped[7] ^= 0x01;
        let mut v = Verifier::with_pins("study", BTreeMap::new());
        let outcomes = [&output, &flipped, &output].map(|o| v.check("01", o));
        let failed = outcomes.iter().filter(|ok| !**ok).count() as u64;
        assert_eq!(outcomes, [true, false, true]);
        assert!(success_ratio(3, failed) < 1.0);
        assert_eq!(v.mismatches().len(), 1);
    }

    #[test]
    fn pinned_digests_are_checked_on_first_sight() {
        let pins =
            pinned_for("# comment\nstudy 01 00000000000000ff\ntune 01 0000000000000001\n", "study");
        assert_eq!(pins.len(), 1);
        let mut v = Verifier::with_pins("study", pins);
        assert!(!v.check("01", b"anything"));
        assert!(v.check("02", b"unpinned keys only need to repeat"));
    }

    #[test]
    fn pinned_file_parses() {
        for w in ["study", "tune", "fleet"] {
            assert!(!pinned_for(PINNED, w).is_empty(), "no pinned digests for {w}");
        }
    }

    #[test]
    fn ratio_of_clean_run_is_one() {
        assert_eq!(success_ratio(40, 0), 1.0);
        assert_eq!(success_ratio(4, 1), 0.75);
    }
}
