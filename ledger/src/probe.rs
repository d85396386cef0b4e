//! The speed probe: a fixed piece of arithmetic that every worker times
//! between operations, about once in ten milliseconds.
//!
//! The reference box is two vCPUs of a shared host. A neighbour on the
//! sibling hyperthread slows a vCPU to 0.5-0.6 of its speed for
//! anything from a tenth of a second to an hour, and the host takes a
//! vCPU away altogether for milliseconds at a time; neither shows as
//! steal time in the guest. Ten runs of one binary then spread 25-45 %
//! on every timing, which no regression bound survives. The probe says
//! how fast the vCPU was around each operation, and `report` puts every
//! timing on the quiet machine's clock with it (see `report::steady`).

use std::time::{Duration, Instant};

/// Multiply-add rounds of one probe, about 95 us on the quiet reference
/// box: eight independent chains keep the core's ports busy, which is
/// what a busy sibling hyperthread slows. A single dependent chain, or
/// a pointer chase, runs at full speed beside one.
const ROUNDS: u64 = 36_000;

/// Workers probe at most this often: one to two percent of their time.
const EVERY: Duration = Duration::from_millis(10);

/// A probe this many times slower than the quiet one did not run
/// beside a busy sibling (that costs 1.7-2.2x): the host took the vCPU
/// away in the middle of it.
pub const STOLEN: f64 = 2.5;

#[inline(never)]
fn spin(rounds: u64) -> u64 {
    let mut chains = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut sum = 0u64;
    for i in 0..rounds {
        for (k, x) in chains.iter_mut().enumerate() {
            *x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i ^ k as u64);
        }
        sum ^= chains.iter().fold(0, |acc, x| acc ^ x);
    }
    sum
}

/// One timed probe, in microseconds.
pub fn once() -> f64 {
    let start = Instant::now();
    std::hint::black_box(spin(std::hint::black_box(ROUNDS)));
    start.elapsed().as_secs_f64() * 1e6
}

/// The probes of one thread: when each started and how long it took.
#[derive(Default)]
pub struct Probes {
    pub at: Vec<Instant>,
    pub micros: Vec<f64>,
}

impl Probes {
    /// Probes unless the last probe is younger than [`EVERY`]; says
    /// whether it did.
    pub fn maybe(&mut self, now: Instant) -> bool {
        if self.at.last().is_some_and(|last| now - *last < EVERY) {
            return false;
        }
        self.at.push(Instant::now());
        self.micros.push(once());
        true
    }
}

/// The quiet machine's probe time among `micros`: the median of the
/// probes within a tenth of the third fastest. Even an hour in which
/// nine probes in ten ran beside a busy sibling has quiet ones (the
/// neighbour's load comes in bursts), so the fast end of a run's probes
/// is the same on every run, where a fixed percentile of them is not.
/// Third fastest, not fastest: an odd probe runs 10 % fast (turbo).
pub fn quiet(micros: &[f64]) -> Option<f64> {
    let mut sorted = micros.to_vec();
    sorted.sort_by(f64::total_cmp);
    let floor = *sorted.get(2)?;
    let cluster = sorted.partition_point(|v| *v <= floor * 1.1);
    Some(sorted[cluster / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_is_the_fast_cluster_not_a_percentile() {
        // Nine loud probes in ten, and one turbo outlier.
        let mut micros = vec![85.0];
        for i in 0..1000 {
            micros.push(if i % 10 == 0 {
                96.0 + (i % 3) as f64
            } else {
                185.0
            });
        }
        let q = quiet(&micros).unwrap();
        assert!((96.0..=98.0).contains(&q), "{q}");
        assert_eq!(quiet(&[100.0, 101.0]), None);
    }

    #[test]
    fn probes_keep_their_distance() {
        let mut probes = Probes::default();
        assert!(probes.maybe(Instant::now()));
        assert!(!probes.maybe(Instant::now()));
        assert_eq!(probes.micros.len(), 1);
        assert!(probes.micros[0] > 0.0);
    }
}
