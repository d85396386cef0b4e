//! Turns what a run measured into named metrics: the end-to-end list of
//! a timed run, and the per-layer ledger of a traced run (counts from
//! the `TelemetrySnapshot`, times from benchmark-side spans, isolated
//! costs from the layer suite, and their reconciliation).

use std::collections::HashMap;

use crate::runner::{median, percentile, Summary};
use crate::trace::{Kind, Span};
use crate::workloads::{Outcome, Traced};

/// The end-to-end metrics of one timed run, in `spec::END_TO_END` order,
/// followed by figures that are printed beside them and nothing else.
pub struct EndToEndValues {
    pub metrics: Vec<(&'static str, f64)>,
    pub printed: Vec<(&'static str, f64, &'static str)>,
}

pub fn end_to_end(outcome: &Outcome, setup_s: f64) -> EndToEndValues {
    let steady = steady(outcome);
    EndToEndValues {
        metrics: vec![
            ("setup_s", setup_s),
            ("epochs_per_s", steady.rate),
            ("fresh_p50_ms", steady.p50_ms),
            ("fresh_p95_ms", steady.p95_ms),
            (
                "progress_bytes_per_epoch",
                outcome.progress_bytes as f64 / outcome.attempted as f64,
            ),
        ],
        printed: vec![
            (
                "epochs_per_s.raw",
                outcome.ops_timed as f64 / outcome.wall_s,
                "1/s",
            ),
            (
                "fresh_p50_ms.raw",
                percentile(&outcome.latencies_ms, 50.0),
                "ms",
            ),
            (
                "fresh_p95_ms.raw",
                percentile(&outcome.latencies_ms, 95.0),
                "ms",
            ),
            (
                "latency_samples",
                outcome.latencies_ms.len() as f64,
                "count",
            ),
            ("probe.quiet_us", steady.quiet_us, "us"),
            ("probe.mean_slowdown", steady.mean_slowdown, "ratio"),
            ("probe.blocks_kept", steady.kept_share, "ratio"),
        ],
    }
}

/// The issue's end-to-end names that are zero on some workload or too
/// unsteady for a bound (`Source::Untraced` in the spec), from one
/// execution with telemetry off. `net_bytes_per_record` comes from
/// `workloads::net_bytes_per_record`.
pub fn untraced(outcome: &Outcome, net_bytes_per_record: f64) -> Vec<(&'static str, f64)> {
    let steady = steady(outcome);
    vec![
        ("peak_rss_mb", outcome.peak_rss_mb),
        ("fresh_p99_ms", steady.p99_ms),
        ("net_bytes_per_record", net_bytes_per_record),
        ("records_per_s", steady.rate * outcome.records_per_op),
    ]
}

/// The timed window on the quiet machine's clock.
pub struct Steady {
    /// Operations per second, and the median and 95th percentile of
    /// their latency: medians over the window's slices.
    pub rate: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// The 99th percentile over all kept operations of the window.
    pub p99_ms: f64,
    /// The quiet machine's probe time, the mean probe time of the
    /// window as a multiple of it, and the share of blocks kept. Zero
    /// where the window was too short to say, and the figures are raw.
    pub quiet_us: f64,
    pub mean_slowdown: f64,
    pub kept_share: f64,
}

/// A block is the grain at which the window is put on the quiet
/// machine's clock: long enough for a handful of probes from every
/// worker, short next to the seconds a neighbour's burst lasts.
const BLOCK_S: f64 = 0.25;
/// The figures are medians over this many equal parts of the window,
/// so that a bad stretch moves one part, not the result.
const SLICES: usize = 10;
/// A slice with fewer kept operations than this says nothing.
const SLICE_MIN_OPS: usize = 5;

/// One block: the operations that completed in it, by how much the
/// probes say it was stretched, and whether the host took a vCPU away
/// during it.
struct Block {
    ops: std::ops::Range<usize>,
    stretch: f64,
    stolen: bool,
}

/// Puts the window on the quiet machine's clock and summarises it.
///
/// Ten runs of one binary on the reference box spread 25-45 % on every
/// raw timing, because a neighbour of the VM slows its vCPUs for
/// seconds to hours (see `probe`). So every worker times a fixed piece
/// of arithmetic between operations, and:
///
/// 1. the window is cut into blocks of `BLOCK_S`; a block's slowdown
///    `x` is its mean probe time (mean over the workers) over the
///    run's quiet probe time;
/// 2. a block during which any probe ran `probe::STOLEN` times slow,
///    or some worker did not probe, is dropped: the host had taken a
///    vCPU away, and that time is not the program's;
/// 3. the time of a kept block, and the latency of every operation
///    that completed in it, is divided by `1 + share * (x - 1)`, where
///    `share` is the workload's `Pace::speed_share`;
/// 4. the window is cut into `SLICES` parts, each part gives its
///    operations per second and its latency percentiles from its kept
///    blocks, and the result is the median over the parts.
///
/// This is a covariate adjustment, not a measurement of another
/// machine: a program that gets slower stretches every block alike and
/// shows in full. Over 22 runs in quiet and loud hours it brought the
/// spread of ten runs from 25-45 % to 5-14 % (README.md, "Noise").
/// When fewer than three slices have enough kept operations, step 2 is
/// skipped; a window too short for that too (the smoke test's) is
/// reported raw.
pub fn steady(outcome: &Outcome) -> Steady {
    let raw = Steady {
        rate: outcome.ops_timed as f64 / outcome.wall_s,
        p50_ms: percentile(&outcome.latencies_ms, 50.0),
        p95_ms: percentile(&outcome.latencies_ms, 95.0),
        p99_ms: percentile(&outcome.latencies_ms, 99.0),
        quiet_us: 0.0,
        mean_slowdown: 0.0,
        kept_share: 0.0,
    };
    let all: Vec<f64> = outcome.probes.iter().flatten().map(|p| p.1).collect();
    let Some(quiet_us) = crate::probe::quiet(&all) else {
        return raw;
    };
    let count = ((outcome.wall_s / BLOCK_S) as usize).max(1);
    let width = outcome.wall_s / count as f64;
    let mut blocks = Vec::with_capacity(count);
    let mut start = 0;
    for b in 0..count {
        let (from, to) = (b as f64 * width, (b + 1) as f64 * width);
        // Completions are in order; the last block takes the rest.
        let end = if b + 1 == count {
            outcome.completed_s.len()
        } else {
            outcome.completed_s.partition_point(|t| *t < to)
        };
        let mut slowdown = 0.0;
        let mut stolen = false;
        for worker in &outcome.probes {
            let lo = worker.partition_point(|p| p.0 < from);
            let hi = worker.partition_point(|p| p.0 < to);
            let probes = &worker[lo..hi];
            stolen |=
                probes.is_empty() || probes.iter().any(|p| p.1 > quiet_us * crate::probe::STOLEN);
            // An unprobed worker counts as quiet where the block is kept
            // after all (the fallback below).
            let mean_us = if probes.is_empty() {
                quiet_us
            } else {
                probes.iter().map(|p| p.1).sum::<f64>() / probes.len() as f64
            };
            slowdown += mean_us / (quiet_us * outcome.probes.len() as f64);
        }
        blocks.push(Block {
            ops: start..end,
            stretch: 1.0 + outcome.speed_share * (slowdown - 1.0),
            stolen,
        });
        start = end;
    }

    let summarise = |drop_stolen: bool| -> Option<(f64, f64, f64, f64)> {
        let slices = SLICES.min(count);
        let (mut rates, mut p50, mut p95) = (Vec::new(), Vec::new(), Vec::new());
        let mut pool = Vec::new();
        for s in 0..slices {
            let part = &blocks[s * count / slices..(s + 1) * count / slices];
            let mut seconds = 0.0;
            let mut latencies = Vec::new();
            for block in part.iter().filter(|b| !(drop_stolen && b.stolen)) {
                seconds += width / block.stretch;
                latencies.extend(
                    outcome.latencies_ms[block.ops.clone()]
                        .iter()
                        .map(|l| l / block.stretch),
                );
            }
            if latencies.len() >= SLICE_MIN_OPS {
                rates.push(latencies.len() as f64 / seconds);
                p50.push(percentile(&latencies, 50.0));
                p95.push(percentile(&latencies, 95.0));
                pool.extend(latencies);
            }
        }
        (rates.len() >= 3.min(slices)).then(|| {
            (
                median(&rates),
                median(&p50),
                median(&p95),
                percentile(&pool, 99.0),
            )
        })
    };
    let kept = blocks.iter().filter(|b| !b.stolen).count() as f64 / count as f64;
    let (figures, kept_share) = match summarise(true) {
        Some(figures) => (figures, kept),
        None => match summarise(false) {
            Some(figures) => (figures, 1.0),
            None => return raw,
        },
    };
    Steady {
        rate: figures.0,
        p50_ms: figures.1,
        p95_ms: figures.2,
        p99_ms: figures.3,
        quiet_us,
        mean_slowdown: all.iter().sum::<f64>() / (all.len() as f64 * quiet_us),
        kept_share,
    }
}

/// One set-up-only repetition: its duration, and the main thread's
/// speed probes just before and just after it, in microseconds.
pub struct SetupRep {
    pub seconds: f64,
    pub before_us: f64,
    pub after_us: f64,
}

/// `setup_s` on the quiet machine's clock, as [`steady`] does it for the
/// window: each repetition is divided by the mean of its two probes
/// over the quiet probe time (thread spawn and dataflow construction
/// are processor work, so the share is 1), repetitions beside a stolen
/// vCPU are dropped, and the result is the median of the rest. The
/// quiet probe time is taken over these probes and the run's own.
pub fn steady_setup(reps: &[SetupRep], outcome: &Outcome) -> f64 {
    let raw: Vec<f64> = reps.iter().map(|r| r.seconds).collect();
    let mut all: Vec<f64> = outcome.probes.iter().flatten().map(|p| p.1).collect();
    all.extend(reps.iter().flat_map(|r| [r.before_us, r.after_us]));
    let Some(quiet_us) = crate::probe::quiet(&all) else {
        return median(&raw);
    };
    let kept: Vec<f64> = reps
        .iter()
        .filter(|r| r.before_us.max(r.after_us) <= quiet_us * crate::probe::STOLEN)
        .map(|r| r.seconds * 2.0 * quiet_us / (r.before_us + r.after_us))
        .collect();
    median(if kept.is_empty() { &raw } else { &kept })
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The traced-source per-layer metrics of one traced run. `untraced_rate`
/// is the steady operations per second of the untraced control that
/// preceded it;
/// `costs` are the layer suite's medians.
pub fn traced_metrics(
    workload: &str,
    outcome: &Outcome,
    traced: &Traced,
    untraced_rate: f64,
    costs: &HashMap<&'static str, Summary>,
) -> (Vec<(&'static str, f64)>, String) {
    let snapshot = &traced.snapshot;
    let epochs = outcome.attempted as f64;
    let workers = snapshot.workers.len() as f64;
    let sum = |f: fn(&naiad::telemetry::WorkerCounters) -> u64| -> f64 {
        snapshot.workers.iter().map(|w| f(&w.counters) as f64).sum()
    };

    let msgs_sent = sum(|c| c.messages_sent);
    let records_sent = sum(|c| c.records_sent);
    // Under the default `ProgressMode` workers deposit their updates
    // with a process accumulator, which puts the batches on the fabric;
    // under `Broadcast` they send directly. Count both ways out.
    let batches_sent = snapshot.traffic.progress_total.messages as f64;
    let updates_sent = sum(|c| c.progress_updates_sent + c.progress_updates_deposited);
    let batches_applied = sum(|c| c.progress_batches_applied);
    let updates_applied = sum(|c| c.progress_updates_applied);
    let steps = sum(|c| c.steps);
    let schedules: f64 = snapshot.operators.iter().map(|o| o.schedules as f64).sum();
    let worked: f64 = snapshot.operators.iter().map(|o| o.worked as f64).sum();
    let busy_ns: f64 = snapshot.operators.iter().map(|o| o.busy_nanos as f64).sum();
    let records_in: f64 = snapshot.operators.iter().map(|o| o.records_in as f64).sum();

    // The busiest operator, summed over workers.
    let mut by_stage: HashMap<(u32, u32), (f64, &str)> = HashMap::new();
    for op in &snapshot.operators {
        let entry = by_stage
            .entry((op.dataflow, op.stage))
            .or_insert((0.0, &op.name));
        entry.0 += op.busy_nanos as f64;
    }
    let (top_busy_ns, top_name) =
        by_stage
            .values()
            .copied()
            .fold((0.0, "-"), |best, op| if op.0 > best.0 { op } else { best });

    let all_spans = || traced.spans.iter().flatten();
    let total = |kind: Kind| -> f64 {
        all_spans()
            .filter(|s| s.kind == kind)
            .map(|s| s.nanos() as f64)
            .sum()
    };
    let count = |kind: Kind| all_spans().filter(|s| s.kind == kind).count() as f64;
    let step_ns: Vec<f64> = all_spans()
        .filter(|s| matches!(s.kind, Kind::Step | Kind::WaitStep))
        .map(|s| s.nanos() as f64)
        .collect();
    let step_total_ns: f64 = step_ns.iter().sum();
    let fed = epochs * outcome.records_per_op;

    let exec_ns = outcome.exec_wall_s * 1e9;
    let traced_rate = steady(outcome).rate;

    // Reconciliation: price the traced counts with the isolated costs
    // and compare with the worker-seconds the run had. The idle-step
    // floor overlaps operator busy time by the un-worked slices' pumps;
    // the residual is reported, not asserted.
    let cost = |name: &str| costs.get(name).map_or(0.0, |s| s.median);
    let remote_records: f64 =
        snapshot.traffic.data_network.messages as f64 * ratio(records_sent, msgs_sent);
    let (encode, decode) = if workload == "exchange_u64" {
        ("wire.u64.encode_ns_per_rec", "wire.u64.decode_ns_per_rec")
    } else {
        (
            "wire.kv_row.encode_ns_per_rec",
            "wire.kv_row.decode_owned_ns_per_rec",
        )
    };
    let fabric_msgs =
        (snapshot.traffic.data_total.messages + snapshot.traffic.progress_total.messages) as f64;
    let explained = remote_records * (cost(encode) + cost(decode))
        + snapshot.traffic.data_network.messages as f64 * cost("netsim.hop_ns.4k")
        + (fabric_msgs - snapshot.traffic.data_network.messages as f64) * cost("netsim.hop_ns.64b")
        + updates_applied * cost("progress.tracker.update_ns.live16") / 2.0
        + steps * cost("worker.step_idle_ns.ops16")
        + busy_ns;
    let residual_pct = (exec_ns * workers - explained) / (exec_ns * workers) * 100.0;

    let metrics = vec![
        (
            "wire.slab.reuse_ratio",
            ratio(
                snapshot.slab.slab_reuses as f64,
                (snapshot.slab.slab_allocs + snapshot.slab.slab_reuses) as f64,
            ),
        ),
        (
            "netsim.data_msgs",
            snapshot.traffic.data_total.messages as f64,
        ),
        (
            "netsim.data_bytes",
            snapshot.traffic.data_total.bytes as f64,
        ),
        (
            "netsim.progress_msgs",
            snapshot.traffic.progress_total.messages as f64,
        ),
        (
            "netsim.progress_bytes",
            snapshot.traffic.progress_total.bytes as f64,
        ),
        ("channels.msgs_sent", msgs_sent),
        ("channels.records_sent", records_sent),
        ("channels.records_per_msg", ratio(records_sent, msgs_sent)),
        ("flow.credit_waits", snapshot.flow.credit_waits as f64),
        ("flow.credit_wait_ns", snapshot.flow.credit_wait_ns as f64),
        ("progress.batches_sent", batches_sent),
        ("progress.updates_sent", updates_sent),
        ("progress.updates_applied", updates_applied),
        (
            "progress.updates_per_batch",
            ratio(updates_applied, batches_applied),
        ),
        ("progress.updates_per_epoch", ratio(updates_sent, epochs)),
        ("worker.steps", steps),
        ("worker.steps_per_epoch", ratio(steps, epochs)),
        ("worker.schedules", schedules),
        ("worker.worked_ratio", ratio(worked, schedules)),
        ("worker.step_total_ns", step_total_ns),
        (
            "worker.step_p99_us",
            if step_ns.is_empty() {
                0.0
            } else {
                percentile(&step_ns, 99.0) / 1e3
            },
        ),
        ("worker.step_self_ns", step_total_ns - busy_ns),
        (
            "dataflow.build_ms",
            ratio(total(Kind::Build), count(Kind::Build)) / 1e6,
        ),
        ("dataflow.feed_ns_per_rec", ratio(total(Kind::Feed), fed)),
        (
            "dataflow.advance_ns",
            ratio(total(Kind::Advance), count(Kind::Advance)),
        ),
        ("operators.busy_ns_per_rec", ratio(busy_ns, records_in)),
        ("operators.busy_share", busy_ns / (exec_ns * workers)),
        (
            "operators.top_busy_share",
            top_busy_ns / (exec_ns * workers),
        ),
        (
            "telemetry.tax_pct",
            (untraced_rate / traced_rate - 1.0) * 100.0,
        ),
        (
            "telemetry.events_dropped",
            snapshot.total_events_dropped() as f64,
        ),
        ("reconcile.residual_pct", residual_pct),
    ];
    (metrics, top_name.to_string())
}

/// Span totals by kind, for the human-readable part of a traced run.
pub fn span_table(spans: &[Vec<Span>]) -> String {
    let mut out = String::new();
    for kind in [
        Kind::Build,
        Kind::Epoch,
        Kind::Generate,
        Kind::Feed,
        Kind::Advance,
        Kind::Step,
        Kind::WaitStep,
    ] {
        let of_kind: Vec<f64> = spans
            .iter()
            .flatten()
            .filter(|s| s.kind == kind)
            .map(|s| s.nanos() as f64)
            .collect();
        if of_kind.is_empty() {
            continue;
        }
        out.push_str(&format!(
            "  span {:<11} n {:>9}  total {:>10.3} ms  median {:>10.1} us\n",
            kind.name(),
            of_kind.len(),
            of_kind.iter().sum::<f64>() / 1e6,
            median(&of_kind) / 1e3,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 10 s window of 10 ms operations on a machine that runs at half
    /// speed in every second second, and loses a vCPU in one block.
    fn window() -> Outcome {
        let (mut completed_s, mut latencies_ms) = (Vec::new(), Vec::new());
        let mut probes = vec![Vec::new(), Vec::new()];
        let mut now = 0.0;
        while now < 10.0 {
            let slow = (now as u64) % 2 == 1;
            let stolen = (4.25..4.5).contains(&now);
            let op = if stolen {
                0.08
            } else if slow {
                0.02
            } else {
                0.01
            };
            for worker in &mut probes {
                worker.push((
                    now,
                    if stolen {
                        900.0
                    } else if slow {
                        200.0
                    } else {
                        100.0
                    },
                ));
            }
            now += op;
            completed_s.push(now);
            latencies_ms.push(op * 1e3);
        }
        Outcome {
            setup_s: 0.0,
            wall_s: now,
            ops_timed: completed_s.len() as u64,
            latencies_ms,
            completed_s,
            probes,
            speed_share: 1.0,
            attempted: 0,
            failed: 0,
            records_per_op: 0.0,
            data_net_bytes: 0,
            progress_bytes: 0,
            exec_wall_s: now,
            peak_rss_mb: 0.0,
            traced: None,
        }
    }

    #[test]
    fn steady_reports_the_quiet_machine() {
        let outcome = window();
        let raw_rate = outcome.ops_timed as f64 / outcome.wall_s;
        assert!((60.0..80.0).contains(&raw_rate), "{raw_rate}");
        let steady = steady(&outcome);
        assert_eq!(steady.quiet_us, 100.0);
        assert!((steady.rate - 100.0).abs() < 3.0, "{}", steady.rate);
        assert!((steady.p50_ms - 10.0).abs() < 0.3, "{}", steady.p50_ms);
        assert!((steady.p95_ms - 10.0).abs() < 0.3, "{}", steady.p95_ms);
        assert!(steady.kept_share < 1.0);
    }

    #[test]
    fn a_slower_program_shows_in_full() {
        let mut outcome = window();
        // Every operation takes 30 % longer; the probes say the same.
        for t in &mut outcome.completed_s {
            *t *= 1.3;
        }
        for l in &mut outcome.latencies_ms {
            *l *= 1.3;
        }
        for p in outcome.probes.iter_mut().flatten() {
            p.0 *= 1.3;
        }
        outcome.wall_s *= 1.3;
        outcome.exec_wall_s *= 1.3;
        let steady = steady(&outcome);
        assert!((steady.rate - 100.0 / 1.3).abs() < 3.0, "{}", steady.rate);
        assert!((steady.p50_ms - 13.0).abs() < 0.4, "{}", steady.p50_ms);
    }

    #[test]
    fn a_window_without_probes_is_reported_raw() {
        let mut outcome = window();
        outcome.probes = vec![Vec::new(), Vec::new()];
        let steady = steady(&outcome);
        assert_eq!(steady.quiet_us, 0.0);
        assert_eq!(steady.rate, outcome.ops_timed as f64 / outcome.wall_s);
    }
}
