//! The general operator builder end to end: a true Figure 4 vertex (one
//! input, two outputs — distinct records eagerly, counts on notify) and a
//! two-input, two-output router, across multiple workers.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use naiad::dataflow::builder::OperatorBuilder;
use naiad::runtime::Pact;
use naiad::{execute, Config, Timestamp};

/// Figure 4 with two real output ports: `distinct` emits from OnRecv,
/// `counts` from OnNotify.
#[test]
fn figure_four_with_two_outputs() {
    let results = execute(Config::single_process(2), |worker| {
        let (mut input, distinct_cap, counts_cap) = worker.dataflow(|scope| {
            let (input, words) = scope.new_input::<String>();
            let context = words.context();
            let mut builder = OperatorBuilder::new(scope, "DistinctCount", context);
            let mut port = builder.add_input(&words, Pact::exchange(|w: &String| w.len() as u64));
            let (distinct_port, distinct) = builder.add_output::<String>();
            let (counts_port, counts) = builder.add_output::<(String, u64)>();
            let notify = builder.notify_handle();
            let state: Rc<RefCell<HashMap<u64, HashMap<String, u64>>>> =
                Rc::new(RefCell::new(HashMap::new()));
            let pump_state = state.clone();
            builder.build(
                move || {
                    port.for_each(|time, data| {
                        let mut state = pump_state.borrow_mut();
                        let per_time = state.entry(time.epoch).or_insert_with(|| {
                            notify.notify_at(time);
                            HashMap::new()
                        });
                        for word in data {
                            let n = per_time.entry(word.clone()).or_insert(0);
                            if *n == 0 {
                                // Output 1: first sighting, sent eagerly.
                                distinct_port.borrow_mut().give(time, word);
                            }
                            *n += 1;
                        }
                    });
                },
                move |time: Timestamp| {
                    // Output 2: counts, only once the time completes.
                    if let Some(per_time) = state.borrow_mut().remove(&time.epoch) {
                        let mut out = counts_port.borrow_mut();
                        for pair in per_time {
                            out.give(time, pair);
                        }
                    }
                },
            );
            (input, distinct.capture(), counts.capture())
        });
        if worker.index() == 0 {
            input.send_batch(["a", "bb", "a", "bb", "ccc", "a"].map(String::from));
        }
        input.close();
        worker.step_until_done();
        let result = (distinct_cap.borrow().clone(), counts_cap.borrow().clone());
        result
    })
    .unwrap();

    let mut distinct: Vec<String> = results
        .iter()
        .flat_map(|(d, _)| d.iter().flat_map(|(_, v)| v.iter().cloned()))
        .collect();
    distinct.sort();
    assert_eq!(distinct, vec!["a", "bb", "ccc"]);

    let mut counts: Vec<(String, u64)> = results
        .iter()
        .flat_map(|(_, c)| c.iter().flat_map(|(_, v)| v.iter().cloned()))
        .collect();
    counts.sort();
    assert_eq!(
        counts,
        vec![
            ("a".to_string(), 3),
            ("bb".to_string(), 2),
            ("ccc".to_string(), 1)
        ]
    );
}

/// Two typed inputs, two typed outputs: numbers and labels route to
/// separate outputs tagged with which input they came from.
#[test]
fn two_in_two_out_router() {
    let results = execute(Config::single_process(2), |worker| {
        let (mut nums_in, mut labels_in, nums_cap, labels_cap) = worker.dataflow(|scope| {
            let (nums_in, nums) = scope.new_input::<u64>();
            let (labels_in, labels) = scope.new_input::<String>();
            let context = nums.context();
            let mut builder = OperatorBuilder::new(scope, "Router", context);
            let mut nums_port = builder.add_input(&nums, Pact::exchange(|x: &u64| *x));
            let mut labels_port =
                builder.add_input(&labels, Pact::exchange(|s: &String| s.len() as u64));
            let (nums_out, nums_stream) = builder.add_output::<u64>();
            let (labels_out, labels_stream) = builder.add_output::<String>();
            builder.build(
                move || {
                    nums_port.for_each(|time, data| {
                        for x in data {
                            nums_out.borrow_mut().give(time, x * 10);
                        }
                    });
                    labels_port.for_each(|time, data| {
                        for s in data {
                            labels_out.borrow_mut().give(time, format!("{s}!"));
                        }
                    });
                },
                |_time| {},
            );
            (
                nums_in,
                labels_in,
                nums_stream.capture(),
                labels_stream.capture(),
            )
        });
        if worker.index() == 0 {
            nums_in.send_batch([1, 2]);
            labels_in.send("hey".to_string());
        }
        nums_in.close();
        labels_in.close();
        worker.step_until_done();
        let result = (nums_cap.borrow().clone(), labels_cap.borrow().clone());
        result
    })
    .unwrap();

    let mut nums: Vec<u64> = results
        .iter()
        .flat_map(|(n, _)| n.iter().flat_map(|(_, v)| v.iter().copied()))
        .collect();
    nums.sort_unstable();
    assert_eq!(nums, vec![10, 20]);
    let labels: Vec<String> = results
        .iter()
        .flat_map(|(_, l)| l.iter().flat_map(|(_, v)| v.iter().cloned()))
        .collect();
    assert_eq!(labels, vec!["hey!"]);
}
