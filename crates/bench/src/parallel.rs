//! Thread-sharding for multi-site experiment loops.
//!
//! Each `Simulator` world is single-threaded by design (actor state in
//! `Rc<RefCell<_>>`), so parallelism lives one level up: independent page
//! loads — different sites, different seeds — run on different OS threads.
//! Because every load derives its seed from its *index*, not from
//! execution order, a sharded run produces bit-identical per-site results
//! to the serial loop, and [`parallel_map`] returns them in input order so
//! downstream summaries are byte-identical too.

/// Apply `f` to every item, sharded across the machine's cores, returning
/// results in input order. `f` receives `(index, &item)` — seed anything
/// stochastic from `index` so sharding cannot change results.
///
/// Setting `MM_BENCH_SERIAL=1` forces the plain serial loop, the
/// reference point for CI's serial-vs-sharded equivalence gate
/// (`mmobs audit --compare`).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let serial = std::env::var("MM_BENCH_SERIAL").is_ok_and(|v| v == "1");
    let threads = if serial {
        1
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n.max(1))
    };
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let f = &f;
                scope.spawn(move || {
                    items
                        .iter()
                        .enumerate()
                        .skip(tid)
                        .step_by(threads)
                        .map(|(i, item)| (i, f(i, item)))
                        .collect::<Vec<(usize, R)>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("experiment shard panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index computed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..101).collect();
        let out = parallel_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, (0..101).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_env_forces_one_thread() {
        // Safe enough in-process: parallel_map reads the var per call,
        // and the assertion holds under any interleaving with other
        // tests (results are order-preserving either way).
        std::env::set_var("MM_BENCH_SERIAL", "1");
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x + 1
        });
        std::env::remove_var("MM_BENCH_SERIAL");
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = Vec::new();
        assert!(parallel_map(&none, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |_, &x| x + 1), vec![8]);
    }
}
