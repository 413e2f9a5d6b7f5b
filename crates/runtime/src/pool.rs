//! The workspace's one fan-out: independent jobs `0..jobs` spread over
//! scoped worker threads, gathered back in index order.
//!
//! Serving ensembles, the Monte-Carlo topology ensemble and sweep cells
//! all run through [`run_indexed`]. Workers claim job indices from a
//! shared counter and hand their `(index, outcome)` pairs back through
//! their join handles, so no lock is involved and the output order never
//! depends on thread scheduling.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Runs `job(0), job(1), …, job(jobs − 1)` on up to `threads` scoped
/// worker threads (`0` = one per available CPU, never more than
/// `jobs`) and returns the outputs in index order.
///
/// Once a job fails no worker claims a new index; jobs already claimed
/// finish.
///
/// # Errors
///
/// Returns the error of the **lowest-index** failing job. The counter
/// hands out indices in ascending order, so every index below a failing
/// one has been claimed and run: the returned error is the same for
/// every thread count.
///
/// # Panics
///
/// A panicking job resumes its panic on the calling thread.
pub fn run_indexed<T, E, F>(jobs: usize, threads: usize, job: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let threads = if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let worker = || {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= jobs {
                break;
            }
            let outcome = job(index);
            if outcome.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            done.push((index, outcome));
        }
        done
    };
    let mut outcomes: Vec<(usize, Result<T, E>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(jobs))
            .map(|_| scope.spawn(worker))
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    outcomes.sort_unstable_by_key(|&(index, _)| index);
    outcomes.into_iter().map(|(_, outcome)| outcome).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_come_back_in_index_order() {
        for threads in [0, 1, 2, 4, 64] {
            let squares = run_indexed(10, threads, |i| Ok::<_, ()>(i * i)).unwrap();
            assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
        }
        assert_eq!(run_indexed(0, 4, Ok::<_, ()>), Ok(Vec::new()));
    }

    #[test]
    fn the_lowest_index_error_wins_at_any_thread_count() {
        for threads in [1, 2, 4] {
            // Job 5 fails at once; job 2 fails only after a delay, so
            // with several workers the higher index fails first.
            let result = run_indexed(8, threads, |i| match i {
                2 => {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    Err(2)
                }
                5 => Err(5),
                _ => Ok(i),
            });
            assert_eq!(result, Err(2), "threads = {threads}");
        }
    }
}
