//! The worker-pool engine: deterministic parallel maps over job lists.
//!
//! Scoped `std::thread` workers (the build container is offline, so no
//! rayon) pull job indices from a shared atomic counter and write each
//! result into its submission-order slot. Because results are keyed by
//! index — never by completion order — a parallel run returns exactly
//! the vector a serial run would, provided each job is a pure function
//! of `(index, job)`. Every acquisition/detection job in this workspace
//! is (explicitly seeded), which is what makes parallel campaign output
//! byte-identical to serial output.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Environment variable overriding the worker count (`0` = one worker
/// per available core).
pub const JOBS_ENV_VAR: &str = "PSA_JOBS";

/// A worker-pool engine with a fixed worker count.
///
/// # Example
///
/// ```
/// use psa_runtime::engine::Engine;
/// let engine = Engine::new(4);
/// let squares = engine.map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]); // submission order
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine {
    workers: usize,
}

impl Engine {
    /// Creates an engine with `workers` worker threads; `0` selects one
    /// worker per available core
    /// ([`std::thread::available_parallelism`]).
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            workers
        };
        Engine { workers }
    }

    /// The serial fallback: one worker, no threads spawned.
    pub fn serial() -> Self {
        Engine { workers: 1 }
    }

    /// Reads the worker count from the `PSA_JOBS` environment variable
    /// (absent, empty, or unparsable → one worker per core).
    pub fn from_env() -> Self {
        Self::new(jobs_from_env().unwrap_or(0))
    }

    /// Worker count from CLI arguments (`--jobs N` or `--jobs=N`), then
    /// the `PSA_JOBS` environment variable, then auto-detection — the
    /// standard configuration path of the `psa-bench` binaries.
    ///
    /// # Errors
    ///
    /// A malformed `--jobs` argument is an error: `--jobs 0` (a worker
    /// pool needs at least one worker; omit the flag for
    /// auto-detection), a missing value, or a non-integer value. It
    /// used to be silently coerced to auto-detection, which made typos
    /// indistinguishable from intent.
    pub fn from_args_and_env<S: AsRef<str>>(args: &[S]) -> Result<Self, JobsArgError> {
        Ok(Self::new(
            parse_jobs_arg(args)?.or_else(jobs_from_env).unwrap_or(0),
        ))
    }

    /// The number of worker threads this engine fans jobs across.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `jobs`, returning results in submission order.
    ///
    /// `f` must be deterministic in `(index, job)`; under that contract
    /// the result is identical for every worker count.
    pub fn map<J, R, F>(&self, jobs: &[J], f: F) -> Vec<R>
    where
        J: Sync,
        R: Send,
        F: Fn(usize, &J) -> R + Sync,
    {
        self.map_ctx(jobs, || (), |(), i, j| f(i, j))
    }

    /// Like [`map`](Self::map), but each worker first builds a private
    /// context with `init` (e.g. a `psa_core::acquisition::AcqContext`)
    /// and threads it through its share of the jobs, so scratch buffers
    /// are reused across jobs without crossing threads.
    ///
    /// `f` must be deterministic in `(index, job)` alone — context reuse
    /// may change *performance*, never results.
    // This is the one place in the workspace allowed to spawn threads:
    // the thread-outside-runtime contract funnels all parallelism here
    // so determinism is proved once (see clippy.toml / psa-lint).
    #[allow(clippy::disallowed_methods)]
    pub(crate) fn map_ctx<C, J, R, I, F>(&self, jobs: &[J], init: I, f: F) -> Vec<R>
    where
        J: Sync,
        R: Send,
        I: Fn() -> C + Sync,
        F: Fn(&mut C, usize, &J) -> R + Sync,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n).max(1);
        if workers == 1 {
            // Serial fast path: no threads, no locks — and, by the
            // determinism contract, the same results.
            let mut ctx = init();
            return jobs
                .iter()
                .enumerate()
                .map(|(i, j)| f(&mut ctx, i, j))
                .collect();
        }

        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut ctx = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = f(&mut ctx, i, &jobs[i]);
                        *slots[i].lock().expect("result slot poisoned") = Some(r);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every job index was claimed exactly once")
            })
            .collect()
    }
}

impl Default for Engine {
    /// One worker per available core.
    fn default() -> Self {
        Engine::new(0)
    }
}

fn jobs_from_env() -> Option<usize> {
    std::env::var(JOBS_ENV_VAR).ok()?.trim().parse().ok()
}

/// A malformed `--jobs` CLI argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobsArgError {
    /// `--jobs 0`: a worker pool needs at least one worker.
    Zero,
    /// `--jobs` with no value following it.
    MissingValue,
    /// `--jobs` with a non-integer value (kept verbatim for the
    /// message).
    Invalid(String),
}

impl std::fmt::Display for JobsArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobsArgError::Zero => write!(
                f,
                "--jobs 0 is invalid: the worker count must be at least 1 \
                 (omit --jobs to auto-detect one worker per core)"
            ),
            JobsArgError::MissingValue => write!(f, "--jobs requires a value (e.g. --jobs 4)"),
            JobsArgError::Invalid(v) => {
                write!(f, "invalid --jobs value `{v}`: expected a positive integer")
            }
        }
    }
}

impl std::error::Error for JobsArgError {}

/// Parses `--jobs N` / `--jobs=N` from an argument list; `Ok(None)`
/// when the flag is absent.
///
/// # Errors
///
/// [`JobsArgError`] when the flag is present but malformed — including
/// `--jobs 0`, which is rejected rather than silently treated as
/// auto-detection.
pub fn parse_jobs_arg<S: AsRef<str>>(args: &[S]) -> Result<Option<usize>, JobsArgError> {
    let mut iter = args.iter().map(AsRef::as_ref);
    while let Some(arg) = iter.next() {
        let value = if arg == "--jobs" {
            Some(iter.next().ok_or(JobsArgError::MissingValue)?)
        } else {
            arg.strip_prefix("--jobs=")
        };
        let Some(value) = value else { continue };
        return match value.parse::<usize>() {
            Ok(0) => Err(JobsArgError::Zero),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(JobsArgError::Invalid(value.to_string())),
        };
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_follow_submission_order() {
        // Make early jobs slow so later jobs finish first; order must
        // still match submission.
        let engine = Engine::new(4);
        let jobs: Vec<u64> = (0..32).collect();
        let out = engine.map(&jobs, |i, &x| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x * 10
        });
        assert_eq!(out, (0..32).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_serial() {
        let jobs: Vec<u64> = (0..100).collect();
        let f = |i: usize, x: &u64| (i as u64) ^ x.wrapping_mul(0x9E3779B97F4A7C15);
        let serial = Engine::serial().map(&jobs, f);
        for workers in [2, 3, 8, 64] {
            assert_eq!(
                Engine::new(workers).map(&jobs, f),
                serial,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let count = AtomicU64::new(0);
        let jobs: Vec<u64> = (0..1000).collect();
        let out = Engine::new(8).map(&jobs, |_, &x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn per_worker_context_is_reused_within_a_worker() {
        // With one worker, every job shares the single context.
        let jobs = vec![(); 10];
        let out = Engine::serial().map_ctx(
            &jobs,
            || 0u64,
            |ctx, _, ()| {
                *ctx += 1;
                *ctx
            },
        );
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_job_list_and_worker_clamping() {
        let engine = Engine::new(16);
        let out: Vec<u64> = engine.map(&Vec::<u64>::new(), |_, &x| x);
        assert!(out.is_empty());
        // More workers than jobs is fine.
        assert_eq!(engine.map(&[7u64], |_, &x| x), vec![7]);
        assert!(Engine::new(0).workers() >= 1);
        assert_eq!(Engine::serial().workers(), 1);
    }

    #[test]
    fn jobs_arg_parsing() {
        assert_eq!(parse_jobs_arg(&["--jobs", "3"]), Ok(Some(3)));
        assert_eq!(parse_jobs_arg(&["--jobs=12"]), Ok(Some(12)));
        assert_eq!(parse_jobs_arg(&["x", "--jobs", "2", "y"]), Ok(Some(2)));
        assert_eq!(parse_jobs_arg(&["--other"]), Ok(None));
        assert_eq!(parse_jobs_arg(&Vec::<String>::new()), Ok(None));
    }

    #[test]
    fn jobs_arg_rejects_zero_missing_and_garbage() {
        // `--jobs 0` used to be silently treated as auto-detection;
        // it is now a hard error with an actionable message.
        assert_eq!(parse_jobs_arg(&["--jobs", "0"]), Err(JobsArgError::Zero));
        assert_eq!(parse_jobs_arg(&["--jobs=0"]), Err(JobsArgError::Zero));
        assert_eq!(parse_jobs_arg(&["--jobs"]), Err(JobsArgError::MissingValue));
        assert_eq!(
            parse_jobs_arg(&["--jobs", "abc"]),
            Err(JobsArgError::Invalid("abc".into()))
        );
        assert_eq!(
            parse_jobs_arg(&["--jobs=-2"]),
            Err(JobsArgError::Invalid("-2".into()))
        );
        assert!(Engine::from_args_and_env(&["--jobs", "0"]).is_err());
        assert_eq!(
            Engine::from_args_and_env(&["--jobs", "3"])
                .unwrap()
                .workers(),
            3
        );
        // Messages are actionable.
        assert!(JobsArgError::Zero.to_string().contains("at least 1"));
        assert!(JobsArgError::MissingValue.to_string().contains("value"));
        assert!(JobsArgError::Invalid("x".into())
            .to_string()
            .contains("`x`"));
    }
}
