//! Experiment effort knobs: `ZIV_FAST=1` shrinks workloads for smoke
//! runs, `ZIV_FULL=1` enlarges them for higher-fidelity curves.

/// Workload sizing for the figure benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effort {
    /// Accesses per core for multiprogrammed mixes.
    pub accesses_per_core: usize,
    /// Number of heterogeneous mixes.
    pub hetero_mixes: usize,
    /// Accesses per core for the multithreaded workloads.
    pub mt_accesses_per_core: usize,
    /// Accesses per core for the 128-core TPC-E run.
    pub tpce_accesses_per_core: usize,
    /// Worker threads.
    pub threads: usize,
}

impl Effort {
    /// Reads the effort level from the environment.
    ///
    /// When both `ZIV_FAST` and `ZIV_FULL` are set, fast wins and a
    /// warning is printed to stderr (once per process) instead of
    /// silently preferring one.
    pub fn from_env() -> Self {
        let fast = std::env::var_os("ZIV_FAST").is_some();
        let full = std::env::var_os("ZIV_FULL").is_some();
        if fast && full {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: both ZIV_FAST and ZIV_FULL are set; using ZIV_FAST \
                     (unset one to silence this warning)"
                );
            });
        }
        let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
        if fast {
            Effort {
                accesses_per_core: 15_000,
                hetero_mixes: 2,
                mt_accesses_per_core: 20_000,
                tpce_accesses_per_core: 2_000,
                threads,
            }
        } else if full {
            Effort {
                accesses_per_core: 200_000,
                hetero_mixes: 8,
                mt_accesses_per_core: 200_000,
                tpce_accesses_per_core: 30_000,
                threads,
            }
        } else {
            Effort {
                accesses_per_core: 40_000,
                hetero_mixes: 4,
                mt_accesses_per_core: 60_000,
                tpce_accesses_per_core: 6_000,
                threads,
            }
        }
    }
}

impl Default for Effort {
    fn default() -> Self {
        Effort::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_effort_is_nonzero() {
        let e = Effort::from_env();
        assert!(e.accesses_per_core > 0);
        assert!(e.threads > 0);
    }
}
