//! Reference seconds: host time corrected for how fast the host runs at
//! the moment it is measured.
//!
//! Other tenants of the development host slow every process down by up to
//! 2×, in phases of seconds to minutes, and mostly through the memory
//! hierarchy they share with it: a dependent multiply loop barely slows
//! while the simulator does. So the benchmark runs a fixed reference
//! kernel, a small set-associative cache model over a fixed address
//! stream that meets the same contention, for a moment between timed
//! pieces of work, and scales each piece's host seconds by the host's
//! speed on the kernel just before and just after it, relative to its
//! speed on a quiet host. The kernel is this file's own code, so no change
//! to the simulator moves it.

use std::hint::black_box;
use std::time::Instant;
use ziv_common::SimRng;

/// Kernel steps (cache-model accesses) in one speed sample, about 10 ms
/// on a quiet host.
const SAMPLE_STEPS: usize = 200_000;

/// Kernel steps per second on a quiet host: the fastest tenth of samples
/// on the development host (a 2-vCPU KVM guest of an Intel Xeon, CPU
/// model 207). It sets only the scale of a reference second.
const QUIET_STEPS_PER_S: f64 = 19.0e6;

/// One set-associative LRU level of the kernel.
struct Level {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    stamps: Vec<u32>,
}

impl Level {
    fn new(sets: usize, ways: usize) -> Level {
        Level {
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
        }
    }

    /// Looks `line` up, filling it over the least recently used way on a
    /// miss; true on a hit.
    fn access(&mut self, line: u64, clock: u32) -> bool {
        let base = (line % self.sets as u64) as usize * self.ways;
        let tags = &mut self.tags[base..base + self.ways];
        let stamps = &mut self.stamps[base..base + self.ways];
        if let Some(way) = tags.iter().position(|&t| t == line) {
            stamps[way] = clock;
            return true;
        }
        let lru = (0..self.ways)
            .min_by_key(|&w| stamps[w])
            .expect("a level has ways");
        tags[lru] = line;
        stamps[lru] = clock;
        false
    }
}

/// Eight cores' private L1 and L2 over one shared last level, like the
/// simulated machine at a smaller scale, fed by a 16 MB address stream:
/// one access in four is random over 400k lines, the rest walk 2M lines
/// in order.
struct Kernel {
    private: Vec<(Level, Level)>,
    shared: Level,
    clock: u32,
    stream: Vec<u64>,
    next: usize,
}

impl Kernel {
    fn new() -> Kernel {
        let mut rng = SimRng::seed_from_u64(0x5EED);
        let stream = (0..1u64 << 21)
            .map(|i| {
                let line = if rng.below(4) == 0 {
                    rng.below(400_000)
                } else {
                    (i / 3) % 2_000_000
                };
                (i % 8) << 56 | line
            })
            .collect();
        Kernel {
            private: (0..8)
                .map(|_| (Level::new(64, 8), Level::new(512, 8)))
                .collect(),
            shared: Level::new(1024, 16),
            clock: 0,
            stream,
            next: 0,
        }
    }

    /// Runs `steps` accesses; returns the hits, so none is optimised away.
    fn run(&mut self, steps: usize) -> usize {
        let mut hits = 0;
        for _ in 0..steps {
            let a = self.stream[self.next];
            self.next = (self.next + 1) % self.stream.len();
            self.clock = self.clock.wrapping_add(1);
            let (core, line) = ((a >> 56) as usize, a & ((1 << 56) - 1));
            let (l1, l2) = &mut self.private[core];
            if l1.access(line, self.clock)
                || l2.access(line, self.clock)
                || self.shared.access(line, self.clock)
            {
                hits += 1;
            }
        }
        hits
    }
}

/// Times work in reference seconds.
pub struct RefClock {
    kernel: Kernel,
    /// The host's speed at the last sample, relative to a quiet host.
    last: f64,
}

impl RefClock {
    /// Builds the kernel and takes a first speed sample.
    pub fn new() -> RefClock {
        let mut clock = RefClock {
            kernel: Kernel::new(),
            last: 1.0,
        };
        clock.last = clock.speed();
        clock
    }

    /// One speed sample: the kernel's steps per second now, relative to a
    /// quiet host.
    fn speed(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(self.kernel.run(SAMPLE_STEPS));
        SAMPLE_STEPS as f64 / t0.elapsed().as_secs_f64() / QUIET_STEPS_PER_S
    }

    /// Runs `work`; returns its result and its duration in reference
    /// seconds: its host seconds times the mean of the host's speed before
    /// and after it.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = work();
        let host = t0.elapsed().as_secs_f64();
        let after = self.speed();
        let seconds = host * (self.last + after) / 2.0;
        self.last = after;
        (out, seconds)
    }
}

impl Default for RefClock {
    fn default() -> RefClock {
        RefClock::new()
    }
}
