//! Stepped, checkpointable execution of one load-test run.
//!
//! [`ResumableRun`] drives the same [`ShardedCluster`] that
//! [`LoadTest::run`] builds — one shard per server, a single world when
//! `servers == 1` — but in bounded event batches, with three extras a
//! long unattended run needs:
//!
//! * **checkpointing** — [`ResumableRun::checkpoint_to`] streams every
//!   shard's engine payload ([`treadmill_cluster::checkpoint`]) *plus*
//!   the streaming tail estimators into one sealed envelope,
//!   `run_seed | n_shards | n × (payload, consumed) | monitor`;
//!   [`ResumableRun::resume`] restores both, so a run killed at any
//!   round boundary and resumed from its last checkpoint finishes with
//!   a bit-identical [`LoadTestReport`], at any thread count;
//! * **live tail monitoring** — constant-memory streaming estimators
//!   (mean/variance, P² p99, a log-histogram) over the post-warm-up
//!   user latencies, available mid-run without touching the record
//!   vectors;
//! * **auditing** — [`ResumableRun::audit`] runs the cluster invariant
//!   checks against the live worlds, e.g. at every checkpoint.

use std::io;

use treadmill_cluster::{checkpoint, merge_results, ShardedCluster};
use treadmill_sim_core::snapshot::{
    self, SnapshotError, SnapshotReader, SnapshotSink, SnapshotWriter,
};
use treadmill_sim_core::SimTime;
use treadmill_stats::{
    LogHistogram, LogHistogramState, P2Quantile, P2State, StreamingStats, StreamingState,
};

use crate::runner::{LoadTest, LoadTestReport};

/// Constant-memory estimators over the measurement-window latencies,
/// fed incrementally as records arrive.
#[derive(Debug, Clone)]
pub struct TailMonitor {
    stats: StreamingStats,
    p99: P2Quantile,
    histogram: LogHistogram,
}

/// Histogram coverage: 1 µs – 10 s at 1% buckets matches the adaptive
/// instance histogram's dynamic range.
const HIST_MIN_US: f64 = 1.0;
const HIST_MAX_US: f64 = 10_000_000.0;
const HIST_PRECISION: f64 = 0.01;

impl TailMonitor {
    fn new() -> Self {
        TailMonitor {
            stats: StreamingStats::new(),
            p99: P2Quantile::new(0.99),
            histogram: LogHistogram::new(HIST_MIN_US, HIST_MAX_US, HIST_PRECISION),
        }
    }

    fn observe(&mut self, latency_us: f64) {
        self.stats.record(latency_us);
        self.p99.record(latency_us);
        self.histogram.record(latency_us);
    }

    /// Samples observed so far.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// The P² running p99 estimate (µs). NaN until the first sample
    /// lands — an early checkpoint (mid-warmup, say) has no tail yet,
    /// and a monitoring read must not abort the sweep.
    pub fn p99_us(&self) -> f64 {
        if self.stats.count() == 0 {
            return f64::NAN;
        }
        self.p99.estimate()
    }

    /// A histogram quantile estimate (µs); NaN before the first sample.
    pub fn quantile_us(&self, p: f64) -> f64 {
        if self.stats.count() == 0 {
            return f64::NAN;
        }
        self.histogram.quantile(p)
    }

    fn write(&self, w: &mut SnapshotWriter<'_>) {
        let s = self.stats.state();
        w.put_u64(s.count);
        w.put_f64(s.mean);
        w.put_f64(s.m2);
        w.put_f64(s.min);
        w.put_f64(s.max);

        let p = self.p99.state();
        w.put_f64(p.p);
        for group in [&p.heights, &p.positions, &p.desired, &p.increments] {
            for &v in group {
                w.put_f64(v);
            }
        }
        w.put_usize(p.count);
        w.put_u64(p.initial.len() as u64);
        for &v in &p.initial {
            w.put_f64(v);
        }

        let h = self.histogram.state();
        w.put_f64(h.min);
        w.put_f64(h.log_min);
        w.put_f64(h.log_ratio);
        w.put_u64(h.counts.len() as u64);
        for &c in &h.counts {
            w.put_u64(c);
        }
        w.put_u64(h.underflow);
        w.put_u64(h.overflow);
        w.put_u64(h.total);
        w.put_f64(h.sum);
        w.put_f64(h.max_seen);
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let stats = StreamingStats::from_state(StreamingState {
            count: r.get_u64()?,
            mean: r.get_f64()?,
            m2: r.get_f64()?,
            min: r.get_f64()?,
            max: r.get_f64()?,
        });

        let p = r.get_f64()?;
        if !(p > 0.0 && p < 1.0) {
            return Err(SnapshotError::Malformed("P2 probability outside (0, 1)"));
        }
        let mut groups = [[0.0f64; 5]; 4];
        for group in &mut groups {
            for v in group.iter_mut() {
                *v = r.get_f64()?;
            }
        }
        let count = r.get_usize()?;
        let n_initial = r.get_u64()?;
        if n_initial > 5 {
            return Err(SnapshotError::Malformed("oversized P2 warm-up buffer"));
        }
        let mut initial = Vec::with_capacity(5);
        for _ in 0..n_initial {
            initial.push(r.get_f64()?);
        }
        let p99 = P2Quantile::from_state(P2State {
            p,
            heights: groups[0],
            positions: groups[1],
            desired: groups[2],
            increments: groups[3],
            count,
            initial,
        });

        let min = r.get_f64()?;
        let log_min = r.get_f64()?;
        let log_ratio = r.get_f64()?;
        // The geometry is fixed, so the bucket count is too. Checking it
        // before allocating keeps a crafted count from aborting the
        // process (the envelope checksum is not a MAC).
        let n_counts = LogHistogram::bucket_count(HIST_MIN_US, HIST_MAX_US, HIST_PRECISION);
        if r.get_u64()? != n_counts as u64 {
            return Err(SnapshotError::Malformed("histogram bucket count mismatch"));
        }
        let mut counts = Vec::with_capacity(n_counts);
        for _ in 0..n_counts {
            counts.push(r.get_u64()?);
        }
        let histogram = LogHistogram::from_state(LogHistogramState {
            min,
            log_min,
            log_ratio,
            counts,
            underflow: r.get_u64()?,
            overflow: r.get_u64()?,
            total: r.get_u64()?,
            sum: r.get_f64()?,
            max_seen: r.get_f64()?,
        });

        Ok(TailMonitor {
            stats,
            p99,
            histogram,
        })
    }
}

/// One load-test run executing in bounded steps with checkpoint/resume.
#[derive(Debug)]
pub struct ResumableRun {
    test: LoadTest,
    run_seed: u64,
    cluster: ShardedCluster,
    /// Per-shard, per-client count of records already folded into the
    /// monitor. The monitor is fed in shard-then-client order, a pure
    /// function of simulated state — thread count never changes the
    /// observation stream.
    consumed: Vec<Vec<usize>>,
    monitor: TailMonitor,
}

/// Reads one shard's folded-record counts, which must cover exactly
/// its `clients`.
fn read_consumed(r: &mut SnapshotReader<'_>, clients: usize) -> Result<Vec<usize>, SnapshotError> {
    if r.get_u64()? != clients as u64 {
        return Err(SnapshotError::Malformed("client count mismatch"));
    }
    (0..clients).map(|_| r.get_usize()).collect()
}

impl ResumableRun {
    /// Starts run number `run_index` of `test` from event zero.
    pub fn new(test: LoadTest, run_index: u64) -> Self {
        let run_seed = test.derive_run_seed(run_index);
        let cluster = test.build_sharded(run_seed);
        let consumed = (0..cluster.n_shards())
            .map(|i| vec![0; cluster.engine(i).world().clients.len()])
            .collect();
        ResumableRun {
            test,
            run_seed,
            cluster,
            consumed,
            monitor: TailMonitor::new(),
        }
    }

    /// Executes up to `max_events` events and folds newly completed
    /// records into the tail monitor. Returns the number executed;
    /// `0` means the run has drained. A multi-server run stops at the
    /// first synchronization-round boundary past the budget, so it may
    /// slightly overshoot `max_events`.
    pub fn step(&mut self, max_events: u64) -> u64 {
        let executed = self.cluster.run(max_events);
        let warmup = SimTime::ZERO + self.test.warmup_window();
        for (i, consumed) in self.consumed.iter_mut().enumerate() {
            let engine = self.cluster.engine_mut(i);
            for (consumed, client) in consumed.iter_mut().zip(&engine.world().clients) {
                for record in &client.records[*consumed..] {
                    if record.t_generated >= warmup {
                        self.monitor.observe(record.user_latency_us());
                    }
                }
                *consumed = client.records.len();
            }
        }
        executed
    }

    /// True once every event has drained.
    pub fn is_finished(&self) -> bool {
        self.cluster.is_finished()
    }

    /// Events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.cluster.events_executed()
    }

    /// The live tail monitor.
    pub fn tail(&self) -> &TailMonitor {
        &self.monitor
    }

    /// Runs the cluster invariant auditor against the live world(s);
    /// see [`treadmill_cluster::audit_sharded`].
    pub fn audit(&self, max_pending: usize) -> Vec<String> {
        treadmill_cluster::audit_sharded(&self.cluster, max_pending)
    }

    /// Captures the full run state — engine snapshots plus streaming
    /// estimators — as one sealed, checksummed envelope in memory.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.checkpoint_into(&mut buf);
        buf
    }

    /// [`ResumableRun::checkpoint`], but recycling `buf`'s allocation,
    /// so a loop that checkpoints every few million events skips the
    /// multi-megabyte allocation and its page faults each time.
    pub fn checkpoint_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        // An in-memory sink cannot fail.
        let _ = self.checkpoint_to(&mut io::Cursor::new(buf));
    }

    /// Streams the checkpoint envelope into `sink` through a bounded
    /// staging buffer, so a checkpoint never holds the whole snapshot
    /// in memory. The engine payloads are embedded directly (not
    /// double-sealed), so the whole checkpoint costs one serialisation
    /// pass and one checksum. Returns the bytes written; the caller
    /// syncs the sink.
    ///
    /// # Errors
    ///
    /// Returns the sink's first write or seek error.
    pub fn checkpoint_to(&self, sink: &mut dyn SnapshotSink) -> io::Result<u64> {
        let mut w = SnapshotWriter::streaming(sink)?;
        self.encode(&mut w);
        w.finish_streamed()
    }

    /// The checkpoint payload: run seed, shard count, one (payload,
    /// consumed) section per shard in shard order, then the monitor. A
    /// checkpoint is only ever taken at a round boundary (outboxes
    /// empty), so per-shard payloads are self-contained.
    fn encode(&self, w: &mut SnapshotWriter<'_>) {
        w.put_u64(self.run_seed);
        w.put_u32(u32::try_from(self.cluster.n_shards()).unwrap_or(u32::MAX));
        for (i, consumed) in self.consumed.iter().enumerate() {
            checkpoint::write_payload(&self.cluster.engine(i), w);
            w.put_u64(consumed.len() as u64);
            for &count in consumed {
                w.put_usize(count);
            }
        }
        self.monitor.write(w);
    }

    /// Restores a run from a [`ResumableRun::checkpoint`] envelope.
    /// `test` and `run_index` must describe the same configuration the
    /// checkpoint was taken from.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] if the envelope is corrupt, was
    /// taken under a different seed, or disagrees structurally with
    /// the configuration.
    pub fn resume(test: LoadTest, run_index: u64, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let payload = snapshot::open(bytes)?;
        let mut r = SnapshotReader::new(payload);
        let run_seed = r.get_u64()?;
        if run_seed != test.derive_run_seed(run_index) {
            return Err(SnapshotError::Malformed(
                "checkpoint was taken under a different run seed",
            ));
        }
        let mut cluster = test.build_sharded(run_seed);
        if u64::from(r.get_u32()?) != cluster.n_shards() as u64 {
            return Err(SnapshotError::Malformed("shard count mismatch"));
        }
        let consumed = (0..cluster.n_shards())
            .map(|i| {
                let engine = cluster.engine_mut(i);
                checkpoint::read_payload(engine, &mut r)?;
                read_consumed(&mut r, engine.world().clients.len())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let monitor = TailMonitor::read(&mut r)?;
        r.finish()?;
        Ok(ResumableRun {
            test,
            run_seed,
            cluster,
            consumed,
            monitor,
        })
    }

    /// Drains the remaining events and assembles the report —
    /// bit-identical to what `test.run(run_index)` would have produced
    /// in one uninterrupted execution.
    pub fn finish(mut self) -> LoadTestReport {
        self.cluster.run_to_completion();
        self.test
            .report_from_result(merge_results(self.cluster.into_results()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use treadmill_sim_core::SimDuration;
    use treadmill_workloads::Memcached;

    fn quick_test() -> LoadTest {
        LoadTest::new(Arc::new(Memcached::default()), 150_000.0)
            .clients(2)
            .duration(SimDuration::from_millis(80))
            .warmup(SimDuration::from_millis(20))
            .seed(9)
    }

    fn assert_reports_identical(a: &LoadTestReport, b: &LoadTestReport) {
        assert_eq!(a.aggregated, b.aggregated);
        assert_eq!(a.per_instance, b.per_instance);
        assert_eq!(a.run.client_records, b.run.client_records);
        assert_eq!(a.run.events_executed, b.run.events_executed);
        assert_eq!(a.run.completed_at, b.run.completed_at);
    }

    #[test]
    fn stepped_run_matches_one_shot_run() {
        let golden = quick_test().run(0);
        let mut run = ResumableRun::new(quick_test(), 0);
        while run.step(10_000) > 0 {}
        assert!(run.is_finished());
        assert_reports_identical(&golden, &run.finish());
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let golden = quick_test().run(0);

        // Simulate a crash: step partway, checkpoint, drop everything.
        let bytes = {
            let mut run = ResumableRun::new(quick_test(), 0);
            run.step(40_000);
            run.checkpoint()
        };
        let mut resumed = ResumableRun::resume(quick_test(), 0, &bytes).expect("resume");
        while resumed.step(10_000) > 0 {}
        assert!(resumed.audit(usize::MAX).is_empty());
        assert_reports_identical(&golden, &resumed.finish());
    }

    #[test]
    fn tail_monitor_survives_resume_bit_exactly() {
        // The monitor folds each client's new records at every step
        // boundary, so its observation interleaving depends on the step
        // cadence; both runs must use the same cadence and the property
        // under test is that the checkpoint itself perturbs nothing.
        let mut straight = ResumableRun::new(quick_test(), 0);
        straight.step(33_333);
        while straight.step(5_000) > 0 {}

        // Interrupted at the same point, then resumed.
        let bytes = {
            let mut run = ResumableRun::new(quick_test(), 0);
            run.step(33_333);
            run.checkpoint()
        };
        let mut resumed = ResumableRun::resume(quick_test(), 0, &bytes).expect("resume");
        while resumed.step(5_000) > 0 {}

        assert_eq!(straight.tail().count(), resumed.tail().count());
        assert_eq!(
            straight.tail().stats.mean().to_bits(),
            resumed.tail().stats.mean().to_bits()
        );
        assert_eq!(
            straight.tail().p99_us().to_bits(),
            resumed.tail().p99_us().to_bits()
        );
        assert_eq!(
            straight.tail().quantile_us(0.999).to_bits(),
            resumed.tail().quantile_us(0.999).to_bits()
        );
    }

    fn sharded_test(threads: u32) -> LoadTest {
        LoadTest::new(Arc::new(Memcached::default()), 120_000.0)
            .clients(2)
            .duration(SimDuration::from_millis(60))
            .warmup(SimDuration::from_millis(15))
            .seed(31)
            .servers(3)
            .remote_every(4)
            .threads(threads)
    }

    #[test]
    fn sharded_stepped_run_matches_one_shot_run() {
        let golden = sharded_test(1).run(0);
        let mut run = ResumableRun::new(sharded_test(2), 0);
        while run.step(10_000) > 0 {}
        assert!(run.is_finished());
        assert_reports_identical(&golden, &run.finish());
    }

    #[test]
    fn sharded_kill_and_resume_is_bit_identical() {
        let golden = sharded_test(1).run(0);

        // Crash a 2-thread sweep mid-run, resume it single-threaded:
        // the checkpoint sits at a round boundary, so the thread count
        // on either side of the crash is irrelevant.
        let bytes = {
            let mut run = ResumableRun::new(sharded_test(2), 0);
            run.step(30_000);
            assert_eq!(run.audit(usize::MAX), Vec::<String>::new());
            run.checkpoint()
        };
        let mut resumed = ResumableRun::resume(sharded_test(1), 0, &bytes).expect("resume");
        while resumed.step(10_000) > 0 {}
        assert!(resumed.audit(usize::MAX).is_empty());
        assert_reports_identical(&golden, &resumed.finish());
    }

    #[test]
    fn checkpoint_rejected_by_other_server_count() {
        let mut run = ResumableRun::new(sharded_test(1), 0);
        run.step(10_000);
        let bytes = run.checkpoint();
        for servers in [1, 2] {
            assert!(matches!(
                ResumableRun::resume(sharded_test(1).servers(servers), 0, &bytes),
                Err(SnapshotError::Malformed(_))
            ));
        }
    }

    /// A monitor section up to the histogram's bucket count: empty
    /// stats, a P² estimator for `p`, then `n_counts`.
    fn crafted_monitor(p: f64, n_counts: u64) -> Vec<u8> {
        let mut sink = io::Cursor::new(Vec::new());
        let mut w = SnapshotWriter::streaming(&mut sink).unwrap();
        w.put_u64(0);
        for _ in 0..4 {
            w.put_f64(0.0);
        }
        w.put_f64(p);
        for _ in 0..20 {
            w.put_f64(0.0);
        }
        w.put_usize(0);
        w.put_u64(0);
        for _ in 0..3 {
            w.put_f64(0.0);
        }
        w.put_u64(n_counts);
        w.finish_streamed().unwrap();
        sink.into_inner()
    }

    #[test]
    fn oversized_histogram_count_is_rejected_before_allocating() {
        // A histogram claiming 2^40 buckets must be refused rather than
        // reserved (an allocation failure aborts the process).
        for sealed in [crafted_monitor(0.99, 1 << 40), crafted_monitor(7.0, 1)] {
            let bytes = snapshot::open(&sealed).unwrap();
            assert!(matches!(
                TailMonitor::read(&mut SnapshotReader::new(bytes)),
                Err(SnapshotError::Malformed(_))
            ));
        }
    }

    #[test]
    fn wrong_run_index_is_rejected() {
        let mut run = ResumableRun::new(quick_test(), 0);
        run.step(10_000);
        let bytes = run.checkpoint();
        assert!(matches!(
            ResumableRun::resume(quick_test(), 1, &bytes),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let mut run = ResumableRun::new(quick_test(), 0);
        run.step(10_000);
        let bytes = run.checkpoint();
        assert!(ResumableRun::resume(quick_test(), 0, &bytes[..bytes.len() - 7]).is_err());
    }
}
