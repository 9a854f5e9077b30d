//! Lock-free serving metrics with a text exposition endpoint.
//!
//! Counters and histograms are plain relaxed atomics — recording a request
//! never takes a lock, so the hot path cost is a handful of fetch-adds.
//! `GET /metrics` renders a Prometheus-style text exposition: request
//! counts by endpoint and status class, the micro-batch size histogram, and
//! request latency with p50/p99 estimated from a log-spaced histogram.
//!
//! A sink tracks the sharded batcher per lane: queue depth gauges
//! (`passflow_lane_depth`), steal counters (`passflow_lane_steals_total`)
//! and per-lane batch-size histograms (`passflow_lane_batch_size_*`), all
//! labelled `lane="i"`. Each tick is recorded once, in its lane's
//! histogram; the aggregate `passflow_batch_size_*` series is rendered as
//! the sum over lanes. Lane methods are bounds-checked: an out-of-range lane
//! is a no-op.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bucket bounds (inclusive) for the batch-size histogram.
const BATCH_BUCKETS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Upper bucket bounds (inclusive, microseconds) for the latency histogram.
const LATENCY_BUCKETS_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
    10_000_000,
];

/// Endpoints tracked individually; everything else lands in `other`.
const ENDPOINTS: [&str; 8] = [
    "score", "logprob", "screen", "range", "models", "healthz", "metrics", "other",
];

/// Aggregated serving metrics. One instance is shared (behind an `Arc`) by
/// every connection handler and the batcher lanes.
#[derive(Debug)]
pub struct Metrics {
    /// `requests[endpoint][status_class]` — status classes 2xx/4xx/5xx.
    requests: [[AtomicU64; 3]; 8],
    /// Latency histogram buckets plus overflow, and sum/count.
    latency_buckets: [AtomicU64; 15],
    latency_sum_us: AtomicU64,
    latency_count: AtomicU64,
    /// Digest-store read failures observed by handlers (after retries).
    store_faults: AtomicU64,
    /// Jobs dropped because their deadline expired before scoring.
    deadline_expired: AtomicU64,
    /// Requests shed at enqueue time (batcher queue full).
    shed: AtomicU64,
    /// Digest-store breaker state: 0 closed, 1 open, 2 half-open.
    breaker_state: AtomicU64,
    /// Breaker state transitions since startup.
    breaker_transitions: AtomicU64,
    /// Per-lane batcher metrics (at least one lane).
    lanes: Vec<LaneMetric>,
}

/// Per-lane counters for the sharded batcher.
#[derive(Debug, Default)]
struct LaneMetric {
    /// Current queue depth (a gauge, written under the lane's queue lock).
    depth: AtomicU64,
    /// Jobs this lane stole from siblings' queues.
    steals: AtomicU64,
    /// Batch-size histogram buckets plus overflow, and sum/count.
    batch_buckets: [AtomicU64; 10],
    batch_sum: AtomicU64,
    batch_ticks: AtomicU64,
}

fn endpoint_index(endpoint: &str) -> usize {
    ENDPOINTS
        .iter()
        .position(|e| *e == endpoint)
        .unwrap_or(ENDPOINTS.len() - 1)
}

impl Metrics {
    /// Creates a zeroed metrics sink tracking `lanes` batcher lanes (at
    /// least one).
    pub fn with_lanes(lanes: usize) -> Self {
        Metrics {
            requests: Default::default(),
            latency_buckets: Default::default(),
            latency_sum_us: AtomicU64::new(0),
            latency_count: AtomicU64::new(0),
            store_faults: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            breaker_state: AtomicU64::new(0),
            breaker_transitions: AtomicU64::new(0),
            lanes: (0..lanes.max(1)).map(|_| LaneMetric::default()).collect(),
        }
    }

    /// Number of lanes this sink tracks.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Publishes lane `lane`'s current queue depth (a gauge).
    pub fn set_lane_depth(&self, lane: usize, depth: u64) {
        if let Some(l) = self.lanes.get(lane) {
            l.depth.store(depth, Ordering::Relaxed);
        }
    }

    /// Records one job lane `lane` stole from a sibling's queue.
    pub fn record_lane_steal(&self, lane: usize) {
        if let Some(l) = self.lanes.get(lane) {
            l.steals.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one tick of lane `lane` that scored `size` passwords.
    pub fn record_lane_batch(&self, lane: usize, size: usize) {
        let Some(l) = self.lanes.get(lane) else {
            return;
        };
        let size = size as u64;
        let idx = BATCH_BUCKETS
            .iter()
            .position(|&b| size <= b)
            .unwrap_or(BATCH_BUCKETS.len());
        l.batch_buckets[idx].fetch_add(1, Ordering::Relaxed);
        l.batch_sum.fetch_add(size, Ordering::Relaxed);
        l.batch_ticks.fetch_add(1, Ordering::Relaxed);
    }

    /// Steals recorded for lane `lane` so far (test hook).
    pub fn lane_steals(&self, lane: usize) -> u64 {
        self.lanes
            .get(lane)
            .map_or(0, |l| l.steals.load(Ordering::Relaxed))
    }

    /// Steals summed over every lane (test hook).
    pub fn total_lane_steals(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.steals.load(Ordering::Relaxed))
            .sum()
    }

    /// Ticks recorded for lane `lane` so far (test hook).
    pub fn lane_ticks(&self, lane: usize) -> u64 {
        self.lanes
            .get(lane)
            .map_or(0, |l| l.batch_ticks.load(Ordering::Relaxed))
    }

    /// Records one completed request for `endpoint` with `status`.
    pub fn record_request(&self, endpoint: &str, status: u16) {
        let class = match status {
            200..=299 => 0,
            400..=499 => 1,
            _ => 2,
        };
        self.requests[endpoint_index(endpoint)][class].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request's total latency (read → response flushed).
    pub fn record_latency(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.latency_buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one digest-store read failure (after the store's own
    /// bounded retries — these are the failures the breaker also sees).
    pub fn record_store_fault(&self) {
        self.store_faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one job dropped because its deadline expired (a 504).
    pub fn record_deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request shed at enqueue time (queue-full 503).
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the breaker's current state and transition count (called
    /// by handlers after each breaker interaction — a gauge, not a counter).
    pub fn set_breaker(&self, state: u64, transitions: u64) {
        self.breaker_state.store(state, Ordering::Relaxed);
        self.breaker_transitions
            .store(transitions, Ordering::Relaxed);
    }

    /// Deadline-expired jobs so far (test hook).
    pub fn deadline_expired_total(&self) -> u64 {
        self.deadline_expired.load(Ordering::Relaxed)
    }

    /// Shed requests so far (test hook).
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Store faults so far (test hook).
    pub fn store_faults_total(&self) -> u64 {
        self.store_faults.load(Ordering::Relaxed)
    }

    /// Total requests recorded across all endpoints and statuses.
    pub fn total_requests(&self) -> u64 {
        self.requests
            .iter()
            .flatten()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Latency quantile in microseconds, estimated from the histogram
    /// (upper bound of the bucket containing the quantile).
    fn latency_quantile_us(&self, q: f64) -> u64 {
        let total = self.latency_count.load(Ordering::Relaxed);
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q).ceil() as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.latency_buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return LATENCY_BUCKETS_US.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// Renders the text exposition served at `GET /metrics`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("# TYPE passflow_requests_total counter\n");
        for (ei, endpoint) in ENDPOINTS.iter().enumerate() {
            for (ci, class) in ["2xx", "4xx", "5xx"].iter().enumerate() {
                let n = self.requests[ei][ci].load(Ordering::Relaxed);
                if n > 0 || *endpoint != "other" {
                    let _ = writeln!(
                        out,
                        "passflow_requests_total{{endpoint=\"{endpoint}\",status=\"{class}\"}} {n}"
                    );
                }
            }
        }

        // The aggregate histogram is the sum of the per-lane ones.
        let lane_sum = |field: &dyn Fn(&LaneMetric) -> &AtomicU64| -> u64 {
            self.lanes
                .iter()
                .map(|l| field(l).load(Ordering::Relaxed))
                .sum()
        };
        out.push_str("# TYPE passflow_batch_size histogram\n");
        let mut cumulative = 0u64;
        for (i, bound) in BATCH_BUCKETS.iter().enumerate() {
            cumulative += lane_sum(&|l| &l.batch_buckets[i]);
            let _ = writeln!(
                out,
                "passflow_batch_size_bucket{{le=\"{bound}\"}} {cumulative}"
            );
        }
        cumulative += lane_sum(&|l| &l.batch_buckets[BATCH_BUCKETS.len()]);
        let _ = writeln!(
            out,
            "passflow_batch_size_bucket{{le=\"+Inf\"}} {cumulative}"
        );
        let _ = writeln!(
            out,
            "passflow_batch_size_sum {}",
            lane_sum(&|l| &l.batch_sum)
        );
        let _ = writeln!(
            out,
            "passflow_batch_size_count {}",
            lane_sum(&|l| &l.batch_ticks)
        );

        out.push_str("# TYPE passflow_lane_depth gauge\n");
        for (i, lane) in self.lanes.iter().enumerate() {
            let _ = writeln!(
                out,
                "passflow_lane_depth{{lane=\"{i}\"}} {}",
                lane.depth.load(Ordering::Relaxed)
            );
        }
        out.push_str("# TYPE passflow_lane_steals_total counter\n");
        for (i, lane) in self.lanes.iter().enumerate() {
            let _ = writeln!(
                out,
                "passflow_lane_steals_total{{lane=\"{i}\"}} {}",
                lane.steals.load(Ordering::Relaxed)
            );
        }
        out.push_str("# TYPE passflow_lane_batch_size histogram\n");
        for (i, lane) in self.lanes.iter().enumerate() {
            let mut cumulative = 0u64;
            for (b, bound) in BATCH_BUCKETS.iter().enumerate() {
                cumulative += lane.batch_buckets[b].load(Ordering::Relaxed);
                let _ = writeln!(
                    out,
                    "passflow_lane_batch_size_bucket{{lane=\"{i}\",le=\"{bound}\"}} {cumulative}"
                );
            }
            cumulative += lane.batch_buckets[BATCH_BUCKETS.len()].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "passflow_lane_batch_size_bucket{{lane=\"{i}\",le=\"+Inf\"}} {cumulative}"
            );
            let _ = writeln!(
                out,
                "passflow_lane_batch_size_sum{{lane=\"{i}\"}} {}",
                lane.batch_sum.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "passflow_lane_batch_size_count{{lane=\"{i}\"}} {}",
                lane.batch_ticks.load(Ordering::Relaxed)
            );
        }

        out.push_str("# TYPE passflow_request_latency_seconds summary\n");
        for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
            let _ = writeln!(
                out,
                "passflow_request_latency_seconds{{quantile=\"{label}\"}} {:.6}",
                self.latency_quantile_us(q) as f64 / 1e6
            );
        }
        let _ = writeln!(
            out,
            "passflow_request_latency_seconds_sum {:.6}",
            self.latency_sum_us.load(Ordering::Relaxed) as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "passflow_request_latency_seconds_count {}",
            self.latency_count.load(Ordering::Relaxed)
        );

        out.push_str("# TYPE passflow_store_faults_total counter\n");
        let _ = writeln!(
            out,
            "passflow_store_faults_total {}",
            self.store_faults.load(Ordering::Relaxed)
        );
        out.push_str("# TYPE passflow_deadline_expired_total counter\n");
        let _ = writeln!(
            out,
            "passflow_deadline_expired_total {}",
            self.deadline_expired.load(Ordering::Relaxed)
        );
        out.push_str("# TYPE passflow_shed_total counter\n");
        let _ = writeln!(
            out,
            "passflow_shed_total {}",
            self.shed.load(Ordering::Relaxed)
        );
        out.push_str("# TYPE passflow_breaker_state gauge\n");
        let _ = writeln!(
            out,
            "passflow_breaker_state {}",
            self.breaker_state.load(Ordering::Relaxed)
        );
        out.push_str("# TYPE passflow_breaker_transitions_total counter\n");
        let _ = writeln!(
            out,
            "passflow_breaker_transitions_total {}",
            self.breaker_transitions.load(Ordering::Relaxed)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::with_lanes(1);
        m.record_request("score", 200);
        m.record_request("score", 200);
        m.record_request("score", 400);
        m.record_request("metrics", 200);
        m.record_request("nonsense", 500);
        assert_eq!(m.total_requests(), 5);
        let text = m.render();
        assert!(text.contains("passflow_requests_total{endpoint=\"score\",status=\"2xx\"} 2"));
        assert!(text.contains("passflow_requests_total{endpoint=\"score\",status=\"4xx\"} 1"));
        assert!(text.contains("passflow_requests_total{endpoint=\"other\",status=\"5xx\"} 1"));
    }

    #[test]
    fn batch_histogram_buckets_are_cumulative() {
        // The aggregate series sums the lanes' ticks.
        let m = Metrics::with_lanes(2);
        for (lane, size) in [(0, 1), (1, 1), (0, 3), (1, 64), (0, 500)] {
            m.record_lane_batch(lane, size);
        }
        let text = m.render();
        assert!(text.contains("passflow_batch_size_bucket{le=\"1\"} 2"));
        assert!(text.contains("passflow_batch_size_bucket{le=\"4\"} 3"));
        assert!(text.contains("passflow_batch_size_bucket{le=\"64\"} 4"));
        assert!(text.contains("passflow_batch_size_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("passflow_batch_size_sum 569"));
        assert!(text.contains("passflow_batch_size_count 5"));
    }

    #[test]
    fn latency_quantiles_track_the_distribution() {
        let m = Metrics::with_lanes(1);
        for _ in 0..99 {
            m.record_latency(Duration::from_micros(80));
        }
        m.record_latency(Duration::from_millis(40));
        // p50 lands in the ≤100µs bucket, p99 well below the 40ms outlier…
        assert_eq!(m.latency_quantile_us(0.5), 100);
        assert_eq!(m.latency_quantile_us(0.99), 100);
        // …and p999 would catch it (bucket upper bound 50ms).
        assert_eq!(m.latency_quantile_us(0.999), 50_000);
        let text = m.render();
        assert!(text.contains("passflow_request_latency_seconds{quantile=\"0.5\"} 0.000100"));
        assert!(text.contains("passflow_request_latency_seconds_count 100"));
    }

    #[test]
    fn lane_series_render_per_lane() {
        assert_eq!(Metrics::with_lanes(0).lane_count(), 1, "0 lanes ≡ 1");
        let m = Metrics::with_lanes(2);
        assert_eq!(m.lane_count(), 2);
        m.set_lane_depth(0, 7);
        m.record_lane_steal(1);
        m.record_lane_steal(1);
        m.record_lane_batch(0, 3);
        m.record_lane_batch(0, 64);
        m.record_lane_batch(1, 1);
        let text = m.render();
        assert!(text.contains("passflow_lane_depth{lane=\"0\"} 7"));
        assert!(text.contains("passflow_lane_depth{lane=\"1\"} 0"));
        assert!(text.contains("passflow_lane_steals_total{lane=\"1\"} 2"));
        assert!(text.contains("passflow_lane_batch_size_bucket{lane=\"0\",le=\"4\"} 1"));
        assert!(text.contains("passflow_lane_batch_size_bucket{lane=\"0\",le=\"64\"} 2"));
        assert!(text.contains("passflow_lane_batch_size_sum{lane=\"0\"} 67"));
        assert!(text.contains("passflow_lane_batch_size_count{lane=\"1\"} 1"));
        assert_eq!(m.lane_steals(1), 2);
        assert_eq!(m.total_lane_steals(), 2);
        assert_eq!(m.lane_ticks(0), 2);
        // Out-of-range lanes are no-ops, not panics.
        let before = m.render();
        m.set_lane_depth(9, 9);
        m.record_lane_steal(9);
        m.record_lane_batch(9, 1);
        assert_eq!(m.lane_ticks(9), 0);
        assert_eq!(m.render(), before);
    }

    #[test]
    fn robustness_counters_render() {
        let m = Metrics::with_lanes(1);
        m.record_store_fault();
        m.record_deadline_expired();
        m.record_deadline_expired();
        m.record_shed();
        m.set_breaker(1, 3);
        let text = m.render();
        assert!(text.contains("passflow_store_faults_total 1"));
        assert!(text.contains("passflow_deadline_expired_total 2"));
        assert!(text.contains("passflow_shed_total 1"));
        assert!(text.contains("passflow_breaker_state 1"));
        assert!(text.contains("passflow_breaker_transitions_total 3"));
        assert_eq!(m.deadline_expired_total(), 2);
        assert_eq!(m.shed_total(), 1);
        assert_eq!(m.store_faults_total(), 1);
    }
}
