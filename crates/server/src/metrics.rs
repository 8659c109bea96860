//! The HTTP layer's metric handles: request counters, the in-flight
//! gauge and the per-endpoint latency series.
//!
//! Handles are resolved once at server construction (registry lookups
//! take a mutex; the request path must not), then recording is a couple
//! of relaxed atomic ops per request. The counters live in the
//! process-global [`obs`] registry, so `/status` and `/metrics` read the
//! same values, and several servers in one process share them.

const ENDPOINT_HELP: &str = "HTTP request wall time per endpoint, routing through response build";

// The routable paths, each its own labeled latency series; anything
// else (404s) lands in the "other" series.
const ENDPOINTS: &[&str] = &[
    "/",
    "/sparql",
    "/update",
    "/describe",
    "/dump",
    "/status",
    "/metrics",
    "/snapshot",
    "/wal",
    "/snapshot/latest",
    "/trace",
    "/traces",
];

/// Pre-resolved handles for the HTTP layer's metrics.
#[derive(Debug)]
pub(crate) struct HttpMetrics {
    /// Requests routed (any endpoint, any outcome).
    pub requests: &'static obs::Counter,
    /// Query requests that reached execution.
    pub queries: &'static obs::Counter,
    /// Update requests that reached execution.
    pub updates: &'static obs::Counter,
    /// Admin checkpoints (`POST /snapshot`) that completed.
    pub snapshots: &'static obs::Counter,
    /// Connections answered 503 because the accept queue was full.
    pub overload_rejections: &'static obs::Counter,
    /// Requests currently being handled (gauge).
    pub in_flight: &'static obs::Gauge,
    endpoints: Vec<(&'static str, &'static obs::Histogram)>,
    other: &'static obs::Histogram,
}

impl HttpMetrics {
    pub fn new() -> Self {
        let registry = obs::registry();
        HttpMetrics {
            requests: registry.counter(
                "ontoaccess_http_requests_total",
                "Requests routed (any endpoint, any outcome)",
            ),
            queries: registry.counter(
                "ontoaccess_http_queries_total",
                "Query requests that reached execution",
            ),
            updates: registry.counter(
                "ontoaccess_http_updates_total",
                "Update requests that reached execution",
            ),
            snapshots: registry.counter(
                "ontoaccess_http_snapshots_total",
                "Admin checkpoints (POST /snapshot) that completed",
            ),
            overload_rejections: registry.counter(
                "ontoaccess_http_overload_rejections_total",
                "Connections answered 503 because the accept queue was full",
            ),
            in_flight: registry.gauge(
                "ontoaccess_http_in_flight_requests",
                "Requests currently being handled by a worker",
            ),
            endpoints: ENDPOINTS
                .iter()
                .map(|path| {
                    (
                        *path,
                        registry.latency_histogram_labeled(
                            "ontoaccess_http_request_seconds",
                            ENDPOINT_HELP,
                            ("endpoint", path),
                        ),
                    )
                })
                .collect(),
            other: registry.latency_histogram_labeled(
                "ontoaccess_http_request_seconds",
                ENDPOINT_HELP,
                ("endpoint", "other"),
            ),
        }
    }

    /// The latency series for a request path.
    pub fn endpoint(&self, path: &str) -> &'static obs::Histogram {
        self.endpoints
            .iter()
            .find(|(p, _)| *p == path)
            .map_or(self.other, |(_, h)| *h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_lookup_falls_back_to_other() {
        let metrics = HttpMetrics::new();
        let sparql = metrics.endpoint("/sparql");
        let nowhere = metrics.endpoint("/nowhere");
        assert!(!std::ptr::eq(sparql, nowhere));
        assert!(std::ptr::eq(nowhere, metrics.endpoint("/elsewhere")));
    }
}
