//! The enable/disable switch, exercised in its own process: toggling
//! the process-global flag would race with unit tests that record
//! concurrently, so this lives in a dedicated integration binary.

use pim_telemetry::{global, set_enabled, Buckets};

#[test]
fn disabling_freezes_all_recording() {
    let counter = global().counter("disabled_test_total", "test", &[]);
    let hist = global().histogram("disabled_test_seconds", "test", &[], Buckets::latency());

    counter.inc();
    hist.observe(0.01);
    assert_eq!(counter.get(), 1);
    assert_eq!(hist.count(), 1);

    set_enabled(false);
    assert!(!pim_telemetry::enabled());
    counter.add(10);
    hist.observe(0.5);
    {
        let _span = pim_telemetry::span!("disabled_test.span");
    }
    assert_eq!(counter.get(), 1, "counter frozen while disabled");
    assert_eq!(hist.count(), 1, "histogram frozen while disabled");

    // Rendering still works on frozen values.
    let text = global().render_prometheus();
    assert!(text.contains("disabled_test_total 1"), "{text}");

    set_enabled(true);
    assert!(pim_telemetry::enabled());
    counter.inc();
    assert_eq!(counter.get(), 2, "recording resumes after re-enable");
}
