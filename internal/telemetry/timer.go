package telemetry

import "time"

// Timer times a stage for call sites that hold a pre-registered
// *Histogram handle: StartTimer captures the clock only while telemetry
// records, and ObserveIn lands the elapsed nanoseconds in the handle.
// It exists so simulation packages (chip, variation,
// experiments, ...) never call time.Now themselves — the accordionvet
// determinism analyzer forbids wall-clock reads there, because a
// simulation result must be a pure function of (config, seed). All
// clock access stays inside this package, and the disabled path is the
// usual single atomic load with no allocation and no clock read.
//
//	t := telemetry.StartTimer()
//	... simulate ...
//	t.ObserveIn(telDrawNs)
type Timer struct {
	start time.Time
}

// StartTimer captures the clock if telemetry is recording; otherwise
// it returns the zero Timer without touching the clock.
func StartTimer() Timer {
	if !enabled.Load() {
		return Timer{}
	}
	return Timer{start: time.Now()}
}

// ObserveIn records the elapsed nanoseconds into h. Safe on the zero
// Timer (no-op) and on a nil histogram handle.
func (t Timer) ObserveIn(h *Histogram) {
	if t.start.IsZero() || h == nil {
		return
	}
	h.Observe(time.Since(t.start).Nanoseconds())
}
