package events

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

// resetAll restores a clean slate between tests that touch the
// package-wide ring and switch.
func resetAll(t *testing.T) {
	t.Helper()
	restore := SetEnabled(false)
	restoreCap := SetCapacity(DefaultCapacity)
	Reset()
	t.Cleanup(func() {
		Reset()
		restoreCap()
		restore()
	})
}

// TestEventsDisabledOverhead pins the contract the instrumented layers
// rely on: with event logging off, building and emitting an event is
// one atomic load and zero allocations.
func TestEventsDisabledOverhead(t *testing.T) {
	resetAll(t)
	allocs := testing.AllocsPerRun(1000, func() {
		New("fault.injected").Int("core", 17).Float("d", 0.25).Str("mode", "drop").Emit()
	})
	if allocs != 0 {
		t.Fatalf("disabled Emit path allocates %.1f times per op, want 0", allocs)
	}
	if got := Collect(); len(got) != 0 {
		t.Fatalf("disabled Emit recorded %d events, want 0", len(got))
	}
}

func TestEmitCollectOrder(t *testing.T) {
	resetAll(t)
	defer SetEnabled(true)()
	New("a").Int("i", 1).Emit()
	New("b").Str("s", "x").Emit()
	New("c").Float("f", 2.5).Emit()
	evs := Collect()
	if len(evs) != 3 {
		t.Fatalf("Collect returned %d events, want 3", len(evs))
	}
	for i, want := range []string{"a", "b", "c"} {
		if evs[i].Kind != want {
			t.Errorf("event %d kind = %q, want %q", i, evs[i].Kind, want)
		}
		if evs[i].Seq != uint64(i) {
			t.Errorf("event %d seq = %d, want %d", i, evs[i].Seq, i)
		}
		if evs[i].TimeNs < 0 {
			t.Errorf("event %d has negative timestamp %d", i, evs[i].TimeNs)
		}
	}
	if v := evs[0].Attrs[0].Value(); v != int64(1) {
		t.Errorf("int attr round-trip = %v (%T), want int64 1", v, v)
	}
	if v := evs[1].Attrs[0].Value(); v != "x" {
		t.Errorf("str attr round-trip = %v, want \"x\"", v)
	}
	if v := evs[2].Attrs[0].Value(); v != 2.5 {
		t.Errorf("float attr round-trip = %v, want 2.5", v)
	}
}

func TestRingDropsOldest(t *testing.T) {
	resetAll(t)
	defer SetCapacity(4)()
	defer SetEnabled(true)()
	for i := 0; i < 10; i++ {
		New("tick").Int("i", int64(i)).Emit()
	}
	if d := Dropped(); d != 6 {
		t.Fatalf("Dropped() = %d, want 6", d)
	}
	evs := Collect()
	if len(evs) != 4 {
		t.Fatalf("Collect returned %d events, want 4", len(evs))
	}
	// The survivors are the newest four, oldest first, with their
	// original sequence numbers intact.
	for i, e := range evs {
		want := uint64(6 + i)
		if e.Seq != want {
			t.Errorf("survivor %d seq = %d, want %d", i, e.Seq, want)
		}
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	resetAll(t)
	defer SetEnabled(true)()
	New("chip.drawn").Int("seed", 2014).Int("cores", 288).Emit()
	New("quality.scored").Str("bench", "hotspot").Float("quality", 0.97).Float("whole", 3).Emit()
	New("weird").Float("nan", math.NaN()).Float("pinf", math.Inf(1)).Float("ninf", math.Inf(-1)).
		Str("esc", "a\"b\nc ").Emit()
	in := Collect()

	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, in); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	out, err := ParseNDJSON(&buf)
	if err != nil {
		t.Fatalf("ParseNDJSON: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip returned %d events, want %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.Seq != b.Seq || a.TimeNs != b.TimeNs || a.Kind != b.Kind || len(a.Attrs) != len(b.Attrs) {
			t.Fatalf("event %d header mismatch: %+v vs %+v", i, a, b)
		}
		for j := range a.Attrs {
			x, y := a.Attrs[j], b.Attrs[j]
			if x.Key != y.Key || x.kind != y.kind {
				t.Fatalf("event %d attr %d: %+v vs %+v", i, j, x, y)
			}
			if x.kind == kindFloat {
				fx, fy := x.f, y.f
				if !(fx == fy || (math.IsNaN(fx) && math.IsNaN(fy))) {
					t.Fatalf("event %d attr %d float: %v vs %v", i, j, fx, fy)
				}
			} else if x.Value() != y.Value() {
				t.Fatalf("event %d attr %d value: %v vs %v", i, j, x.Value(), y.Value())
			}
		}
	}
	// The integral float must carry a decimal marker on the wire so it
	// comes back as a float attr, not an int.
	var wire bytes.Buffer
	if err := WriteNDJSON(&wire, in); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	if !strings.Contains(wire.String(), `"whole":3.0`) {
		t.Errorf("integral float lost its decimal marker: %s", wire.String())
	}
}

func TestParseNDJSONRejectsGarbage(t *testing.T) {
	if _, err := ParseNDJSON(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("ParseNDJSON accepted malformed input")
	}
	evs, err := ParseNDJSON(strings.NewReader("\n  \n"))
	if err != nil || len(evs) != 0 {
		t.Fatalf("blank input: got %d events, err %v", len(evs), err)
	}
}

func TestSlogConversion(t *testing.T) {
	if a := Int64("n", 7).Slog(); a.Value.Int64() != 7 || a.Key != "n" {
		t.Errorf("Int64 slog = %v", a)
	}
	if a := Float64("f", 1.5).Slog(); a.Value.Float64() != 1.5 {
		t.Errorf("Float64 slog = %v", a)
	}
	if a := String("s", "v").Slog(); a.Value.String() != "v" {
		t.Errorf("String slog = %v", a)
	}
}

func TestHandlerServesNDJSON(t *testing.T) {
	resetAll(t)
	defer SetEnabled(true)()
	New("front.measured").Str("bench", "canneal").Int("cells", 12).Emit()

	rr := httptest.NewRecorder()
	Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/eventsz", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	if cc := rr.Header().Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("Cache-Control = %q", cc)
	}
	evs, err := ParseNDJSON(rr.Body)
	if err != nil {
		t.Fatalf("handler body does not parse: %v", err)
	}
	if len(evs) != 1 || evs[0].Kind != "front.measured" {
		t.Fatalf("handler served %+v", evs)
	}
}

func TestSetEnabledRestore(t *testing.T) {
	resetAll(t)
	restore := SetEnabled(true)
	if !On() {
		t.Fatal("SetEnabled(true) did not enable")
	}
	restore()
	if On() {
		t.Fatal("restore did not disable")
	}
}

// TestSubscribeFanout: a subscriber receives events recorded after it
// joined, a slow subscriber drops rather than stalls the emitter, and
// cancel closes the channel idempotently.
func TestSubscribeFanout(t *testing.T) {
	defer SetEnabled(true)()
	Reset()

	ch, cancel := Subscribe(4)
	defer cancel()
	New("sub.one").Int("n", 1).Emit()
	New("sub.two").Int("n", 2).Emit()

	for _, want := range []string{"sub.one", "sub.two"} {
		select {
		case e := <-ch:
			if e.Kind != want {
				t.Errorf("received %q, want %q", e.Kind, want)
			}
		default:
			t.Fatalf("no %q event delivered", want)
		}
	}

	// Overflow the buffer: emitters must not block, the tail is lost.
	for i := 0; i < 10; i++ {
		New("sub.burst").Int("n", int64(i)).Emit()
	}
	if got := len(ch); got != 4 {
		t.Errorf("buffered events = %d, want the channel capacity 4", got)
	}
	// The ring kept everything regardless.
	var burst int
	for _, e := range Collect() {
		if e.Kind == "sub.burst" {
			burst++
		}
	}
	if burst != 10 {
		t.Errorf("ring holds %d burst events, want 10", burst)
	}

	cancel()
	cancel() // idempotent
	if _, ok := <-drain(ch); ok {
		// after drain, the channel must be closed
		t.Error("cancelled channel still open")
	}
	New("sub.after").Emit() // must not panic on the closed channel
	Reset()
}

// drain empties ch of its buffered events and returns it.
func drain(ch <-chan Event) <-chan Event {
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return ch
			}
		default:
			return ch
		}
	}
}
