// Package obs is the one front door the cmd binaries use to drive the
// observability tiers (telemetry, trace, events, converge). It
// registers the shared flags, turns their values into the tiers'
// recording switches, starts the run's root span, the -progress ticker
// and the -pprof server, and on exit writes each enabled artifact
// exactly once, registering it in the run's manifest.
//
// obs has no settings of its own beyond the flag values it is handed.
// The tiers keep their own switches, whose disabled paths are the
// hot-path contract; obs only flips them. No simulation package may
// import obs (the layering matrix in internal/analysis enforces it):
// the library layers record into the tiers, and only the binaries
// decide what gets written where.
package obs

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the default mux
	"os"
	"time"

	"repro/internal/converge"
	"repro/internal/provenance"
	"repro/internal/telemetry"
	"repro/internal/telemetry/events"
	"repro/internal/telemetry/trace"
)

// Flags holds the observability flag values. Register binds the ones a
// binary offers; the others stay zero, which means off.
type Flags struct {
	Telemetry   string // -telemetry: text or json report to stderr at exit
	Trace       string // -trace: Chrome trace-event JSON file
	Events      string // -events: domain event log, NDJSON
	Convergence string // -convergence: convergence statistics, JSON
	Progress    bool   // -progress: periodic progress line on stderr
	Pprof       string // -pprof: address of the debug server

	// Chips is the -progress line's target: the binary's own
	// population-size flag value.
	Chips int
}

// Register binds the named observability flags on fs, with the names,
// defaults and usage strings every binary shares. An unknown name is a
// programming error and panics.
func Register(fs *flag.FlagSet, names ...string) *Flags {
	f := &Flags{}
	for _, name := range names {
		switch name {
		case "telemetry":
			fs.StringVar(&f.Telemetry, name, "", "dump a telemetry report to stderr after the run: text or json")
		case "trace":
			fs.StringVar(&f.Trace, name, "", "record spans and write a Chrome trace-event JSON file (open in Perfetto)")
		case "events":
			fs.StringVar(&f.Events, name, "", "record simulation-domain events and write them as NDJSON to this file")
		case "convergence":
			fs.StringVar(&f.Convergence, name, "", "monitor Monte-Carlo convergence and write the statistics as JSON")
		case "progress":
			fs.BoolVar(&f.Progress, name, false, "print chips-done/ETA/CI-width progress lines to stderr during the run")
		case "pprof":
			fs.StringVar(&f.Pprof, name, "", "serve net/http/pprof, /telemetryz and /metricsz on this address (e.g. localhost:6060)")
		default:
			panic("obs: unknown flag " + name)
		}
	}
	return f
}

// Run is one started observability session. Finish ends it.
type Run struct {
	name   string
	f      Flags
	stderr io.Writer
	start  time.Time
	report func(io.Writer) error
	root   *trace.Span

	progressDone, progressExited chan struct{}
	server                       *http.Server
	serverExited                 chan struct{}
	finished                     bool
}

// Start validates the flag values, flips the recording switches they
// ask for and starts the root span, the progress ticker and the pprof
// server. name prefixes everything the run prints to stderr. An
// invalid -telemetry mode is an error and flips nothing.
func (f *Flags) Start(name string) (*Run, error) {
	return f.start(name, os.Stderr)
}

func (f *Flags) start(name string, stderr io.Writer) (*Run, error) {
	r := &Run{name: name, f: *f, stderr: stderr, start: time.Now()}
	switch f.Telemetry {
	case "":
	case "text":
		r.report = func(w io.Writer) error { return telemetry.Capture().WriteText(w) }
	case "json":
		r.report = func(w io.Writer) error { return telemetry.Capture().WriteJSON(w) }
	default:
		return nil, fmt.Errorf("telemetry: unknown -telemetry mode %q (want text or json)", f.Telemetry)
	}
	// The pprof server's /telemetryz and /metricsz read telemetry, so
	// it records even without a report.
	if r.report != nil || f.Pprof != "" {
		telemetry.SetEnabled(true)
	}
	if f.Trace != "" {
		trace.SetEnabled(true)
	}
	if f.Events != "" {
		events.SetEnabled(true)
	}
	if f.Convergence != "" || f.Progress {
		converge.SetEnabled(true)
	}
	r.root = trace.StartRoot("run")
	if f.Progress {
		r.startProgress()
	}
	if f.Pprof != "" {
		r.startServer()
	}
	return r, nil
}

// Context returns ctx carrying the run's root span while tracing, so
// the work below nests under it in the exported trace.
func (r *Run) Context(ctx context.Context) context.Context {
	if r.root == nil {
		return ctx
	}
	return trace.NewContext(ctx, r.root)
}

// Mount serves the live observability endpoints on mux, GET only:
// /telemetryz (JSON snapshot), /metricsz (Prometheus text) and
// /eventsz (the domain event ring as NDJSON).
func Mount(mux *http.ServeMux) {
	mux.Handle("GET /telemetryz", telemetry.Handler())
	mux.Handle("GET /metricsz", telemetry.MetricsHandler())
	mux.Handle("GET /eventsz", events.Handler())
}

// startServer serves net/http/pprof plus the Mount endpoints until
// Finish closes the server.
func (r *Run) startServer() {
	mux := http.NewServeMux()
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	Mount(mux)
	r.server = &http.Server{Addr: r.f.Pprof, Handler: mux}
	r.serverExited = make(chan struct{})
	go func() {
		defer close(r.serverExited)
		if err := r.server.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(r.stderr, "%s: pprof server: %v\n", r.name, err)
		}
	}()
}

// startProgress prints the convergence progress line every two
// seconds until Finish stops it.
func (r *Run) startProgress() {
	r.progressDone = make(chan struct{})
	r.progressExited = make(chan struct{})
	go func() {
		defer close(r.progressExited)
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-r.progressDone:
				return
			case <-tick.C:
				r.printProgress()
			}
		}
	}()
}

func (r *Run) printProgress() {
	fmt.Fprintf(r.stderr, "%s: %s\n", r.name, converge.ProgressLine(r.f.Chips, time.Since(r.start)))
}

// Finish ends the run: it stops the progress ticker (printing a final
// line), closes the root span, writes each enabled artifact, registers
// it in man when man is non-nil, renders the telemetry report to
// stderr and closes the pprof server. It returns every error met on
// the way; later calls do nothing and return nil.
func (r *Run) Finish(man *provenance.Manifest) []error {
	if r.finished {
		return nil
	}
	r.finished = true
	if r.progressDone != nil {
		close(r.progressDone)
		<-r.progressExited
		r.printProgress()
	}
	r.root.End()

	var errs []error
	for _, a := range []struct {
		tier, name, path string
		write            func(io.Writer) error
	}{
		{"trace", "trace.json", r.f.Trace, trace.Dump},
		{"convergence", "convergence.json", r.f.Convergence, func(w io.Writer) error { return converge.Capture().WriteJSON(w) }},
		{"events", "events.ndjson", r.f.Events, events.Dump},
	} {
		if a.path == "" {
			continue
		}
		if err := writeFile(a.path, a.write); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", a.tier, err))
			continue
		}
		if man != nil {
			if err := man.AddArtifactFile(a.name, a.path); err != nil {
				errs = append(errs, fmt.Errorf("manifest: %w", err))
			}
		}
	}
	if r.f.Trace != "" {
		if n := trace.Dropped(); n > 0 {
			errs = append(errs, fmt.Errorf("trace: arena overflow dropped %d events", n))
		}
	}
	if r.report != nil {
		if err := r.report(r.stderr); err != nil {
			errs = append(errs, fmt.Errorf("telemetry: %w", err))
		}
	}
	if r.server != nil {
		r.server.Close()
		<-r.serverExited
	}
	return errs
}

// Exit finishes the run, prints each finisher error and then err (when
// non-nil) to stderr under the run's name, and exits with code. It is
// the one exit path of a binary once the run has started, so a failing
// run still leaves its artifacts behind.
func (r *Run) Exit(code int, err error) {
	for _, e := range r.Finish(nil) {
		fmt.Fprintf(r.stderr, "%s: %v\n", r.name, e)
	}
	if err != nil {
		fmt.Fprintf(r.stderr, "%s: %v\n", r.name, err)
	}
	os.Exit(code)
}

// writeFile creates path and fills it through write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
