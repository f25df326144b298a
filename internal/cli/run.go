package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"shahin/internal/obs"
)

// Fatal reports err under the binary's name and exits 1.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(1)
}

// Obs is the observability flag group: -obs-addr, and whichever of
// -chrome-trace and -events-out the binary takes.
type Obs struct {
	addr, chromeOut, eventsOut string

	rec *obs.Recorder
	srv *obs.Server
}

// ObsFlags registers -obs-addr and the named artifact flags on fs.
// The artifacts are named because the binaries differ in which they
// take: a server has no span tree worth dumping at exit.
func ObsFlags(fs *flag.FlagSet, artifacts ...string) *Obs {
	o := &Obs{}
	fs.StringVar(&o.addr, "obs-addr", "", "serve the observability endpoints on this address while the process runs; GET / lists them (\":0\" picks a port)")
	for _, a := range artifacts {
		switch a {
		case "chrome-trace":
			fs.StringVar(&o.chromeOut, "chrome-trace", "", "write a Chrome trace-event file (chrome://tracing, Perfetto) on exit")
		case "events-out":
			fs.StringVar(&o.eventsOut, "events-out", "", "write the structured event log (per-explanation provenance) as JSONL on exit")
		default:
			panic("cli: unknown artifact flag " + a)
		}
	}
	return o
}

// Start returns the run's recorder and mounts it on -obs-addr, printing
// the URL of the index that lists its endpoints. A binary that has its
// own readers (request tracing, stage totals) passes always;
// otherwise the recorder exists only when a flag of the group will read
// it, and is nil — which every core entry point accepts — when none
// will.
func (o *Obs) Start(always bool) (*obs.Recorder, error) {
	if always || o.addr != "" || o.chromeOut != "" || o.eventsOut != "" {
		o.rec = obs.NewRecorder()
	}
	if o.addr != "" {
		var err error
		if o.srv, err = obs.Serve(o.addr, o.rec); err != nil {
			return nil, err
		}
		fmt.Printf("observability: http://%s/\n", o.srv.Addr())
	}
	return o.rec, nil
}

// Finish writes the artifacts the flags asked for — saying, of the
// event log, how much of the run it still holds — and closes the
// -obs-addr endpoint.
func (o *Obs) Finish() error {
	defer o.srv.Close() //shahinvet:allow errcheck — best-effort teardown at exit; nil-safe
	if err := WriteArtifact(o.chromeOut, "chrome trace", o.rec.WriteChromeTrace); err != nil {
		return err
	}
	if err := WriteArtifact(o.eventsOut, "event log", o.rec.WriteEvents); err != nil || o.eventsOut == "" {
		return err
	}
	// A log that dropped events no longer reconciles with the report.
	fmt.Printf("event log: %d events retained, %d dropped to the capacity bound\n",
		len(o.rec.Events()), o.rec.Counter(obs.CounterEventsDropped).Value())
	return nil
}

// WriteArtifact writes one run artifact through WriteFile and says so
// on stdout; an empty path means the artifact was not asked for.
func WriteArtifact(path, what string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	if err := WriteFile(path, write); err != nil {
		return fmt.Errorf("writing %s: %w", what, err)
	}
	fmt.Printf("%s written to %s\n", what, path)
	return nil
}

// WriteFile creates path and fills it through write. A failed close is
// an error: it can lose buffered bytes (e.g. ENOSPC).
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close() //shahinvet:allow errcheck — close error is secondary; the write error wins
		return err
	}
	return f.Close()
}

// Serve is the life of a serving binary: listen on addr, report the
// bound address through banner, serve h until ctx is cancelled (see
// Shutdown), then run drain and close the listener under one deadline
// of grace. Only a failure to listen or serve is returned; a drain that
// fails or overruns is reported on stderr and the caller still gets to
// write its snapshot and artifacts.
func Serve(ctx context.Context, addr string, h http.Handler, banner func(net.Addr), grace time.Duration, drain func(context.Context) error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hsrv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	banner(ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- hsrv.Serve(ln) }()
	select {
	case <-ctx.Done():
	case err := <-errc:
		return err
	}
	fmt.Println("\nshutdown: draining (a second signal forces exit)")
	dctx, cancel := context.WithTimeout(obs.RootContext(), grace)
	defer cancel()
	if drain != nil {
		if err := drain(dctx); err != nil {
			fmt.Fprintln(os.Stderr, "shutdown:", err)
		}
	}
	if err := hsrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "shutdown:", err)
	}
	return nil
}
