package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server exposes a recorder over HTTP while a run is in flight. What it
// mounts is the endpoints table below, which GET / lists. Use Serve
// with addr ":0" to pick a free port; Addr reports the bound address.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// endpoint is one mounted path: query is the parameter the index shows
// beside it.
type endpoint struct {
	path, query string
	h           http.HandlerFunc
}

// endpoints is the one list of what Serve mounts for rec; both the mux
// and the index body at / are built from it.
func endpoints(rec *Recorder) []endpoint {
	// The pprof index serves the named profiles; these four have handlers
	// of their own under the same prefix.
	prof := http.NewServeMux()
	prof.HandleFunc("/debug/pprof/", pprof.Index)
	prof.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	prof.HandleFunc("/debug/pprof/profile", pprof.Profile)
	prof.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	prof.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return []endpoint{
		// JSON snapshot of every counter, gauge and histogram.
		{"/metrics", "", func(w http.ResponseWriter, req *http.Request) {
			writeJSON(w, http.StatusOK, rec.Metrics())
		}},
		// The span forest and request exemplars as Chrome trace-event
		// JSON for Perfetto (same shape as -chrome-trace).
		{"/trace", "", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := rec.WriteChromeTrace(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}},
		// The structured event log as JSONL (same shape as -events-out).
		{"/events", "", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			if err := rec.WriteEvents(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}},
		{"/requests", "trace=<id>", RequestsHandler(rec)},
		{"/debug/pprof/", "", prof.ServeHTTP},
	}
}

// Serve binds addr and serves rec's endpoints on a background
// goroutine until Close.
func Serve(addr string, rec *Recorder) (*Server, error) {
	if rec == nil {
		return nil, errors.New("obs: Serve needs a non-nil recorder")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	index := "shahin observability\n\n"
	for _, e := range endpoints(rec) {
		mux.HandleFunc(e.path, e.h)
		index += e.path
		if e.query != "" {
			index += " (?" + e.query + ")"
		}
		index += "\n"
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, index)
	})

	s := &Server{
		ln:  ln,
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}
	go s.srv.Serve(ln) //shahinvet:allow errcheck — always returns ErrServerClosed after Close
	return s, nil
}

// Addr returns the bound address ("127.0.0.1:43781"), useful with ":0".
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server immediately. Nil-safe.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// writeJSON answers code with v as indented JSON, or 500 when v does
// not encode.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n')) //shahinvet:allow errcheck — the status line is already sent; a broken client pipe has no recovery
}

// RequestsHandler serves the slow-request exemplar ring: without
// parameters, the slowest-first listing (span dumps stripped); with
// ?trace=<id>, the full span dump of one request, or 404 when the trace
// ID is not retained. Shared by the obs debug server and the serving
// API.
func RequestsHandler(rec *Recorder) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if traceID := req.URL.Query().Get("trace"); traceID != "" {
			rt, ok := rec.RequestByTrace(traceID)
			if !ok {
				writeJSON(w, http.StatusNotFound, map[string]string{"error": "trace id not retained: " + traceID})
				return
			}
			writeJSON(w, http.StatusOK, rt)
			return
		}
		writeJSON(w, http.StatusOK, rec.RequestsSummary())
	}
}
