// Package admin is the fleet management plane: a small HTTP/JSON server
// over named stat sources — Fleet router counters, FleetStore replication
// counters, per-node blockserver snapshots — plus a minimal human status
// page. It is the fleet-wide successor of blockserverd's per-node
// -debug-addr /debug/vars, and blockserverd itself now serves its debug
// vars through it.
//
// Unlike the expvar-on-DefaultServeMux pattern it replaces, the server
// owns its *http.Server on a private mux (no global handler collisions,
// no accidental /debug/pprof exposure from stray imports), sets a
// ReadHeaderTimeout so an idle half-open connection cannot hold a worker
// forever (Slowloris), and has a real Shutdown so a draining daemon
// releases its port instead of holding it bound until process exit.
//
// Endpoints:
//
//	/            human status page (HTML, auto-refreshing)
//	/healthz     liveness probe ("ok")
//	/api/stats   every source: {"<name>": {"<counter>": N, ...}, ...}
//	/api/stats/<name>  one source's map
//	/debug/vars  alias of /api/stats in the expvar shape, for tooling
//	             pointed at the old per-node endpoint
//
// Sources are plain func() map[string]int64 snapshots — in practice a
// component's internal/metrics counter set plus the few values it computes
// at read time — and each covers one instance: a node's snapshot counts
// that node's work only, and a restarted node starts from zero. The
// contract — enforced by the concurrent-scrape race test — is that a
// Source reads every counter via atomics or under the lock that writers
// hold, so a scrape racing live traffic or a node eviction is always safe
// and consistent with itself.
package admin

import (
	"context"
	"encoding/json"
	"fmt"
	"html/template"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Source snapshots one component's counters. It must be safe to call
// concurrently with the component's own activity.
type Source func() map[string]int64

// Default HTTP hardening. ReadHeaderTimeout is the Slowloris bound: a
// connection that has not finished sending headers within it is closed.
const (
	DefaultReadHeaderTimeout = 5 * time.Second
	defaultReadTimeout       = 15 * time.Second
	defaultWriteTimeout      = 30 * time.Second
	defaultIdleTimeout       = 2 * time.Minute
)

// Server serves the admin API. Register sources, then ListenAndServe (or
// mount Handler yourself); Shutdown stops accepting, drains in-flight
// scrapes, and releases the port. Safe for concurrent use.
type Server struct {
	// ReadHeaderTimeout overrides DefaultReadHeaderTimeout when positive;
	// set before ListenAndServe. Tests shorten it to pin the Slowloris
	// behavior without waiting out the production bound.
	ReadHeaderTimeout time.Duration

	mu      sync.Mutex
	sources map[string]Source
	order   []string
	hs      *http.Server
	addr    string
}

// New returns an empty admin server.
func New() *Server {
	return &Server{sources: make(map[string]Source)}
}

// Register adds (or replaces) a named source. Names appear as top-level
// keys in /api/stats and sections on the status page, in registration
// order.
func (s *Server) Register(name string, src Source) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.sources[name]; !dup {
		s.order = append(s.order, name)
	}
	s.sources[name] = src
}

// snapshot calls every source outside the registration lock (a source may
// itself take locks shared with request paths; holding ours across that
// would couple scrape latency to registration).
func (s *Server) snapshot() (names []string, stats map[string]map[string]int64) {
	s.mu.Lock()
	names = append([]string(nil), s.order...)
	srcs := make([]Source, len(names))
	for i, n := range names {
		srcs[i] = s.sources[n]
	}
	s.mu.Unlock()
	stats = make(map[string]map[string]int64, len(names))
	for i, n := range names {
		stats[n] = srcs[i]()
	}
	return names, stats
}

// Handler returns the admin mux — private, never http.DefaultServeMux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.serveStatus)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/api/stats", s.serveAll)
	mux.HandleFunc("/api/stats/", s.serveOne)
	mux.HandleFunc("/debug/vars", s.serveAll)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // a write failure means the scraper went away
}

func (s *Server) serveAll(w http.ResponseWriter, r *http.Request) {
	_, stats := s.snapshot()
	writeJSON(w, stats)
}

func (s *Server) serveOne(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/api/stats/")
	s.mu.Lock()
	src, ok := s.sources[name]
	s.mu.Unlock()
	if !ok {
		http.Error(w, fmt.Sprintf("unknown source %q", name), http.StatusNotFound)
		return
	}
	writeJSON(w, src())
}

var statusTmpl = template.Must(template.New("status").Parse(`<!doctype html>
<html><head><meta charset="utf-8"><meta http-equiv="refresh" content="2">
<title>lepton admin</title>
<style>
body{font-family:monospace;margin:2em;background:#fafafa;color:#222}
h1{font-size:1.2em} h2{font-size:1em;margin-bottom:.2em}
table{border-collapse:collapse;margin-bottom:1.2em}
td{border:1px solid #ccc;padding:2px 8px}
td.v{text-align:right}
</style></head><body>
<h1>lepton fleet admin</h1>
<p>{{.Now}} &middot; <a href="/api/stats">/api/stats</a> &middot; <a href="/debug/vars">/debug/vars</a></p>
{{range .Sections}}<h2>{{.Name}} <a href="/api/stats/{{.Name}}">json</a></h2>
<table>{{range .Rows}}<tr><td>{{.K}}</td><td class="v">{{.V}}</td></tr>{{end}}</table>
{{end}}</body></html>
`))

func (s *Server) serveStatus(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	names, stats := s.snapshot()
	type row struct {
		K string
		V int64
	}
	type section struct {
		Name string
		Rows []row
	}
	page := struct {
		Now      string
		Sections []section
	}{Now: time.Now().Format(time.RFC3339)}
	for _, n := range names {
		m := stats[n]
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sec := section{Name: n}
		for _, k := range keys {
			sec.Rows = append(sec.Rows, row{K: k, V: m[k]})
		}
		page.Sections = append(page.Sections, sec)
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = statusTmpl.Execute(w, page)
}

// ListenAndServe binds addr ("host:port"; ":0" picks a free port), starts
// serving in the background, and returns the bound address. The server is
// owned: call Shutdown to stop it and release the port.
func (s *Server) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("admin: listen %s: %w", addr, err)
	}
	rht := s.ReadHeaderTimeout
	if rht <= 0 {
		rht = DefaultReadHeaderTimeout
	}
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: rht,
		ReadTimeout:       defaultReadTimeout,
		WriteTimeout:      defaultWriteTimeout,
		IdleTimeout:       defaultIdleTimeout,
	}
	s.mu.Lock()
	if s.hs != nil {
		s.mu.Unlock()
		_ = ln.Close()
		return "", fmt.Errorf("admin: server already started on %s", s.addr)
	}
	s.hs = hs
	s.addr = ln.Addr().String()
	s.mu.Unlock()
	go func() {
		// ErrServerClosed is the Shutdown path; anything else means the
		// listener died and scrapes silently stop — nothing to do here,
		// the caller notices via failed scrapes.
		_ = hs.Serve(ln)
	}()
	return s.addr, nil
}

// Addr returns the bound address, or "" before ListenAndServe.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// Shutdown stops accepting, waits for in-flight scrapes up to ctx's
// deadline, then force-closes stragglers. The port is released by the time
// it returns. Safe to call on a server that never started (no-op).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	hs := s.hs
	s.hs = nil
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	err := hs.Shutdown(ctx)
	if err != nil {
		// Deadline expired with scrapes still in flight: close them; the
		// port must not outlive the drain window.
		_ = hs.Close()
	}
	return err
}
