// Package metrics is the one counter substrate every stats surface reads:
// a Set is a named group of atomic counters and gauges owned by one
// component instance — a codec, a blockserver, a store, a router. A set
// may have a parent, and every update also applies to the parent, so a
// component's work rolls up into an aggregate without a second write at
// the call site: a node's codecs count into the node, and the node into
// the process-wide view. Snapshot renders a set as the flat name→value map
// the admin plane and the load harness export.
package metrics

import (
	"sync"
	"sync/atomic"
)

// Set is a named group of counters and gauges. A gauge is a level that
// rises and falls plus its high-water mark; Snapshot reports gauge g as
// g_in_use and g_peak. A nil Set ignores updates. Safe for concurrent use:
// names are created once and then only read, so a lookup takes no lock.
type Set struct {
	parent   *Set
	counters sync.Map // name → *atomic.Int64
	gauges   sync.Map // name → *Gauge
}

// Gauge is one gauge of a set, linked to the same-named gauge of each
// ancestor. A nil Gauge ignores updates.
type Gauge struct {
	level, peak atomic.Int64
	parent      *Gauge
}

// New returns a set whose updates also apply to parent (nil for a root
// set). The named counters are reported, at zero, from the start; any
// other name appears at its first update.
func New(parent *Set, counters ...string) *Set {
	s := &Set{parent: parent}
	for _, name := range counters {
		s.counter(name)
	}
	return s
}

// Add adds n to counter name in s and in every ancestor.
func (s *Set) Add(name string, n int64) {
	for ; s != nil; s = s.parent {
		s.counter(name).Add(n)
	}
}

func (s *Set) counter(name string) *atomic.Int64 {
	c, ok := s.counters.Load(name)
	if !ok {
		c, _ = s.counters.LoadOrStore(name, new(atomic.Int64))
	}
	return c.(*atomic.Int64)
}

// Gauge returns gauge name, creating it (and its ancestors') on first use.
// A gauge moves once per unit of work, so callers look it up once and keep
// the handle: an update is then atomic adds only.
func (s *Set) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	g, ok := s.gauges.Load(name)
	if !ok {
		g, _ = s.gauges.LoadOrStore(name, &Gauge{parent: s.parent.Gauge(name)})
	}
	return g.(*Gauge)
}

// Add moves g's level by n in g and in every ancestor, raising each one's
// high-water mark when the new level exceeds it.
func (g *Gauge) Add(n int64) {
	for ; g != nil; g = g.parent {
		v := g.level.Add(n)
		for p := g.peak.Load(); v > p && !g.peak.CompareAndSwap(p, v); p = g.peak.Load() {
		}
	}
}

// Snapshot returns every counter and gauge in the set, each read
// atomically, as a fresh map the caller may extend with computed values.
func (s *Set) Snapshot() map[string]int64 {
	out := map[string]int64{}
	s.counters.Range(func(name, c any) bool {
		out[name.(string)] = c.(*atomic.Int64).Load()
		return true
	})
	s.gauges.Range(func(name, g any) bool {
		out[name.(string)+"_in_use"] = g.(*Gauge).level.Load()
		out[name.(string)+"_peak"] = g.(*Gauge).peak.Load()
		return true
	})
	return out
}
