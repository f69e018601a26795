package backfill

import (
	"context"
	"fmt"
	"sync"

	"lepton/internal/imagegen"
)

// Source produces the original bytes for a manifest entry. A production
// deployment would read blob storage; tests and benchmarks regenerate
// deterministic JPEGs from the entry's recipe. Fetch must be safe for
// concurrent use and must return the same bytes for the same entry every
// time — verify-before-commit compares against what Fetch returned.
type Source interface {
	Fetch(ctx context.Context, e Entry) ([]byte, error)
}

// SyntheticSource regenerates each entry's JPEG from its (seed, w, h)
// recipe via imagegen, memoizing up to CacheCap distinct entries so hot
// retries don't re-encode. The zero value is usable (no cache).
type SyntheticSource struct {
	// CacheCap bounds the memo; 0 disables caching.
	CacheCap int

	mu    sync.Mutex
	cache map[uint64][]byte
}

// Fetch implements Source.
func (s *SyntheticSource) Fetch(ctx context.Context, e Entry) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.CacheCap > 0 {
		s.mu.Lock()
		data, ok := s.cache[e.ID]
		s.mu.Unlock()
		if ok {
			return data, nil
		}
	}
	data, err := imagegen.Generate(e.Seed, e.W, e.H)
	if err != nil {
		return nil, fmt.Errorf("backfill: generate %d: %w", e.ID, err)
	}
	if s.CacheCap > 0 {
		s.mu.Lock()
		if s.cache == nil {
			s.cache = make(map[uint64][]byte)
		}
		if len(s.cache) < s.CacheCap {
			s.cache[e.ID] = data
		}
		s.mu.Unlock()
	}
	return data, nil
}

// FuncSource adapts a function to Source; handy for tests that inject
// deterministic failures for specific IDs.
type FuncSource func(ctx context.Context, e Entry) ([]byte, error)

// Fetch implements Source.
func (f FuncSource) Fetch(ctx context.Context, e Entry) ([]byte, error) { return f(ctx, e) }
