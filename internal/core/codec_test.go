package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
	"lepton/internal/model"
)

func genJPEG(t testing.TB, seed int64, w, h int) []byte {
	t.Helper()
	data, err := imagegen.Generate(seed, w, h)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// encode, decode, decodeTo and decodeRange run one conversion on a fresh
// codec — empty pools, so every allocation is paid, as a one-shot caller
// pays it — the reference the pooled paths are compared against.
func encode(data []byte, opt EncodeOptions) (*Result, error) {
	return NewCodec().EncodeCtx(context.Background(), data, opt)
}

func decode(comp []byte) ([]byte, error) {
	return NewCodec().DecodeCtx(context.Background(), comp)
}

func decodeTo(w io.Writer, comp []byte) error {
	return NewCodec().DecodeToCtx(context.Background(), w, comp)
}

func decodeRange(comp []byte, off, n int64) ([]byte, error) {
	return NewCodec().DecodeRangeCtx(context.Background(), comp, off, n)
}

// TestCodecReuseByteIdentical drives one codec through many files and checks
// that every output is byte-identical to a fresh codec's: pooled bins,
// planes, and scratch must leave no trace from one conversion in the next.
func TestCodecReuseByteIdentical(t *testing.T) {
	codec := NewCodec()
	for round := 0; round < 3; round++ {
		for seed := int64(1); seed <= 6; seed++ {
			w := 96 + int(seed)*40
			h := 80 + int(seed)*32
			data := genJPEG(t, seed, w, h)
			oneShot, err := encode(data, EncodeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := codec.EncodeCtx(context.Background(), data, EncodeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(oneShot.Compressed, pooled.Compressed) {
				t.Fatalf("round %d seed %d: pooled output differs from one-shot", round, seed)
			}
			back, err := codec.DecodeCtx(context.Background(), pooled.Compressed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, data) {
				t.Fatalf("round %d seed %d: pooled decode mismatch", round, seed)
			}
		}
	}
}

// TestCodecPoolPoisoning interleaves files of very different shapes —
// tiny gray-ish, large multi-segment, progressive (which bypasses the
// pools), and raw fallbacks — through one codec, ensuring buffer reuse
// never corrupts a later conversion.
func TestCodecPoolPoisoning(t *testing.T) {
	codec := NewCodec()
	shapes := []struct {
		seed int64
		w, h int
	}{
		{1, 640, 480}, // large: many segments, big planes
		{2, 64, 48},   // tiny: planes shrink, stale data beyond the slice
		{3, 320, 240},
		{4, 72, 96},
		{5, 512, 384},
	}
	for round := 0; round < 2; round++ {
		for _, s := range shapes {
			data := genJPEG(t, s.seed, s.w, s.h)
			res, err := codec.EncodeCtx(context.Background(), data, EncodeOptions{VerifyRoundtrip: true})
			if err != nil {
				t.Fatalf("shape %dx%d: %v", s.w, s.h, err)
			}
			back, err := codec.DecodeCtx(context.Background(), res.Compressed)
			if err != nil || !bytes.Equal(back, data) {
				t.Fatalf("shape %dx%d: decode mismatch (%v)", s.w, s.h, err)
			}
		}
		// Rejected inputs exercise the error paths between pool get/put.
		prog := imagegen.MakeProgressive(genJPEG(t, 7, 120, 90))
		if _, err := codec.EncodeCtx(context.Background(), prog, EncodeOptions{}); err == nil {
			t.Fatal("progressive input must be rejected by default")
		}
		if _, err := codec.EncodeCtx(context.Background(), []byte("not a jpeg"), EncodeOptions{}); err == nil {
			t.Fatal("garbage input must be rejected")
		}
	}
}

// TestEncodeAbortsWithSegmentsWaiting aborts 32-segment encodes while
// most segments still wait for a live slot: a scan that turns corrupt
// halfway, and cancellations at a spread of delays. Each must return,
// settle the coefficient gauge, and leave the codec producing
// byte-identical output. chunk.TestCompressAbortsWithSegmentsWaiting runs
// the same aborts through the chunk layer.
func TestEncodeAbortsWithSegmentsWaiting(t *testing.T) {
	data := genJPEG(t, 41, 960, 1536)
	opt := EncodeOptions{ForceSegments: 32}
	want, err := encode(data, opt)
	if err != nil {
		t.Fatal(err)
	}
	f, err := jpeg.Parse(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	mid := len(f.Header) + len(f.ScanData)/2
	for i := mid; i < mid+64; i++ {
		bad[i] = 0xFF
	}
	cd := NewCodec()
	settled := func(what string) {
		t.Helper()
		if inUse, _ := coeffMem(cd); inUse != 0 {
			t.Fatalf("%s: %d coefficient bytes still in use", what, inUse)
		}
	}
	if _, err := cd.EncodeCtx(context.Background(), bad, opt); jpeg.ReasonOf(err) != jpeg.ReasonTruncated {
		t.Fatalf("corrupt scan: err = %v, want a truncated-scan rejection", err)
	}
	settled("corrupt scan")
	for _, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond, 60 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		res, err := cd.EncodeCtx(ctx, data, opt)
		if err == nil && !bytes.Equal(res.Compressed, want.Compressed) {
			t.Fatalf("EncodeCtx (deadline %v): output differs", d)
		}
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("EncodeCtx (deadline %v): err = %v", d, err)
		}
		settled("cancelled EncodeCtx")
		cancel()
	}
	res, err := cd.EncodeCtx(context.Background(), data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Compressed, want.Compressed) {
		t.Fatal("codec output changed after aborted conversions: pools poisoned")
	}
}

// TestEncodeSegmentsMatchesEncodeScan checks the plane-fed EncodeSegments,
// which perfbench's model sweep times, against the streamed EncodeScanCtx
// every container comes from: the same segments must code to the same
// streams and handovers.
func TestEncodeSegmentsMatchesEncodeScan(t *testing.T) {
	data := genJPEG(t, 43, 480, 360)
	f, err := jpeg.Parse(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := jpeg.DecodeScan(f)
	if err != nil {
		t.Fatal(err)
	}
	cd := NewCodec()
	segs, streams, _, release := cd.EncodeSegments(f, scan, 0, f.TotalMCUs(), 5, model.DefaultFlags(), false)
	defer release()
	enc, err := cd.EncodeScanCtx(context.Background(), f, SegmentStarts(f, 5, 0, f.MCUsHigh), nil, model.DefaultFlags(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	if len(segs) != 5 || fmt.Sprint(segs) != fmt.Sprint(enc.Segments) {
		t.Fatalf("segments differ:\n%v\n%v", segs, enc.Segments)
	}
	for i := range streams {
		if !bytes.Equal(streams[i], enc.Streams[i]) {
			t.Fatalf("segment %d: streams differ", i)
		}
	}
}

// TestCodecConcurrent hammers one codec from several goroutines: pools must
// never hand the same object to two conversions at once.
func TestCodecConcurrent(t *testing.T) {
	codec := NewCodec()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			data := genJPEG(t, int64(20+g), 128+16*g, 120)
			for i := 0; i < 3; i++ {
				res, err := codec.EncodeCtx(context.Background(), data, EncodeOptions{})
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", g, err)
					return
				}
				back, err := codec.DecodeCtx(context.Background(), res.Compressed)
				if err != nil || !bytes.Equal(back, data) {
					errs <- fmt.Errorf("worker %d: round trip mismatch (%v)", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// allocBytesPerRun measures heap bytes allocated per call of fn, averaged
// over runs, on a quiesced heap.
func allocBytesPerRun(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm-up outside the measurement
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestCodecAllocReduction is the acceptance check for the pooled pipeline:
// steady-state compression through a reused Codec must allocate far fewer
// bytes per op than a fresh codec. (Since the row-window refactor the
// *object counts* of the two are close — neither materializes coefficient
// planes anymore — but a fresh codec still pays for the
// model bin tables, arithmetic coder buffers, and scan bit queues on every
// call, which the codec pools.)
func TestCodecAllocReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	data := genJPEG(t, 31, 512, 384)
	codec := NewCodec()
	// Warm the pools.
	for i := 0; i < 3; i++ {
		if _, err := codec.EncodeCtx(context.Background(), data, EncodeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	oneShot := allocBytesPerRun(10, func() {
		if _, err := encode(data, EncodeOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	pooled := allocBytesPerRun(10, func() {
		if _, err := codec.EncodeCtx(context.Background(), data, EncodeOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("bytes/op: one-shot=%.0f pooled=%.0f (%.0f%% fewer)",
		oneShot, pooled, 100*(1-pooled/oneShot))
	if pooled > 0.5*oneShot {
		t.Fatalf("pooled path allocates %.0f B/op vs one-shot %.0f B/op; want >=50%% reduction", pooled, oneShot)
	}
}

// TestMarshalAllocatesOnce checks that a container with a seek index
// marshals into one allocation once the codec's scratch pools are warm: the
// output is sized from the section lengths, index included, up front.
func TestMarshalAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	res, err := encode(genJPEG(t, 3, 1024, 768), EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cd := NewCodec()
	c, _, err := unmarshal(res.Compressed, cd)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.SeekIndex) == 0 {
		t.Fatal("container has no seek index")
	}
	var out []byte
	if allocs := testing.AllocsPerRun(10, func() { out, err = c.marshal(cd) }); allocs > 1 {
		t.Fatalf("marshal made %v allocations, want 1", allocs)
	}
	if err != nil || !bytes.Equal(out, res.Compressed) || cap(out) != len(out) {
		t.Fatalf("marshal: %v; %d bytes (cap %d), want the %d encoded", err, len(out), cap(out), len(res.Compressed))
	}
}

// TestCodecStatsPerInstance pins the counter aggregation perfbench and the
// blockserver rely on: range and full decodes on one codec move that
// codec's range_* counters and the process-wide RangeStats by the same
// delta, leave a second codec at zero, and return the codec's
// coefficient-window gauge to zero after every call.
func TestCodecStatsPerInstance(t *testing.T) {
	ctx := context.Background()
	data := genJPEG(t, 93, 320, 240)
	a, b := NewCodec(), NewCodec()
	indexed, err := a.EncodeCtx(ctx, data, EncodeOptions{ForceSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	noIndex := CutSeekIndex(indexed.Compressed)
	calls := []struct {
		name  string
		run   func() error
		moved string
	}{
		{"fast range", func() error {
			_, err := a.DecodeRangeCtx(ctx, indexed.Compressed, 700, 4000)
			return err
		}, "range_fast"},
		{"fallback range", func() error {
			_, err := a.DecodeRangeCtx(ctx, noIndex, 700, 4000)
			return err
		}, "range_fallback_no_index"},
		{"full decode", func() error {
			_, err := a.DecodeCtx(ctx, indexed.Compressed)
			return err
		}, ""},
	}
	for _, c := range calls {
		own0, proc0 := a.stats.Snapshot(), RangeStats()
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		own1, proc1 := a.stats.Snapshot(), RangeStats()
		for k := range proc1 {
			if d, pd := own1[k]-own0[k], proc1[k]-proc0[k]; d != pd {
				t.Errorf("%s: %s moved %d on the codec but %d process-wide", c.name, k, d, pd)
			}
		}
		if c.moved != "" && own1[c.moved] == own0[c.moved] {
			t.Errorf("%s: %s did not move", c.name, c.moved)
		}
		if got := own1["coeff_window_bytes_in_use"]; got != 0 {
			t.Errorf("%s: %d coefficient-window bytes still in use", c.name, got)
		}
	}
	if _, peak := coeffMem(a); peak == 0 {
		t.Error("conversions never raised the coefficient-window peak")
	}
	for k, v := range b.stats.Snapshot() {
		if v != 0 {
			t.Errorf("idle codec reports %s = %d", k, v)
		}
	}
}

// TestContainerOutputSize checks the cheap header peek servers use to frame
// streamed responses.
func TestContainerOutputSize(t *testing.T) {
	data := genJPEG(t, 41, 160, 120)
	res, err := encode(data, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := ContainerOutputSize(res.Compressed)
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != len(data) {
		t.Fatalf("output size %d, want %d", n, len(data))
	}
	if _, err := ContainerOutputSize([]byte{1, 2, 3}); err == nil {
		t.Fatal("short input must error")
	}
	if _, err := ContainerOutputSize(make([]byte, 64)); err == nil {
		t.Fatal("bad magic must error")
	}
}

// TestPooledResultsNotAliased guards the arith.Encoder.Flush ownership
// contract end to end: Flush returns a slice aliasing the pooled encoder's
// buffer, so EncodeSegments' streams are only valid until release, and every
// byte that escapes Encode must have been copied out (by Container
// marshaling) before the pool recycles the encoder. If a future change let
// aliased bytes escape, the later conversions here would overwrite the
// earlier results in place and their decodes would diverge.
func TestPooledResultsNotAliased(t *testing.T) {
	codec := NewCodec()
	type held struct {
		data, comp, snapshot []byte
	}
	var results []held
	for seed := int64(1); seed <= 8; seed++ {
		data := genJPEG(t, seed, 120+int(seed)*56, 96+int(seed)*40)
		res, err := codec.EncodeCtx(context.Background(), data, EncodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, held{
			data:     data,
			comp:     res.Compressed,
			snapshot: append([]byte(nil), res.Compressed...),
		})
	}
	for i, h := range results {
		if !bytes.Equal(h.comp, h.snapshot) {
			t.Fatalf("result %d was mutated by a later pooled conversion (aliased pool memory escaped)", i)
		}
		back, err := codec.DecodeCtx(context.Background(), h.comp)
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if !bytes.Equal(back, h.data) {
			t.Fatalf("result %d no longer decodes to its input", i)
		}
	}
}
