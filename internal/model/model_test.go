package model

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"lepton/internal/arith"
	"lepton/internal/dct"
)

func TestZigzag49(t *testing.T) {
	seen := map[uint8]bool{}
	for _, pos := range zigzag49 {
		if pos%8 == 0 || pos/8 == 0 {
			t.Fatalf("position %d is not interior", pos)
		}
		if seen[pos] {
			t.Fatalf("duplicate position %d", pos)
		}
		seen[pos] = true
	}
	if len(seen) != 49 {
		t.Fatalf("%d interior positions", len(seen))
	}
}

func TestIlog159(t *testing.T) {
	cases := map[int32]int{-5: 0, 0: 0, 1: 0, 2: 1, 3: 2, 4: 3, 6: 3, 7: 4, 10: 4, 11: 5, 49: 8, 64: 8, 65: 9, 1000: 9}
	for x, want := range cases {
		if got := ilog159(x); got != want {
			t.Fatalf("ilog159(%d) = %d, want %d", x, got, want)
		}
	}
}

// TestIlog2EdgeValues covers the int32 extremes: the magnitude of
// math.MinInt32 does not fit in an int32, and the old shift loop never
// terminated on it.
func TestIlog2EdgeValues(t *testing.T) {
	cases := []struct {
		x     int32
		limit int
		want  int
	}{
		{0, 33, 0},
		{1, 33, 1},
		{-1, 33, 1},
		{2, 33, 2},
		{-2, 33, 2},
		{4095, 33, 12},
		{-4096, 33, 13},
		{math.MaxInt32, 33, 31},
		{-math.MaxInt32, 33, 31},
		{math.MinInt32, 33, 32},
		{math.MinInt32 + 1, 33, 31},
		{math.MinInt32, avgBuckets, avgBuckets - 1},
		{math.MaxInt32, 8, 7},
		{5, 3, 2},
	}
	for _, c := range cases {
		if got := ilog2(c.x, c.limit); got != c.want {
			t.Errorf("ilog2(%d, %d) = %d, want %d", c.x, c.limit, got, c.want)
		}
	}
}

func TestPredBucketRange(t *testing.T) {
	for _, v := range []int32{-5000, -1023, -1, 0, 1, 17, 1023, 5000} {
		b := predBucket(v)
		if b < 0 || b >= predBuckets {
			t.Fatalf("predBucket(%d) = %d out of range", v, b)
		}
	}
	if predBucket(5) == predBucket(-5) {
		t.Fatal("sign must distinguish buckets")
	}
}

func TestCodeValRoundTrip(t *testing.T) {
	e := arith.NewEncoder()
	var mb magBins
	var rb resBins
	em := &emitter{e: e}
	vals := []int32{0, 1, -1, 2, -3, 17, -100, 1023, -1023, 4095, -4095, 0, 5}
	for _, v := range vals {
		em.codeVal(&mb, &rb, v)
	}
	data := e.Flush()
	d := arith.NewDecoder(data)
	var mb2 magBins
	var rb2 resBins
	dm := &emitter{d: d}
	for i, want := range vals {
		if got := dm.codeVal(&mb2, &rb2, 0); got != want {
			t.Fatalf("value %d: got %d want %d", i, got, want)
		}
	}
	if mb != mb2 {
		t.Fatal("bins diverged")
	}
}

func TestCodeValQuick(t *testing.T) {
	f := func(raw []int16) bool {
		e := arith.NewEncoder()
		var mb magBins
		var rb resBins
		em := &emitter{e: e}
		var vals []int32
		for _, r := range raw {
			v := int32(r)
			if v > 4095 {
				v = 4095
			}
			if v < -4095 {
				v = -4095
			}
			vals = append(vals, v)
			em.codeVal(&mb, &rb, v)
		}
		d := arith.NewDecoder(e.Flush())
		var mb2 magBins
		var rb2 resBins
		dm := &emitter{d: d}
		for _, want := range vals {
			if dm.codeVal(&mb2, &rb2, 0) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCodeTreeRoundTrip(t *testing.T) {
	e := arith.NewEncoder()
	bins := make([]arith.Bin, 64)
	em := &emitter{e: e}
	vals := []int{0, 49, 17, 63, 1, 32}
	for _, v := range vals {
		em.codeTree(bins, v, 6)
	}
	d := arith.NewDecoder(e.Flush())
	bins2 := make([]arith.Bin, 64)
	dm := &emitter{d: d}
	for i, want := range vals {
		if got := dm.codeTree(bins2, 0, 6); got != want {
			t.Fatalf("tree value %d: got %d want %d", i, got, want)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := map[float64]float64{1: 0, 2: 1, 4: 2, 0.5: -1, 8: 3}
	for x, want := range cases {
		if got := log2(x); got < want-0.01 || got > want+0.01 {
			t.Fatalf("log2(%v) = %v, want %v", x, got, want)
		}
	}
	if got := log2(3); got < 1.58 || got > 1.59 {
		t.Fatalf("log2(3) = %v", got)
	}
}

// makePlanes builds a random but spatially correlated coefficient plane set.
func makePlanes(rng *rand.Rand, comps int, bw, bh int) []ComponentPlane {
	var planes []ComponentPlane
	for c := 0; c < comps; c++ {
		q := dct.ScaleQuant(&dct.StdLuminanceQuant, 80)
		coeff := make([]int16, bw*bh*64)
		for b := 0; b < bw*bh; b++ {
			// Sparse coefficients with magnitude decaying by zigzag index.
			nz := rng.Intn(20)
			for j := 0; j < nz; j++ {
				k := rng.Intn(63) + 1
				pos := dct.Zigzag[k]
				mag := rng.Intn(64>>uint(min(5, k/8))) + 1
				if rng.Intn(2) == 0 {
					mag = -mag
				}
				coeff[b*64+int(pos)] = int16(mag)
			}
			coeff[b*64] = int16(rng.Intn(400) - 200)
		}
		qc := q
		planes = append(planes, Plane(bw, bh, &qc, coeff))
	}
	return planes
}

func clonePlanes(planes []ComponentPlane) []ComponentPlane {
	out := make([]ComponentPlane, len(planes))
	for i, p := range planes {
		out[i] = p
		out[i].Rows = SlabRows{Coeff: make([]int16, len(p.Slab())), Stride: p.BlocksWide * 64}
	}
	return out
}

func TestSegmentRoundTrip(t *testing.T) {
	for _, flags := range []Flags{
		DefaultFlags(),
		{EdgePrediction: false, DCGradient: true},
		{EdgePrediction: true, DCGradient: false},
		{EdgePrediction: false, DCGradient: false},
	} {
		rng := rand.New(rand.NewSource(42))
		planes := makePlanes(rng, 3, 6, 5)
		rs := []int{0, 0, 0}
		re := []int{5, 5, 5}
		enc := NewCodec(planes, rs, re, flags)
		e := arith.NewEncoder()
		enc.EncodeSegment(e)
		data := e.Flush()

		out := clonePlanes(planes)
		dec := NewCodec(out, rs, re, flags)
		if err := dec.DecodeSegment(arith.NewDecoder(data)); err != nil {
			t.Fatalf("flags %+v: decode: %v", flags, err)
		}
		for ci := range planes {
			for j := range planes[ci].Slab() {
				if planes[ci].Slab()[j] != out[ci].Slab()[j] {
					t.Fatalf("flags %+v: comp %d coeff %d: %d != %d",
						flags, ci, j, out[ci].Slab()[j], planes[ci].Slab()[j])
				}
			}
		}
	}
}

// TestTurnOrderParity codes one 4:2:0-shaped segment (luma twice the
// chroma rows) in planar order and in MCU-row order. Both must round-trip,
// and because no context crosses components the two streams may differ
// in length only by the arithmetic coder's rounding: at most 2 bytes.
func TestTurnOrderParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	planes := append(makePlanes(rng, 1, 12, 10), makePlanes(rng, 2, 6, 5)...)
	rs := []int{0, 0, 0}
	re := []int{10, 5, 5}
	var streams [][]byte
	for _, turns := range [][3]int{{0, 0, 0}, {2, 1, 1}} {
		in := make([]ComponentPlane, len(planes))
		for ci := range planes {
			in[ci] = planes[ci]
			in[ci].TurnRows = turns[ci]
		}
		e := arith.NewEncoder()
		NewCodec(in, rs, re, DefaultFlags()).EncodeSegment(e)
		data := append([]byte(nil), e.Flush()...)
		streams = append(streams, data)

		out := clonePlanes(in)
		if err := NewCodec(out, rs, re, DefaultFlags()).DecodeSegment(arith.NewDecoder(data)); err != nil {
			t.Fatalf("turns %v: decode: %v", turns, err)
		}
		for ci := range in {
			if !slices.Equal(in[ci].Slab(), out[ci].Slab()) {
				t.Fatalf("turns %v: component %d does not round-trip", turns, ci)
			}
		}
	}
	planar, mcuRow := streams[0], streams[1]
	if bytes.Equal(planar, mcuRow) {
		t.Fatal("MCU-row turns produced the planar stream: TurnRows was ignored")
	}
	if d := len(planar) - len(mcuRow); d < -2 || d > 2 {
		t.Fatalf("planar stream %d bytes, MCU-row stream %d bytes: differ by more than 2", len(planar), len(mcuRow))
	}
}

func TestSegmentIndependence(t *testing.T) {
	// Decoding segment 2 must not require segment 1's data.
	rng := rand.New(rand.NewSource(7))
	planes := makePlanes(rng, 1, 8, 8)
	// Encode rows 0-3 and 4-7 as separate segments.
	var streams [][]byte
	for _, r := range [][2]int{{0, 4}, {4, 8}} {
		enc := NewCodec(planes, []int{r[0]}, []int{r[1]}, DefaultFlags())
		e := arith.NewEncoder()
		enc.EncodeSegment(e)
		streams = append(streams, e.Flush())
	}
	// Decode ONLY the second segment into a fresh plane.
	out := clonePlanes(planes)
	dec := NewCodec(out, []int{4}, []int{8}, DefaultFlags())
	if err := dec.DecodeSegment(arith.NewDecoder(streams[1])); err != nil {
		t.Fatal(err)
	}
	for j := 4 * 8 * 64; j < len(planes[0].Slab()); j++ {
		if planes[0].Slab()[j] != out[0].Slab()[j] {
			t.Fatalf("coeff %d mismatch decoding segment alone", j)
		}
	}
}

func TestDecodeCorruptStream(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	planes := makePlanes(rng, 1, 4, 4)
	enc := NewCodec(planes, []int{0}, []int{4}, DefaultFlags())
	e := arith.NewEncoder()
	enc.EncodeSegment(e)
	data := e.Flush()
	// Corrupt every byte aggressively and ensure no panic.
	for i := 0; i < len(data); i += 3 {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0xA5
		out := clonePlanes(planes)
		dec := NewCodec(out, []int{0}, []int{4}, DefaultFlags())
		_ = dec.DecodeSegment(arith.NewDecoder(bad)) // error or garbage, no panic
	}
}

func TestStatsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	planes := makePlanes(rng, 1, 6, 6)
	enc := NewCodec(planes, []int{0}, []int{6}, DefaultFlags())
	enc.Stats = &Stats{}
	e := arith.NewEncoder()
	enc.EncodeSegment(e)
	data := e.Flush()
	var total float64
	for _, b := range enc.Stats.Bits {
		if b < 0 {
			t.Fatal("negative bits")
		}
		total += b
	}
	// The Shannon estimate must roughly match the actual output size.
	actual := float64(len(data) * 8)
	if total < actual*0.8 || total > actual*1.2 {
		t.Fatalf("stats estimate %.0f bits vs actual %.0f", total, actual)
	}
}

func TestBinCount(t *testing.T) {
	planes := makePlanes(rand.New(rand.NewSource(1)), 3, 2, 2)
	c := NewCodec(planes, []int{0, 0, 0}, []int{2, 2, 2}, DefaultFlags())
	if c.BinCount() != 3*BinsPerChannel {
		t.Fatalf("BinCount = %d", c.BinCount())
	}
	if BinsPerChannel < 50000 {
		t.Fatalf("model suspiciously small: %d bins/channel", BinsPerChannel)
	}
}

func TestLakhaniPerfectGradient(t *testing.T) {
	// A perfectly smooth horizontal ramp: the left block's DCT predicts the
	// current block's left-column coefficients well.
	q := [64]uint16{}
	for i := range q {
		q[i] = 1
	}
	var left, cur dct.Block
	var px dct.Block
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			px[y*8+x] = int32(x * 4) // ramp continuing into next block
		}
	}
	dct.Forward(&px, &left)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			px[y*8+x] = int32((x + 8) * 4)
		}
	}
	dct.Forward(&px, &cur)
	l16 := make([]int16, 64)
	c16 := make([]int16, 64)
	for i := 0; i < 64; i++ {
		l16[i] = int16(left[i])
		c16[i] = int16(cur[i])
	}
	var pt predTables
	pt.build(&q)
	for v := 1; v < 8; v++ {
		pred := lakhaniCol(l16, c16, &pt, v)
		actual := int32(c16[v*8])
		diff := pred - actual
		if diff < -2 || diff > 2 {
			t.Fatalf("v=%d: pred %d vs actual %d", v, pred, actual)
		}
	}
}

func TestDCPredictionSmoothGradient(t *testing.T) {
	// Blocks sampled from one global linear ramp: prediction should land
	// very close to the true DC.
	q := [64]uint16{}
	for i := range q {
		q[i] = 1
	}
	mk := func(x0, y0 int) []int16 {
		var px, f dct.Block
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				px[y*8+x] = int32(2*(x0+x) + 3*(y0+y))
			}
		}
		dct.Forward(&px, &f)
		out := make([]int16, 64)
		for i := range f {
			out[i] = int16(f[i])
		}
		return out
	}
	above := mk(8, 0)
	left := mk(0, 8)
	cur := mk(8, 8)
	var abEd, lfEd blockEdges
	computeEdges(above, &q, &abEd)
	computeEdges(left, &q, &lfEd)
	var px dct.Block
	acOnlyPixels(cur, &q, &px)
	var pt predTables
	pt.build(&q)
	pred, conf := dcPrediction(&px, &pt, &abEd, &lfEd, 0)
	actual := int32(cur[0])
	diff := pred - actual
	if diff < -4 || diff > 4 {
		t.Fatalf("DC pred %d vs actual %d (conf %d)", pred, actual, conf)
	}
	if conf > 8 {
		t.Fatalf("smooth gradient should be high confidence, got bucket %d", conf)
	}
	// No neighbors: falls back to prevDC.
	pred, _ = dcPrediction(&px, &pt, nil, nil, 123)
	if pred != 123 {
		t.Fatalf("fallback pred = %d", pred)
	}
}

// TestCodecDoesNotAliasCallerPlanes guards the NewCodec copy semantics:
// sibling segment codecs are constructed from one shared planes slice, and a
// codec writes its comps in Reset and Release. When NewCodec aliased the
// caller's slice, those writes landed in a backing array shared across
// sibling codecs — releasing (or resetting) one corrupted the others, and
// two pooled siblings reused concurrently raced on the shared array.
func TestCodecDoesNotAliasCallerPlanes(t *testing.T) {
	var q [64]uint16
	for i := range q {
		q[i] = 1
	}
	coeff := make([]int16, 2*64)
	rng := rand.New(rand.NewSource(51))
	for i := range coeff {
		coeff[i] = int16(rng.Intn(15) - 7)
	}

	// Reference stream from a codec with its own plane slice.
	refPlanes := []ComponentPlane{Plane(2, 1, &q, coeff)}
	ref := arith.NewEncoder()
	NewCodec(refPlanes, []int{0}, []int{1}, DefaultFlags()).EncodeSegment(ref)
	want := append([]byte(nil), ref.Flush()...)

	// Two sibling codecs over one shared planes slice, as core's segment
	// fan-out builds them.
	planes := []ComponentPlane{Plane(2, 1, &q, coeff)}
	c1 := NewCodec(planes, []int{0}, []int{1}, DefaultFlags())
	c2 := NewCodec(planes, []int{0}, []int{1}, DefaultFlags())

	// Releasing c1 zeroes its component references, and the caller's slice
	// may be reused arbitrarily; neither may be visible to c2.
	c1.Release()
	planes[0] = ComponentPlane{}

	e := arith.NewEncoder()
	c2.EncodeSegment(e)
	if !bytes.Equal(e.Flush(), want) {
		t.Fatal("sibling Release or caller mutation corrupted this codec's planes: NewCodec aliased the shared slice")
	}
}
