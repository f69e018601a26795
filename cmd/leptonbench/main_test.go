package main

import (
	"errors"
	"testing"
	"testing/quick"

	"lepton/internal/baseline"
)

func TestPercentileBasics(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(v, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := percentile(v, 100); p != 10 {
		t.Fatalf("p100 = %v", p)
	}
	if p := percentile(v, 50); p != 5.5 {
		t.Fatalf("p50 = %v", p)
	}
	if p := percentile([]float64{42}, 99); p != 42 {
		t.Fatalf("single = %v", p)
	}
	if p := percentile(nil, 50); p != 0 {
		t.Fatalf("empty = %v", p)
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	v := []float64{9, 1, 5, 3, 7}
	if p := percentile(v, 50); p != 5 {
		t.Fatalf("p50 = %v", p)
	}
	// Input must not be mutated.
	if v[0] != 9 {
		t.Fatal("percentile mutated its input")
	}
}

func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		for i, x := range raw {
			v[i] = float64(x)
		}
		last := percentile(v, 0)
		for p := 5.0; p <= 100; p += 5 {
			cur := percentile(v, p)
			if cur < last {
				return false
			}
			last = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// faultyCodec wraps deflate and breaks its decode: it flips the first
// decoded byte, or fails outright when decodeErr is set.
type faultyCodec struct {
	baseline.Flate
	decodeErr bool
}

func (f faultyCodec) Decompress(comp []byte) ([]byte, error) {
	if f.decodeErr {
		return nil, errors.New("corrupt stream")
	}
	out, err := f.Flate.Decompress(comp)
	if err == nil && len(out) > 0 {
		out[0] ^= 0xFF
	}
	return out, err
}

func TestMeasureCodecCountsFailedRoundTrips(t *testing.T) {
	files := [][]byte{[]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), []byte("bbbbbbbbbbbbbbbbbbbbbbbb")}
	var in int64
	for _, f := range files {
		in += int64(len(f))
	}
	defer func(n int) { roundTripFailures = n }(roundTripFailures)
	good := measureCodec(baseline.Flate{Level: 6}, files)
	if good.failed != 0 || good.rejected != 0 || good.bytesOut >= in {
		t.Fatalf("deflate: %+v", good)
	}
	for _, c := range []faultyCodec{{Flate: baseline.Flate{Level: 6}}, {Flate: baseline.Flate{Level: 6}, decodeErr: true}} {
		before := roundTripFailures
		r := measureCodec(c, files)
		if r.failed != len(files) || r.rejected != 0 {
			t.Fatalf("decodeErr=%v: failed %d rejected %d, want %d and 0", c.decodeErr, r.failed, r.rejected, len(files))
		}
		// A failed file is stored as is: it must not inflate savings.
		if r.bytesIn != in || r.bytesOut != in {
			t.Fatalf("decodeErr=%v: bytes %d -> %d, want %d -> %d", c.decodeErr, r.bytesIn, r.bytesOut, in, in)
		}
		if len(r.decMbps) != 0 {
			t.Fatalf("decodeErr=%v: failed files left %d speed samples", c.decodeErr, len(r.decMbps))
		}
		if roundTripFailures != before+len(files) {
			t.Fatalf("decodeErr=%v: roundTripFailures %d, want %d", c.decodeErr, roundTripFailures, before+len(files))
		}
	}
}
