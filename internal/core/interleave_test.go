package core_test

import (
	"bytes"
	"testing"

	"lepton/internal/core"
)

func interleavedContainer(t *testing.T, seed int64, sectionSize int) (data, comp []byte) {
	t.Helper()
	data = mustGen(t, seed, 400, 304)
	res, err := encode(data, core.EncodeOptions{ForceSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Unmarshal(res.Compressed)
	if err != nil {
		t.Fatal(err)
	}
	comp, err = c.MarshalInterleaved(sectionSize)
	if err != nil {
		t.Fatal(err)
	}
	return data, comp
}

func TestInterleavedRoundTrip(t *testing.T) {
	for _, section := range []int{64, 256, 1000, 4096, 65536} {
		data, comp := interleavedContainer(t, 30, section)
		back, err := decode(comp, 0)
		if err != nil {
			t.Fatalf("section %d: %v", section, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("section %d: interleaved round trip mismatch", section)
		}
	}
}

func TestInterleavedSectionsActuallyInterleave(t *testing.T) {
	_, comp := interleavedContainer(t, 31, 128)
	c, err := core.Unmarshal(comp)
	if err != nil {
		t.Fatal(err)
	}
	// After normalization the streams must match a sequential marshal of
	// the same container.
	seq, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := core.Unmarshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Streams) != len(c2.Streams) {
		t.Fatalf("stream counts differ: %d vs %d", len(c.Streams), len(c2.Streams))
	}
	for i := range c.Streams {
		if !bytes.Equal(c.Streams[i], c2.Streams[i]) {
			t.Fatalf("stream %d differs after interleave round trip", i)
		}
	}
}

func TestInterleavedRejectsRawMode(t *testing.T) {
	c := &core.Container{Mode: core.ModeRaw, Raw: []byte("x"), OutputSize: 1}
	if _, err := c.MarshalInterleaved(0); err == nil {
		t.Fatal("raw containers cannot be interleaved")
	}
}

func TestInterleavedCorruption(t *testing.T) {
	_, comp := interleavedContainer(t, 32, 512)
	// Flipping body bytes must never panic; section framing errors must be
	// detected as bad containers.
	for i := 40; i < len(comp); i += 53 {
		bad := append([]byte(nil), comp...)
		bad[i] ^= 0xFF
		_, _ = decode(bad, 0)
	}
	// Truncations.
	for _, n := range []int{29, 60, len(comp) / 2, len(comp) - 3} {
		if n < len(comp) {
			if _, err := decode(comp[:n], 0); err == nil {
				t.Fatalf("truncated interleaved container at %d decoded", n)
			}
		}
	}
}
