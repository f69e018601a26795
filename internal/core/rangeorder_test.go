package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
)

// fixturePath names a checked-in container fixture of the root package.
func fixturePath(name string) string { return filepath.Join("..", "..", "testdata", name) }

// segmentStartRead locates a one-byte range read at the first MCU row of
// thread segment seg of comp, and the block rows of each component that
// segment spans.
func segmentStartRead(t *testing.T, comp []byte, seg int) (off int64, f *jpeg.File, rs, re []int) {
	t.Helper()
	c, err := Unmarshal(comp)
	if err != nil {
		t.Fatal(err)
	}
	if f, err = jpeg.ParseHeader(c.JPEGHeader); err != nil {
		t.Fatal(err)
	}
	pl, ok := planRange(f, c)
	if !ok {
		t.Fatal("container has no usable seek index")
	}
	start := int(c.Segments[seg].StartMCU)
	end := int(c.MCUEnd)
	if seg+1 < len(c.Segments) {
		end = int(c.Segments[seg+1].StartMCU)
	}
	if (end-start)/f.MCUsWide < 3 {
		t.Fatalf("segment %d spans only %d MCU rows", seg, (end-start)/f.MCUsWide)
	}
	rs, re = rowRangesFor(f, start, end)
	off = pl.emitBase + c.SeekIndex[start/f.MCUsWide-pl.r0].ByteOff - c.SeekIndex[0].ByteOff
	return off, f, rs, re
}

// rangeBlockRows serves the one-byte read at off on a fresh codec, checks
// it against the original bytes and the fast path, and returns the block
// rows (all components) the read decoded.
func rangeBlockRows(t *testing.T, comp, data []byte, off int64) int64 {
	t.Helper()
	cd := NewCodec()
	got, err := cd.DecodeRangeCtx(context.Background(), comp, off, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[off:off+1]) {
		t.Fatalf("range byte at %d is %x, want %x", off, got, data[off:off+1])
	}
	snap := cd.stats.Snapshot()
	if snap["range_fast"] != 1 || snap["range_segments_decoded"] != 1 {
		t.Fatalf("want one fast-path read of one segment, counters %v", snap)
	}
	return snap["range_block_rows"]
}

// TestRangeStopsAtLastMCURow reads one byte at the first MCU row of every
// thread segment of a 4:2:0 MCU-row container: each read stops after that
// MCU row, decoding at most 2 MCU rows of block rows per component, and is
// byte-exact.
func TestRangeStopsAtLastMCURow(t *testing.T) {
	img := imagegen.Synthesize(13, 320, 240)
	data, err := imagegen.EncodeJPEG(img, imagegen.Options{Quality: 85, SubsampleChroma: true, PadBit: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := encode(data, EncodeOptions{ForceSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != 3 {
		t.Fatalf("encoded %d segments, want 3", res.Segments)
	}
	for seg := 0; seg < res.Segments; seg++ {
		off, f, _, _ := segmentStartRead(t, res.Compressed, seg)
		var max int64
		for ci := range f.Components {
			max += int64(2 * vEff(f, ci))
		}
		if rows := rangeBlockRows(t, res.Compressed, data, off); rows > max {
			t.Fatalf("segment %d: read decoded %d block rows, want at most %d (2 MCU rows per component)",
				seg, rows, max)
		}
	}
}

// TestPlanarRangeDecodesEarlierComponents is the same first-row read
// against the planar v1 fixture and against the MCU-row encode of the same
// image: planar order puts every row of the earlier components ahead of
// the last component's first row, so the v1 read still decodes them all,
// while the v2 read stops after one MCU row. Both are byte-exact.
func TestPlanarRangeDecodesEarlierComponents(t *testing.T) {
	v1, err := os.ReadFile(fixturePath("v1-color-multiseg.lep"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := decode(v1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := encode(data, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v2 := res.Compressed
	if v1[2] != VersionPlanar || v2[2] != Version {
		t.Fatalf("version bytes: v1 fixture %#02x, encoder %#02x", v1[2], v2[2])
	}
	off, f, rs, re := segmentStartRead(t, v1, 0)
	if off2, _, _, _ := segmentStartRead(t, v2, 0); off2 != off {
		t.Fatalf("v1 and v2 place segment 0's first row at %d and %d", off, off2)
	}
	var v2Max, v1Min int64
	for ci := range f.Components {
		v2Max += int64(2 * vEff(f, ci))
		if ci < len(f.Components)-1 {
			v1Min += int64(re[ci] - rs[ci])
		}
	}
	if rows := rangeBlockRows(t, v2, data, off); rows > v2Max {
		t.Fatalf("v2 read decoded %d block rows, want at most %d", rows, v2Max)
	}
	if rows := rangeBlockRows(t, v1, data, off); rows < v1Min {
		t.Fatalf("v1 read decoded %d block rows, want the earlier components' %d in full", rows, v1Min)
	}
}

// TestUnmarshalVersions accepts the two container versions this package
// decodes, records which one it read, and rejects any other.
func TestUnmarshalVersions(t *testing.T) {
	res, err := encode(genJPEG(t, 5, 64, 48), EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{VersionPlanar, Version} {
		data := append([]byte(nil), res.Compressed...)
		data[2] = v
		c, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("version %#02x: %v", v, err)
		}
		if c.Version != v {
			t.Fatalf("version %#02x recorded as %#02x", v, c.Version)
		}
		back, err := c.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if back[2] != v {
			t.Fatalf("re-marshal of a version %#02x container wrote %#02x", v, back[2])
		}
	}
	for _, v := range []byte{0x00, 0x03, 0xFF} {
		data := append([]byte(nil), res.Compressed...)
		data[2] = v
		if _, err := Unmarshal(data); !errors.Is(err, ErrBadContainer) {
			t.Fatalf("version %#02x: err %v, want ErrBadContainer", v, err)
		}
		if _, err := decode(data); !errors.Is(err, ErrBadContainer) {
			t.Fatalf("version %#02x decode: err %v, want ErrBadContainer", v, err)
		}
	}
}

// cpuBoundContainer rewrites the golden color-small container into one
// whose stored header claims a 65520×16384 image, whose one segment's
// stream is 64 zero bytes, and whose seek index is all zero, while its
// recorded output size stays a few kilobytes. Every block costs at least
// two bits of output, so no decode may start on it. off is the first scan
// byte: a one-byte read there maps to the image's last MCU row, which the
// segment can only reach by decoding every row before it.
func cpuBoundContainer(tb testing.TB) (comp []byte, off int64) {
	tb.Helper()
	golden, err := os.ReadFile(fixturePath("golden-color-small.lep"))
	if err != nil {
		tb.Fatal(err)
	}
	c, err := Unmarshal(golden)
	if err != nil {
		tb.Fatal(err)
	}
	hdr := append([]byte(nil), c.JPEGHeader...)
	sof := bytes.Index(hdr, []byte{0xFF, 0xC0})
	if sof < 0 {
		tb.Fatal("golden header has no SOF0 marker")
	}
	binary.BigEndian.PutUint16(hdr[sof+5:], 16384) // height
	binary.BigEndian.PutUint16(hdr[sof+7:], 65520) // width
	f, err := jpeg.ParseHeader(hdr)
	if err != nil {
		tb.Fatal(err)
	}
	c.JPEGHeader = hdr
	c.MCUStart, c.MCUEnd = 0, uint32(f.TotalMCUs())
	c.Segments = []Segment{{ArithLen: 64}}
	c.Streams = [][]byte{make([]byte, 64)}
	c.SeekIndex = make([]jpeg.MCUPos, f.MCUsHigh)
	if comp, err = c.Marshal(); err != nil {
		tb.Fatal(err)
	}
	return comp, prefixLen(c)
}

// TestRangeRejectsBlocksBeyondOutputSize pins the CPU bound on the range
// path: a container claiming more blocks than its output size could hold is
// refused by a range read exactly as by a full decode, before any unit
// starts, instead of arith-decoding millions of blocks.
func TestRangeRejectsBlocksBeyondOutputSize(t *testing.T) {
	comp, off := cpuBoundContainer(t)
	if _, err := decode(comp); !errors.Is(err, ErrBadContainer) || !strings.Contains(err.Error(), "cannot fit") {
		t.Fatalf("full decode: err %v, want the blocks-vs-output-size rejection", err)
	}
	cd := NewCodec()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := cd.DecodeRangeCtx(ctx, comp, off, 1)
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("range read ran until the deadline instead of rejecting the container")
	}
	if !errors.Is(err, ErrBadContainer) || !strings.Contains(err.Error(), "cannot fit") {
		t.Fatalf("range read: err %v, want the blocks-vs-output-size rejection", err)
	}
	snap := cd.stats.Snapshot()
	if snap["range_block_rows"] != 0 || snap["range_segments_decoded"] != 0 {
		t.Fatalf("rejected range read started decoding: %v", snap)
	}
}
