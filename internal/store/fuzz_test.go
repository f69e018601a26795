package store_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"testing"

	"lepton/internal/core"
	"lepton/internal/imagegen"
	"lepton/internal/store"
)

// fuzzCodec is shared across fuzz executions so pooled state is exercised
// under the fuzzer's input churn, exactly as a long-lived blockserver
// store would run.
var fuzzCodec = core.NewCodec()

// fuzzSeedChunks builds in-test seeds: valid Lepton chunk containers
// across layouts, a raw-mode container, and corruptions of both. The
// checked-in corpus under testdata/fuzz/ is a separate, additional seed
// set owned by `corpusgen -fuzz-seeds`; the two need not stay in sync —
// more distinct seed shapes only help the fuzzer.
func fuzzSeedChunks(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	codec := core.NewCodec()
	add := func(img []byte, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		res, err := codec.EncodeCtx(context.Background(), img, core.EncodeOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, res.Compressed)
	}
	sy := imagegen.Synthesize(5, 112, 80)
	add(imagegen.EncodeJPEG(sy, imagegen.Options{Quality: 85, PadBit: 1}))
	add(imagegen.EncodeJPEG(sy, imagegen.Options{Quality: 75, Grayscale: true, PadBit: 0}))
	add(imagegen.EncodeJPEG(sy, imagegen.Options{Quality: 70, SubsampleChroma: true, RestartInterval: 2, PadBit: 1}))
	raw := &core.Container{Mode: core.ModeRaw, Raw: []byte("raw chunk payload"), OutputSize: 17}
	rb, err := raw.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	out = append(out, rb)
	n := len(out)
	for i := 0; i < n; i++ {
		s := out[i]
		if len(s) > 64 {
			c := append([]byte(nil), s...)
			c[len(c)-9] ^= 0x2C
			out = append(out, c, s[:len(s)/2])
		}
	}
	return out
}

// FuzzStorePut feeds arbitrary bytes to the client-side-codec admission
// path (PutCompressedChunkCtx) and, when a chunk is admitted, requires the
// §5.7 invariants to hold: the hash is the content address, the stored
// compressed bytes round-trip unchanged, and GetChunkCtx returns exactly what
// a direct decode of the input produces. Nothing may panic or hang on
// corrupt containers.
func FuzzStorePut(f *testing.F) {
	for _, s := range fuzzSeedChunks(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := store.New()
		st.Codec = fuzzCodec
		h, err := st.PutCompressedChunkCtx(context.Background(), data)
		if err != nil {
			// Rejected: nothing may be stored under the payload's content
			// address (h is the zero Hash on error, so check the address a
			// store-then-validate regression would actually write to).
			if _, ok := st.GetCompressedChunk(sha256.Sum256(data)); ok {
				t.Fatal("rejected chunk left bytes in the store")
			}
			return
		}
		cb, ok := st.GetCompressedChunk(h)
		if !ok {
			t.Fatal("admitted chunk missing from store")
		}
		if !bytes.Equal(cb, data) {
			t.Fatal("stored compressed bytes differ from the upload")
		}
		back, err := st.GetChunkCtx(context.Background(), h)
		if err != nil {
			t.Fatalf("admitted chunk failed to decode on read: %v", err)
		}
		direct, err := fuzzCodec.DecodeCtx(t.Context(), data)
		if err != nil {
			t.Fatalf("chunk admitted but direct decode fails: %v", err)
		}
		if !bytes.Equal(back, direct) {
			t.Fatal("store read and direct decode disagree")
		}
	})
}
