package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"lepton/internal/baseline"
	"lepton/internal/core"
	"lepton/internal/imagegen"
	"lepton/internal/model"
	"lepton/internal/store"
)

// codecResult is one codec's savings and speed over a corpus.
type codecResult struct {
	name              string
	savingsPct        []float64 // per file, 0 when rejected or failed
	encMbps, decMbps  []float64
	encSecs, decSecs  []float64
	rejected          int // compress refused the file
	failed            int // decode error, or other bytes from a file-preserving codec
	bytesIn, bytesOut int64
}

// roundTripFailures counts every failed file measureCodec has seen; a
// nonzero count makes the command exit 1.
var roundTripFailures int

// oneShotEncode and oneShotDecode run one conversion on a fresh codec, so
// each measured call pays every per-conversion allocation.
func oneShotEncode(data []byte, opt core.EncodeOptions) (*core.Result, error) {
	return core.NewCodec().EncodeCtx(context.Background(), data, opt)
}

func oneShotDecode(comp []byte) ([]byte, error) {
	return core.NewCodec().DecodeCtx(context.Background(), comp)
}

// measureCodec compresses and decompresses every file of corpus with c.
// A file the codec refuses or fails is counted as stored uncompressed, with
// zero savings (the paper's Figure 2 includes chunks Lepton cannot
// compress), and contributes no speed sample.
func measureCodec(c baseline.Codec, corpus [][]byte) codecResult {
	r := codecResult{name: c.Name()}
	for _, data := range corpus {
		r.bytesIn += int64(len(data))
		t0 := time.Now()
		comp, err := c.Compress(data)
		encT := time.Since(t0).Seconds()
		if err != nil {
			r.rejected++
			r.savingsPct = append(r.savingsPct, 0)
			r.bytesOut += int64(len(data))
			continue
		}
		t1 := time.Now()
		back, derr := c.Decompress(comp)
		decT := time.Since(t1).Seconds()
		if derr != nil || (c.FilePreserving() && !bytes.Equal(back, data)) {
			r.failed++
			roundTripFailures++
			r.savingsPct = append(r.savingsPct, 0)
			r.bytesOut += int64(len(data))
			continue
		}
		mb := float64(len(data)) * 8 / 1e6
		r.savingsPct = append(r.savingsPct, 100*(1-float64(len(comp))/float64(len(data))))
		r.encMbps = append(r.encMbps, mb/encT)
		r.decMbps = append(r.decMbps, mb/decT)
		r.encSecs = append(r.encSecs, encT)
		r.decSecs = append(r.decSecs, decT)
		r.bytesOut += int64(len(comp))
	}
	return r
}

func jpegAwareCodecs() []baseline.Codec {
	return []baseline.Codec{
		baseline.Lepton{},
		baseline.Lepton1Way{},
		baseline.PackJPGStyle{},
		baseline.SpecArith{},
		baseline.Rescan{},
	}
}

func allCodecs() []baseline.Codec {
	return append(jpegAwareCodecs(),
		baseline.Flate{Level: 1},
		baseline.Flate{Level: 6},
		baseline.Flate{Level: 9},
		baseline.RC1{},
	)
}

// figure1: compression savings vs decompression speed for the JPEG-aware
// codecs (25th/50th/75th percentile markers, as the paper's diamonds).
func figure1(opt options) {
	header("Figure 1: savings vs decompression speed (JPEG-aware codecs)")
	n := opt.n / 2
	if n < 6 {
		n = 6
	}
	files := corpusLarge(opt.seed, n)
	t := newTable("codec", "savings% p25", "p50", "p75", "decode Mbps p25", "p50", "p75", "failed")
	for _, c := range jpegAwareCodecs() {
		r := measureCodec(c, files)
		fmt.Fprintf(t, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%d\n", r.name,
			percentile(r.savingsPct, 25), percentile(r.savingsPct, 50), percentile(r.savingsPct, 75),
			percentile(r.decMbps, 25), percentile(r.decMbps, 50), percentile(r.decMbps, 75),
			r.failed)
	}
	t.Flush()
	fmt.Println("paper: Lepton ~22-23% savings at >100 Mbps; PackJPG same savings ~9x slower;")
	fmt.Println("       MozJPEG-arith ~8-12% savings; JPEGrescan ~8% (progressive half not modeled).")
}

// figure2: savings and encode/decode speed for every codec, over a corpus
// that includes the §6.2 anomaly mix (files Lepton rejects).
func figure2(opt options) {
	header("Figure 2: savings and speed, all codecs (incl. rejected chunks)")
	files := corpus(opt.seed, opt.n)
	files = append(files, imagegen.BuildErrorCorpus(opt.seed+1, opt.n/4)...)
	t := newTable("codec", "savings%", "enc Mbps", "dec Mbps",
		"enc p50 ms", "enc p99 ms", "dec p50 ms", "dec p99 ms", "rejected", "failed")
	for _, c := range allCodecs() {
		r := measureCodec(c, files)
		fmt.Fprintf(t, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%d\t%d\n", r.name,
			100*(1-float64(r.bytesOut)/float64(r.bytesIn)),
			percentile(r.encMbps, 50), percentile(r.decMbps, 50),
			percentile(r.encSecs, 50)*1000, percentile(r.encSecs, 99)*1000,
			percentile(r.decSecs, 50)*1000, percentile(r.decSecs, 99)*1000,
			r.rejected, r.failed)
	}
	t.Flush()
	fmt.Println("paper: Lepton 22.4% / Lepton 1-way 23.2% / PackJPG 23.0% / PAQ8PX 24.0% /")
	fmt.Println("       JPEGrescan 8.3% / MozJPEG 12.0% / generic codecs <= 1%.")
}

// figure3: peak memory per codec, sampled while compressing and
// decompressing the largest corpus file.
func figure3(opt options) {
	header("Figure 3: peak memory by codec (heap high-water, MiB)")
	files := corpus(opt.seed, opt.n)
	big := files[0]
	for _, f := range files {
		if len(f) > len(big) {
			big = f
		}
	}
	t := newTable("codec", "encode MiB", "decode MiB")
	for _, c := range allCodecs() {
		var comp []byte
		encPeak := peakHeap(func() {
			comp, _ = c.Compress(big)
		})
		decPeak := 0.0
		if comp != nil {
			decPeak = peakHeap(func() {
				_, _ = c.Decompress(comp)
			})
		}
		fmt.Fprintf(t, "%s\t%.1f\t%.1f\n", c.Name(), encPeak, decPeak)
	}
	t.Flush()
	fmt.Printf("model size: %d bins/channel x 3 channels x 4 B = %.1f MiB per thread segment\n",
		model.BinsPerChannel, float64(3*model.BinsPerChannel*4)/(1<<20))
	fmt.Println("paper: Lepton decode 24 MiB (1-way) / 39 MiB p99 (multithreaded); others 69-192 MiB.")
}

// peakHeap measures the heap high-water mark of f in MiB relative to the
// post-GC baseline. Coarse, but it reproduces the ordering.
func peakHeap(f func()) float64 {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	done := make(chan struct{})
	peak := base.HeapAlloc
	go func() {
		defer close(done)
		f()
	}()
	ticker := time.NewTicker(200 * time.Microsecond)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			if m.HeapAlloc > peak {
				peak = m.HeapAlloc
			}
			return float64(peak-base.HeapAlloc) / (1 << 20)
		case <-ticker.C:
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			if m.HeapAlloc > peak {
				peak = m.HeapAlloc
			}
		}
	}
}

// figure4: compression ratio by file component.
func figure4(opt options) {
	header("Figure 4: compression breakdown by component")
	files := corpus(opt.seed, opt.n)
	var origClass [model.NumClasses]float64
	var compClass [model.NumClasses]float64
	var headerOrig, headerComp, totalOrig, totalComp float64
	for _, data := range files {
		res, err := oneShotEncode(data, core.EncodeOptions{CollectStats: true})
		if err != nil {
			continue
		}
		for c := 0; c < model.NumClasses; c++ {
			origClass[c] += float64(res.OriginalClassBits[c]) / 8
			compClass[c] += res.ClassBits[c] / 8
		}
		headerOrig += float64(res.HeaderOriginal)
		headerComp += float64(res.HeaderCompressed)
		totalOrig += float64(len(data))
		totalComp += float64(len(res.Compressed))
	}
	t := newTable("category", "original bytes %", "compression ratio %", "bytes saved %")
	add := func(name string, orig, comp float64) {
		fmt.Fprintf(t, "%s\t%.1f\t%.1f\t%.1f\n", name,
			100*orig/totalOrig, 100*comp/orig, 100*(orig-comp)/totalOrig)
	}
	add("Header", headerOrig, headerComp)
	add("7x7 AC", origClass[model.Class77], compClass[model.Class77])
	add("7x1/1x7", origClass[model.ClassEdge], compClass[model.ClassEdge])
	add("DC", origClass[model.ClassDC], compClass[model.ClassDC])
	add("Total", totalOrig, totalComp)
	t.Flush()
	fmt.Println("paper: header 2.3%/47.6%; 7x7 49.7%/80.2%; 7x1&1x7 39.8%/78.7%; DC 8.2%/59.9%; total 77.3%.")
}

// sizeSweep generates images at growing dimensions for Figures 6-8.
func sizeSweep(seed int64) [][]byte {
	var out [][]byte
	for _, w := range []int{128, 192, 256, 384, 512, 768, 1024, 1400, 1800} {
		data, err := imagegen.Generate(seed+int64(w), w, w*3/4)
		if err != nil {
			panic(err)
		}
		out = append(out, data)
	}
	return out
}

// figure6: savings vs file size.
func figure6(opt options) {
	header("Figure 6: compression savings across file sizes")
	t := newTable("size KiB", "savings %", "threads")
	for _, data := range sizeSweep(opt.seed) {
		res, err := oneShotEncode(data, core.EncodeOptions{})
		if err != nil {
			continue
		}
		fmt.Fprintf(t, "%.0f\t%.1f\t%d\n", float64(len(data))/1024,
			100*(1-float64(len(res.Compressed))/float64(len(data))), res.Segments)
	}
	t.Flush()
	fmt.Println("paper: savings uniform across sizes (~23% +- a few points).")
}

// figure7: decompression speed vs size per thread count.
func figure7(opt options) {
	header("Figure 7: decompression speed vs file size by thread count")
	figureSpeed(opt, false)
}

// figure8: compression speed vs size per thread count (the encoder's
// serial Huffman decode caps gains past 4 threads).
func figure8(opt options) {
	header("Figure 8: compression speed vs file size by thread count")
	figureSpeed(opt, true)
}

func figureSpeed(opt options, encode bool) {
	t := newTable("size KiB", "1 thread Mbps", "2", "4", "8")
	for _, data := range sizeSweep(opt.seed) {
		fmt.Fprintf(t, "%.0f", float64(len(data))/1024)
		for _, threads := range []int{1, 2, 4, 8} {
			res, err := oneShotEncode(data, core.EncodeOptions{ForceSegments: threads})
			if err != nil {
				fmt.Fprint(t, "\t-")
				continue
			}
			mb := float64(len(data)) * 8 / 1e6
			reps := 1
			if len(data) < 200<<10 {
				reps = 3
			}
			var secs float64
			if encode {
				t0 := time.Now()
				for i := 0; i < reps; i++ {
					_, _ = oneShotEncode(data, core.EncodeOptions{ForceSegments: threads})
				}
				secs = time.Since(t0).Seconds() / float64(reps)
			} else {
				t0 := time.Now()
				for i := 0; i < reps; i++ {
					_, _ = oneShotDecode(res.Compressed)
				}
				secs = time.Since(t0).Seconds() / float64(reps)
			}
			fmt.Fprintf(t, "\t%.1f", mb/secs)
		}
		fmt.Fprintln(t)
	}
	t.Flush()
	if encode {
		fmt.Println("paper: compression gains flatten past 4 threads (serial JPEG Huffman decode).")
	} else {
		fmt.Println("paper: decompression scales with threads via Huffman handover words.")
	}
}

// ablationTable: §4.3 — per-component compression with predictors toggled.
func ablationTable(opt options) {
	header("§4.3 ablations: edge prediction and DC gradient prediction")
	files := corpus(opt.seed, opt.n)
	configs := []struct {
		name  string
		flags model.Flags
	}{
		{"full model", model.DefaultFlags()},
		{"no edge prediction", model.Flags{EdgePrediction: false, DCGradient: true}},
		{"no DC gradient", model.Flags{EdgePrediction: true, DCGradient: false}},
		{"neither (PackJPG-2007)", model.Flags{}},
	}
	t := newTable("config", "edge ratio %", "DC ratio %", "total ratio %")
	for _, cfg := range configs {
		var origEdge, compEdge, origDC, compDC, orig, comp float64
		flags := cfg.flags
		for _, data := range files {
			res, err := oneShotEncode(data, core.EncodeOptions{Flags: &flags, CollectStats: true})
			if err != nil {
				continue
			}
			origEdge += float64(res.OriginalClassBits[model.ClassEdge])
			compEdge += res.ClassBits[model.ClassEdge]
			origDC += float64(res.OriginalClassBits[model.ClassDC])
			compDC += res.ClassBits[model.ClassDC]
			orig += float64(len(data))
			comp += float64(len(res.Compressed))
		}
		fmt.Fprintf(t, "%s\t%.1f\t%.1f\t%.1f\n", cfg.name,
			100*compEdge/origEdge, 100*compDC/origDC, 100*comp/orig)
	}
	t.Flush()
	fmt.Println("paper: edge prediction improves 7x1/1x7 from 82.5% to 78.7%;")
	fmt.Println("       DC gradient improves DC from 79.4% to 59.9%.")
}

// errorTable: §6.2 exit-code distribution over the anomaly corpus.
func errorTable(opt options) {
	header("§6.2 exit codes over the anomaly-mix corpus")
	n := opt.n * 10
	if n < 200 {
		n = 200
	}
	q := store.Qualify(imagegen.BuildErrorCorpus(opt.seed, n))
	fmt.Print(q.String())
	fmt.Println("paper: Success 94.069%, Progressive 3.043%, Unsupported 1.535%, Not an image 0.801%,")
	fmt.Println("       CMYK 0.478%, >24MiB decode 0.024%, roundtrip/chroma/AC-range trace amounts.")
}

// extensionsTable measures the one optional capability production
// disabled that the encoder still offers: CMYK (§6.2's "intentionally
// disabled" features), behind an opt-in. Progressive files are refused,
// as production refused them.
func extensionsTable(opt options) {
	header("Extensions: CMYK, opt-in")
	t := newTable("input", "bytes", "lepton bytes", "savings %", "roundtrip")
	addRow := func(name string, data []byte, o core.EncodeOptions) {
		o.VerifyRoundtrip = true
		res, err := oneShotEncode(data, o)
		if err != nil {
			fmt.Fprintf(t, "%s\t%d\t-\t-\t%v\n", name, len(data), err)
			return
		}
		fmt.Fprintf(t, "%s\t%d\t%d\t%.1f\tok\n", name, len(data), len(res.Compressed),
			100*(1-float64(len(res.Compressed))/float64(len(data))))
	}
	img := imagegen.Synthesize(opt.seed, 400, 300)
	cmyk, err := imagegen.EncodeJPEG(img, imagegen.Options{Quality: 85, CMYK: true, PadBit: 1})
	if err == nil {
		addRow("cmyk 400x300", cmyk, core.EncodeOptions{AllowCMYK: true})
	}
	base, err := imagegen.EncodeJPEG(img, imagegen.Options{Quality: 85, SubsampleChroma: true, PadBit: 1})
	if err == nil {
		addRow("baseline 400x300 (reference)", base, core.EncodeOptions{})
	}
	t.Flush()
	fmt.Println("paper: CMYK was 0.5% of backfill inputs.")
}
