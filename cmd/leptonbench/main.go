// Command leptonbench regenerates the tables and figures of the paper's
// evaluation that run real code (§4, §5.5, §6.2) against this repository's
// implementation. Each experiment prints the series or table the paper
// plots. Figures 5 and 9-14 are Dropbox production telemetry and are not
// reproduced; leptonload measures a real fleet and perfbench the codec and
// store.
//
// Usage:
//
//	leptonbench -fig 1        # Figure 1: savings vs decompression speed
//	leptonbench -ablation     # §4.3 component ablations
//	leptonbench -errors       # §6.2 exit-code table
//	leptonbench -outsource    # §5.5 unix-vs-TCP overhead (real sockets)
//	leptonbench -all          # everything
//	flags: -n <corpus size> -seed <seed>
//	       -cpuprofile <file>  # write a pprof CPU profile of the run
//
// Figures 1 and 2 check every round trip; the command exits 1 if any file
// fails to decode or, for a file-preserving codec, decodes to other bytes,
// and likewise if the socket-overhead measurement fails to set up or any of
// its requests fails.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"text/tabwriter"

	"lepton/internal/imagegen"
)

type options struct {
	n    int
	seed int64
}

func main() {
	os.Exit(run())
}

func run() int {
	fig := flag.Int("fig", 0, "figure number to regenerate (1-4, 6-8)")
	ablation := flag.Bool("ablation", false, "§4.3 component ablation table")
	errorsT := flag.Bool("errors", false, "§6.2 exit-code table")
	outsource := flag.Bool("outsource", false, "§5.5 socket overhead measurement")
	extensions := flag.Bool("extensions", false, "opt-in CMYK capability")
	all := flag.Bool("all", false, "run everything")
	n := flag.Int("n", 40, "corpus size for codec experiments")
	seed := flag.Int64("seed", 1, "corpus seed")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	opt := options{n: *n, seed: *seed}
	ran := false
	do := func(cond bool, f func(options)) {
		if cond || *all {
			f(opt)
			ran = true
		}
	}
	do(*fig == 1, figure1)
	do(*fig == 2, figure2)
	do(*fig == 3, figure3)
	do(*fig == 4, figure4)
	do(*fig == 6, figure6)
	do(*fig == 7, figure7)
	do(*fig == 8, figure8)
	do(*ablation, ablationTable)
	do(*errorsT, errorTable)
	do(*outsource, outsourceOverhead)
	do(*extensions, extensionsTable)
	if !ran {
		flag.Usage()
		return 2
	}
	if roundTripFailures > 0 {
		fmt.Fprintf(os.Stderr, "leptonbench: %d files failed their round trip\n", roundTripFailures)
		return 1
	}
	if outsourceFailures > 0 {
		fmt.Fprintf(os.Stderr, "leptonbench: %d socket-overhead requests or set-ups failed\n", outsourceFailures)
		return 1
	}
	return 0
}

// corpus generates n deterministic JPEGs across a spread of dimensions
// (roughly 10 KB - 700 KB at default settings).
func corpus(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		w := 96 + rng.Intn(900)
		h := 96 + rng.Intn(700)
		data, err := imagegen.Generate(rng.Int63(), w, h)
		if err != nil {
			panic(err)
		}
		out = append(out, data)
	}
	return out
}

// corpusLarge generates bigger files (roughly 100 KiB - 1.5 MiB), matching
// Figure 1's corpus range, where multithreaded decode pays off.
func corpusLarge(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		w := 700 + rng.Intn(1400)
		h := w * 3 / 4
		data, err := imagegen.Generate(rng.Int63(), w, h)
		if err != nil {
			panic(err)
		}
		out = append(out, data)
	}
	return out
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

// newTable starts an aligned table on stdout under the given column
// headers. Rows are tab-separated lines; the caller flushes.
func newTable(columns ...string) *tabwriter.Writer {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(columns, "\t"))
	return tw
}

// percentile returns the p-th percentile (0..100) of values by linear
// interpolation between the closest ranks. values is not modified.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	pos := min(max(p, 0), 100) / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
