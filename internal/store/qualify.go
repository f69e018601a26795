package store

import (
	"bytes"
	"context"
	"fmt"

	"lepton/internal/core"
	"lepton/internal/jpeg"
)

// QualReport summarizes a qualification run: the paper requires every new
// Lepton build to compress and decompress a large corpus with identical
// results from the optimized and sanitizing decoders before deployment
// (§5.2, §5.7).
type QualReport struct {
	Total int
	// ByReason counts outcomes by §6.2 classification (ReasonNone =
	// success).
	ByReason map[jpeg.Reason]int
	// CrossCheckFailures counts files that compressed (so the encode's
	// verify decode matched the input byte for byte) but whose second,
	// independent decode failed or differed: a nondeterministic decoder,
	// the §6.7 "second alarm" class. Any nonzero value disqualifies the
	// build.
	CrossCheckFailures int
	// BytesIn/BytesOut tally successful compressions.
	BytesIn, BytesOut int64
}

// SuccessRatio returns the fraction of inputs that compressed successfully.
func (q *QualReport) SuccessRatio() float64 {
	if q.Total == 0 {
		return 0
	}
	return float64(q.ByReason[jpeg.ReasonNone]) / float64(q.Total)
}

// String renders the §6.2-style table.
func (q *QualReport) String() string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "qualification over %d files:\n", q.Total)
	order := []jpeg.Reason{
		jpeg.ReasonNone, jpeg.ReasonProgressive, jpeg.ReasonUnsupported,
		jpeg.ReasonNotImage, jpeg.ReasonCMYK, jpeg.ReasonMemDecode,
		jpeg.ReasonMemEncode, jpeg.ReasonChromaSub, jpeg.ReasonACRange,
		jpeg.ReasonRoundtrip, jpeg.ReasonTruncated,
	}
	for _, r := range order {
		if n := q.ByReason[r]; n > 0 {
			fmt.Fprintf(&buf, "  %-24s %7.3f%% (%d)\n", r.String(),
				100*float64(n)/float64(q.Total), n)
		}
	}
	if q.CrossCheckFailures > 0 {
		fmt.Fprintf(&buf, "  CROSS-CHECK FAILURES: %d (build disqualified)\n", q.CrossCheckFailures)
	}
	return buf.String()
}

// Qualify runs the qualification pipeline over a corpus. Each file is
// compressed with VerifyRoundtrip, which already decodes the container and
// compares the result with the input byte for byte; the file is then
// decoded once more, and that decode must match too. Every decode runs the
// same segment plan (streamed and buffered decodes share one path), so the
// re-decode is a determinism check, not a comparison of two decoders.
func Qualify(corpus [][]byte) *QualReport {
	q := &QualReport{ByReason: map[jpeg.Reason]int{}}
	codec := core.NewCodec()
	ctx := context.TODO()
	for _, data := range corpus {
		q.Total++
		res, err := codec.EncodeCtx(ctx, data, core.EncodeOptions{VerifyRoundtrip: true})
		if err != nil {
			q.ByReason[jpeg.ReasonOf(err)]++
			continue
		}
		again, err := codec.DecodeCtx(ctx, res.Compressed)
		if err != nil || !bytes.Equal(again, data) {
			q.CrossCheckFailures++
			q.ByReason[jpeg.ReasonRoundtrip]++
			continue
		}
		q.ByReason[jpeg.ReasonNone]++
		q.BytesIn += int64(len(data))
		q.BytesOut += int64(len(res.Compressed))
	}
	return q
}
