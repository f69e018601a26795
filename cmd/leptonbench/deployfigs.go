package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lepton/internal/cluster"
	"lepton/internal/imagegen"
	"lepton/internal/server"
	"lepton/internal/stats"
)

// figure5: weekly encode/decode rates vs weekly minimum.
func figure5(opt options) {
	header("Figure 5: weekday vs weekend coding events (vs weekly min)")
	dec, enc := cluster.Figure5(opt.seed)
	t := &stats.Table{Header: []string{"day", "decodes (daily mean)", "encodes (daily mean)", "ratio"}}
	days := []string{"Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"}
	for d := 0; d < 7; d++ {
		var dv, ev float64
		for h := 0; h < 24; h++ {
			dv += dec.Vals[d*24+h]
			ev += enc.Vals[d*24+h]
		}
		dv /= 24
		ev /= 24
		t.Add(days[d], stats.F(dv, 2), stats.F(ev, 2), stats.F(dv/ev, 2))
	}
	fmt.Print(t)
	fmt.Println("paper: weekday decode:encode ~1.5, weekend ~1.0; encode rate flat across the week.")
}

// figure9: hourly p99 concurrent conversions per strategy.
func figure9(opt options) {
	header("Figure 9: p99 concurrent Lepton processes by outsourcing strategy (threshold 4)")
	rows := cluster.Figure9(opt.seed, 4)
	t := &stats.Table{Header: []string{"hour", rows[0].Strategy.String(), rows[1].Strategy.String(), rows[2].Strategy.String()}}
	for h := 0; h < len(rows[0].Hours); h += 2 {
		t.Add(stats.F(rows[0].Hours[h], 0),
			stats.F(rows[0].P99[h], 1),
			stats.F(rows[1].P99[h], 1),
			stats.F(rows[2].P99[h], 1))
	}
	fmt.Print(t)
	fmt.Println("paper: control peaks ~15-25 concurrent; outsourcing keeps p99 near the threshold.")
}

// figure10: latency percentiles near-peak and at peak.
func figure10(opt options) {
	header("Figure 10: compression latency percentiles by strategy and threshold")
	rows := cluster.Figure10(opt.seed)
	t := &stats.Table{Header: []string{"strategy", "thr",
		"near p50", "near p95", "near p99", "peak p50", "peak p95", "peak p99"}}
	for _, r := range rows {
		thr := stats.I(int64(r.Threshold))
		if r.Strategy == cluster.Control {
			thr = "-"
		}
		t.Add(r.Strategy.String(), thr,
			stats.F(r.NearPeak.P50, 2), stats.F(r.NearPeak.P95, 2), stats.F(r.NearPeak.P99, 2),
			stats.F(r.Peak.P50, 2), stats.F(r.Peak.P95, 2), stats.F(r.Peak.P99, 2))
	}
	fmt.Print(t)
	fmt.Println("paper: outsourcing cuts peak p99 from 1.63 s to 1.08 s (-34%); dedicated best at peak;")
	fmt.Println("       to-self also lowers p50 by rebalancing within the cluster.")
}

// figure11: backfill power trace with the outage.
func figure11(opt options) {
	header("Figure 11: datacenter power and backfill rate (outage mid-trace)")
	cfg := cluster.DefaultBackfillConfig()
	samples := cluster.Figure11(cfg)
	t := &stats.Table{Header: []string{"hour", "power kW", "compress/s", "machines"}}
	for i := 0; i < len(samples); i += 20 {
		s := samples[i]
		t.Add(stats.F(s.Hour, 1), stats.F(s.PowerKW, 0), stats.F(s.CompressPerSec, 0), stats.I(int64(s.Machines)))
	}
	fmt.Print(t)
	fmt.Println("paper: backfill ~278 kW and 5,583 chunks/s; disabling it dropped power by 121 kW.")
}

// figure12: THP latency anomaly.
func figure12(opt options) {
	header("Figure 12: hourly decode percentiles; THP disabled at hour 6")
	pts := cluster.Figure12(opt.seed)
	t := &stats.Table{Header: []string{"hour", "p50 s", "p75 s", "p95 s", "p99 s"}}
	for _, p := range pts {
		t.Add(stats.F(p.Hour, 0), stats.F(p.P50, 3), stats.F(p.P75, 3), stats.F(p.P95, 3), stats.F(p.P99, 3))
	}
	fmt.Print(t)
	fmt.Println("paper: p95/p99 collapse when transparent huge pages are disabled (April 13 03:00).")
}

// figure13: decode:encode rollout ramp.
func figure13(opt options) {
	header("Figure 13: decode:encode ratio after rollout")
	days, ratio := cluster.Figure13(84)
	t := &stats.Table{Header: []string{"day", "ratio"}}
	for i := 0; i < len(days); i += 7 {
		t.Add(stats.F(days[i], 0), stats.F(ratio[i], 2))
	}
	fmt.Print(t)
	fmt.Println("paper: ratio climbs from ~0 at rollout toward ~1.5-2 as Lepton content accumulates.")
}

// figure14: months of decode p99 growth.
func figure14(opt options) {
	header("Figure 14: decode latency percentiles across the rollout months (no outsourcing)")
	step := 15
	if opt.quick {
		step = 30
	}
	pts := cluster.Figure14(opt.seed, 120, step)
	t := &stats.Table{Header: []string{"day", "p50 s", "p75 s", "p95 s", "p99 s"}}
	for _, p := range pts {
		t.Add(stats.F(p.Day, 0), stats.F(p.P50, 3), stats.F(p.P75, 3), stats.F(p.P95, 3), stats.F(p.P99, 3))
	}
	fmt.Print(t)
	fmt.Println("paper: p99 builds to multiple seconds over months ('boiling the frog'),")
	fmt.Println("       which motivated the outsourcing system.")
}

// outsourceOverhead measures the §5.5 claim with real sockets: the cost of
// moving a conversion from a local Unix-domain socket to a remote TCP
// socket (paper: 7.9% average overhead).
func outsourceOverhead(opt options) {
	header("§5.5 outsourcing overhead: Unix socket vs TCP (real sockets, loopback)")
	dir, err := os.MkdirTemp("", "leptonbench")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer os.RemoveAll(dir)

	unixBS := &server.Blockserver{}
	unixAddr, err := server.ListenAndServe("unix:"+filepath.Join(dir, "l.sock"), unixBS)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer unixBS.Close()
	tcpBS := &server.Blockserver{}
	tcpAddr, err := server.ListenAndServe("tcp:127.0.0.1:0", tcpBS)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer tcpBS.Close()

	files := corpus(opt.seed, 12)
	bench := func(addr string) float64 {
		// One persistent connection per transport, as outsourcing uses.
		cl, err := server.Dial(addr, 5*time.Second)
		if err != nil {
			fmt.Println("error:", err)
			return 0
		}
		defer cl.Close()
		// Warm up, then measure.
		for _, f := range files[:2] {
			_, _ = cl.Do(server.OpCompress, f, 30*time.Second)
		}
		t0 := time.Now()
		for _, f := range files {
			if _, err := cl.Do(server.OpCompress, f, 30*time.Second); err != nil {
				fmt.Println("request error:", err)
			}
		}
		return time.Since(t0).Seconds()
	}
	u := bench(unixAddr)
	tc := bench(tcpAddr)
	fmt.Printf("unix socket: %.3f s for %d conversions\n", u, len(files))
	fmt.Printf("tcp socket:  %.3f s for %d conversions\n", tc, len(files))
	fmt.Printf("overhead:    %.1f%%  (paper: 7.9%% — theirs crossed a datacenter, ours is loopback)\n",
		100*(tc/u-1))
}

var _ = imagegen.Generate // keep import when figures are trimmed
