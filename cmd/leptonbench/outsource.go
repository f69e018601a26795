package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lepton/internal/server"
)

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
