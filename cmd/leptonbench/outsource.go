package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lepton/internal/server"
)

// outsourceFailures counts set-up failures and failed requests of the
// socket-overhead measurement; a nonzero count makes the command exit 1.
var outsourceFailures int

// outsourceOverhead measures the §5.5 claim with real sockets: the cost of
// moving a conversion from a local Unix-domain socket to a remote TCP
// socket (paper: 7.9% average overhead).
func outsourceOverhead(opt options) {
	header("§5.5 outsourcing overhead: Unix socket vs TCP (real sockets, loopback)")
	fail := func(what string, err error) {
		outsourceFailures++
		fmt.Println(what, err)
	}
	dir, err := os.MkdirTemp("", "leptonbench")
	if err != nil {
		fail("error:", err)
		return
	}
	defer os.RemoveAll(dir)

	unixBS := &server.Blockserver{}
	unixAddr, err := server.ListenAndServe("unix:"+filepath.Join(dir, "l.sock"), unixBS)
	if err != nil {
		fail("error:", err)
		return
	}
	defer unixBS.Close()
	tcpBS := &server.Blockserver{}
	tcpAddr, err := server.ListenAndServe("tcp:127.0.0.1:0", tcpBS)
	if err != nil {
		fail("error:", err)
		return
	}
	defer tcpBS.Close()

	files := corpus(opt.seed, 12)
	compress := func(cl *server.Client, f []byte) error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, err := cl.DoCtx(ctx, server.OpCompress, f)
		return err
	}
	bench := func(addr string) (float64, bool) {
		// One persistent connection per transport, as outsourcing uses.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		cl, err := server.DialContext(ctx, addr)
		cancel()
		if err != nil {
			fail("error:", err)
			return 0, false
		}
		defer cl.Close()
		// Warm up, then measure.
		for _, f := range files[:2] {
			if err := compress(cl, f); err != nil {
				fail("request error:", err)
				return 0, false
			}
		}
		t0 := time.Now()
		for _, f := range files {
			if err := compress(cl, f); err != nil {
				fail("request error:", err)
				return 0, false
			}
		}
		return time.Since(t0).Seconds(), true
	}
	u, ok := bench(unixAddr)
	if !ok {
		return
	}
	tc, ok := bench(tcpAddr)
	if !ok {
		return
	}
	fmt.Printf("unix socket: %.3f s for %d conversions\n", u, len(files))
	fmt.Printf("tcp socket:  %.3f s for %d conversions\n", tc, len(files))
	fmt.Printf("overhead:    %.1f%%  (paper: 7.9%% — theirs crossed a datacenter, ours is loopback)\n",
		100*(tc/u-1))
}
