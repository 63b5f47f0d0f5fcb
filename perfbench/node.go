package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"sheriff/internal/api"
	"sheriff/internal/core"
	"sheriff/internal/store"
)

// node is one sheriff server as cmd/sheriffd wires it: a durable data
// dir, the simulated world recording into it with the analysis engine
// attached, and the v1 API behind an http.Server on a loopback port.
type node struct {
	dir     string
	durable *store.Durable
	world   *core.World
	api     *api.Server
	srv     *http.Server
	url     string
	served  chan error
}

type nodeOptions struct {
	seed     int64
	longTail int
	fsync    store.FsyncPolicy
	// tracer, when set, wraps the HTTP handler; with traceWorld also the
	// store backend, its fold observer and every retailer handler.
	tracer     *tracer
	traceWorld bool
	// dropCrawlRow loses one crawl row (tests only; see tamper).
	dropCrawlRow bool
}

// startNode opens dir and serves it; it returns once /api/v1/readyz
// answers ready.
func startNode(dir string, o nodeOptions) (*node, error) {
	d, _, err := store.OpenDurable(dir, store.DurableOptions{Fsync: o.fsync})
	if err != nil {
		return nil, fmt.Errorf("open data dir: %w", err)
	}
	var backing store.Backend = d
	if o.tracer != nil && o.traceWorld {
		backing = o.tracer.wrapStore(d)
	}
	if o.dropCrawlRow {
		backing = droppingStore{d, new(atomic.Bool)}
	}
	// Failure injection is off: its 503s are the simulated sites' faults,
	// and with them on, which checks fail would depend on the seed.
	w := core.NewWorld(core.WorldOptions{Seed: o.seed, LongTail: o.longTail, Store: backing, FetchFailureRate: -1})
	if o.tracer != nil && o.traceWorld {
		o.tracer.wrapRetailers(w.Registry)
	}
	a := api.NewServer(w.Backend, api.Options{
		AllowedOrigins: []string{"*"},
		Logger:         log.New(io.Discard, "", 0),
		Analysis:       w.Analysis,
	})
	var h http.Handler = a
	if o.tracer != nil {
		h = o.tracer.wrapHandler("api", a)
	}
	mux := http.NewServeMux()
	mux.Handle("/api/", h)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	// The same limits cmd/sheriffd serves with.
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	n := &node{dir: dir, durable: d, world: w, api: a, srv: srv,
		url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { n.served <- srv.Serve(ln) }()
	if err := n.awaitReady(); err != nil {
		n.stop()
		return nil, err
	}
	return n, nil
}

// awaitReady polls /api/v1/readyz until it answers 200.
func (n *node) awaitReady() error {
	cl := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
	defer cl.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := cl.Get(n.url + "/api/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("readyz: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server the way cmd/sheriffd does on SIGTERM and closes
// the data dir.
func (n *node) stop() error {
	n.api.Stop()
	n.world.Analysis.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serr := n.srv.Shutdown(ctx)
	if err := <-n.served; err != nil && err != http.ErrServerClosed && serr == nil {
		serr = err
	}
	if err := n.durable.Close(); err != nil {
		return fmt.Errorf("close data dir: %w", err)
	}
	if serr != nil {
		return fmt.Errorf("shutdown: %w", serr)
	}
	return nil
}
