// Package daemon gives the repository's HTTP daemons (dvfs-served and
// dvfs-router) one graceful-shutdown discipline.
package daemon

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// DrainTimeout bounds how long Serve waits for in-flight requests once
// shutdown has begun.
const DrainTimeout = 5 * time.Second

// Drain gates a handler for graceful shutdown. http.Server.Shutdown stops
// the listener but keeps serving requests that arrive on established
// keep-alive connections until they idle out, so once draining begins the
// gate answers every new request 503 with Connection: close; without it a
// client pipelining requests over one connection could hold the drain
// window open indefinitely. Requests already in flight finish normally —
// the gate is checked only at request entry.
//
// Shutdown also waits up to 5 s for a connection that was accepted but has
// not sent a request yet (net/http's StateNew grace period), which ties
// with DrainTimeout. Drain therefore tracks such connections through its
// ConnState hook and closes them when draining begins: a client that
// dialled but never asked for anything loses nothing.
type Drain struct {
	Handler http.Handler
	// Refusal is the 503 body for requests that arrive while draining.
	Refusal string

	draining atomic.Bool
	mu       sync.Mutex
	fresh    map[net.Conn]struct{} // accepted, no request read yet
}

func (d *Drain) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d.draining.Load() {
		w.Header().Set("Connection", "close")
		http.Error(w, d.Refusal, http.StatusServiceUnavailable)
		return
	}
	d.Handler.ServeHTTP(w, r)
}

// ConnState is the http.Server.ConnState hook that tracks connections
// which have not sent a request yet.
func (d *Drain) ConnState(c net.Conn, s http.ConnState) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case s != http.StateNew:
		delete(d.fresh, c)
	case d.draining.Load():
		c.Close()
	default:
		if d.fresh == nil {
			d.fresh = make(map[net.Conn]struct{})
		}
		d.fresh[c] = struct{}{}
	}
}

// Begin starts draining: later requests are refused, and connections
// that have not sent a request are closed.
func (d *Drain) Begin() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.draining.Store(true)
	for c := range d.fresh {
		c.Close()
		delete(d.fresh, c)
	}
}

// Serve serves d on ln until ctx is cancelled, then drains: d refuses new
// requests, and in-flight requests get up to DrainTimeout to finish. It
// returns nil after a clean drain.
func Serve(ctx context.Context, ln net.Listener, d *Drain) error {
	hs := &http.Server{Handler: d, ReadHeaderTimeout: 5 * time.Second, ConnState: d.ConnState}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	d.Begin()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
