package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
)

// Node is one instance of an in-process fleet: a real serve.Server
// behind a real TCP listener with the routing tier mounted, so peers
// talk over actual HTTP — the same wire the production fleet uses.
type Node struct {
	URL string

	mu     sync.Mutex
	addr   string
	scfg   serve.Config
	ccfg   Config
	srv    *serve.Server
	router *Router
	hs     *http.Server
	alive  bool
}

// Fleet is a set of in-process nodes sharing one static peer list.
// Tests and cmd/loadgen use it to stand up an N-instance cluster in
// one process; Kill/Restart model instance crashes mid-traffic.
type Fleet struct {
	Nodes []*Node
}

// StartLocal boots n instances on loopback ports. The listeners are
// created first so every instance's config can name the full peer list
// before any of them serves a request (the peer-URL chicken-and-egg).
// scfg configures each instance's serve tier; ccfg's Self/Peers fields
// are overwritten per node.
func StartLocal(n int, scfg serve.Config, ccfg Config) (*Fleet, error) {
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, prev := range listeners[:i] {
				prev.Close()
			}
			return nil, err
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	f := &Fleet{}
	for i := 0; i < n; i++ {
		node := &Node{URL: urls[i], addr: listeners[i].Addr().String(), scfg: scfg, ccfg: ccfg}
		node.ccfg.Self = urls[i]
		node.ccfg.Peers = urls
		node.boot(listeners[i])
		f.Nodes = append(f.Nodes, node)
	}
	return f, nil
}

// boot starts the node's serve+router stack on l. Caller holds no lock
// (construction) or the node lock (restart).
func (n *Node) boot(l net.Listener) {
	n.srv = serve.New(n.scfg)
	n.router = New(n.ccfg, n.srv)
	n.hs = &http.Server{Handler: n.router.Handler()}
	n.alive = true
	hs := n.hs
	go func() { _ = hs.Serve(l) }()
}

// Kill abruptly stops the node — listener and open connections closed,
// in-flight requests dropped mid-write — modeling a crashed instance,
// not a drained one.
func (n *Node) Kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return
	}
	n.alive = false
	_ = n.hs.Close()
	// Release the dead server's base context so its in-flight pipeline
	// work unwinds instead of leaking goroutines.
	_ = n.srv.Shutdown(closedContext())
}

// Restart brings a killed node back on the same address with a fresh
// serve.Server — process-restart semantics: empty caches, clean
// quarantine table, zeroed counters. The fleet's peer list is static,
// so the address must be rebound; brief races with the dying listener
// are absorbed by a retry loop.
func (n *Node) Restart() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.alive {
		return nil
	}
	var l net.Listener
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		l, err = net.Listen("tcp", n.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("cluster: rebind %s: %w", n.addr, err)
	}
	n.boot(l)
	return nil
}

// Alive reports whether the node is serving.
func (n *Node) Alive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// Server returns the node's current serve tier (changes across Restart).
func (n *Node) Server() *serve.Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv
}

// Router returns the node's current routing tier (changes across Restart).
func (n *Node) Router() *Router {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.router
}

// Stop drains the node gracefully: stop accepting, let in-flight
// requests finish within ctx, then release the serve tier.
func (n *Node) Stop(ctx context.Context) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return nil
	}
	n.alive = false
	err := n.hs.Shutdown(ctx)
	if serr := n.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// Stop drains every live node in the fleet. It first closes every
// node's idle forwarding connections: a spare connection a router
// dialed but never sent a request on is still new to its peer, and
// http.Server.Shutdown waits up to five seconds for new connections
// before it treats them as idle.
func (f *Fleet) Stop(ctx context.Context) error {
	for _, n := range f.Nodes {
		n.Router().client.CloseIdleConnections()
	}
	var first error
	for _, n := range f.Nodes {
		if err := n.Stop(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// URLs returns the fleet's peer list.
func (f *Fleet) URLs() []string {
	urls := make([]string, len(f.Nodes))
	for i, n := range f.Nodes {
		urls[i] = n.URL
	}
	return urls
}

// closedContext returns an already-cancelled context, for shutdown
// paths that must not block.
func closedContext() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}
