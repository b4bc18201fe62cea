package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"
)

// countingConn counts the bytes read from a connection: the response
// bytes on the wire, headers and any content encoding included.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// client is one keep-alive connection's worth of HTTP client. Each load
// generator worker owns one, so the wire-byte delta around a request is
// that request's.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	wire atomic.Int64
	// buf receives every body, so the benchmark's own allocations do
	// not add garbage-collector work to the process it measures.
	buf bytes.Buffer
}

func newClient() *client {
	c := &client{}
	d := &net.Dialer{Timeout: 5 * time.Second}
	c.tr = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: conn, n: &c.wire}, nil
		},
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     time.Minute,
	}
	c.hc = &http.Client{Transport: c.tr, Timeout: 30 * time.Second}
	return c
}

// response is one completed read.
type response struct {
	status int
	header http.Header
	body   []byte // valid until the client's next request
	wire   int64  // response bytes on the wire
}

// get issues a GET and reads the body to EOF.
func (c *client) get(ctx context.Context, url string) (response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return response{}, err
	}
	before := c.wire.Load()
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return response{}, fmt.Errorf("reading %s: %w", url, err)
	}
	return response{status: resp.StatusCode, header: resp.Header, body: c.buf.Bytes(), wire: c.wire.Load() - before}, nil
}

// getOK is get that also fails on a non-2xx status.
func (c *client) getOK(ctx context.Context, url string) (response, error) {
	r, err := c.get(ctx, url)
	if err == nil && (r.status < 200 || r.status > 299) {
		err = fmt.Errorf("GET %s: status %d: %.200s", url, r.status, r.body)
	}
	return r, err
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// clients returns n independent clients.
func clients(n int) []*client {
	out := make([]*client, n)
	for i := range out {
		out[i] = newClient()
	}
	return out
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// listener is one in-process server behind a real loopback socket.
type listener struct {
	URL  string
	srv  *http.Server
	done chan struct{}
}

// serve starts h on an ephemeral loopback port.
func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		URL:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		if err := l.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: listener:", err)
		}
	}()
	return l, nil
}

// close stops the server, waiting for in-flight requests, and returns
// once its serving goroutine has exited.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}
