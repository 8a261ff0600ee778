package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"nanoxbar/internal/engine"
	"nanoxbar/internal/httpapi"
	"nanoxbar/pkg/nanoxbar/client"
)

// stack is the serving stack booted in process on a loopback listener,
// wired the way cmd/xbarserverd wires it, plus the SDK client that
// drives it.
type stack struct {
	eng    *engine.Engine
	srv    *http.Server
	served chan error
	tr     *http.Transport
	cl     *client.Client
}

// boot starts the stack. conns bounds the client's connections (one
// per closed-loop client). A non-nil recorder wraps the server handler
// and the client transport with its span probes.
func boot(conns int, rec *recorder) (*stack, error) {
	// xbarserverd's defaults: engine.New sizes workers and cache itself,
	// and the access logger runs at info level — here into a discard
	// sink, so the log records are still built.
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	eng := engine.New(engine.Config{Logger: logger})
	var h http.Handler = httpapi.New(eng, httpapi.WithLogger(logger))
	if rec != nil {
		h = rec.handler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	st := &stack{
		eng:    eng,
		srv:    &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
	}
	if rec != nil {
		st.srv.ConnState = rec.connState
	}
	go func() { st.served <- st.srv.Serve(ln) }()

	st.tr = http.DefaultTransport.(*http.Transport).Clone()
	st.tr.MaxConnsPerHost = conns
	st.tr.MaxIdleConnsPerHost = conns
	var rt http.RoundTripper = st.tr
	if rec != nil {
		rt = rec.transport(st.tr)
	}
	st.cl = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: rt}))
	return st, nil
}

// close stops the server, waits for it, and stops the engine.
func (st *stack) close() error {
	st.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	st.eng.Close()
	return err
}
