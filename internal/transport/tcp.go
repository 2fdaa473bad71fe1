package transport

//lint:wrap-errors transport failures must stay inspectable with errors.Is/As

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Server serves site requests over TCP. Each connection runs a
// decode-handle-encode loop; connections are independent, so one server
// can serve several coordinators. The same loop serves an in-process
// site over a pipe (a Replica with a Handler).
type Server struct {
	handler  Handler
	listener net.Listener

	mu sync.Mutex
	//lint:guarded-by mu
	conns map[net.Conn]struct{}
	//lint:guarded-by mu
	closed bool
	//lint:guarded-by mu
	draining bool
	// inflight counts admitted requests whose response has not been
	// written yet: inside the handler, or being encoded to the socket.
	//
	//lint:guarded-by mu
	inflight int
	wg       sync.WaitGroup
	reqWG    sync.WaitGroup // admitted requests not yet answered

	// Logf logs server-side errors; defaults to log.Printf.
	Logf func(format string, args ...any)

	// Obs, when set before Listen/Serve, receives server-side wire
	// counters ("transport.server.bytes_received", ".bytes_sent",
	// ".requests", ".malformed") and per-op request counters
	// ("transport.server.op.<op>").
	Obs *obs.Obs
}

// NewServer returns a server for the handler, not yet listening.
func NewServer(handler Handler) *Server {
	return &Server{handler: handler, conns: map[net.Conn]struct{}{}, Logf: log.Printf}
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Serving happens on background goroutines.
func (s *Server) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return s.Serve(l), nil
}

// Serve starts accepting connections from an already-bound listener and
// returns its address. It exists so tests can inject listeners with
// controlled failure behavior.
func (s *Server) Serve(l net.Listener) string {
	s.listener = l
	s.wg.Add(1)
	go s.acceptLoop()
	return l.Addr().String()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failures (EMFILE, ECONNABORTED, ...) must
			// not kill the listener: back off briefly and keep accepting.
			s.Logf("transport: accept: %v (retrying)", err)
			time.Sleep(10 * time.Millisecond)
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn serves one connection: readRequests reads and decodes each
// request, and this loop handles and answers it.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	requests := make(chan inbound)
	defer func() {
		conn.Close()
		for range requests { // wait the reader out
		}
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// The connection context is the server-side end of the caller's
	// context: it is cancelled when the connection drops (the client
	// aborts a call mid-exchange by closing its broken connection, see
	// TCPClient.fail) or the server shuts down, so context-aware handlers
	// — relay tiers in particular — stop their downstream work instead of
	// computing into a closed socket.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var readErr error
	go func() {
		readErr = readRequests(ctx, cancel, conn, requests)
		close(requests)
	}()
	for {
		in, ok := <-requests
		if !ok {
			if !hungUp(readErr) {
				s.Logf("transport: decode request: %v", readErr)
			}
			return
		}
		s.Obs.Count("transport.server.bytes_received", int64(in.n))
		s.Obs.Count("transport.server.requests", 1)
		s.Obs.Count("transport.server.op."+in.req.Op.String(), 1)
		var resp *Response
		admitted := false
		if in.err != nil {
			// The message was read whole, so the connection serves on.
			s.Obs.Count("transport.server.malformed", 1)
			resp = &Response{Err: "transport: request: " + in.err.Error()}
		} else if resp = s.admit(); resp == nil {
			admitted = true
			if resp = s.handler.Handle(ctx, in.req); ctx.Err() != nil {
				// The connection failed while the request was handled: no
				// one waits for its answer.
				s.release()
				return
			}
		}
		sent, err := reply(conn, resp)
		if admitted {
			// Only now is the request no longer in flight: Drain waits on
			// reqWG and then closes this connection, so releasing before the
			// response is written would cut off the very request a graceful
			// drain promises to finish.
			s.release()
		}
		if err != nil {
			if !hungUp(err) {
				s.Logf("transport: encode response: %v", err)
			}
			return
		}
		s.Obs.Count("transport.server.bytes_sent", int64(sent))
	}
}

// inbound is one request read, why it did not decode, and its length.
type inbound struct {
	req *Request
	err error
	n   int
}

// readRequests reads and decodes a connection's requests, each into its
// one body buffer (a decoded request owns none of its body), and hands
// them to the serve loop until a read fails, returning that error. A body
// over readChunk is not kept. The read that follows a request is also the
// hang-up watch: when the connection fails it cancels the context the
// handler runs under. A malformed message does not, so the request before
// it is answered; an early one is just the next request.
func readRequests(ctx context.Context, cancel context.CancelFunc, conn net.Conn, requests chan<- inbound) error {
	var buf []byte
	for {
		body, err := readMessage(conn, buf)
		if err != nil {
			if !errors.As(err, new(malformedError)) {
				cancel()
			}
			return err
		}
		in := inbound{n: prefixLen + len(body)}
		in.req, in.err = decodeRequest(body)
		if cap(body) <= readChunk {
			buf = body
		}
		select {
		case requests <- in:
		case <-ctx.Done(): // the loop has returned
			return nil
		}
	}
}

// reply writes resp as one message and returns its length.
func reply(w io.Writer, resp *Response) (int, error) {
	e := newMessage()
	defer e.free()
	encodeResponse(e, resp)
	if err := e.finish(); err != nil {
		return 0, err
	}
	return w.Write(e.b)
}

// admit opens the in-flight window for one decoded request, or returns the
// CodeDraining refusal to send instead when the server is draining.
// Admission and the in-flight bookkeeping happen under mu so Drain's
// reqWG.Wait never races a concurrent reqWG.Add. Every admitted request is
// paired with one release.
func (s *Server) admit() *Response {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.Obs.Count("transport.server.drain_rejects", 1)
		return &Response{Err: "site draining: not accepting new requests", Code: CodeDraining}
	}
	s.reqWG.Add(1)
	s.inflight++
	n := s.inflight
	s.mu.Unlock()
	s.Obs.SetGauge("transport.server.inflight", int64(n))
	return nil
}

// release closes the in-flight window admit opened, once the response has
// been written (or the connection was lost).
func (s *Server) release() {
	s.mu.Lock()
	s.inflight--
	n := s.inflight
	s.mu.Unlock()
	s.Obs.SetGauge("transport.server.inflight", int64(n))
	s.reqWG.Done()
}

// Drain gracefully shuts the server down: it stops accepting new
// connections and new requests (in-flight connections that send another
// request get a CodeDraining refusal), waits up to timeout for in-flight
// requests to finish and their responses to be written, then closes
// everything. It returns an
// error when the deadline expired with requests still running; the
// server is closed either way.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	n := s.inflight
	if s.listener != nil {
		s.listener.Close() // acceptLoop exits on net.ErrClosed
	}
	s.mu.Unlock()
	s.Obs.SetNotReady("draining")
	s.Obs.Event(obs.EventDrain, "", "drain started", map[string]string{
		"phase": "start", "inflight": fmt.Sprint(n),
	})

	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	var timedOut bool
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		timedOut = true
	}
	s.mu.Lock()
	left := s.inflight
	s.mu.Unlock()
	s.Obs.Event(obs.EventDrain, "", "drain finished", map[string]string{
		"phase": "done", "inflight": fmt.Sprint(left), "timed_out": fmt.Sprint(timedOut),
	})
	if timedOut {
		// The stuck handler may never return; closing without waiting for
		// its connection goroutine is the only way out of the process.
		s.close(false)
		return fmt.Errorf("transport: drain deadline %v expired with %d request(s) in flight", timeout, left)
	}
	return s.Close()
}

// Inflight returns how many admitted requests have not been answered yet.
func (s *Server) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// hungUp reports whether err ended a connection the usual way, not worth
// logging: the peer hung up (at or inside a message, which a caller
// abandoning a call mid-send does), or either end closed it — a socket or
// an in-process pipe.
func hungUp(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe)
}

// Close stops the listener and all open connections, waiting for the
// connection goroutines to exit.
func (s *Server) Close() error { return s.close(true) }

// close tears the server down; wait=false skips waiting for connection
// goroutines (used by a timed-out Drain, whose stuck handler would make
// the wait block forever).
func (s *Server) close(wait bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if wait {
			s.wg.Wait()
		}
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		// Drain may already have closed the listener; that is not an error.
		if cerr := s.listener.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) {
			err = cerr
		}
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if wait {
		s.wg.Wait()
	}
	return err
}

// TCPClient is a Client over one connection: a TCP socket, or the pipe
// to an in-process site.
type TCPClient struct {
	id   string
	conn net.Conn
	// br reads replies in as few reads as their bytes arrive in. The
	// protocol alternates, so it never holds bytes past a reply.
	br   *bufio.Reader
	cost CostModel

	// closed is set by Close: every later call fails with ErrClosed.
	closed atomic.Bool

	mu sync.Mutex
	//lint:guarded-by mu
	broken bool
	// obs, set by the site builder before the client is shared, receives
	// the raw client-side wire totals ("transport.bytes_sent",
	// "transport.bytes_received", "transport.messages"). Raw totals
	// include the partial traffic of failed attempts; the coordinator's
	// logical per-round counters live under "coord.*".
	obs *obs.Obs
}

// DialTCP connects to a site server.
func DialTCP(id, addr string, cost CostModel) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newTCPClient(id, conn, cost), nil
}

// newTCPClient returns a client over conn.
func newTCPClient(id string, conn net.Conn, cost CostModel) *TCPClient {
	return &TCPClient{id: id, conn: conn, br: bufio.NewReader(conn), cost: cost}
}

// SiteID implements Client.
func (c *TCPClient) SiteID() string { return c.id }

// Close implements Client: it closes the connection, and every later
// call fails with ErrClosed.
func (c *TCPClient) Close() error {
	c.closed.Store(true)
	return c.conn.Close()
}

// breakConn marks the connection broken and closes it, as a call failing
// mid-stream does: later calls fail as transport errors, so the retry
// layer above redials.
func (c *TCPClient) breakConn() {
	c.mu.Lock()
	c.broken = true
	c.mu.Unlock()
	c.conn.Close()
}

// Call implements Client. Calls on one client are serialized; the
// coordinator uses one client per site and fans out with goroutines.
// The bytes a call sends and receives, with their modeled transfer time,
// are charged to the exchange it runs under (see Exchange).
//
// The context bounds the whole exchange via connection deadlines; a
// cancellation or deadline mid-exchange interrupts blocked I/O. A request
// that does not encode is refused before anything is written, and a reply
// read whole that does not decode fails only its call. Any other failure
// to write or read a message — an abort included — leaves the stream
// mid-message, so the client marks itself broken and closes the
// connection: later calls fail fast with a transport error and a retrying
// wrapper (Reconnector) redials a fresh connection instead of reusing a
// corrupt stream.
func (c *TCPClient) Call(ctx context.Context, req *Request) (*Response, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("transport: %s: %w", c.id, ErrClosed)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return nil, fmt.Errorf("transport: %s: connection is broken (previous call failed mid-stream)", c.id)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("transport: %s: %w", c.id, err)
	}
	// A deadline is armed only for a context that has one, and cleared when
	// the call ends, so a call without one leaves the connection's
	// deadline alone: no earlier call left one set.
	if dl, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(dl)
		defer c.conn.SetDeadline(time.Time{})
	}
	// Watch for cancellation while I/O is in flight: SetDeadline is safe
	// concurrently with Read/Write and wakes them immediately. The watcher
	// must not outlive the call — a poke landing after Call returned would
	// time out the next call on this connection — so a watcher that could
	// not be stopped is waited out and its deadline cleared.
	if ctx.Done() != nil {
		poked := make(chan struct{})
		stop := context.AfterFunc(ctx, func() {
			c.conn.SetDeadline(time.Now())
			close(poked)
		})
		defer func() {
			if !stop() {
				<-poked
				c.conn.SetDeadline(time.Time{})
			}
		}()
	}

	// The whole message is encoded before any of it is written, so a
	// relation without a frame is refused with nothing sent. What was
	// written is charged even when the write fails.
	e := newMessage()
	defer e.free()
	err := encodeRequest(e, req)
	if err == nil {
		err = e.finish()
	}
	if err != nil {
		return nil, c.failLocked("send to", err, ctx, false)
	}
	n, err := c.conn.Write(e.b)
	sent := int64(n)
	charge(ctx, Delta{Sent: sent, Comm: c.cost.TransferTime(n)})
	c.obs.Count("transport.bytes_sent", sent)
	if err != nil {
		return nil, c.failLocked("send to", err, ctx, true)
	}
	c.obs.Count("transport.messages", 1)

	body, err := readMessage(c.br, nil)
	if err != nil {
		return nil, c.failLocked("receive from", err, ctx, true)
	}
	recv := prefixLen + len(body)
	charge(ctx, Delta{Recv: int64(recv), Comm: c.cost.TransferTime(recv)})
	c.obs.Count("transport.bytes_received", int64(recv))
	resp, err := decodeResponse(body)
	if err != nil {
		return nil, c.failLocked("receive from", err, ctx, false)
	}
	return resp, nil
}

// failLocked reports a failed call; callers hold c.mu. When the stream is
// left mid-message it marks the client broken and closes the connection.
// A call that Close cut short fails with ErrClosed. Otherwise it prefers
// reporting the context error when the failure was caused by cancellation
// (the raw I/O error is then just "i/o timeout" from the deadline poke).
func (c *TCPClient) failLocked(verb string, err error, ctx context.Context, midStream bool) error {
	if midStream {
		c.broken = true
		c.conn.Close()
	}
	if c.closed.Load() {
		return fmt.Errorf("transport: %s %s: %w (%v)", verb, c.id, ErrClosed, err)
	}
	ctxErr := ctx.Err()
	if ctxErr == nil {
		// The connection deadline can fire marginally before the
		// context's own timer; an expired deadline is still a context
		// timeout, not a network fault.
		if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
			ctxErr = context.DeadlineExceeded
		}
	}
	if ctxErr != nil {
		return fmt.Errorf("transport: %s %s: %w (%v)", verb, c.id, ctxErr, err)
	}
	return fmt.Errorf("transport: %s %s: %w", verb, c.id, err)
}
