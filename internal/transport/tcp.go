package transport

//lint:wrap-errors transport failures must stay inspectable with errors.Is/As

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
)

// Server serves site requests over TCP. Each connection runs a
// decode-handle-encode loop; connections are independent, so one server
// can serve several coordinators. The same loop serves an in-process
// site over a pipe (NewLocalClient).
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
	// served counts requests ever admitted to the handler.
	//
	//lint:guarded-by mu
	served int64
	wg     sync.WaitGroup
	reqWG  sync.WaitGroup // admitted requests not yet answered

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

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
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
	pr := &pushbackReader{conn: conn}
	cr := &countingReader{r: pr}
	cw := &countingWriter{w: conn}
	dec := gob.NewDecoder(cr)
	enc := gob.NewEncoder(cw)
	for {
		r0 := cr.n
		var req Request
		err := dec.Decode(&req)
		if err != nil && !errors.Is(err, relation.ErrMalformed) {
			if !hungUp(err) {
				s.Logf("transport: decode request: %v", err)
			}
			return
		}
		s.Obs.Count("transport.server.bytes_received", cr.n-r0)
		s.Obs.Count("transport.server.requests", 1)
		s.Obs.Count("transport.server.op."+req.Op.String(), 1)
		var resp *Response
		admitted := false
		if err != nil {
			s.Obs.Count("transport.server.malformed", 1)
			resp = &Response{Err: "transport: request: " + err.Error()}
		} else if resp = s.admit(); resp == nil {
			admitted = true
			var alive bool
			resp, alive = s.handleWatched(ctx, conn, pr, &req)
			if !alive {
				s.release()
				return
			}
		}
		w0 := cw.n
		err = enc.Encode(resp)
		if errors.Is(err, relation.ErrMalformed) {
			err = enc.Encode(refusedReply(err))
		}
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
		s.Obs.Count("transport.server.bytes_sent", cw.n-w0)
	}
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
	s.served++
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

// Draining reports whether the server has started a graceful drain.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Inflight returns how many admitted requests have not been answered yet.
func (s *Server) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// Served returns how many requests were ever admitted to the handler.
func (s *Server) Served() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.served)
}

// handleWatched runs the handler under a per-request context while a
// monitor goroutine watches the connection: the protocol is strictly
// serialized, so no bytes may arrive while a request is being served —
// a read returning before the handler finishes means the peer hung up,
// and the request context is cancelled so the handler can abort. A byte
// that does arrive early (a pipelining peer) is pushed back for the
// decoder. Returns alive=false when the connection was lost mid-request.
func (s *Server) handleWatched(ctx context.Context, conn net.Conn, pr *pushbackReader, req *Request) (resp *Response, alive bool) {
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	monDone := make(chan struct{})
	peerGone := false
	go func() {
		defer close(monDone)
		var b [1]byte
		n, err := conn.Read(b[:])
		if n > 0 {
			pr.pushback(b[0])
		}
		if err != nil && !isTimeout(err) {
			peerGone = true
			hcancel()
		}
	}()
	resp = s.handler.Handle(hctx, req)
	// Wake the monitor's blocked read and wait it out; the deadline poke
	// is local to the server-side connection.
	conn.SetReadDeadline(time.Now().Add(-time.Second))
	<-monDone
	conn.SetReadDeadline(time.Time{})
	return resp, !peerGone
}

// hungUp reports whether err ended a connection the usual way, not worth
// logging: the peer hung up (at or inside a message, which a caller
// abandoning a call mid-send does), either end closed it — a socket or an
// in-process pipe — or our own deadline poke timed it out.
func hungUp(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) || isTimeout(err)
}

// isTimeout reports whether err is a network timeout (our own deadline
// pokes surface as timeouts and are not worth logging).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// pushbackReader lets the connection monitor return an early-read byte to
// the decoder's stream. Read and pushback never run concurrently: the
// monitor only reads while the handler runs, and the decoder only reads
// after the monitor has exited.
type pushbackReader struct {
	conn net.Conn
	buf  []byte
}

func (p *pushbackReader) pushback(b byte) { p.buf = append(p.buf, b) }

func (p *pushbackReader) Read(out []byte) (int, error) {
	if len(p.buf) > 0 && len(out) > 0 {
		n := copy(out, p.buf)
		p.buf = p.buf[n:]
		return n, nil
	}
	return p.conn.Read(out)
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
	enc  *gob.Encoder
	dec  *gob.Decoder
	cw   *countingWriter
	cr   *countingReader
	cost CostModel

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

// newTCPClient starts the gob streams of a client over conn.
func newTCPClient(id string, conn net.Conn, cost CostModel) *TCPClient {
	cw := &countingWriter{w: conn}
	cr := &countingReader{r: conn}
	return &TCPClient{
		id: id, conn: conn,
		enc: gob.NewEncoder(cw), dec: gob.NewDecoder(cr),
		cw: cw, cr: cr, cost: cost,
	}
}

// SiteID implements Client.
func (c *TCPClient) SiteID() string { return c.id }

// Close implements Client.
func (c *TCPClient) Close() error { return c.conn.Close() }

// Call implements Client. Calls on one client are serialized; the
// coordinator uses one client per site and fans out with goroutines.
// The bytes a call sends and receives, with their modeled transfer time,
// are charged to the exchange it runs under (see Exchange).
//
// The context bounds the whole exchange via connection deadlines; a
// cancellation or deadline mid-exchange interrupts blocked I/O. After any
// other encode/decode failure than a malformed relation — an abort
// included — the gob streams are desynced, so the client marks itself
// broken and closes the connection: later calls fail fast with a transport
// error and a retrying wrapper (Reconnector) redials a fresh connection
// instead of reusing a corrupt stream.
func (c *TCPClient) Call(ctx context.Context, req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return nil, fmt.Errorf("transport: %s: connection is broken (previous call failed mid-stream)", c.id)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("transport: %s: %w", c.id, err)
	}
	if dl, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(dl)
	} else {
		c.conn.SetDeadline(time.Time{})
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

	// What was written is charged even when the encode fails: a refused
	// request may have sent gob's type preamble, which the connection keeps.
	before := c.cw.n
	err := c.enc.Encode(req)
	sent := c.cw.n - before
	charge(ctx, Delta{Sent: sent, Comm: c.cost.TransferTime(int(sent))})
	c.obs.Count("transport.bytes_sent", sent)
	if err != nil {
		return nil, c.failLocked("send to", err, ctx)
	}
	c.obs.Count("transport.messages", 1)

	beforeR := c.cr.n
	var r reply
	if err := c.dec.Decode(&r); err != nil {
		return nil, c.failLocked("receive from", err, ctx)
	}
	recv := c.cr.n - beforeR
	charge(ctx, Delta{Recv: recv, Comm: c.cost.TransferTime(int(recv))})
	c.obs.Count("transport.bytes_received", recv)
	return &Response{Err: r.Err, Code: r.Code, RowCount: r.RowCount, ComputeNs: r.ComputeNs, Profile: r.Profile, Kept: r.Kept, frame: r.Rel}, nil
}

// failLocked marks the client broken after a mid-stream error and closes
// the connection; callers hold c.mu. A relation gob refused to encode or
// decode (relation.ErrMalformed) fails only the call: gob reports it with
// the stream still in sync. It prefers reporting the context error when
// the failure was caused by cancellation (the raw I/O error is then just
// "i/o timeout" from the deadline poke).
func (c *TCPClient) failLocked(verb string, err error, ctx context.Context) error {
	if !errors.Is(err, relation.ErrMalformed) {
		c.broken = true
		c.conn.Close()
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
