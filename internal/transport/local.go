package transport

import "net"

// NewLocalClient returns a client of an in-process handler. Each of its
// connections is a net.Pipe whose far end runs the server's connection
// loop, so an in-process call is encoded, counted, cancelled and hung up
// exactly as a call to a remote site is. A failed call or a Close drops
// the connection and the next call redials a fresh pipe. Closing the
// client ends its connection's server goroutine once any request in
// flight has returned.
func NewLocalClient(id string, handler Handler, cost CostModel) *Reconnector {
	return NewReconnector(id, func() (Client, error) { return dialPipe(id, handler, cost), nil }, 1, 0)
}

// dialPipe serves handler on one end of a new net.Pipe and returns a
// client over the other end.
func dialPipe(id string, handler Handler, cost CostModel) *TCPClient {
	conn, far := net.Pipe()
	s := NewServer(handler)
	s.wg.Add(1)
	go s.serveConn(far)
	return newTCPClient(id, conn, cost)
}
