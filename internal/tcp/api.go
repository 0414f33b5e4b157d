package tcp

import (
	"errors"
	"io"

	"repro/internal/sim"
	"repro/internal/transport"
)

// Read blocks until at least one byte is available, the peer half-closes
// (io.EOF after the stream drains), or the connection errors.
func (c *Conn) Read(p *sim.Proc, b []byte) (int, error) {
	for {
		n, err := c.TryRead(b)
		if !errors.Is(err, transport.ErrWouldBlock) {
			return n, err
		}
		c.readCond.Wait(p)
	}
}

// TryRead is the nonblocking variant of Read; it returns ErrWouldBlock
// when no data is available yet.
func (c *Conn) TryRead(b []byte) (int, error) {
	if c.rb.readable() > 0 {
		n := c.rb.read(b)
		c.maybeSendWindowUpdate()
		return n, nil
	}
	if c.err != nil {
		return 0, c.err
	}
	if c.remoteFin {
		return 0, io.EOF
	}
	if c.state == stateDone {
		return 0, ErrClosed
	}
	return 0, ErrWouldBlock
}

// Peek returns the contiguous head region of the in-order receive
// queue without consuming it — the zero-copy read surface
// (transport.ByteStream): framing code parses envelopes in place and
// Discards what it used. No data means ErrWouldBlock, EOF, or the
// terminal error, exactly as TryRead reports them.
func (c *Conn) Peek() ([]byte, error) {
	if h := c.rb.peek(); len(h) > 0 {
		return h, nil
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.remoteFin {
		return nil, io.EOF
	}
	if c.state == stateDone {
		return nil, ErrClosed
	}
	return nil, ErrWouldBlock
}

// Discard consumes n bytes previously returned by Peek and lets the
// freed window advertise.
func (c *Conn) Discard(n int) {
	if n <= 0 {
		return
	}
	c.rb.discard(n)
	c.maybeSendWindowUpdate()
}

// Write blocks until all of b has been queued on the connection.
func (c *Conn) Write(p *sim.Proc, b []byte) (int, error) {
	total := 0
	for len(b) > 0 {
		n, err := c.TryWrite(b)
		total += n
		if err != nil && !errors.Is(err, transport.ErrWouldBlock) {
			return total, err
		}
		b = b[n:]
		if len(b) > 0 {
			c.writeCond.Wait(p)
		}
	}
	return total, nil
}

// TryWrite queues as much of b as fits in the send buffer and starts
// transmission. It returns ErrWouldBlock if nothing could be queued.
func (c *Conn) TryWrite(b []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	if c.state == stateDone || c.finQueued {
		return 0, ErrClosed
	}
	if c.state != stateEstablished {
		return 0, ErrWouldBlock
	}
	n := c.sb.write(b)
	if n > 0 {
		c.output()
		return n, nil
	}
	return 0, ErrWouldBlock
}

// Close gracefully closes the sending direction (like shutdown(SHUT_WR))
// and lets reading continue until the peer closes. It is idempotent.
func (c *Conn) Close() {
	if c.finQueued || c.state == stateDone {
		return
	}
	switch c.state {
	case stateSynSent, stateSynRcvd:
		c.abort()
		return
	}
	c.finQueued = true
	c.output()
	c.writeCond.Broadcast()
}

// abort sends a RST and tears the connection down immediately.
func (c *Conn) abort() {
	if c.state == stateDone {
		return
	}
	c.sendSegment(&segment{
		Flags: flagRST | flagACK,
		Seq:   c.sndNxt,
		Ack:   c.rcvNxt,
	})
	c.fail(ErrClosed)
}

// Kill tears the connection down silently — no RST or FIN, as if the
// host crashed. The local error is abort-class (ErrKilled); the peer
// discovers the death when it next transmits, because the stack
// answers segments for a removed connection with a RST.
func (c *Conn) Kill() {
	if c.state == stateDone {
		return
	}
	c.fail(ErrKilled)
}

// Reset aborts the connection immediately with a RST to the peer,
// regardless of state — the abortive close used to reject a
// superseded reconnection attempt.
func (c *Conn) Reset() {
	if c.state == stateDone {
		return
	}
	c.sendSegment(&segment{
		Flags: flagRST | flagACK,
		Seq:   c.sndNxt,
		Ack:   c.rcvNxt,
	})
	c.fail(ErrClosed)
}

// Err returns the terminal error, if any.
func (c *Conn) Err() error { return c.err }
