// Package daemon implements the LAM runtime daemons of paper §3.5.3.
//
// LAM runs a user-level daemon on every node for job control: external
// monitoring of running jobs, remote I/O forwarding, and cleanup when a
// user aborts an MPI process. Stock LAM carries this traffic over UDP;
// the paper's authors converted the daemons to SCTP "so that the entire
// execution now uses SCTP and all the components in the LAM environment
// can take advantage of the features of SCTP." This package is that
// converted runtime: one daemon per node, all daemon-to-daemon and
// client-to-daemon traffic on one-to-many SCTP sockets.
//
// The daemon mesh supports:
//   - process registration/exit tracking per job (lamd's process table)
//   - remote status queries (the "external monitoring" role)
//   - job abort fan-out (the "cleanup when a user aborts" role)
//   - remote I/O forwarding to the job's origin node (lam's remote IO)
package daemon

import (
	"errors"

	"repro/internal/netsim"
	"repro/internal/sctp"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Port is the daemon's well-known SCTP port (lamd's service port).
const Port = 6999

// Errors.
var (
	ErrTimeout = errors.New("daemon: request timed out")
	ErrClosed  = errors.New("daemon: daemon stopped")
)

// msgKind enumerates daemon protocol messages.
type msgKind uint8

const (
	mkRegister  msgKind = iota + 1 // process up: Job, Rank
	mkExit                         // process down: Job, Rank
	mkStatusReq                    // query: Job; reply expected
	mkStatusRep                    // reply: Job, Count = live processes here
	mkAbortJob                     // kill every process of Job on this node
	mkIOWrite                      // forward Text to the job's origin
	mkPing                         // liveness probe
	mkPong
)

// msg is the daemon wire message.
type msg struct {
	Kind  msgKind
	Job   uint32
	Rank  int32
	Count int32
	Seq   uint64
	Text  string
}

func (m *msg) encode() []byte {
	w := wire.NewWriter(24 + len(m.Text))
	w.U8(uint8(m.Kind))
	w.U32(m.Job)
	w.U32(uint32(m.Rank))
	w.U32(uint32(m.Count))
	w.U64(m.Seq)
	w.U16(uint16(len(m.Text)))
	w.Bytes([]byte(m.Text))
	return w.B
}

func decodeMsg(b []byte) (*msg, error) {
	r := wire.NewReader(b)
	m := &msg{}
	m.Kind = msgKind(r.U8())
	m.Job = r.U32()
	m.Rank = int32(r.U32())
	m.Count = int32(r.U32())
	m.Seq = r.U64()
	n := int(r.U16())
	m.Text = string(r.Bytes(n))
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// procEntry is one registered MPI process.
type procEntry struct {
	job    uint32
	rank   int32
	onKill func()
}

// Daemon is one node's runtime daemon. It is fully event-driven: no
// simulation process is consumed; everything runs off socket
// notifications.
type Daemon struct {
	node *netsim.Node
	sock *sctp.Socket

	procs   []procEntry
	ioLines map[uint32][]string // job → forwarded output (on origin daemons)

	pending map[uint64]*pendingReq // outstanding requests by Seq
	nextSeq uint64
}

type pendingReq struct {
	cond  *sim.Cond
	done  bool
	reply *msg
}

// Start launches a daemon on the node's SCTP stack.
func Start(stack *sctp.Stack) (*Daemon, error) {
	cfg := stack.Node().Kernel()
	_ = cfg
	sk, err := stack.SocketConfig(Port, sctp.Config{HBDisable: true})
	if err != nil {
		return nil, err
	}
	sk.Listen()
	d := &Daemon{
		node:    stack.Node(),
		sock:    sk,
		ioLines: make(map[uint32][]string),
		pending: make(map[uint64]*pendingReq),
	}
	sk.SetNotify(func(transport.Ready) { d.drain() })
	return d, nil
}

// drain processes everything queued on the daemon socket.
func (d *Daemon) drain() {
	for {
		m, err := d.sock.TryRecvMsg()
		if err != nil {
			return
		}
		if m.Notification != sctp.NotifyNone {
			continue
		}
		dm, err := decodeMsg(m.Data)
		if err != nil {
			continue
		}
		d.handle(m.Assoc, dm)
	}
}

func (d *Daemon) handle(from sctp.AssocID, m *msg) {
	switch m.Kind {
	case mkRegister:
		d.procs = append(d.procs, procEntry{job: m.Job, rank: m.Rank})
	case mkExit:
		for i, p := range d.procs {
			if p.job == m.Job && p.rank == m.Rank {
				d.procs = append(d.procs[:i], d.procs[i+1:]...)
				break
			}
		}
	case mkStatusReq:
		n := int32(0)
		for _, p := range d.procs {
			if p.job == m.Job {
				n++
			}
		}
		d.reply(from, &msg{Kind: mkStatusRep, Job: m.Job, Count: n, Seq: m.Seq})
	case mkStatusRep, mkPong:
		if req, ok := d.pending[m.Seq]; ok {
			delete(d.pending, m.Seq)
			req.reply = m
			req.done = true
			req.cond.Broadcast()
		}
	case mkAbortJob:
		// Kill every local process of the job (lamd's cleanup role).
		kept := d.procs[:0]
		for _, p := range d.procs {
			if p.job == m.Job {
				if p.onKill != nil {
					p.onKill()
				}
				continue
			}
			kept = append(kept, p)
		}
		d.procs = kept
	case mkIOWrite:
		d.ioLines[m.Job] = append(d.ioLines[m.Job], m.Text)
	case mkPing:
		d.reply(from, &msg{Kind: mkPong, Seq: m.Seq})
	}
}

// reply sends a response on an existing association.
func (d *Daemon) reply(to sctp.AssocID, m *msg) {
	_ = d.sock.TrySendMsg(to, 0, 0, m.encode())
}

// RegisterLocal records a process running on this node without any
// network traffic (the local lamd case) and installs its abort hook.
func (d *Daemon) RegisterLocal(job uint32, rank int, onKill func()) {
	d.procs = append(d.procs, procEntry{job: job, rank: int32(rank), onKill: onKill})
}

// IOLines returns output forwarded to this daemon for job.
func (d *Daemon) IOLines(job uint32) []string {
	return append([]string(nil), d.ioLines[job]...)
}

// Close shuts the daemon down.
func (d *Daemon) Close() { d.sock.Close() }

// --- client side (the mpirun/lamboot role) -----------------------------

// Client speaks to remote daemons from a simulation process.
type Client struct {
	d      *Daemon
	assocs map[netsim.Addr]sctp.AssocID
}

// NewClient returns a control client multiplexed over the daemon's own
// socket (as lamd does: one endpoint, many associations).
func (d *Daemon) NewClient() *Client {
	return &Client{d: d, assocs: make(map[netsim.Addr]sctp.AssocID)}
}

// connect returns (establishing if needed) the association to the
// daemon at addr.
func (c *Client) connect(p *sim.Proc, addr netsim.Addr) (sctp.AssocID, error) {
	if id, ok := c.assocs[addr]; ok {
		return id, nil
	}
	id, err := c.d.sock.Connect(p, []netsim.Addr{addr}, Port, 1)
	if err != nil {
		return 0, err
	}
	c.assocs[addr] = id
	return id, nil
}

// request sends m to addr and waits for the matching reply.
func (c *Client) request(p *sim.Proc, addr netsim.Addr, m *msg) (*msg, error) {
	id, err := c.connect(p, addr)
	if err != nil {
		return nil, err
	}
	c.d.nextSeq++
	m.Seq = c.d.nextSeq
	req := &pendingReq{cond: sim.NewCond(p.Kernel())}
	c.d.pending[m.Seq] = req
	if err := c.d.sock.SendMsg(p, id, 0, 0, m.encode()); err != nil {
		delete(c.d.pending, m.Seq)
		return nil, err
	}
	for !req.done {
		if !req.cond.WaitTimeout(p, daemonTimeout) {
			delete(c.d.pending, m.Seq)
			return nil, ErrTimeout
		}
	}
	return req.reply, nil
}

const daemonTimeout = 30e9 // 30 virtual seconds

// Ping checks that the daemon at addr is alive.
func (c *Client) Ping(p *sim.Proc, addr netsim.Addr) error {
	_, err := c.request(p, addr, &msg{Kind: mkPing})
	return err
}

// Status returns how many processes of job are alive on addr's node.
func (c *Client) Status(p *sim.Proc, addr netsim.Addr, job uint32) (int, error) {
	rep, err := c.request(p, addr, &msg{Kind: mkStatusReq, Job: job})
	if err != nil {
		return 0, err
	}
	return int(rep.Count), nil
}

// AbortJob tells the daemon at addr to kill its processes of job.
// Fire-and-forget, like lamd's cleanup path.
func (c *Client) AbortJob(p *sim.Proc, addr netsim.Addr, job uint32) error {
	id, err := c.connect(p, addr)
	if err != nil {
		return err
	}
	return c.d.sock.SendMsg(p, id, 0, 0, (&msg{Kind: mkAbortJob, Job: job}).encode())
}

// ForwardIO sends an output line to the daemon at addr (the job's
// origin node), implementing LAM's remote I/O.
func (c *Client) ForwardIO(p *sim.Proc, addr netsim.Addr, job uint32, line string) error {
	id, err := c.connect(p, addr)
	if err != nil {
		return err
	}
	return c.d.sock.SendMsg(p, id, 0, 0, (&msg{Kind: mkIOWrite, Job: job, Text: line}).encode())
}
