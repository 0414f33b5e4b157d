package tcp

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// pair builds two nodes with TCP stacks over a link with the given
// parameters.
func pair(seed int64, lp netsim.LinkParams, cfg Config) (*sim.Kernel, *Stack, *Stack, *netsim.Network) {
	k := sim.New(seed)
	net := netsim.NewNetwork(k)
	net.SetDefaultLinkParams(lp)
	a := net.NewNode("a")
	a.AddInterface(netsim.MakeAddr(0, 1))
	b := net.NewNode("b")
	b.AddInterface(netsim.MakeAddr(0, 2))
	return k, NewStack(a, cfg), NewStack(b, cfg), net
}

func lan() netsim.LinkParams { return netsim.DefaultLinkParams() }

// transfer runs a one-directional bulk transfer of n bytes and checks
// integrity; it returns the virtual completion time.
func transfer(t *testing.T, seed int64, lp netsim.LinkParams, cfg Config, n int) time.Duration {
	t.Helper()
	cfg.NoDelay = true // as LAM runs TCP; the server sends no data, so only the client's writes see it
	k, sa, sb, _ := pair(seed, lp, cfg)
	payload := make([]byte, n)
	r := k.Rand()
	for i := range payload {
		payload[i] = byte(r.Intn(256))
	}
	var received []byte
	done := false
	l, err := sb.Listen(5000)
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("server", func(p *sim.Proc) {
		c, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 32<<10)
		for {
			m, err := c.Read(p, buf)
			received = append(received, buf[:m]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
		c.Close()
		done = true
	})
	k.Spawn("client", func(p *sim.Proc) {
		c, err := sa.Connect(p, netsim.MakeAddr(0, 2), 5000)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Write(p, payload); err != nil {
			t.Error(err)
			return
		}
		c.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("server did not finish")
	}
	if !bytes.Equal(received, payload) {
		t.Fatalf("data corrupted: got %d bytes want %d", len(received), len(payload))
	}
	return k.Now()
}

func TestHandshakeAndSmallTransfer(t *testing.T) {
	transfer(t, 1, lan(), Config{NoDelay: true}, 100)
}

func TestBulkTransferNoLoss(t *testing.T) {
	d := transfer(t, 1, lan(), Config{NoDelay: true, SndBuf: 220 << 10, RcvBuf: 220 << 10}, 1<<20)
	// 1 MiB at 1 Gb/s should take on the order of 10 ms, certainly < 1 s.
	if d > time.Second {
		t.Fatalf("1 MiB took %v", d)
	}
}

func TestBulkTransferUnderLoss(t *testing.T) {
	lp := lan()
	lp.LossRate = 0.01
	transfer(t, 2, lp, Config{NoDelay: true, SndBuf: 220 << 10, RcvBuf: 220 << 10}, 512<<10)
}

func TestBulkTransferHeavyLoss(t *testing.T) {
	lp := lan()
	lp.LossRate = 0.05
	transfer(t, 3, lp, Config{NoDelay: true, SndBuf: 64 << 10, RcvBuf: 64 << 10}, 128<<10)
}

func TestTransferWithoutSackUnderLoss(t *testing.T) {
	lp := lan()
	lp.LossRate = 0.02
	transfer(t, 4, lp, Config{NoDelay: true, NoSack: true}, 128<<10)
}

func TestQuickLossIntegrity(t *testing.T) {
	// Property: any loss rate up to 10% and any size up to 64 KiB still
	// yields an intact byte stream.
	f := func(seed int64, sz uint16, lossTenths uint8) bool {
		lp := lan()
		lp.LossRate = float64(lossTenths%10) / 100.0
		n := int(sz)%(64<<10) + 1
		transfer(t, seed, lp, Config{NoDelay: true}, n)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestEcho(t *testing.T) {
	// Bidirectional traffic: client sends records, server echoes them.
	k, sa, sb, _ := pair(5, lan(), Config{NoDelay: true})
	l, _ := sb.Listen(5000)
	const records, recSize = 50, 3000
	k.Spawn("server", func(p *sim.Proc) {
		c, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, recSize)
		for i := 0; i < records; i++ {
			got := 0
			for got < recSize {
				m, err := c.Read(p, buf[got:])
				if err != nil {
					t.Error(err)
					return
				}
				got += m
			}
			if _, err := c.Write(p, buf); err != nil {
				t.Error(err)
				return
			}
		}
		c.Close()
	})
	k.Spawn("client", func(p *sim.Proc) {
		c, err := sa.Connect(p, netsim.MakeAddr(0, 2), 5000)
		if err != nil {
			t.Error(err)
			return
		}
		out := make([]byte, recSize)
		in := make([]byte, recSize)
		for i := 0; i < records; i++ {
			for j := range out {
				out[j] = byte(i + j)
			}
			if _, err := c.Write(p, out); err != nil {
				t.Error(err)
				return
			}
			got := 0
			for got < recSize {
				m, err := c.Read(p, in[got:])
				if err != nil {
					t.Error(err)
					return
				}
				got += m
			}
			if !bytes.Equal(in, out) {
				t.Errorf("echo %d corrupted", i)
				return
			}
		}
		c.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFlowControlSlowReader(t *testing.T) {
	// A reader that drains slowly must not lose data, and the sender
	// must survive zero-window episodes via persist probes.
	k, sa, sb, _ := pair(6, lan(), Config{NoDelay: true, SndBuf: 16 << 10, RcvBuf: 16 << 10})
	l, _ := sb.Listen(5000)
	const total = 256 << 10
	var received int
	k.Spawn("server", func(p *sim.Proc) {
		c, _ := l.Accept(p)
		buf := make([]byte, 4<<10)
		for {
			m, err := c.Read(p, buf)
			received += m
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			p.Sleep(500 * time.Microsecond) // slow consumer
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		c, err := sa.Connect(p, netsim.MakeAddr(0, 2), 5000)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Write(p, make([]byte, total)); err != nil {
			t.Error(err)
		}
		c.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if received != total {
		t.Fatalf("received %d of %d", received, total)
	}
}

func TestConnectRefused(t *testing.T) {
	k, sa, _, _ := pair(7, lan(), Config{})
	var connErr error
	k.Spawn("client", func(p *sim.Proc) {
		_, connErr = sa.Connect(p, netsim.MakeAddr(0, 2), 9999) // nobody listening
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if connErr != ErrReset {
		t.Fatalf("err = %v, want ErrReset", connErr)
	}
}

func TestConnectTimeout(t *testing.T) {
	k, sa, _, net := pair(8, lan(), Config{})
	net.SetLoss(1.0) // black hole
	var connErr error
	k.Spawn("client", func(p *sim.Proc) {
		_, connErr = sa.Connect(p, netsim.MakeAddr(0, 2), 9999)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if connErr != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", connErr)
	}
}

func TestHalfClose(t *testing.T) {
	// Client closes its write side but keeps reading; server reads EOF,
	// then writes a response.
	k, sa, sb, _ := pair(9, lan(), Config{NoDelay: true})
	l, _ := sb.Listen(5000)
	var response []byte
	k.Spawn("server", func(p *sim.Proc) {
		c, _ := l.Accept(p)
		buf := make([]byte, 1024)
		var got []byte
		for {
			m, err := c.Read(p, buf)
			got = append(got, buf[:m]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
		if _, err := c.Write(p, append([]byte("ack:"), got...)); err != nil {
			t.Error(err)
		}
		c.Close()
	})
	k.Spawn("client", func(p *sim.Proc) {
		c, _ := sa.Connect(p, netsim.MakeAddr(0, 2), 5000)
		if _, err := c.Write(p, []byte("hello")); err != nil {
			t.Error(err)
			return
		}
		c.Close() // half-close: we can still read
		buf := make([]byte, 1024)
		for {
			m, err := c.Read(p, buf)
			response = append(response, buf[:m]...)
			if err != nil {
				break
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if string(response) != "ack:hello" {
		t.Fatalf("response = %q", response)
	}
}

func TestNagleCoalesces(t *testing.T) {
	// With Nagle on, many tiny writes produce far fewer segments than
	// with NoDelay.
	run := func(noDelay bool) int64 {
		k, sa, sb, _ := pair(10, lan(), Config{NoDelay: noDelay})
		l, _ := sb.Listen(5000)
		var cli *Conn
		k.Spawn("server", func(p *sim.Proc) {
			c, _ := l.Accept(p)
			buf := make([]byte, 64)
			total := 0
			for total < 500 {
				m, err := c.Read(p, buf)
				if err != nil {
					return
				}
				total += m
			}
			c.Close()
		})
		k.Spawn("client", func(p *sim.Proc) {
			c, _ := sa.Connect(p, netsim.MakeAddr(0, 2), 5000)
			cli = c
			for i := 0; i < 500; i++ {
				if _, err := c.Write(p, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				p.Sleep(10 * time.Microsecond)
			}
			c.Close()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return cli.Stats.SegsSent
	}
	nagle := run(false)
	noDelay := run(true)
	if nagle >= noDelay {
		t.Fatalf("nagle sent %d segments, nodelay %d; expected fewer with Nagle", nagle, noDelay)
	}
}

func TestRetransmitStatsUnderLoss(t *testing.T) {
	lp := lan()
	lp.LossRate = 0.02
	k, sa, sb, _ := pair(11, lp, Config{NoDelay: true, SndBuf: 220 << 10, RcvBuf: 220 << 10})
	l, _ := sb.Listen(5000)
	var cli *Conn
	k.Spawn("server", func(p *sim.Proc) {
		c, _ := l.Accept(p)
		buf := make([]byte, 32<<10)
		for {
			_, err := c.Read(p, buf)
			if err != nil {
				return
			}
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		c, _ := sa.Connect(p, netsim.MakeAddr(0, 2), 5000)
		cli = c
		if _, err := c.Write(p, make([]byte, 512<<10)); err != nil {
			t.Error(err)
		}
		c.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if cli.Stats.Retransmits == 0 {
		t.Fatal("expected retransmissions under 2% loss")
	}
}

func TestDeterministicTransfer(t *testing.T) {
	lp := lan()
	lp.LossRate = 0.01
	d1 := transfer(t, 42, lp, Config{NoDelay: true}, 256<<10)
	d2 := transfer(t, 42, lp, Config{NoDelay: true}, 256<<10)
	if d1 != d2 {
		t.Fatalf("nondeterministic: %v vs %v", d1, d2)
	}
}
