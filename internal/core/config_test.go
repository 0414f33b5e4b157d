package core

import (
	"reflect"
	"testing"

	"repro/internal/mpi/rpi"
	"repro/internal/sctp"
	"repro/internal/tcp"
)

// TestStackConfigRoute pins the one route from Options to the stacks:
// the config every SCTP stack of a run is built with is exactly the
// caller's SCTPConfig, completed only by the paper's buffer size, the
// run's stream pool and the single-homed heartbeat rule.
func TestStackConfigRoute(t *testing.T) {
	probe := &sctp.Probe{}
	paper := func(c sctp.Config) sctp.Config {
		if c.SndBuf == 0 {
			c.SndBuf, c.RcvBuf = PaperBufSize, PaperBufSize
		}
		if c.Streams == 0 {
			c.Streams = 10
		}
		return c
	}
	for _, tc := range []struct {
		name string
		opts Options
		want sctp.Config
	}{
		{"default", Options{Transport: SCTP},
			paper(sctp.Config{HBDisable: true})},
		{"checksum override", Options{Transport: SCTP, SCTPConfig: &sctp.Config{ChecksumVerify: true}},
			paper(sctp.Config{HBDisable: true, ChecksumVerify: true})},
		{"checksum override with probe", Options{Transport: SCTPOneToOne, SCTPProbe: probe,
			SCTPConfig: &sctp.Config{ChecksumVerify: true, AckCountingCwnd: true}},
			paper(sctp.Config{HBDisable: true, ChecksumVerify: true, AckCountingCwnd: true, Probe: probe})},
		{"idata and scheduler", Options{Transport: SCTP,
			SCTPConfig: &sctp.Config{SndBuf: 1 << 20, RcvBuf: 96 << 10, IData: true, Scheduler: sctp.SchedPriority}},
			paper(sctp.Config{SndBuf: 1 << 20, RcvBuf: 96 << 10, HBDisable: true, IData: true, Scheduler: sctp.SchedPriority})},
		{"cmt on 3 nics", Options{Transport: SCTP, IfacesPerNode: 3, SCTPConfig: &sctp.Config{CMT: true}},
			paper(sctp.Config{CMT: true})},
		{"heartbeats on 3 nics", Options{Transport: SCTP, IfacesPerNode: 3},
			paper(sctp.Config{})},
		{"heartbeats off by override on 3 nics", Options{Transport: SCTP, IfacesPerNode: 3, SCTPConfig: &sctp.Config{HBDisable: true}},
			paper(sctp.Config{HBDisable: true})},
		{"heartbeats off on 1 nic despite override", Options{Transport: SCTP, SCTPConfig: &sctp.Config{SackEveryPkts: 1}},
			paper(sctp.Config{HBDisable: true, SackEveryPkts: 1})},
		{"stream pool", Options{Transport: SCTP, Streams: 2},
			paper(sctp.Config{HBDisable: true, Streams: 2})},
		{"single-stream transport", Options{Transport: SCTPSingleStream, Streams: 64},
			paper(sctp.Config{HBDisable: true, Streams: 1})},
		{"single-stream transport with override", Options{Transport: SCTPSingleStream, SCTPConfig: &sctp.Config{Streams: 10}},
			paper(sctp.Config{HBDisable: true, Streams: 1})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.opts.withDefaults().sctpConfig(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("stack config\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestTCPStackConfigRoute is the TCP half: the override replaces the
// LAM default (Nagle off) and only the buffer sizes are filled in.
func TestTCPStackConfigRoute(t *testing.T) {
	probe := &tcp.Probe{}
	for _, tc := range []struct {
		name string
		opts Options
		want tcp.Config
	}{
		{"default", Options{Transport: TCP},
			tcp.Config{SndBuf: PaperBufSize, RcvBuf: PaperBufSize, NoDelay: true}},
		{"sack off", Options{Transport: TCP, TCPConfig: &tcp.Config{NoDelay: true, NoSack: true}},
			tcp.Config{SndBuf: PaperBufSize, RcvBuf: PaperBufSize, NoDelay: true, NoSack: true}},
		{"nagle on", Options{Transport: TCP, TCPProbe: probe, TCPConfig: &tcp.Config{MaxSackBlocks: 64}},
			tcp.Config{SndBuf: PaperBufSize, RcvBuf: PaperBufSize, MaxSackBlocks: 64, Probe: probe}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.opts.withDefaults().tcpConfig(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("stack config\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestCostRoute: a nil Cost selects the transport's calibrated model and
// an empty one turns CPU cost modeling off.
func TestCostRoute(t *testing.T) {
	if got := (Options{}).cost(DefaultSCTPCost()); got != DefaultSCTPCost() {
		t.Errorf("nil Cost: got %+v, want the default", got)
	}
	if got := (Options{Cost: &rpi.CostModel{}}).cost(DefaultTCPCost()); got != (rpi.CostModel{}) {
		t.Errorf("empty Cost: got %+v, want no cost", got)
	}
}
