package sctp

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/netsim"
	"repro/internal/seqnum"
	"repro/internal/wire"
)

// TestGenerateFuzzCorpus (re)generates the checked-in seed corpora
// under testdata/fuzz when FUZZ_SEED_GEN=1 is set. The seeds are
// realistic wire packets and op-trains covering each chunk type and
// the interesting reassembly orderings, so -fuzz starts from live
// coverage instead of random bytes.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("FUZZ_SEED_GEN") != "1" {
		t.Skip("set FUZZ_SEED_GEN=1 to regenerate testdata/fuzz")
	}
	writeSeed := func(fuzzName, seedName string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", fuzzName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, seedName), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	pkt := func(chunks ...*chunk) []byte {
		p := &packet{SrcPort: 5000, DstPort: 7002, VerificationTag: 0xbeef, Chunks: chunks}
		b := encodePacket(p)
		out := append([]byte(nil), b...)
		wire.PutBuf(b)
		return out
	}

	writeSeed("FuzzChunkCodec", "data", pkt(&chunk{
		Type: ctData, Flags: flagBeginFragment | flagEndFragment,
		TSN: 100, Stream: 3, SSN: 7, PPID: 1, Data: []byte("hello world"),
	}))
	writeSeed("FuzzChunkCodec", "idata-begin", pkt(&chunk{
		Type: ctIData, Flags: flagBeginFragment,
		TSN: 200, Stream: 1, MID: 5, PPID: 2, Data: []byte("first fragment"),
	}))
	writeSeed("FuzzChunkCodec", "idata-end", pkt(&chunk{
		Type: ctIData, Flags: flagEndFragment,
		TSN: 201, Stream: 1, MID: 5, FSN: 3, Data: []byte("last fragment"),
	}))
	writeSeed("FuzzChunkCodec", "idata-bundle", pkt(
		&chunk{Type: ctIData, Flags: flagBeginFragment | flagEndFragment,
			TSN: 300, Stream: 0, MID: 1, PPID: 1, Data: []byte("whole")},
		&chunk{Type: ctSack, CumTSNAck: 299, ARwnd: 65536,
			Gaps: []gapBlock{{2, 4}}, DupTSNs: []seqnum.V{250}},
	))
	writeSeed("FuzzChunkCodec", "init", pkt(&chunk{
		Type: ctInit, InitiateTag: 0x1234, ARwnd: 220 << 10,
		OutStreams: 10, InStreams: 10, InitialTSN: 1,
		Addrs: []netsim.Addr{netsim.MakeAddr(0, 1), netsim.MakeAddr(1, 1)},
	}))
	writeSeed("FuzzChunkCodec", "init-idata", func() []byte {
		c := &chunk{
			Type: ctInit, Flags: initFlagIData, InitiateTag: 0x77,
			ARwnd: 4096, OutStreams: 4, InStreams: 4, InitialTSN: 42,
		}
		return pkt(c)
	}())
	writeSeed("FuzzChunkCodec", "heartbeat", pkt(&chunk{
		Type: ctHeartbeat, HBPath: 0x0102, HBNonce: 0xdeadbeef,
	}))
	writeSeed("FuzzChunkCodec", "abort", pkt(&chunk{
		Type: ctAbort, Flags: abortTBit, Reason: "job aborted",
	}))
	writeSeed("FuzzChunkCodec", "shutdown", pkt(
		&chunk{Type: ctShutdown, CumTSNAck: 500},
		&chunk{Type: ctShutdownAck},
		&chunk{Type: ctShutdownComplete},
	))
	// A deliberately truncated packet: exercises the short-read paths.
	full := pkt(&chunk{Type: ctData, TSN: 1, Stream: 0, Data: []byte("truncate me")})
	writeSeed("FuzzChunkCodec", "truncated", full[:len(full)-6])

	// Reassembly op-trains (see decodeReasmOps for the 5-byte format:
	// stream, mid, fsn, flags[b=1,e=2], size).
	op := func(stream, mid, fsn, flags, size byte) []byte {
		return []byte{stream, mid, fsn, flags, size}
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	writeSeed("FuzzIDataReassembly", "in-order", cat(
		op(0, 0, 0, 1, 10), op(0, 0, 1, 0, 10), op(0, 0, 2, 2, 10),
	))
	writeSeed("FuzzIDataReassembly", "reversed", cat(
		op(1, 0, 2, 2, 8), op(1, 0, 1, 0, 8), op(1, 0, 0, 1, 8),
	))
	writeSeed("FuzzIDataReassembly", "interleaved-mids", cat(
		op(2, 0, 0, 1, 6), op(2, 1, 0, 1, 6), op(2, 0, 1, 2, 6),
		op(2, 1, 1, 2, 6),
	))
	writeSeed("FuzzIDataReassembly", "reorder-mids", cat(
		op(0, 1, 0, 3, 5), op(0, 0, 0, 3, 5), op(0, 2, 0, 3, 5),
	))
	writeSeed("FuzzIDataReassembly", "dup-fsn", cat(
		op(3, 0, 0, 1, 9), op(3, 0, 1, 0, 9), op(3, 0, 1, 0, 4),
		op(3, 0, 2, 2, 9),
	))
	writeSeed("FuzzIDataReassembly", "conflicting-end", cat(
		op(0, 0, 0, 1, 7), op(0, 0, 3, 2, 7), op(0, 0, 5, 2, 7),
		op(0, 0, 1, 0, 7), op(0, 0, 2, 0, 7),
	))
	writeSeed("FuzzIDataReassembly", "stray-beyond-end", cat(
		op(0, 0, 5, 0, 7), op(0, 0, 0, 1, 7), op(0, 0, 1, 0, 7),
		op(0, 0, 2, 2, 7),
	))
	writeSeed("FuzzIDataReassembly", "truncated-train", cat(
		op(1, 0, 0, 1, 12), op(1, 0, 1, 0, 12),
	))
	writeSeed("FuzzIDataReassembly", "unfragmented-burst", cat(
		op(0, 0, 0, 3, 20), op(1, 0, 0, 3, 20), op(2, 0, 0, 3, 20),
		op(3, 0, 0, 3, 20), op(0, 1, 0, 3, 20),
	))

	// DATA op-trains: the same format with (stream, ssn, tsn offset from
	// dataTSNBase, flags, size).
	writeSeed("FuzzDataReassembly", "in-order", cat(
		op(0, 0, 0, 1, 10), op(0, 0, 1, 0, 10), op(0, 0, 2, 2, 10),
	))
	writeSeed("FuzzDataReassembly", "reversed", cat(
		op(1, 0, 2, 2, 8), op(1, 0, 1, 0, 8), op(1, 0, 0, 1, 8),
	))
	writeSeed("FuzzDataReassembly", "tsn-wrap", cat(
		op(0, 0, 6, 1, 5), op(0, 0, 7, 0, 5), op(0, 0, 8, 0, 5),
		op(0, 0, 9, 2, 5),
	))
	writeSeed("FuzzDataReassembly", "reorder-ssns", cat(
		op(0, 1, 3, 3, 5), op(0, 0, 2, 3, 5), op(0, 2, 4, 3, 5),
	))
	writeSeed("FuzzDataReassembly", "interleaved-streams", cat(
		op(0, 0, 0, 1, 6), op(1, 0, 2, 1, 6), op(0, 0, 1, 2, 6),
		op(1, 0, 3, 2, 6),
	))
	writeSeed("FuzzDataReassembly", "dup-tsn", cat(
		op(3, 0, 4, 1, 9), op(3, 0, 5, 0, 9), op(3, 0, 5, 0, 4),
		op(3, 0, 6, 2, 9),
	))
	writeSeed("FuzzDataReassembly", "conflicting-begin", cat(
		op(0, 0, 3, 1, 7), op(0, 0, 1, 1, 7), op(0, 0, 2, 0, 7),
		op(0, 0, 4, 2, 7),
	))
	writeSeed("FuzzDataReassembly", "stray-before-begin", cat(
		op(0, 0, 1, 0, 7), op(0, 0, 3, 1, 7), op(0, 0, 4, 2, 7),
	))
	writeSeed("FuzzDataReassembly", "stray-beyond-end", cat(
		op(1, 0, 6, 0, 5), op(1, 0, 2, 1, 5), op(1, 0, 3, 2, 5),
	))
	writeSeed("FuzzDataReassembly", "conflicting-end", cat(
		op(0, 0, 0, 1, 7), op(0, 0, 3, 2, 7), op(0, 0, 5, 2, 7),
		op(0, 0, 1, 0, 7), op(0, 0, 2, 0, 7),
	))
	writeSeed("FuzzDataReassembly", "stale-replay", cat(
		op(2, 0, 0, 3, 4), op(2, 0, 1, 3, 4), op(2, 1, 2, 3, 4),
	))
	writeSeed("FuzzDataReassembly", "unfragmented-burst", cat(
		op(0, 0, 0, 3, 20), op(1, 0, 1, 3, 20), op(2, 0, 2, 3, 20),
		op(0, 1, 3, 3, 20),
	))
}
