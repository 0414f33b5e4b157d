package chaos

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sctp"
	"repro/internal/transport"
)

var allTransports = []core.Transport{core.TCP, core.SCTP, core.SCTPOneToOne}

// failoverSCTP tightens failure detection so a two-second outage is
// decisive: heartbeats every 250 ms, two path retries, 100 ms RTO floor.
var failoverSCTP = sctp.Config{
	HBInterval:     250 * time.Millisecond,
	PathMaxRetrans: 2,
	RTOInitial:     200 * time.Millisecond,
	RTOMin:         100 * time.Millisecond,
}

// TestDeterministicReplay runs the same Spec twice per backend and
// requires bit-identical results: same packet-trace hash, same
// violations. This is the repro guarantee — a failing seed replays
// exactly. Seed 3's generated schedule includes a Corrupt event, so the
// CRC-verify path is part of what is pinned.
func TestDeterministicReplay(t *testing.T) {
	for _, tr := range allTransports {
		// The healing-fault corpus and the session-kill corpus (redial
		// backoff jitter draws from the sim RNG, so recovery timing is
		// part of what must replay exactly).
		for _, spec := range []Spec{
			{Transport: tr, Seed: 3},
			{Transport: tr, Seed: 5, AllowKill: true},
		} {
			r1 := Run(spec)
			r2 := Run(spec)
			if r1.TraceHash != r2.TraceHash {
				t.Errorf("%v (kill=%v): trace hash differs across replays: %s vs %s",
					tr, spec.AllowKill, r1.TraceHash, r2.TraceHash)
			}
			if strings.Join(r1.Violations, "\n") != strings.Join(r2.Violations, "\n") {
				t.Errorf("%v (kill=%v): violations differ across replays:\n%v\nvs\n%v",
					tr, spec.AllowKill, r1.Violations, r2.Violations)
			}
			if r1.Sends != r2.Sends || r1.Deliveries != r2.Deliveries {
				t.Errorf("%v (kill=%v): counters differ across replays", tr, spec.AllowKill)
			}
			if r1.Replayed != r2.Replayed || r1.SessionsLost != r2.SessionsLost {
				t.Errorf("%v (kill=%v): recovery counters differ across replays", tr, spec.AllowKill)
			}
		}
	}
}

// TestCorpusQuick is a fast slice of the `make chaos` corpus: every
// backend must survive the first eight generated schedules with all
// invariants intact.
func TestCorpusQuick(t *testing.T) {
	for _, tr := range allTransports {
		for seed := int64(1); seed <= 8; seed++ {
			if res := Run(Spec{Transport: tr, Seed: seed}); res.Failed() {
				t.Errorf("%v seed %d:\n%s", tr, seed, res)
			}
		}
	}
}

// TestOracleCatchesDupDelivery mutation-tests the oracle: an RPI
// wrapper that delivers every 5th short message twice must trip the
// exactly-once and in-order checks, and the failure must shrink to the
// empty schedule (the bug does not need any fault to fire).
func TestOracleCatchesDupDelivery(t *testing.T) {
	spec := Spec{Transport: core.SCTP, Seed: 1, DupDeliverEvery: 5}
	res := Run(spec)
	if !res.Failed() {
		t.Fatal("duplicate-delivery bug not caught")
	}
	if !hasViolation(res, "exactly-once violated") {
		t.Fatalf("no exactly-once violation in:\n%s", res)
	}
	min, minRes := Shrink(spec)
	if minRes == nil {
		t.Fatal("shrink lost the failure")
	}
	if min.Prefix != EmptySchedule || len(minRes.Schedule) != 0 {
		t.Fatalf("shrunk to %d events, want empty schedule:\n%s",
			len(minRes.Schedule), minRes.Schedule)
	}
	if !minRes.Failed() {
		t.Fatal("minimal spec does not fail")
	}
}

// TestOracleCatchesCorruptionWithoutChecksum mutation-tests the
// integrity oracle: seed 3's schedule corrupts packets mid-run, and
// with CRC32c verification forced off the corrupted payloads reach the
// application. The oracle must flag them, and shrinking must land on
// the prefix that ends at the Corrupt event. The control run (checksum
// on, the harness default under corruption) must pass clean.
func TestOracleCatchesCorruptionWithoutChecksum(t *testing.T) {
	spec := Spec{Transport: core.SCTP, Seed: 3, DisableChecksum: true}
	res := Run(spec)
	if !res.Failed() {
		t.Fatal("delivered corruption not caught")
	}
	if !hasViolation(res, "corrupted") {
		t.Fatalf("no corruption violation in:\n%s", res)
	}

	min, minRes := Shrink(spec)
	if minRes == nil {
		t.Fatal("shrink lost the failure")
	}
	last := minRes.Schedule[len(minRes.Schedule)-1]
	if !strings.HasPrefix(last.Act.String(), "corrupt") {
		t.Fatalf("minimal prefix (%d events) does not end at the Corrupt event:\n%s",
			len(minRes.Schedule), minRes.Schedule)
	}
	if min.Prefix != len(minRes.Schedule) {
		t.Fatalf("Prefix %d != schedule length %d", min.Prefix, len(minRes.Schedule))
	}

	control := Run(Spec{Transport: core.SCTP, Seed: 3})
	if control.Failed() {
		t.Fatalf("control run with CRC verification failed:\n%s", control)
	}
}

// TestMultihomedFailover is the end-to-end failover check: mid-run, the
// subnet carrying every primary path goes down for two seconds. The
// associations must detect the dead path, fail over to an alternate
// interface, finish the workload, and keep every delivery invariant
// intact.
func TestMultihomedFailover(t *testing.T) {
	spec := Spec{
		Transport: core.SCTP,
		Seed:      11,
		Multihome: true,
		Schedule: Schedule{
			{At: time.Millisecond, Dur: 2 * time.Second, Act: LinkDown(0)},
		},
		SCTP: &failoverSCTP,
	}
	res := Run(spec)
	if res.Failed() {
		t.Fatalf("failover run violated invariants:\n%s", res)
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if res.Failovers == 0 {
		t.Fatal("primary subnet was down for 2s but no association failed over")
	}
}

// TestSCTPOverrideKeepsChecksum: a Spec.SCTP override is completed, not
// replaced, by the run's own settings. A Corrupt event still turns on
// CRC32c verification (unless the mutation knob keeps it off), and
// I-DATA with the priority scheduler still applies.
func TestSCTPOverrideKeepsChecksum(t *testing.T) {
	sched := Schedule{{At: time.Millisecond, Dur: time.Millisecond, Act: Corrupt(0.05)}}
	for _, tc := range []struct {
		spec Spec
		want bool
	}{
		{Spec{Transport: core.SCTP, SCTP: &failoverSCTP}, true},
		{Spec{Transport: core.SCTPOneToOne, SCTP: &failoverSCTP, DisableChecksum: true}, false},
	} {
		cfg := tc.spec.sctpConfig(sched)
		if cfg.ChecksumVerify != tc.want {
			t.Errorf("%v DisableChecksum=%v: ChecksumVerify = %v, want %v",
				tc.spec.Transport, tc.spec.DisableChecksum, cfg.ChecksumVerify, tc.want)
		}
		if !cfg.IData || cfg.Scheduler != sctp.SchedPriority {
			t.Errorf("%v: IData=%v Scheduler=%v, want I-DATA with the priority scheduler", tc.spec.Transport, cfg.IData, cfg.Scheduler)
		}
		if cfg.HBInterval != failoverSCTP.HBInterval || cfg.RTOMin != failoverSCTP.RTOMin {
			t.Errorf("%v: override timers lost: %+v", tc.spec.Transport, cfg)
		}
	}
	if failoverSCTP.ChecksumVerify || failoverSCTP.IData {
		t.Fatal("sctpConfig modified the caller's override")
	}
}

// killSpec pins an AssocKill at t=2s of virtual time. The 25 ms link
// delay stretches the mixed workload well past the kill, so the fault
// lands mid-traffic on an active ring session.
func killSpec(tr core.Transport, seed int64) Spec {
	return Spec{
		Transport: tr,
		Seed:      seed,
		LinkDelay: 25 * time.Millisecond,
		Rounds:    60,
		Schedule: Schedule{
			{At: 2 * time.Second, Act: AssocKill(1, 2)},
		},
	}
}

// TestSessionKillRecovery is the session-recovery acceptance check: an
// AssocKill at t=2s on every backend, and the full mixed workload must
// still complete with zero invariant violations and zero duplicate
// deliveries — the killed session redials, replays its unacked tail
// exactly once, and the run is bit-identical across replays.
func TestSessionKillRecovery(t *testing.T) {
	for _, tr := range allTransports {
		spec := killSpec(tr, 42)
		res := Run(spec)
		if res.Failed() {
			t.Errorf("%v: kill recovery violated invariants:\n%s", tr, res)
			continue
		}
		if !res.Completed {
			t.Errorf("%v: run did not complete after session kill", tr)
		}
		if res.SessionsLost == 0 {
			t.Errorf("%v: AssocKill at 2s did not kill any session", tr)
		}
		if res.RedialsOK == 0 {
			t.Errorf("%v: session lost but no successful redial", tr)
		}
		replay := Run(spec)
		if replay.TraceHash != res.TraceHash {
			t.Errorf("%v: recovery run not bit-identical across replays: %s vs %s",
				tr, res.TraceHash, replay.TraceHash)
		}
	}
}

// TestSessionKillBudgetExhausted: the same kill with the redial budget
// disabled must abort the job with a diagnostic session-lost error —
// never hang until the deadline, and never deadlock the simulation.
func TestSessionKillBudgetExhausted(t *testing.T) {
	for _, tr := range allTransports {
		spec := killSpec(tr, 42)
		spec.RedialBudget = -1
		res := Run(spec)
		if res.Completed {
			t.Errorf("%v: run completed despite a dead session and no redial budget", tr)
			continue
		}
		rep := res.Report
		if rep == nil {
			t.Fatalf("%v: no report", tr)
		}
		if rep.SimErr != nil {
			t.Errorf("%v: abort was not clean: %v", tr, rep.SimErr)
		}
		found := false
		for _, err := range rep.RankErrs {
			if errors.Is(err, transport.ErrSessionLost) {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: no rank reported transport.ErrSessionLost; errs: %v",
				tr, rep.RankErrs)
		}
	}
}

// TestKillCorpusQuick is a fast slice of the `make chaos` kill corpus:
// every backend must survive the first five generated AssocKill-only
// schedules with recovery keeping all invariants intact, and replay
// each one bit for bit. The golden hashes are the `trace` column of
// `go run ./cmd/chaos -rpi all -seeds 5 -kill -v`; they pin the recovery
// path (redial, tie-break, replay), which no benchmark workload runs,
// and on sctp the class stamps that survive an in-place restart.
func TestKillCorpusQuick(t *testing.T) {
	golden := map[core.Transport][5]string{
		core.TCP:          {"97ed31f903e4", "3acd75d0271b", "186e5b96e377", "3b50bbd05ffa", "b0ffbc793e7a"},
		core.SCTP:         {"7cbe5325dc5f", "c9cb595f2899", "5d6fa7013323", "9a805030e74f", "df2f1b8613cb"},
		core.SCTPOneToOne: {"4a252c960f3f", "de7ba83d5854", "d76aa8df0710", "3d18ca4203d2", "721f25afc2dc"},
	}
	for _, tr := range allTransports {
		for seed := int64(1); seed <= 5; seed++ {
			spec := Spec{Transport: tr, Seed: seed, AllowKill: true}
			res := Run(spec)
			if res.Failed() {
				t.Errorf("%v seed %d:\n%s", tr, seed, res)
				continue
			}
			if got, want := res.TraceHash[:12], golden[tr][seed-1]; got != want {
				t.Errorf("%v seed %d: trace %s, want %s", tr, seed, got, want)
			}
		}
	}
}

// TestTopologyCorpusQuick is the fabric slice of the chaos gate in
// miniature (the full 256-rank fat-tree seed runs in `make chaos`):
// every backend must survive a generated fault schedule on a 32-rank
// fat-tree with exactly-once and monotonicity oracles armed. Faults
// land on shared switch ports, so loss bursts and downed interfaces
// hit many flows at once.
func TestTopologyCorpusQuick(t *testing.T) {
	for _, tr := range allTransports {
		spec := Spec{Transport: tr, Seed: 2, Procs: 32, Topology: "fattree", Rounds: 6}
		if res := Run(spec); res.Failed() {
			t.Errorf("%v fattree:\n%s", tr, res)
		}
	}
	// Leaf-spine takes one SCTP seed to keep the suite bounded.
	spec := Spec{Transport: core.SCTP, Seed: 5, Procs: 32, Topology: "leafspine", Rounds: 6}
	if res := Run(spec); res.Failed() {
		t.Errorf("sctp leafspine:\n%s", res)
	}
	// An unknown fabric must fail setup, not panic.
	if res := Run(Spec{Transport: core.TCP, Topology: "torus"}); !res.Failed() {
		t.Error("unknown topology did not fail setup")
	}
}

// TestOracleCatchesDroppedReplay mutation-tests the recovery oracle: a
// session layer that silently drops one replayed message must trip the
// exactly-once completeness check, and the failure must shrink to the
// schedule prefix ending at the AssocKill event (the bug needs the kill
// to fire).
func TestOracleCatchesDroppedReplay(t *testing.T) {
	spec := killSpec(core.SCTP, 42)
	spec.DropReplayEvery = 1
	res := Run(spec)
	if !res.Failed() {
		t.Fatal("dropped replay not caught")
	}
	if !hasViolation(res, "never delivered") {
		t.Fatalf("no undelivered-message violation in:\n%s", res)
	}
	min, minRes := Shrink(spec)
	if minRes == nil {
		t.Fatal("shrink lost the failure")
	}
	if len(minRes.Schedule) == 0 {
		t.Fatalf("shrunk to the empty schedule; the failure needs the kill:\n%s", minRes)
	}
	last := minRes.Schedule[len(minRes.Schedule)-1]
	if !strings.HasPrefix(last.Act.String(), "assockill") {
		t.Fatalf("minimal prefix does not end at the AssocKill event:\n%s", minRes.Schedule)
	}
	if min.Prefix != len(minRes.Schedule) {
		t.Fatalf("Prefix %d != schedule length %d", min.Prefix, len(minRes.Schedule))
	}
	control := Run(killSpec(core.SCTP, 42))
	if control.Failed() {
		t.Fatalf("control run without the mutation failed:\n%s", control)
	}
}

func hasViolation(r *Result, substr string) bool {
	for _, v := range r.Violations {
		if strings.Contains(v, substr) {
			return true
		}
	}
	return false
}
