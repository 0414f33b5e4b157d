// Command chaos runs the deterministic fault-injection harness: seeded
// fault schedules against the MPI workload on one (or all) of the RPI
// backends, with the protocol invariant oracles armed. On failure it
// prints the violations, the schedule, a shrunk minimal repro, and the
// one-line command reproducing it, then exits 1.
//
// Examples:
//
//	go run ./cmd/chaos -rpi sctp -seeds 50         # 50-seed corpus
//	go run ./cmd/chaos -rpi all -seeds 50          # the `make chaos` gate
//	go run ./cmd/chaos -rpi tcp -seed 17 -v        # one run, verbose
//	go run ./cmd/chaos -rpi sctp -seed 3 -prefix 2 # replay a shrunk repro
//	go run ./cmd/chaos -rpi all -seeds 25 -kill    # session-recovery corpus
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/chaos"
	"repro/internal/core"
)

func main() {
	var (
		rpiName   = flag.String("rpi", "all", "backend: tcp, sctp, sctp1to1, or all")
		seed      = flag.Int64("seed", 1, "first schedule/simulation seed")
		seeds     = flag.Int("seeds", 1, "number of consecutive seeds to run")
		events    = flag.Int("events", 5, "fault events per generated schedule")
		prefix    = flag.Int("prefix", 0, "keep only the first N events (<0: none, 0: all)")
		procs     = flag.Int("procs", 4, "world size")
		topology  = flag.String("topo", "", "fabric: fattree (empty: full mesh)")
		collectve = flag.String("collective", "", "collective corpus: bcast or allreduce (empty: ring workload)")
		algName   = flag.String("alg", "", "collective algorithm family: tree, naive, or multicast (default)")
		msgSize   = flag.Int("msgsize", 0, "payload bytes per message/collective (0: default 4 KiB)")
		rounds    = flag.Int("rounds", 0, "ring-exchange rounds (0: default 30)")
		horizon   = flag.Duration("horizon", 0, "generated-schedule event window (0: default 10ms)")
		multihome = flag.Bool("multihome", false, "three interfaces per node, heartbeats on")
		kill      = flag.Bool("kill", false, "session-recovery corpus: generated schedules are AssocKill-only")
		noIData   = flag.Bool("noidata", false, "disable RFC 8260 I-DATA interleaving on SCTP transports")
		budget    = flag.Int("budget", 0, "redial budget per loss episode (0: default 8, <0: none)")
		noShrink  = flag.Bool("noshrink", false, "skip shrinking failures")
		verbose   = flag.Bool("v", false, "print every run, not just failures")

		// Oracle self-test knobs: deliberate bugs that must make the
		// harness fail (exercise the failure/shrink/repro path).
		dupEvery   = flag.Int("dup", 0, "mutation: deliver every Nth short message twice")
		dropReplay = flag.Int("dropreplay", 0, "mutation: silently drop the Nth replayed message")
		noChecksum = flag.Bool("nochecksum", false, "mutation: keep CRC32c verify off under Corrupt events")
		mcDup      = flag.Int("mcdup", 0, "mutation: double-count every Nth accepted multicast chunk")
		mcDrop     = flag.Int("mcdrop", 0, "mutation: account every Nth multicast chunk without copying it")
	)
	flag.Parse()

	var transports []core.Transport
	switch *rpiName {
	case "all":
		transports = []core.Transport{core.TCP, core.SCTP, core.SCTPOneToOne}
	case "tcp":
		transports = []core.Transport{core.TCP}
	case "sctp":
		transports = []core.Transport{core.SCTP}
	case "sctp1to1":
		transports = []core.Transport{core.SCTPOneToOne}
	default:
		fmt.Fprintf(os.Stderr, "chaos: unknown -rpi %q (want tcp, sctp, sctp1to1, all)\n", *rpiName)
		os.Exit(2)
	}

	failures := 0
	runs := 0
	for _, tr := range transports {
		for s := *seed; s < *seed+int64(*seeds); s++ {
			spec := chaos.Spec{
				Transport:       tr,
				Seed:            s,
				Events:          *events,
				Prefix:          *prefix,
				Procs:           *procs,
				Topology:        *topology,
				Collective:      *collectve,
				Alg:             *algName,
				MsgSize:         *msgSize,
				Rounds:          *rounds,
				Horizon:         *horizon,
				Multihome:       *multihome,
				AllowKill:       *kill,
				NoIData:         *noIData,
				RedialBudget:    *budget,
				DupDeliverEvery: *dupEvery,
				DropReplayEvery: *dropReplay,
				DisableChecksum: *noChecksum,
				MCDupEvery:      *mcDup,
				MCDropEvery:     *mcDrop,
			}
			res := chaos.Run(spec)
			runs++
			if !res.Failed() {
				if *verbose {
					fmt.Println(res)
				}
				continue
			}
			failures++
			fmt.Println(res)
			if !*noShrink {
				min, minRes := chaos.Shrink(spec)
				if minRes != nil && len(minRes.Schedule) < len(res.Schedule) {
					fmt.Printf("shrunk to %d/%d event(s):\n", len(minRes.Schedule), len(res.Schedule))
					fmt.Println(minRes)
					_ = min
				}
			}
		}
	}
	if failures > 0 {
		fmt.Printf("chaos: %d/%d run(s) FAILED\n", failures, runs)
		os.Exit(1)
	}
	fmt.Printf("chaos: %d run(s) ok\n", runs)
}
