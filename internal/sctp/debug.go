package sctp

import "fmt"

// SetDebugT3 installs an observer invoked on every T3 retransmission
// timeout, with a one-line summary of the association's send state.
// Pass nil to remove it. Intended for tests and diagnosis.
func SetDebugT3(fn func(info string)) {
	if fn == nil {
		debugT3 = nil
		return
	}
	debugT3 = func(a *Assoc, pi int) {
		fn(fmt.Sprintf("t=%v assoc=%d state=%d path=%d inflight=%d outQ=%d rtxQ=%d",
			a.kernel().Now(), a.id, a.state, pi, a.inflight.Len(), a.outQ.Len(), a.rtxQ.Len()))
	}
}
