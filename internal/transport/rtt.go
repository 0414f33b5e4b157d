package transport

import "time"

// SmoothRTT folds the round-trip measurement m into the smoothed RTT
// and its variation and returns them with the unclamped RTO: the rule
// of RFC 6298 §2, which RFC 4960 §6.3.1 repeats for SCTP paths. Each
// transport clamps the RTO to its own bounds.
func SmoothRTT(srtt, rttvar, m time.Duration) (newSRTT, newRTTVar, rto time.Duration) {
	if srtt == 0 {
		srtt, rttvar = m, m/2
	} else {
		d := srtt - m
		if d < 0 {
			d = -d
		}
		rttvar = (3*rttvar + d) / 4
		srtt = (7*srtt + m) / 8
	}
	return srtt, rttvar, srtt + 4*rttvar
}
