package nic

// This file is the reliable transport: the link-level reliability
// protocol of the V-Bus card under fault injection. Every message is
// segmented into MTU-sized packets, each carrying a CRC-32C frame
// check sequence (internal/fabric). The receiver ACKs clean packets
// and NACKs corrupt ones; lost packets are discovered by ACK timeout.
// Recovery is go-back-N: a failed packet is retransmitted together
// with the window of packets streamed behind it, after an
// exponentially growing backoff.
//
// Like the rest of the NIC layer this is a *cost model*: it does not
// move bytes, it prices the retries so the MPI runtime can charge them
// to virtual clocks. The base (fault-free) transfer cost is charged by
// the caller exactly as on a clean fabric; ReliableCost returns only
// the overhead, so a run with no injected faults is bit-identical to a
// build without the reliability layer.

import (
	"vbuscluster/internal/fault"
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/sim"
)

// Outcome is the priced result of reliably transferring one message.
type Outcome struct {
	// Extra is the virtual time the retries cost the sender on top of
	// the clean transfer: detection latencies, backoff waits and
	// retransmission wire time.
	Extra sim.Time
	// RetransBytes counts the bytes re-sent on the wire (go-back-N
	// resends whole windows, so this exceeds the corrupted bytes).
	RetransBytes int64
	// Retransmissions counts failed packet transmission attempts.
	Retransmissions int
	// Escalations counts packets that exhausted the retry budget and
	// were recovered by a link-level reset (the final resend always
	// succeeds, so payload delivery is guaranteed).
	Escalations int
}

// backoffShiftCap bounds the exponential backoff doubling so the wait
// cannot overflow virtual time even at absurd retry counts.
const backoffShiftCap = 16

// ReliableCost prices the reliable transfer of bytes from node src to
// node dst across hops mesh channels under inj's fault schedule. ack is
// the card's small-message latency — one ACK or NACK crossing back —
// which the caller takes from its commcost kernel (Msg of one word over
// one hop).
// seqBase is the first per-(src,dst) packet sequence number of this
// message; the second return value is the number of sequence numbers
// consumed. The decision for every (packet, attempt) pair is a pure
// hash of the injector seed, so the outcome is identical across runs
// and independent of goroutine interleaving.
func ReliableCost(card interconnect.Interconnect, inj *fault.Injector, ack sim.Time,
	src, dst, hops, bytes, seqBase int) (Outcome, int) {

	var out Outcome
	if bytes <= 0 {
		return out, 0
	}
	mtu := inj.MTU()
	npkts := (bytes + mtu - 1) / mtu
	if !inj.Enabled() {
		return out, npkts
	}
	window := inj.Window()
	maxRetry := inj.MaxRetry()
	backoff := inj.Backoff()

	for i := 0; i < npkts; i++ {
		remaining := bytes - i*mtu
		// A failure resends this packet plus the window streamed behind
		// it (go-back-N), bounded by what is left of the message.
		resend := window * mtu
		if resend > remaining {
			resend = remaining
		}
		for attempt := 0; ; attempt++ {
			if attempt > maxRetry {
				// Retry budget exhausted: the card escalates to a
				// link-level reset and resends once more outside the
				// random schedule, so delivery is still guaranteed.
				out.Escalations++
				out.Extra += card.ContigTime(resend, hops)
				out.RetransBytes += int64(resend)
				break
			}
			fate := inj.PacketFate(src, dst, seqBase+i, attempt)
			if fate == fault.Delivered {
				break
			}
			out.Retransmissions++
			out.RetransBytes += int64(resend)
			detect := ack // NACK of a corrupt packet
			if fate == fault.Dropped {
				detect = 2 * ack // ACK timeout
			}
			shift := attempt
			if shift > backoffShiftCap {
				shift = backoffShiftCap
			}
			out.Extra += detect + backoff<<shift + card.ContigTime(resend, hops)
		}
	}
	return out, npkts
}
