package core

import "netupdate/internal/network"

// removeWaits implements the reachability-based wait-removal heuristic of
// Section 4.2.C. The synthesized sequence is careful (a wait between
// every pair of updates); a wait before updating switch s is unnecessary
// if no packet that was forwarded by an earlier-updated switch s0 under
// s0's pre-update rules can still reach s. Two refinements keep the
// heuristic from fencing harmless updates, both justified by the
// per-class trace argument of Lemma 7:
//
//   - class-awareness: an update taints (or endangers) only the classes
//     whose forwarding behavior it actually changes — adding a rule for
//     class B cannot create a mixed trace for class A;
//   - liveness: a switch that was unreachable for a class throughout the
//     window since the last retained wait forwarded none of its packets,
//     so its old rules need no fence.
//
// The ordering analysis itself — affected classes, window tracking, and
// the reachability hazard tests — lives in deps.go (depAnalysis), shared
// with the plan-DAG builder; this pass is the wait-elision loop over it.
func (e *engine) removeWaits(steps []Step) []Step {
	d := e.newDepAnalysis()
	defer d.release()
	out := make([]Step, 0, len(steps))
	for _, st := range steps {
		if st.Wait {
			continue // re-derived below
		}
		affected := d.affected(st.Switch, st.Table)
		if d.barrierNeeded(st.Switch, affected) {
			out = append(out, Step{Wait: true})
			d.barrier()
		}
		d.advance(st.Switch, st.Table, affected)
		out = append(out, st)
	}
	return out
}

func containsAction(as []network.Action, a network.Action) bool {
	for _, x := range as {
		if x == a {
			return true
		}
	}
	return false
}

// classOutputs collects (into dst, deduplicated) the output ports of the
// best-priority rules matching the class packet, ignoring in-ports; ok is
// false when a matching rule is in-port-constrained (behavior then
// depends on the arrival port and cannot be summarized).
func classOutputs(dst []network.Action, t network.Table, pkt network.Packet) ([]network.Action, bool) {
	best := -1 << 31
	found := false
	for _, r := range t {
		if !headerMatches(r.Match, pkt) {
			continue
		}
		if r.Match.InPort != 0 {
			return dst, false
		}
		if r.Priority > best {
			best = r.Priority
		}
		found = true
	}
	if !found {
		return dst, true // drop in both tables compares equal
	}
	for _, r := range t {
		if r.Priority == best && headerMatches(r.Match, pkt) {
			for _, a := range r.Actions {
				if !containsAction(dst, a) {
					dst = append(dst, a)
				}
			}
			// Deterministic tie-break uses the first matching rule only.
			break
		}
	}
	return dst, true
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

// appendClassSuccessors over-approximates the switches a class packet can
// be forwarded to by the given table on switch sw (in-port constraints
// are ignored, which only keeps more waits — a safe direction), appending
// them to dst.
func (e *engine) appendClassSuccessors(dst []int, tbl network.Table, sw int, pkt network.Packet) []int {
	for _, r := range tbl {
		if !headerMatches(r.Match, pkt) {
			continue
		}
		for _, a := range r.Actions {
			if a.Kind != network.ActForward {
				continue
			}
			if l, ok := e.sc.Topo.LinkAt(sw, a.Port); ok {
				dst = append(dst, l.Peer)
			}
		}
	}
	return dst
}

// headerMatches tests a pattern against a packet ignoring the in-port.
func headerMatches(pat network.Pattern, pkt network.Packet) bool {
	if pat.Src != network.Wildcard && pat.Src != pkt.Src {
		return false
	}
	if pat.Dst != network.Wildcard && pat.Dst != pkt.Dst {
		return false
	}
	if pat.Typ != network.Wildcard && pat.Typ != pkt.Typ {
		return false
	}
	return true
}
