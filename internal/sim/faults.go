package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseFaults parses the CLI fault specification: a comma-separated list
// of key=value entries, e.g.
//
//	crash=3@1,ackloss=0.2,ackdup=0.05,installloss=0.1,seed=42
//
// crash=SW@N kills switch SW after the N-th node commit (crash=SW alone
// means dead from the start); ackloss/ackdup/installloss are per-event
// probabilities in [0,1); seed seeds the fault RNG. An empty spec yields
// a zero-fault injector (still enabling fault-mode bookkeeping such as
// install watchdogs and the Stalled/Committed report).
func ParseFaults(spec string) (*Faults, error) {
	f := &Faults{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("faults: %q is not key=value", part)
		}
		switch key {
		case "crash":
			swStr, atStr, hasAt := strings.Cut(val, "@")
			sw, err := strconv.Atoi(swStr)
			if err != nil {
				return nil, fmt.Errorf("faults: bad crash switch %q", swStr)
			}
			c := &Crash{Switch: sw}
			if hasAt {
				at, err := strconv.Atoi(atStr)
				if err != nil || at < 0 {
					return nil, fmt.Errorf("faults: bad crash commit index %q", atStr)
				}
				c.AtCommit = at
			}
			f.Crash = c
		case "ackloss", "ackdup", "installloss":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || !(p >= 0 && p < 1) { // NaN is in no range
				return nil, fmt.Errorf("faults: %s must be a probability in [0,1), got %q", key, val)
			}
			switch key {
			case "ackloss":
				f.AckLoss = p
			case "ackdup":
				f.AckDup = p
			case "installloss":
				f.InstallLoss = p
			}
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q", val)
			}
			f.Seed = n
		default:
			return nil, fmt.Errorf("faults: unknown key %q (want crash, ackloss, ackdup, installloss, seed)", key)
		}
	}
	return f, nil
}
