package core

import (
	"hash/maphash"
	"time"
)

// softDeadline mirrors the real anytime-deadline exception: the clock
// read is sanctioned by contract and waived with a reasoned directive.
func softDeadline() time.Time {
	//lint:allow nodrift the anytime deadline is wall-clock by contract (PR 3)
	return time.Now()
}

// trailing directive form on the flagged line itself.
func buildTelemetry(start time.Time) time.Duration {
	return time.Since(start) //lint:allow nodrift build-time telemetry; no Result depends on it
}

// stripeSeed mirrors the lock-stripe seeds: the seed places keys on
// stripes and never reaches a result, so the waiver names that.
func stripeSeed() maphash.Seed {
	return maphash.MakeSeed() //lint:allow nodrift stripe placement only; no Result depends on it
}

// missingReason shows a bare directive: it suppresses nothing and is
// itself reported.
func missingReason() time.Time {
	/* want "lint:allow nodrift directive requires a non-empty reason" */ //lint:allow nodrift
	return time.Now()                                                     // want `time.Now reads the wall clock inside the deterministic scoring path`
}
