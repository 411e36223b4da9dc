package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"

	"certa"
)

// backendName is the name every served backend and ring keyspace uses.
const backendName = "AB"

// checkResults requires every result to equal the reference for its
// pair, field for field.
func checkResults(pairs []certa.Pair, want, got []*certa.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d results for %d pairs", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			return fmt.Errorf("result for %s differs from the reference", pairs[i].Key())
		}
	}
	return nil
}

// expectedBody is the exact response body a server owes for an
// explanation of p: the reference result in the wire envelope.
func expectedBody(p certa.Pair, ref *certa.Result) ([]byte, error) {
	return json.Marshal(certa.ExplainResponse{Benchmark: backendName, PairKey: p.Key(), Result: ref})
}

// checkBody requires a response body to equal the expected bytes.
func checkBody(p certa.Pair, want, got []byte) error {
	if bytes.Equal(want, got) {
		return nil
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	return fmt.Errorf("body for %s differs from the reference at byte %d of %d", p.Key(), i, len(want))
}

// firstBodies keeps the first body each pair was answered with and
// checks every later body of that pair against it, so a run can stream
// thousands of responses and hold one body per pair; verify then
// compares the kept bodies with the reference once the timing is over.
type firstBodies struct {
	bodies map[int][]byte
	err    error
}

func newFirstBodies() *firstBodies { return &firstBodies{bodies: make(map[int][]byte)} }

// see records body as pair i's answer. Callers feed it one answer at
// a time, after the phase that produced them.
func (f *firstBodies) see(pairs []certa.Pair, i int, body []byte) {
	if prev, ok := f.bodies[i]; ok {
		if err := checkBody(pairs[i], prev, body); err != nil && f.err == nil {
			f.err = fmt.Errorf("repeat answer changed: %w", err)
		}
		return
	}
	f.bodies[i] = body
}

// verify compares every kept body with the reference explanation of
// its pair; refs is index-aligned with pairs.
func (f *firstBodies) verify(pairs []certa.Pair, refs map[int]*certa.Result) error {
	if f.err != nil {
		return f.err
	}
	for i, body := range f.bodies {
		ref, ok := refs[i]
		if !ok {
			return fmt.Errorf("no reference for %s", pairs[i].Key())
		}
		want, err := expectedBody(pairs[i], ref)
		if err != nil {
			return err
		}
		if err := checkBody(pairs[i], want, body); err != nil {
			return err
		}
	}
	return nil
}
