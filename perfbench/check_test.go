package main

import (
	"strings"
	"sync"
	"testing"

	"camus/internal/itch"
	"camus/internal/pipeline"
)

// The self-test: the checks pass on a clean verification pass of the
// itch-fanout switch and fail when a single delivery is corrupted.

var (
	fanoutOnce sync.Once
	fanoutIn   *itchInputs
)

func fanoutInputs() *itchInputs {
	fanoutOnce.Do(func() { fanoutIn = genITCH(fanoutShape, 1) })
	return fanoutIn
}

// verifyRun runs one verification pass through a fresh switch, with
// mangle applied to every egress frame, and returns the checks' report.
func verifyRun(t *testing.T, mangle func([]byte) [][]byte) *report {
	t.Helper()
	rep := newReport(false)
	rig, _, err := listen(fanoutInputs(), func() *spanBuf { return nil })
	if err != nil {
		t.Fatal(err)
	}
	rig.conns[0].mangle = mangle
	rig.run()
	rig.verifyPass(rep)
	if err := rig.stop(); err != nil {
		t.Fatal(err)
	}
	checkStreams(rep, rig, true)
	return rep
}

// nth returns a mangle that applies fn to the n-th data frame only.
func nth(n int, fn func([]byte) [][]byte) func([]byte) [][]byte {
	seen := 0
	return func(b []byte) [][]byte {
		if len(b) > itch.MoldHeaderLen && b[18] != 0xFF {
			seen++
			if seen == n {
				return fn(b)
			}
		}
		return [][]byte{b}
	}
}

func TestCleanPassIsCorrect(t *testing.T) {
	if rep := verifyRun(t, nil); len(rep.problems) > 0 {
		t.Fatalf("clean run reported problems: %v", rep.problems)
	}
}

func TestCorruptedDeliveryIsCaught(t *testing.T) {
	cases := map[string]func([]byte) [][]byte{
		// One byte of one forwarded message changes (the price field).
		"flipped byte": func(b []byte) [][]byte {
			c := append([]byte(nil), b...)
			c[itch.MoldHeaderLen+2+32] ^= 0x01
			return [][]byte{c}
		},
		// One frame never reaches its subscriber.
		"dropped frame": func([]byte) [][]byte { return nil },
		// One frame reaches its subscriber twice.
		"duplicated frame": func(b []byte) [][]byte { return [][]byte{b, b} },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			rep := verifyRun(t, nth(5000, fn))
			if len(rep.problems) == 0 {
				t.Fatal("corrupted delivery passed every check")
			}
			t.Logf("caught: %s", strings.Join(rep.problems, "; "))
		})
	}
}

func TestWrongPortIsCaught(t *testing.T) {
	rep := newReport(false)
	in := fanoutInputs()
	p := &phase{kind: phaseVerify, n: 1, served: 1, recs: []dgramRec{{g: 0}}, sets: make([]portSet, msgsPerDgram)}
	copy(p.sets, in.want[:msgsPerDgram])
	checkSets(rep, in, p, nil, nil, "exact sets")
	if len(rep.problems) > 0 {
		t.Fatalf("reference sets rejected: %v", rep.problems)
	}
	// Deliver the first message to one extra port.
	extra := 1
	for p.sets[0].has(extra) {
		extra++
	}
	p.sets[0].add(extra)
	checkSets(rep, in, p, nil, nil, "exact sets")
	if len(rep.problems) == 0 {
		t.Fatal("message delivered to a port outside its reference set passed")
	}
}

func TestWrongDecisionIsCaught(t *testing.T) {
	want := ddosRef([]uint64{7, 7, 7})
	res := make([]pipeline.Result, len(want))
	for i, w := range want {
		res[i] = pipeline.Result{Ports: []int{int(w)}}
	}
	if i := firstWrong(res, want); i != -1 {
		t.Fatalf("reference decisions rejected at %d", i)
	}
	res[1] = pipeline.Result{Ports: []int{2}}
	if i := firstWrong(res, want); i != 1 {
		t.Fatalf("corrupted decision: firstWrong = %d, want 1", i)
	}
}
