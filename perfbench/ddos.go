package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"camus/internal/compiler"
	"camus/internal/controlplane"
	"camus/internal/lang"
	"camus/internal/pipeline"
	"camus/internal/spec"
	"camus/internal/workload"
)

const (
	ddosKeys  = 1 << 20 // distinct source addresses, Zipf 1.3 popularity
	ddosLanes = 2
	ddosBatch = 64
	// ddosWindowPkts packets arrive per 1 s window of feed time; the feed
	// is exactly one window and repeats window after window.
	ddosWindowPkts = 400000
	// ddosCapacity cells per lane bank: 8 MiB per lane, twice L2 on the
	// reference host, and over 4x the keys one lane sees in a window, so
	// no in-window cell is ever evicted.
	ddosCapacity = 1 << 17
	ddosChurn    = 101 // updates of each kind after the window
	// Set-up samples, each the mean of ddosSetupBatch set-ups.
	ddosSetupSamples = 9
	ddosSetupBatch   = 5
)

// ddosLane is one lane's share of the feed in ProcessBatchOn batches,
// with the reference decision for every packet.
type ddosLane struct {
	vals [][][]uint64
	at   [][]time.Duration
	want [][]uint8 // reference output port per packet
	keys []uint64  // flow key per packet, in lane order
}

// ddosRef is the reference: per (source, window) packet counting, with no
// compiler and no pipeline. A packet is diverted to the alert port when
// its source had already sent DDoSThreshold packets in the window.
func ddosRef(keys []uint64) []uint8 {
	seen := make(map[uint64]int, 1<<16)
	out := make([]uint8, len(keys))
	for i, k := range keys {
		if seen[k] >= workload.DDoSThreshold {
			out[i] = 2
		} else {
			out[i] = 1
		}
		seen[k]++
	}
	return out
}

// firstWrong returns the index of the first decision that differs from
// the reference (exactly one port, the reference's), or -1.
func firstWrong(res []pipeline.Result, want []uint8) int {
	for i := range res {
		if len(res[i].Ports) != 1 || res[i].Ports[0] != int(want[i]) {
			return i
		}
	}
	return -1
}

// ddosRules returns the scenario's rule source with the alert threshold
// and the forward/alert ports substituted.
func ddosRules(threshold, fwd, alert int) string {
	return fmt.Sprintf("hits[ip.src] >= %d : fwd(%d)\nhits[ip.src] < %d : fwd(%d)\ntrue : hits[ip.src] <- count()\n",
		threshold, alert, threshold, fwd)
}

func runDDoS(cfg runConfig, rep *report) error {
	sc := workload.DDoSScenario()
	sp, err := spec.Parse(sc.SpecSrc)
	if err != nil {
		return err
	}
	src := ddosRules(workload.DDoSThreshold, sc.ForwardPort, sc.AlertPort)
	pcfg := pipeline.DefaultConfig()
	pcfg.StateLanes = ddosLanes
	pcfg.StateCapacity = ddosCapacity

	// Set-up: compile the rule set and build the switch. One set-up takes
	// a few milliseconds, most of it faulting in the lanes' fresh banks, so
	// each starts with the heap returned to the operating system, as in a
	// fresh process, and a sample is the mean of ddosSetupBatch set-ups;
	// setup_s is the median sample.
	var setups []int64
	var heaps []float64
	var sw *pipeline.Switch
	var prog *compiler.Program
	var ms runtime.MemStats
	for i := 0; i < ddosSetupSamples; i++ {
		var sum int64
		for j := 0; j < ddosSetupBatch; j++ {
			sw, prog = nil, nil
			debug.FreeOSMemory()
			runtime.ReadMemStats(&ms)
			heap0 := ms.HeapAlloc
			t := nanotime()
			prog, err = compiler.CompileSource(sp, src, compiler.Options{})
			if err == nil {
				sw, err = pipeline.New(prog, pcfg)
			}
			sum += nanotime() - t
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			if j == 0 {
				runtime.GC()
				runtime.ReadMemStats(&ms)
				heaps = append(heaps, (float64(ms.HeapAlloc)-float64(heap0))/1e6)
			}
		}
		setups = append(setups, sum/ddosSetupBatch)
	}
	rep.metrics["setup_s"] = medianSeconds(setups)
	rep.metrics["heap_mb"] = median(heaps)
	rep.metrics["pipeline.table_entries"] = float64(prog.Stats.TableEntries)
	rep.metrics["compiler.bdd_nodes"] = float64(prog.Stats.BDDNodes)
	rep.metrics["compiler.groups"] = float64(len(prog.Groups))

	// The feed: one window of packets, sharded to lanes by source.
	lookup := func(name string) (int, bool) {
		i, err := prog.FieldIndex(name)
		return i, err == nil
	}
	gen := sc.NewGen(workload.ScenarioFeedConfig{Keys: ddosKeys, Skew: 1.3, Rate: ddosWindowPkts, Seed: cfg.seed}, lookup)
	lanes := make([]ddosLane, ddosLanes)
	flat := make([]uint64, ddosWindowPkts*len(prog.Fields))
	cur := make([]int, ddosLanes)
	for i := 0; i < ddosWindowPkts; i++ {
		row := flat[i*len(prog.Fields) : (i+1)*len(prog.Fields) : (i+1)*len(prog.Fields)]
		at := gen.Next(row)
		key := gen.Key(row)
		l := &lanes[key%ddosLanes]
		if cur[key%ddosLanes] == 0 {
			l.vals = append(l.vals, make([][]uint64, 0, ddosBatch))
			l.at = append(l.at, make([]time.Duration, 0, ddosBatch))
		}
		b := len(l.vals) - 1
		l.vals[b] = append(l.vals[b], row)
		l.at[b] = append(l.at[b], at)
		l.keys = append(l.keys, key)
		cur[key%ddosLanes] = (cur[key%ddosLanes] + 1) % ddosBatch
	}
	distinct := 0
	for i := range lanes {
		want := ddosRef(lanes[i].keys)
		lanes[i].want = make([][]uint8, len(lanes[i].vals))
		off := 0
		for b, v := range lanes[i].vals {
			lanes[i].want[b] = want[off : off+len(v)]
			off += len(v)
		}
		seen := make(map[uint64]struct{})
		for _, k := range lanes[i].keys {
			seen[k] = struct{}{}
		}
		distinct += len(seen)
	}
	rep.note("feed: %d packets per 1 s window over %d lanes, %d distinct sources per window (of %d), Zipf 1.3, StateCapacity %d cells per lane",
		ddosWindowPkts, ddosLanes, distinct, ddosKeys, ddosCapacity)

	// Closed loop: each lane drives its share through ProcessBatchOn,
	// window after window of feed time, checking every decision.
	window := time.Duration(workload.ScenarioWinUS) * time.Microsecond
	deadline := nanotime() + int64(cfg.seconds*float64(time.Second))
	type laneOut struct {
		pkts, wrong int64
		busy        int64
		batchNs     []int64
		spans       *spanBuf
		firstWrong  string
	}
	outs := make([]laneOut, ddosLanes)
	var gc0, gc1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&gc0)
	var wg sync.WaitGroup
	startGate := make(chan struct{})
	for l := 0; l < ddosLanes; l++ {
		outs[l].batchNs = make([]int64, 0, 1<<19)
		if cfg.trace {
			outs[l].spans = newSpanBuf(60000)
		}
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			o := &outs[l]
			ln := &lanes[l]
			res := make([]pipeline.Result, ddosBatch)
			now := make([]time.Duration, ddosBatch)
			<-startGate
			var id int64
			for cycle := 0; ; cycle++ {
				shift := time.Duration(cycle) * window
				for b, vals := range ln.vals {
					if nanotime() >= deadline {
						return
					}
					n := len(vals)
					for i, at := range ln.at[b] {
						now[i] = at + shift
					}
					t0 := nanotime()
					sw.ProcessBatchOn(l, vals, now[:n], res[:n])
					d := nanotime() - t0
					o.spans.add("pipeline.process_batch", id, -1, t0, t0+d)
					id++
					o.busy += d
					if len(o.batchNs) < cap(o.batchNs) {
						o.batchNs = append(o.batchNs, d)
					}
					if i := firstWrong(res[:n], ln.want[b]); i >= 0 {
						if o.wrong == 0 {
							o.firstWrong = fmt.Sprintf("lane %d cycle %d batch %d packet %d: ports %v, reference %d", l, cycle, b, i, res[i].Ports, ln.want[b][i])
						}
						o.wrong++
					}
					o.pkts += int64(n)
				}
			}
		}(l)
	}
	t0 := nanotime()
	close(startGate)
	wg.Wait()
	elapsed := nanotime() - t0
	runtime.ReadMemStats(&gc1)

	var pkts, wrong, busy int64
	var batchUs []float64
	for l := range outs {
		o := &outs[l]
		pkts += o.pkts
		wrong += o.wrong
		busy += o.busy
		for _, d := range o.batchNs {
			batchUs = append(batchUs, float64(d)/1e3)
		}
		if o.wrong > 0 {
			rep.fail("%s (%d batches with a wrong decision on this lane)", o.firstWrong, o.wrong)
		}
		rep.tracer.merge(o.spans)
	}
	if pkts == 0 {
		return errors.New("closed loop processed no packet")
	}
	rep.attempted = pkts
	rep.metrics["msgs_per_s"] = float64(pkts) / (float64(elapsed) / 1e9)
	rep.metrics["pipeline.state_ns_per_pkt"] = float64(busy) / float64(pkts)
	rep.metrics["runtime.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	rep.metrics["runtime.gc_pause_ms"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
	st := sw.State().Stats()
	rep.metrics["pipeline.state_cells"] = float64(st.Cells)
	rep.metrics["pipeline.state_evict_expired"] = float64(st.EvictExpired)
	if st.EvictLossy > 0 {
		rep.fail("keyed state evicted %d in-window cells: StateCapacity too small for the feed", st.EvictLossy)
	}
	rep.note("closed loop: %d packets in %.3f s, %d batch latency samples of %d packets (p50 %.1f us, p99 %.1f us, not gated); state: %d cells, %d expired evictions, %d lossy",
		pkts, float64(elapsed)/1e9, len(batchUs), ddosBatch, quantile(batchUs, 0.5), quantile(batchUs, 0.99), st.Cells, st.EvictExpired, st.EvictLossy)

	// Churn after the window: localized updates move the alert threshold
	// (the two threshold rules change), uniform updates rewrite every rule
	// (new forward and alert ports). Each is a compile plus a control
	// plane update of the live switch.
	ctl := controlplane.NewController(sw)
	ctl.Adopt(prog)
	debug.FreeOSMemory()
	var loc, uni, installs, compiles, writes []float64
	sb := rep.tracer.buf(4 * ddosChurn)
	for k := 0; k < 2*ddosChurn; k++ {
		localized := k%2 == 0
		var s string
		if localized {
			s = ddosRules(workload.DDoSThreshold+1+k, sc.ForwardPort, sc.AlertPort)
		} else {
			s = ddosRules(workload.DDoSThreshold+1+k, sc.ForwardPort+2+k%2, sc.AlertPort+2+k%2)
		}
		t0 := nanotime()
		p, err := compiler.CompileSource(sp, s, compiler.Options{})
		t1 := nanotime()
		var delta controlplane.Delta
		if err == nil {
			delta, err = ctl.Update(context.Background(), p)
		}
		t2 := nanotime()
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.fail("churn update %d: %v", k, err)
			continue
		}
		root := sb.add("churn.update", int64(k), -1, t0, t2)
		sb.add("compiler.compile", int64(k), root, t0, t1)
		sb.add("controlplane.update", int64(k), root, t1, t2)
		if localized {
			loc = append(loc, float64(t2-t0)/1e6)
		} else {
			uni = append(uni, float64(t2-t0)/1e6)
		}
		compiles = append(compiles, float64(t1-t0)/1e6)
		installs = append(installs, float64(t2-t1)/1e6)
		writes = append(writes, float64(delta.Writes()))
	}
	rep.metrics["churn_localized_ms"] = median(loc)
	rep.metrics["churn_uniform_ms"] = median(uni)
	rep.metrics["controlplane.install_ms"] = median(installs)
	rep.metrics["controlplane.delta_writes"] = median(writes)
	rep.tracer.merge(sb)

	if cfg.trace {
		traceDDoS(rep, lanes, prog, pcfg, src, median(compiles))
	}
	return nil
}

// traceDDoS measures the keyed-state engine alone on the workload's key
// sequence, the single-lane pipeline on lane 0's packets, and the parse
// of the rule set.
func traceDDoS(rep *report, lanes []ddosLane, prog *compiler.Program, pcfg pipeline.Config, src string, compileMs float64) {
	sb := newSpanBuf(40000)
	window := time.Duration(workload.ScenarioWinUS) * time.Microsecond

	// The keyed-state engine alone, in the closed loop's shape: one
	// goroutine per lane updating and reading its own share's keys, reads
	// combining across lanes as the default engine does.
	e := pipeline.NewKeyedState(ddosCapacity, false, false, nil)
	e.EnsureLanes(ddosLanes)
	slot := e.EnsureVar("hits", window)
	type laneState struct {
		upd, rd, ops int64
		spans        *spanBuf
	}
	st := make([]laneState, ddosLanes)
	var wg sync.WaitGroup
	for l := range st {
		st[l].spans = newSpanBuf(8000)
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			o, ln := &st[l], &lanes[l]
			for b := 0; b*ddosBatch < len(ln.keys); b++ {
				chunk := ln.keys[b*ddosBatch : min((b+1)*ddosBatch, len(ln.keys))]
				ats := ln.at[b]
				t0 := nanotime()
				for i, k := range chunk {
					e.Update(l, slot, k, true, 0, window, ats[i])
				}
				t1 := nanotime()
				for i, k := range chunk {
					_ = e.Read(l, slot, k, pipeline.AggCount, window, ats[i])
				}
				t2 := nanotime()
				id := int64(b*ddosLanes + l)
				o.spans.add("pipeline.state_update", id, -1, t0, t1)
				o.spans.add("pipeline.state_read", id, -1, t1, t2)
				o.upd += t1 - t0
				o.rd += t2 - t1
				o.ops += int64(len(chunk))
			}
		}(l)
	}
	wg.Wait()
	var upd, rd, ops int64
	for l := range st {
		upd += st[l].upd
		rd += st[l].rd
		ops += st[l].ops
		rep.tracer.merge(st[l].spans)
	}
	rep.metrics["pipeline.state_update_ns"] = float64(upd) / float64(ops)
	rep.metrics["pipeline.state_read_ns"] = float64(rd) / float64(ops)

	// The pipeline on one lane alone: ProcessBatch on the pre-extracted
	// values of lane 0's share.
	ln := &lanes[0]
	one := pcfg
	one.StateLanes = 1
	sw, err := pipeline.New(prog, one)
	if err != nil {
		rep.fail("pipeline.New: %v", err)
		return
	}
	res := make([]pipeline.Result, ddosBatch)
	var match int64
	t0 := nanotime()
	for b, vals := range ln.vals {
		sw.ProcessBatch(vals, ln.at[b], res[:len(vals)])
	}
	match = nanotime() - t0
	rep.metrics["pipeline.match_ns_per_msg"] = float64(match) / float64(len(ln.keys))

	var parses []float64
	for i := 0; i < 21; i++ {
		t := nanotime()
		if _, err := lang.ParseRules(src); err != nil {
			rep.fail("lang.ParseRules: %v", err)
		}
		parses = append(parses, float64(nanotime()-t)/1e6)
	}
	rep.metrics["lang.parse_ms"] = median(parses)
	rep.metrics["compiler.compile_ms"] = compileMs
	rep.tracer.merge(sb)

	for _, k := range []string{
		"dataplane.lane_ns_per_dgram", "dataplane.egress_ns_per_dgram", "dataplane.frame_ns_per_dgram",
		"dataplane.writes_per_dgram", "dataplane.group_encodes_per_dgram", "dataplane.group_sends_per_dgram",
		"dataplane.allocs_per_dgram", "dataplane.queue_us_p50", "dataplane.queue_us_p99", "dataplane.service_us_p50",
		"dataplane.lane_imbalance", "dataplane.churn_stall_us_max", "core.ns_per_dgram", "itch.decode_ns_per_msg",
		"pipeline.ports_per_msg",
	} {
		rep.metrics[k] = 0 // no ITCH data plane on this workload
	}

	lane := rep.metrics["pipeline.state_ns_per_pkt"]
	state := rep.metrics["pipeline.state_update_ns"] + rep.metrics["pipeline.state_read_ns"]
	rep.tracer.breakdown = []share{
		{"pipeline.state (update+read)", state, "ns/pkt", 100 * state / lane, "replayed outside, two lanes: KeyedState.Update + Read"},
		{"pipeline.match (rest)", lane - state, "ns/pkt", 100 * (lane - state) / lane, "derived: ProcessBatchOn - state"},
		{"pipeline lane (total)", lane, "ns/pkt", 100, "measured: ProcessBatchOn per packet per lane, closed loop"},
	}
}
