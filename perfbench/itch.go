package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"camus/internal/compiler"
	"camus/internal/core"
	"camus/internal/dataplane"
	"camus/internal/itch"
	"camus/internal/lang"
	"camus/internal/workload"
)

// itchShape is one ITCH workload's make-up.
type itchShape struct {
	stocks      int     // symbols the subscriptions name
	feedSymbols int     // symbols the feed carries (plus the unsubscribed GOOGL)
	lanes       int     // switch worker lanes
	rate        float64 // open-loop mean ingress datagrams per second
	churn       bool    // apply SetSubscriptions events while traffic flows
	idleChurn   int     // otherwise: updates applied after the windows
}

var (
	fanoutShape    = itchShape{stocks: 100, feedSymbols: 100, lanes: 1, rate: 4000, idleChurn: 10}
	selectiveShape = itchShape{stocks: 800, feedSymbols: 8000, lanes: 2, rate: 40000, idleChurn: 4}
	churnShape     = itchShape{stocks: 100, feedSymbols: 100, lanes: 1, rate: 2000, churn: true}
)

const (
	subscriptions = 10000
	hosts         = 200
	msgsPerDgram  = 4
	// portBase maps a switch port to its egress address 127.0.0.1:portBase+port;
	// the in-memory Conn maps it back. Nothing listens there: no egress
	// frame leaves the process.
	portBase = 20000
	// priceScale converts the generator's dollar thresholds to the ITCH
	// fixed-point unit the feed carries prices in.
	priceScale = 10000
	// Churn-live event schedule inside each live phase: the first event
	// churnFirst after the phase starts, then one every churnEvery, none
	// starting in the phase's last churnTail. A 10k-rule update stalls
	// the lane for its whole compile and slows it while the collector
	// catches up; the gap, with churn-live's low open-loop rate (fast
	// drain), keeps the share of disturbed datagrams near a fifth even
	// on a slow host: the median stays on undisturbed datagrams and the
	// 99th percentile inside a stall.
	churnFirst = 500 * time.Millisecond
	churnEvery = 5000 * time.Millisecond
	churnTail  = 1500 * time.Millisecond
	// openSegment is the stretch of the feed's arrivals the open loop
	// repeats on the workloads without live churn.
	openSegment = time.Second
	// tracedSample: one datagram in tracedSample has its egress writes
	// timed in a traced closed loop.
	tracedSample = 8
	// replaySpans: datagrams of the outside core replay recorded as spans.
	replaySpans = 10000
	// closedSlice: the closed loop's measuring slice on the workloads
	// without live churn.
	closedSlice = time.Second
)

// itchInputs is everything generated from the seed before the switch
// starts: the rule set, the feed and the reference deliveries.
type itchInputs struct {
	shape  itchShape
	rules  []lang.Rule
	src    string
	wires  [][]byte
	at     []int64 // feed arrival time per datagram, ns
	fields [][msgsPerDgram]msgFields
	want   []portSet // reference ports per message (datagram*4 + m)
	parts  [][]int32 // per lane: global datagram indexes it receives
}

func genITCH(shape itchShape, seed int64) *itchInputs {
	in := &itchInputs{shape: shape}
	subsCfg := workload.DefaultITCHSubsConfig()
	subsCfg.Subscriptions = subscriptions
	subsCfg.Stocks = shape.stocks
	subsCfg.Hosts = hosts
	subsCfg.Seed = seed
	in.rules = workload.ITCHSubscriptions(subsCfg)
	for i := range in.rules {
		in.rules[i].Cond = scalePrices(in.rules[i].Cond)
	}
	in.src = renderRules(in.rules)

	feedCfg := workload.SyntheticFeedConfig()
	feedCfg.Symbols = shape.feedSymbols
	feedCfg.MsgsPerPacket = msgsPerDgram
	// The feed keeps the preset's own seed: its Pareto bursts and
	// per-symbol price levels would otherwise dominate the spread of the
	// latency tail and the fan-out from seed to seed. --seed draws the
	// subscriptions and the churn events.
	feed := workload.GenerateFeed(feedCfg)
	in.wires = make([][]byte, len(feed))
	in.at = make([]int64, len(feed))
	in.fields = make([][msgsPerDgram]msgFields, len(feed))
	ref := newRefEval(in.rules)
	in.want = make([]portSet, len(feed)*msgsPerDgram)
	for i, p := range feed {
		in.wires[i] = workload.WirePacket(p, "BENCH", uint64(1+i*msgsPerDgram))
		in.at[i] = int64(p.At)
		for m := range p.Orders {
			o := &p.Orders[m]
			f := msgFields{stock: o.StockSymbol(), price: uint64(o.Price), shares: uint64(o.Shares)}
			in.fields[i][m] = f
			in.want[i*msgsPerDgram+m] = ref.ports(f)
		}
	}
	in.parts = make([][]int32, shape.lanes)
	for i, w := range in.wires {
		lane := 0
		if shape.lanes > 1 {
			// The publisher keeps each instrument on its own flow and the
			// kernel hash lands a flow on one lane socket: modelled as the
			// first message's stock locate mod lanes.
			if loc, ok := itch.FirstAddOrderLocate(w); ok {
				lane = int(loc) % shape.lanes
			}
		}
		in.parts[lane] = append(in.parts[lane], int32(i))
	}
	return in
}

// scalePrices rewrites "price OP P" thresholds from dollars to the feed's
// fixed-point unit.
func scalePrices(e lang.Expr) lang.Expr {
	switch x := e.(type) {
	case lang.And:
		return lang.And{L: scalePrices(x.L), R: scalePrices(x.R)}
	case lang.Or:
		return lang.Or{L: scalePrices(x.L), R: scalePrices(x.R)}
	case lang.Not:
		return lang.Not{X: scalePrices(x.X)}
	case lang.Cmp:
		if fieldName(x.LHS.Field) == "price" && x.RHS.Kind == lang.ValNumber {
			x.RHS = lang.Number(x.RHS.Num * priceScale)
		}
		return x
	}
	return e
}

func renderRules(rules []lang.Rule) string {
	var b strings.Builder
	for _, r := range rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// churnEvent is one SetSubscriptions update: its kind, the rule set it
// installs and that set's reference.
type churnEvent struct {
	localized bool
	src       string
	ref       *refEval
}

// genChurn derives n successive rule-set versions from base, alternating
// localized (every rule of one symbol replaced, ~1%) and uniform (1% of
// rules drawn at random replaced) updates.
func genChurn(base []lang.Rule, stocks int, n int, seed int64) []churnEvent {
	r := rand.New(rand.NewSource(seed*7 + 3))
	cur := base
	out := make([]churnEvent, n)
	fresh := func(id int, stock string) lang.Rule {
		price := uint64(10*(1+r.Intn(98))) * priceScale
		return lang.Rule{
			ID: id,
			Cond: lang.And{
				L: lang.Cmp{LHS: lang.Operand{Field: "stock"}, Op: lang.OpEq, RHS: lang.Symbol(stock)},
				R: lang.Cmp{LHS: lang.Operand{Field: "price"}, Op: lang.OpGt, RHS: lang.Number(price)},
			},
			Actions: []lang.Action{lang.Fwd(1 + r.Intn(hosts))},
		}
	}
	for k := 0; k < n; k++ {
		next := append([]lang.Rule(nil), cur...)
		ev := churnEvent{localized: k%2 == 0}
		if ev.localized {
			sym := workload.StockSymbol(r.Intn(stocks))
			for i := range next {
				if s, _ := stockConjunct(next[i].Cond); s == sym {
					next[i] = fresh(i, sym)
				}
			}
		} else {
			for j := 0; j < len(next)/100; j++ {
				i := r.Intn(len(next))
				next[i] = fresh(i, workload.StockSymbol(r.Intn(stocks)))
			}
		}
		ev.src, ev.ref = renderRules(next), newRefEval(next)
		out[k] = ev
		cur = next
	}
	return out
}

// phaseKind is what a lane's in-memory ingress serves.
type phaseKind int

const (
	phaseVerify phaseKind = iota // every datagram of the lane's share once, deliveries recorded
	phaseClosed                  // back to back until a deadline
	phaseOpen                    // on a schedule, whatever the lane's backlog
)

// dgramRec is one served datagram's timeline.
type dgramRec struct {
	g      int32 // global datagram index
	writes int32
	due    int64 // scheduled arrival (open loop)
	read   int64 // returned from ReadFromUDP
	last   int64 // last egress write
	done   int64 // the lane's next read call
}

// phase is one lane's share of a measurement phase. The lane goroutine
// owns it from the start handoff until it parks.
type phase struct {
	kind     phaseKind
	n        int     // datagrams to serve (verify, open)
	deadline int64   // closed loop end
	t0       int64   // open loop origin
	sched    []int64 // open loop offsets from t0
	order    []int32 // open loop: position in the lane's share of each arrival
	timed    bool    // timestamp every egress write
	sample   int     // closed loop, traced: time the writes of one datagram in sample
	record   bool    // record the delivered message sets
	recs     []dgramRec
	sets     []portSet // record: per served datagram, msgsPerDgram sets
	served   int

	// closed-loop accumulators
	writes   int64
	laneNs   int64 // traced: every datagram
	egressNs int64 // traced: the sampled datagrams
	sampled  int64
}

// portTrack checks one port's MoldUDP64 stream: every frame must carry
// the next sequence number (dense, no gap, no repeat). With several lanes
// writing to one port, frames whose sequence was assigned in order may
// reach the socket out of order; they wait in pending until the gap
// before them closes.
type portTrack struct {
	mu      sync.Mutex
	next    uint64
	msgs    uint64
	bad     uint64
	pending map[uint64]uint64
	_       [24]byte
}

// sink is the egress side shared by every lane's Conn.
type sink struct {
	shared bool // several lanes write to one port
	ports  []portTrack
	stray  [3]uint64 // frames too short, to unknown ports, outside a datagram
}

func newSink(shared bool) *sink {
	s := &sink{shared: shared, ports: make([]portTrack, hosts+1)}
	for i := range s.ports {
		s.ports[i].next = 1
		if shared {
			s.ports[i].pending = make(map[uint64]uint64)
		}
	}
	return s
}

func (s *sink) track(port int, seq, count uint64) {
	t := &s.ports[port]
	if !s.shared {
		if seq != t.next {
			t.bad++
		}
		t.next = seq + count
		t.msgs += count
		return
	}
	t.mu.Lock()
	t.msgs += count
	switch {
	case seq == t.next:
		t.next += count
		for {
			c, ok := t.pending[t.next]
			if !ok {
				break
			}
			delete(t.pending, t.next)
			t.next += c
		}
	case seq > t.next:
		if _, dup := t.pending[seq]; dup {
			t.bad++
		}
		t.pending[seq] = count
	default:
		t.bad++
	}
	t.mu.Unlock()
}

// laneConn is one lane's ingress socket, replaced in memory through
// dataplane.Config.WrapConn: ReadFromUDP serves the benchmark's datagrams
// as the current phase dictates and WriteToUDP receives the lane's egress
// frames, checks each port's sequence and timestamps them. The real
// socket it wraps is kept only for its address, deadline and close.
type laneConn struct {
	inner dataplane.Conn
	in    *itchInputs
	sink  *sink
	lane  int
	part  []int32
	raddr *net.UDPAddr

	start   chan *phase
	parked  chan<- int
	closing <-chan struct{}

	ph     *phase
	cursor int      // position in part of the next datagram
	times  []uint32 // how often each datagram of part was served, all phases
	total  int64    // datagrams served, all phases

	// the datagram in flight
	slot   int // index within the phase, -1 when none
	cur    int32
	readAt int64
	first  int64
	last   int64
	nw     int32
	timed  bool // stamp this datagram's egress writes

	bad   uint64 // frames that do not belong to the datagram in flight
	spans *spanBuf

	// mangle, when set, replaces each egress frame with the frames the
	// checks see instead (none drops it, two duplicate it): the
	// self-test's corrupted delivery.
	mangle func([]byte) [][]byte
}

func (c *laneConn) ReadFromUDP(b []byte) (int, *net.UDPAddr, error) {
	now := nanotime()
	c.finish(now)
	p := c.ph
	for {
		if p != nil {
			if p.kind == phaseClosed {
				if now < p.deadline {
					break
				}
			} else if p.served < p.n {
				break
			}
			c.ph = nil
			c.parked <- c.lane
		}
		select {
		case p = <-c.start:
			c.ph = p
			now = nanotime()
		case <-c.closing:
			return 0, nil, net.ErrClosed
		}
	}
	var k int
	if p.order != nil {
		k = int(p.order[p.served])
	} else {
		k = c.cursor % len(c.part)
		c.cursor++
	}
	g := c.part[k]
	c.times[k]++
	c.total++
	if p.kind == phaseOpen {
		due := p.t0 + p.sched[p.served]
		// Sleep through long gaps, then spin: a timer wakes up late by
		// up to a few milliseconds on a busy host, a spin by about a yield.
		for now < due {
			if due-now > 8_000_000 {
				time.Sleep(time.Duration(due - now - 5_000_000))
			} else {
				runtime.Gosched()
			}
			now = nanotime()
		}
		p.recs[p.served].due = due
	}
	if p.recs != nil {
		p.recs[p.served].g = g
		p.recs[p.served].read = now
	}
	c.slot, c.cur, c.readAt, c.nw = p.served, g, now, 0
	c.timed = p.timed && (p.sample == 0 || p.served%p.sample == 0)
	p.served++
	return copy(b, c.in.wires[g]), c.raddr, nil
}

// finish closes the record of the datagram in flight: the lane has
// come back for the next one, so every egress frame of it is written.
func (c *laneConn) finish(now int64) {
	if c.slot < 0 {
		return
	}
	p := c.ph
	if p.recs != nil {
		r := &p.recs[c.slot]
		r.last, r.done, r.writes = c.last, now, c.nw
	}
	p.writes += int64(c.nw)
	if p.kind == phaseClosed && p.timed {
		p.laneNs += now - c.readAt
	}
	if p.kind == phaseClosed && c.timed {
		p.sampled++
		var eg int32 = -1
		if c.nw > 0 {
			p.egressNs += c.last - c.first
			eg = c.spans.add("dataplane.egress", c.spanID(), -1, c.first, c.last)
		}
		ln := c.spans.add("dataplane.lane", c.spanID(), -1, c.readAt, now)
		c.spans.setParent(eg, ln)
	}
	c.slot = -1
}

// spanID names the datagram in flight: its serial number across lanes.
func (c *laneConn) spanID() int64 { return (c.total-1)*int64(c.in.shape.lanes) + int64(c.lane) }

func (c *laneConn) WriteToUDP(b []byte, addr *net.UDPAddr) (int, error) {
	if c.mangle != nil {
		for _, f := range c.mangle(b) {
			c.deliver(f, addr)
		}
	} else {
		c.deliver(b, addr)
	}
	return len(b), nil
}

// deliver checks and records one egress frame.
func (c *laneConn) deliver(b []byte, addr *net.UDPAddr) {
	if len(b) < itch.MoldHeaderLen {
		c.sink.stray[0]++
		return
	}
	count := binary.BigEndian.Uint16(b[18:20])
	if count == itch.EndOfSessionCount {
		return
	}
	port := addr.Port - portBase
	if port <= 0 || port > hosts {
		c.sink.stray[1]++
		return
	}
	c.sink.track(port, binary.BigEndian.Uint64(b[10:18]), uint64(count))
	p := c.ph
	if p == nil || c.slot < 0 {
		c.sink.stray[2]++
		return
	}
	if c.timed {
		now := nanotime()
		if c.nw == 0 {
			c.first = now
		}
		c.last = now
	}
	c.nw++
	if p.record {
		c.recordFrame(p, port, b[itch.MoldHeaderLen:], int(count))
	}
}

// recordFrame adds port to the delivered set of every message the frame
// carries. A message must belong to the datagram in flight (its order
// reference says which feed message it is) and, in the verification pass,
// equal the ingress bytes exactly.
func (c *laneConn) recordFrame(p *phase, port int, body []byte, count int) {
	for k := 0; k < count; k++ {
		if len(body) < 2 {
			c.bad++
			return
		}
		ln := int(binary.BigEndian.Uint16(body))
		if len(body) < 2+ln || ln < 19 {
			c.bad++
			return
		}
		msg := body[2 : 2+ln]
		body = body[2+ln:]
		gm := int(binary.BigEndian.Uint64(msg[11:19])) - 1
		if gm < 0 || gm/msgsPerDgram != int(c.cur) {
			c.bad++
			continue
		}
		m := gm % msgsPerDgram
		if p.kind == phaseVerify && !bytes.Equal(msg, ingressMsg(c.in.wires[c.cur], m)) {
			c.bad++
			continue
		}
		p.sets[c.slot*msgsPerDgram+m].add(port)
	}
}

// ingressMsg slices message m out of a generated MoldUDP64 datagram.
func ingressMsg(wire []byte, m int) []byte {
	off := itch.MoldHeaderLen
	for k := 0; k < m; k++ {
		off += 2 + int(binary.BigEndian.Uint16(wire[off:]))
	}
	ln := int(binary.BigEndian.Uint16(wire[off:]))
	return wire[off+2 : off+2+ln]
}

func (c *laneConn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }
func (c *laneConn) Close() error                      { return c.inner.Close() }
func (c *laneConn) LocalAddr() net.Addr               { return c.inner.LocalAddr() }

// itchRig is a running switch with its in-memory lanes.
type itchRig struct {
	in      *itchInputs
	sw      *dataplane.Switch
	conns   []*laneConn
	sink    *sink
	parked  chan int
	closing chan struct{}
	runErr  chan error
}

// listen builds a switch over fresh in-memory lanes. Only Listen itself
// is timed by the caller.
func listen(in *itchInputs, spans func() *spanBuf) (*itchRig, time.Duration, error) {
	rig := &itchRig{
		in:      in,
		sink:    newSink(in.shape.lanes > 1),
		parked:  make(chan int, in.shape.lanes),
		closing: make(chan struct{}),
	}
	ports := make(map[int]string, hosts)
	for h := 1; h <= hosts; h++ {
		ports[h] = fmt.Sprintf("127.0.0.1:%d", portBase+h)
	}
	mode := dataplane.IngressShared
	if in.shape.lanes > 1 {
		mode = dataplane.IngressReusePort
	}
	wrap := func(c dataplane.Conn) dataplane.Conn {
		// Listen wraps the ingress sockets in lane order, then the
		// retransmission socket, which stays real (and idle).
		if len(rig.conns) == in.shape.lanes {
			return c
		}
		lc := &laneConn{
			inner:   c,
			in:      in,
			sink:    rig.sink,
			lane:    len(rig.conns),
			part:    in.parts[len(rig.conns)],
			raddr:   &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1},
			start:   make(chan *phase, 1),
			parked:  rig.parked,
			closing: rig.closing,
			slot:    -1,
			times:   make([]uint32, len(in.parts[len(rig.conns)])),
			spans:   spans(),
		}
		rig.conns = append(rig.conns, lc)
		return lc
	}
	t := time.Now()
	sw, err := dataplane.Listen(dataplane.Config{
		Spec:          workload.ITCHSpec(),
		Subscriptions: in.src,
		Ports:         ports,
		Workers:       in.shape.lanes,
		IngressMode:   mode,
		WrapConn:      wrap,
	})
	d := time.Since(t)
	if err != nil {
		return nil, 0, err
	}
	if sw.IngressMode() != mode {
		sw.Close()
		return nil, 0, fmt.Errorf("ingress mode %s, want %s", sw.IngressMode(), mode)
	}
	rig.sw = sw
	return rig, d, nil
}

func (rig *itchRig) run() {
	rig.runErr = make(chan error, 1)
	go func() { rig.runErr <- rig.sw.Run(context.Background()) }()
}

// phase hands each lane its share and waits until every lane has parked,
// i.e. has come back for a datagram after finishing its last one.
func (rig *itchRig) phase(ps []*phase, during func()) {
	for i, c := range rig.conns {
		c.start <- ps[i]
	}
	if during != nil {
		during()
	}
	for range rig.conns {
		<-rig.parked
	}
}

func (rig *itchRig) stop() error {
	close(rig.closing)
	err := rig.sw.Close()
	if rig.runErr != nil {
		if rerr := <-rig.runErr; rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// verifyPass has each lane serve its whole share of the feed once and
// compares every delivered message set with the reference.
func (rig *itchRig) verifyPass(rep *report) {
	in := rig.in
	ps := make([]*phase, len(rig.conns))
	for l := range ps {
		n := len(in.parts[l])
		ps[l] = &phase{kind: phaseVerify, n: n, record: true, recs: make([]dgramRec, n), sets: make([]portSet, n*msgsPerDgram)}
	}
	rig.phase(ps, nil)
	for l, p := range ps {
		checkSets(rep, in, p, nil, nil, fmt.Sprintf("verification pass lane %d", l))
	}
}

// openSchedule lays out a lane's open-loop arrivals for dur as
// back-to-back repetitions of one segment, each segDur long: the longest
// prefix of the lane's share whose arrivals fit segDur, at the feed's own
// arrival times stretched so the whole feed (every lane) would arrive at
// rate datagrams per second. It returns each arrival's offset from the
// phase start and the position in part it serves.
func openSchedule(in *itchInputs, part []int32, rate float64, segDur, dur time.Duration) (sched []int64, order []int32) {
	n := len(in.at)
	stretch := float64(in.at[n-1]-in.at[0]) / float64(n-1) * rate / 1e9 // feed gap over scheduled gap
	offset := func(j int) int64 { return int64(float64(in.at[part[j]]-in.at[part[0]]) / stretch) }
	segLen := len(part)
	for j := range part {
		if offset(j) >= int64(segDur) {
			segLen = j
			break
		}
	}
	for k := 0; ; k++ {
		r, j := k/segLen, k%segLen
		off := int64(r)*int64(segDur) + offset(j)
		if off >= int64(dur) {
			return sched, order
		}
		sched = append(sched, off)
		order = append(order, int32(j))
	}
}

// runITCH is the itch-fanout, itch-selective and churn-live workload.
func runITCH(shape itchShape, cfg runConfig, rep *report) error {
	in := genITCH(shape, cfg.seed)
	nEvents := 0
	if shape.churn {
		// Enough versions for both live phases' schedules.
		nEvents = 2 * (int(cfg.seconds*float64(time.Second)/float64(churnEvery)) + 1)
	} else {
		nEvents = shape.idleChurn
	}
	events := genChurn(in.rules, shape.stocks, nEvents, cfg.seed)
	shapeNotes(in, rep)

	// Set-up: Listen with the workload's rule set, repeated, each from a
	// heap returned to the operating system as in a fresh process; all but
	// the last switch are closed again.
	reps := 3
	if cfg.trace {
		reps = 1
	}
	var setups []int64
	var heaps []float64
	var rig *itchRig
	var ms runtime.MemStats
	spanBudget := 0
	if cfg.trace {
		spanBudget = 120000 / shape.lanes
	}
	for i := 0; i < reps; i++ {
		debug.FreeOSMemory()
		runtime.ReadMemStats(&ms)
		heap0 := ms.HeapAlloc
		r, d, err := listen(in, func() *spanBuf {
			if spanBudget == 0 {
				return nil
			}
			return newSpanBuf(spanBudget)
		})
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		setups = append(setups, int64(d))
		heaps = append(heaps, (float64(ms.HeapAlloc)-float64(heap0))/1e6)
		if i < reps-1 {
			close(r.closing)
			r.sw.Close()
		}
		rig = r
	}
	rep.metrics["setup_s"] = medianSeconds(setups)
	rep.metrics["heap_mb"] = median(heaps)
	prog := rig.sw.Program()
	rep.metrics["pipeline.table_entries"] = float64(prog.Stats.TableEntries)
	rep.metrics["compiler.bdd_nodes"] = float64(prog.Stats.BDDNodes)
	rep.metrics["compiler.groups"] = float64(len(prog.Groups))
	rep.note("program: %d table entries, %d BDD nodes, %d multicast groups", prog.Stats.TableEntries, prog.Stats.BDDNodes, len(prog.Groups))

	rig.run()
	lanes := shape.lanes
	// The gated workloads give the whole run to the closed loop. The open
	// loop, which carries the ungated latency, runs on churn-live (two
	// thirds of the run) and in the traced run (half, for the queue and
	// service figures).
	closedDur := time.Duration(cfg.seconds * float64(time.Second))
	switch {
	case shape.churn:
		closedDur /= 3
	case cfg.trace:
		closedDur /= 2
	}
	openDur := time.Duration(cfg.seconds*float64(time.Second)) - closedDur
	version := 0 // rule-set version installed: 0 initial, k after event k
	var applied []appliedEvent

	// 1. Verification pass, outside the timed windows (it also warms
	// every one-time structure).
	rig.verifyPass(rep)

	var gc0, gc1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&gc0)

	// 2. Closed loop: each lane reads its next datagram only after
	// finishing the last. It runs in slices of closedSlice and msgs_per_s
	// is the median slice's rate, so a burst of lost host time moves one
	// slice, not the figure; under live churn it is one slice through the
	// events.
	slices := 1
	if !shape.churn && closedDur >= 2*closedSlice {
		slices = int(closedDur / closedSlice)
	}
	sliceDur := closedDur / time.Duration(slices)
	stats0 := rig.sw.LaneStats()
	m0 := rig.metrics()
	var a0, a1 runtime.MemStats
	runtime.ReadMemStats(&a0)
	var served, writes, laneNs, egressNs, sampled int64
	var rates []float64
	var t0 int64
	var during func()
	if shape.churn {
		during = func() {
			applied = append(applied, churnDuring(rig, events, &version, t0, t0+int64(closedDur), rep)...)
		}
	}
	start := nanotime()
	for k := 0; k < slices; k++ {
		cps := make([]*phase, lanes)
		t0 = nanotime()
		for l := range cps {
			// A traced closed loop times every datagram's lane visit but the
			// egress writes of one datagram in tracedSample only.
			cps[l] = &phase{kind: phaseClosed, deadline: t0 + int64(sliceDur), timed: cfg.trace, sample: tracedSample}
		}
		rig.phase(cps, during)
		el := nanotime() - t0
		var n int64
		for _, p := range cps {
			n += int64(p.served)
			writes += p.writes
			laneNs += p.laneNs
			egressNs += p.egressNs
			sampled += p.sampled
		}
		served += n
		rates = append(rates, float64(n*msgsPerDgram)/(float64(el)/1e9))
	}
	elapsed := nanotime() - start
	runtime.ReadMemStats(&a1)
	if served == 0 {
		return errors.New("closed loop served no datagram")
	}
	rep.metrics["msgs_per_s"] = median(rates)
	m1 := rig.metrics()
	fs := float64(served)
	rep.metrics["dataplane.writes_per_dgram"] = float64(writes) / fs
	rep.metrics["dataplane.group_encodes_per_dgram"] = float64(m1.encodes-m0.encodes) / fs
	rep.metrics["dataplane.group_sends_per_dgram"] = float64(m1.sends-m0.sends) / fs
	rep.metrics["dataplane.allocs_per_dgram"] = float64(a1.Mallocs-a0.Mallocs) / fs
	rep.metrics["dataplane.lane_ns_per_dgram"] = float64(laneNs) / fs
	if sampled > 0 {
		rep.metrics["dataplane.egress_ns_per_dgram"] = float64(egressNs) / float64(sampled)
	}
	stats1 := rig.sw.LaneStats()
	var busiest, total uint64
	for l := range stats1 {
		d := stats1[l].Datagrams - stats0[l].Datagrams
		total += d
		if d > busiest {
			busiest = d
		}
	}
	rep.metrics["dataplane.lane_imbalance"] = float64(busiest) * float64(lanes) / float64(total)
	rep.note("closed loop: %d datagrams in %.3f s on %d lane(s), %.1f egress writes per datagram; %d slices, %.0f..%.0f msg/s",
		served, float64(elapsed)/1e9, lanes, float64(writes)/fs, slices, minOf(rates), maxOf(rates))

	// 3. Open loop at the workload's fixed rate: repetitions of the
	// feed's first openSegment of arrivals (on churn-live, of one churn
	// period), so every run of a seed offers the same arrivals and the
	// feed's rare largest bursts, whose queues grow with any slowdown of
	// the host, do not decide the median.
	if openDur > 0 {
		ops := make([]*phase, lanes)
		t0 = nanotime() + int64(time.Millisecond)
		segDur := openSegment
		if shape.churn {
			segDur = churnEvery
		}
		for l := range ops {
			sched, order := openSchedule(in, in.parts[l], shape.rate, segDur, openDur)
			n := len(sched)
			ops[l] = &phase{kind: phaseOpen, n: n, t0: t0, sched: sched, order: order, timed: true, recs: make([]dgramRec, n), record: shape.churn}
			if shape.churn {
				ops[l].sets = make([]portSet, n*msgsPerDgram)
			}
		}
		first := len(applied)
		during = nil
		if shape.churn {
			during = func() {
				applied = append(applied, churnDuring(rig, events, &version, t0, t0+int64(openDur), rep)...)
			}
		}
		rig.phase(ops, during)
		openLatency(rep, ops, applied[first:])
		if shape.churn {
			for l, p := range ops {
				checkSets(rep, in, p, events, applied, fmt.Sprintf("churn open loop lane %d", l))
			}
		}
	}
	runtime.ReadMemStats(&gc1)
	rep.metrics["runtime.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	rep.metrics["runtime.gc_pause_ms"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6

	// 4. Churn on the idle switch for the workloads without live churn.
	// Each update starts from a collected heap, so the garbage collector
	// does the same work in every one.
	if !shape.churn {
		for version < len(events) {
			runtime.GC()
			applied = append(applied, applyEvent(rig, events, &version, rep))
		}
	}
	var loc, uni []float64
	for _, a := range applied {
		if a.localized {
			loc = append(loc, float64(a.end-a.start)/1e6)
		} else {
			uni = append(uni, float64(a.end-a.start)/1e6)
		}
	}
	rep.metrics["churn_localized_ms"] = median(loc)
	rep.metrics["churn_uniform_ms"] = median(uni)
	rep.note("churn: %d localized, %d uniform SetSubscriptions events", len(loc), len(uni))

	decodeErrs := rig.sw.Metric("camus_dataplane_decode_errors_total")
	sendErrs := rig.sw.Metric("camus_dataplane_send_errors_total")
	for _, c := range rig.conns {
		rep.attempted += c.total
	}
	rep.attempted += int64(len(applied))
	rep.failed += int64(decodeErrs + sendErrs)
	if err := rig.stop(); err != nil {
		return fmt.Errorf("switch run: %w", err)
	}
	checkStreams(rep, rig, !shape.churn)

	if cfg.trace {
		traceITCH(rep, in, events, applied, rig)
	} else {
		for _, c := range rig.conns {
			rep.tracer.merge(c.spans)
		}
	}
	return nil
}

// appliedEvent is one SetSubscriptions call as it happened.
type appliedEvent struct {
	version    int // version installed by the call
	localized  bool
	start, end int64
}

func applyEvent(rig *itchRig, events []churnEvent, version *int, rep *report) appliedEvent {
	ev := events[*version]
	a := appliedEvent{version: *version + 1, localized: ev.localized, start: nanotime()}
	err := rig.sw.SetSubscriptions(ev.src)
	a.end = nanotime()
	if err != nil {
		rep.failed++
		rep.fail("SetSubscriptions version %d: %v", a.version, err)
	} else {
		*version++
	}
	return a
}

// churnDuring applies events on the live switch while a phase runs, on
// the churnFirst/churnEvery/churnTail schedule.
func churnDuring(rig *itchRig, events []churnEvent, version *int, start, end int64, rep *report) []appliedEvent {
	var out []appliedEvent
	for k := 0; *version < len(events); k++ {
		at := start + int64(churnFirst) + int64(k)*int64(churnEvery)
		if at > end-int64(churnTail) {
			break
		}
		if d := at - nanotime(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		out = append(out, applyEvent(rig, events, version, rep))
	}
	return out
}

type dpMetrics struct{ encodes, sends uint64 }

func (rig *itchRig) metrics() dpMetrics {
	return dpMetrics{
		encodes: rig.sw.Metric("camus_dataplane_group_encodes_total"),
		sends:   rig.sw.Metric("camus_dataplane_group_sends_total"),
	}
}

// openLatency reports delivery latency over datagrams that produced
// egress, with queueing and service split out, and the worst lane stall
// that overlapped a SetSubscriptions call.
func openLatency(rep *report, ps []*phase, events []appliedEvent) {
	var lat, queue, service, late []float64
	var n, stallMax int64
	for _, p := range ps {
		for i := 0; i < p.served; i++ {
			r := &p.recs[i]
			n++
			q := r.read - r.due
			queue = append(queue, float64(q)/1e3)
			if r.writes > 0 {
				lat = append(lat, float64(r.last-r.due)/1e3)
				service = append(service, float64(r.last-r.read)/1e3)
			}
			if i == 0 || p.recs[i-1].done <= r.due {
				late = append(late, float64(q)/1e3) // the lane was idle: pure generator lateness
			}
			for _, e := range events {
				if r.read < e.end && r.done > e.start && r.done-r.read > stallMax {
					stallMax = r.done - r.read
				}
			}
		}
	}
	rep.metrics["dataplane.queue_us_p50"] = quantile(queue, 0.5)
	rep.metrics["dataplane.queue_us_p99"] = quantile(queue, 0.99)
	rep.metrics["dataplane.service_us_p50"] = quantile(service, 0.5)
	rep.metrics["dataplane.churn_stall_us_max"] = float64(stallMax) / 1e3
	rep.note("open loop: %d datagrams, %d with egress (latency samples), latency p50 %.1f us, p99 %.0f us (not gated, see README); generator lateness p50 %.1f us, p99 %.1f us over %d idle arrivals",
		n, len(lat), quantile(lat, 0.5), quantile(lat, 0.99), quantile(late, 0.5), quantile(late, 0.99), len(late))
}

// checkSets compares every recorded message's delivered port set with
// the reference. Without events the initial rule set is the reference;
// with events, a datagram must match one rule-set version as a whole —
// the version installed when it was read, or a later one whose
// SetSubscriptions call overlapped its processing — never a mix.
func checkSets(rep *report, in *itchInputs, p *phase, events []churnEvent, applied []appliedEvent, what string) {
	wantFor := func(v int, g int32, m int) portSet {
		if v == 0 {
			return in.want[int(g)*msgsPerDgram+m]
		}
		return events[v-1].ref.ports(in.fields[g][m])
	}
	bad := 0
	for i := 0; i < p.served; i++ {
		r := &p.recs[i]
		lo, hi := 0, 0
		for _, a := range applied {
			if a.end <= r.read {
				lo = a.version
			}
			if a.start < r.done {
				hi = a.version
			}
		}
		ok := false
		for v := lo; v <= hi && !ok; v++ {
			ok = true
			for m := 0; m < msgsPerDgram; m++ {
				if p.sets[i*msgsPerDgram+m] != wantFor(v, r.g, m) {
					ok = false
					break
				}
			}
		}
		if !ok {
			if bad == 0 {
				var want []portSet
				for m := 0; m < msgsPerDgram; m++ {
					want = append(want, wantFor(lo, r.g, m))
				}
				rep.fail("%s: datagram %d delivered %v, reference (version %d of %d..%d) %v", what, r.g,
					p.sets[i*msgsPerDgram:(i+1)*msgsPerDgram], lo, lo, hi, want)
			}
			bad++
		}
	}
	if bad > 0 {
		rep.fail("%s: %d of %d datagrams delivered to the wrong ports", what, bad, p.served)
	}
}

// checkStreams checks every port's stream after the switch stopped: the
// sequence was dense throughout, and — where the rule set never changed —
// each port received exactly the reference's message count for every
// datagram served in every phase.
func checkStreams(rep *report, rig *itchRig, counts bool) {
	in := rig.in
	var want []uint64
	if counts {
		want = make([]uint64, hosts+1)
		for _, c := range rig.conns {
			for i, g := range c.part {
				times := uint64(c.times[i])
				if times == 0 {
					continue
				}
				for m := 0; m < msgsPerDgram; m++ {
					in.want[int(g)*msgsPerDgram+m].each(func(p int) { want[p] += times })
				}
			}
		}
	}
	var delivered uint64
	for p := 1; p <= hosts; p++ {
		t := &rig.sink.ports[p]
		delivered += t.msgs
		if t.bad > 0 || len(t.pending) > 0 || t.next-1 != t.msgs {
			rep.fail("port %d: sequence not dense (%d out of order, %d pending, next %d after %d messages)", p, t.bad, len(t.pending), t.next, t.msgs)
		}
		if counts && t.msgs != want[p] {
			rep.fail("port %d: delivered %d messages, reference %d", p, t.msgs, want[p])
		}
	}
	for _, c := range rig.conns {
		if c.bad > 0 {
			rep.fail("lane %d: %d delivered messages not from the datagram in flight or not byte-identical", c.lane, c.bad)
		}
	}
	if s := rig.sink.stray; s != [3]uint64{} {
		rep.fail("stray egress frames: %d short, %d to unknown ports, %d outside a datagram", s[0], s[1], s[2])
	}
	rep.note("delivered %d messages over %d ports", delivered, hosts)
}

// shapeNotes records the workload's measured shape from the reference.
func shapeNotes(in *itchInputs, rep *report) {
	var matched, ports, frames int
	for g := range in.wires {
		var touched portSet
		for m := 0; m < msgsPerDgram; m++ {
			s := in.want[g*msgsPerDgram+m]
			if !s.empty() {
				matched++
				ports += s.count()
			}
			for w := range touched {
				touched[w] |= s[w]
			}
		}
		frames += touched.count()
	}
	msgs := len(in.wires) * msgsPerDgram
	ppm := 0.0
	if matched > 0 {
		ppm = float64(ports) / float64(matched)
	}
	rep.metrics["pipeline.ports_per_msg"] = ppm
	rep.note("shape: %d rules over %d symbols, feed %d datagrams / %d messages over %d symbols, match %.1f%%, %.1f ports per matched message, %.1f ports touched per datagram",
		len(in.rules), in.shape.stocks, len(in.wires), msgs, in.shape.feedSymbols+1,
		100*float64(matched)/float64(msgs), ppm, float64(frames)/float64(len(in.wires)))
}

// traceITCH measures, outside the switch, the layers that run inside it
// and cannot be wrapped: the same public functions on the same inputs.
func traceITCH(rep *report, in *itchInputs, events []churnEvent, applied []appliedEvent, rig *itchRig) {
	tr := rep.tracer
	for _, c := range rig.conns {
		tr.merge(c.spans)
	}
	sp := workload.ITCHSpec()
	sb := newSpanBuf(64)

	// lang and compiler on the initial rule set.
	t := nanotime()
	if _, err := lang.ParseRules(in.src); err != nil {
		rep.fail("lang.ParseRules: %v", err)
	}
	t1 := nanotime()
	sb.add("lang.parse", 0, -1, t, t1)
	if _, err := compiler.CompileSource(sp, in.src, compiler.Options{}); err != nil {
		rep.fail("compiler.CompileSource: %v", err)
	}
	t2 := nanotime()
	sb.add("compiler.compile", 0, -1, t1, t2)
	rep.metrics["lang.parse_ms"] = float64(t1-t) / 1e6
	rep.metrics["compiler.compile_ms"] = float64(t2-t1) / 1e6

	// A twin deployment: decode, extract and match per datagram, each a
	// span under the datagram's core span.
	twin, err := core.NewPubSub(sp, core.Config{})
	if err == nil {
		_, err = twin.SetSubscriptions(in.src)
	}
	if err != nil {
		rep.fail("twin deployment: %v", err)
		return
	}
	proc := twin.NewProcessor()
	replay := newSpanBuf(3 * replaySpans)
	var order itch.AddOrder
	orders := make([]itch.AddOrder, 0, msgsPerDgram)
	var coreNs, decodeNs, matchNs, msgs int64
	dgrams := 0
	deadline := nanotime() + int64(time.Second)
	for pass := 0; nanotime() < deadline || pass == 0; pass++ {
		for g, w := range in.wires {
			id := int64(pass*len(in.wires) + g)
			s0 := nanotime()
			orders = orders[:0]
			if err := itch.DecodeAddOrders(w, &order, func(o *itch.AddOrder, _ []byte) { orders = append(orders, *o) }); err != nil {
				rep.fail("itch.DecodeAddOrders: %v", err)
				return
			}
			s1 := nanotime()
			proc.Begin()
			for i := range orders {
				proc.Add(&orders[i])
			}
			s2 := nanotime()
			proc.Flush(time.Duration(s2))
			s3 := nanotime()
			if id < replaySpans {
				root := replay.add("core.process", id, -1, s0, s3)
				replay.add("itch.decode", id, root, s0, s1)
				replay.add("pipeline.match", id, root, s2, s3)
			}
			coreNs += s3 - s0
			decodeNs += s1 - s0
			matchNs += s3 - s2
			msgs += int64(len(orders))
			dgrams++
		}
	}
	rep.metrics["core.ns_per_dgram"] = float64(coreNs) / float64(dgrams)
	rep.metrics["itch.decode_ns_per_msg"] = float64(decodeNs) / float64(msgs)
	rep.metrics["pipeline.match_ns_per_msg"] = float64(matchNs) / float64(msgs)
	lane := rep.metrics["dataplane.lane_ns_per_dgram"]
	egress := rep.metrics["dataplane.egress_ns_per_dgram"]
	coreDg := rep.metrics["core.ns_per_dgram"]
	rep.metrics["dataplane.frame_ns_per_dgram"] = lane - coreDg - egress

	// Churn: each applied event's rule set, compiled alone and diffed on
	// the twin, splits SetSubscriptions into compile and install.
	tr.merge(replay)
	var installs, writes []float64
	for _, a := range applied {
		src := events[a.version-1].src
		setSpan := sb.add("dataplane.set_subscriptions", int64(a.version), -1, a.start, a.end)
		c0 := nanotime()
		if _, err := lang.ParseRules(src); err != nil {
			rep.fail("lang.ParseRules: %v", err)
		}
		c1 := nanotime()
		if _, err := compiler.CompileSource(sp, src, compiler.Options{}); err != nil {
			rep.fail("compiler.CompileSource: %v", err)
		}
		c2 := nanotime()
		// The outside compile is placed inside the event's span so the
		// event's self time is what SetSubscriptions spent beyond it.
		sb.add("compiler.compile", int64(a.version), setSpan, a.start, a.start+(c2-c1))
		sb.add("lang.parse", int64(a.version), -1, c0, c1)
		installs = append(installs, float64((a.end-a.start)-(c2-c1))/1e6)
		d0 := nanotime()
		delta, err := twin.SetSubscriptions(src)
		sb.add("core.set_subscriptions", int64(a.version), -1, d0, nanotime())
		if err != nil {
			rep.fail("twin SetSubscriptions: %v", err)
			continue
		}
		writes = append(writes, float64(delta.Writes()))
	}
	rep.metrics["controlplane.install_ms"] = median(installs)
	rep.metrics["controlplane.delta_writes"] = median(writes)
	tr.merge(sb)

	decodeDg := rep.metrics["itch.decode_ns_per_msg"] * msgsPerDgram
	matchDg := rep.metrics["pipeline.match_ns_per_msg"] * msgsPerDgram
	frame := lane - coreDg - egress
	pct := func(v float64) float64 { return 100 * v / lane }
	const perDg = "ns/dgram"
	tr.breakdown = []share{
		{"dataplane.egress", egress, perDg, pct(egress), "measured: first to last egress write (sampled datagrams)"},
		{"dataplane.frame", frame, perDg, pct(frame), "derived: lane - core - egress (grouping, framing, sequencing, retx)"},
		{"itch.decode", decodeDg, perDg, pct(decodeDg), "replayed outside: itch.DecodeAddOrders"},
		{"core.extract", coreDg - decodeDg - matchDg, perDg, pct(coreDg - decodeDg - matchDg), "replayed outside: Processor.Add"},
		{"pipeline.match", matchDg, perDg, pct(matchDg), "replayed outside: Processor.Flush (ProcessBatchOn)"},
		{"dataplane.lane (total)", lane, perDg, 100, "measured: ReadFromUDP return to the next read, closed loop"},
	}
	if len(applied) > 0 {
		var set, install float64
		for i, a := range applied {
			set += float64(a.end-a.start) / 1e6
			install += installs[i]
		}
		n := float64(len(applied))
		tr.breakdown = append(tr.breakdown,
			share{"compiler (within SetSubscriptions)", (set - install) / n, "ms/event", 100 * (set - install) / set, "compile of the same rule set outside the switch"},
			share{"controlplane+dataplane (within)", install / n, "ms/event", 100 * install / set, "SetSubscriptions minus that compile"},
			share{"SetSubscriptions (total)", set / n, "ms/event", 100, "measured on the live switch"})
	}
	for _, k := range []string{"pipeline.state_ns_per_pkt", "pipeline.state_update_ns", "pipeline.state_read_ns", "pipeline.state_cells", "pipeline.state_evict_expired"} {
		rep.metrics[k] = 0 // no keyed state in the ITCH rule sets
	}
}
